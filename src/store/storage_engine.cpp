#include "store/storage_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace brb::store {

// Invariant: every stored key lives in exactly one structure — the
// dense size array or the open-addressed table — and stays there,
// except that a dense key overwritten with UINT32_MAX (whose size+1
// does not fit the array's encoding) moves to the table.

void StorageEngine::put_meta(KeyId key, std::uint32_t size_bytes) {
  constexpr std::uint32_t kUnencodable = std::numeric_limits<std::uint32_t>::max();
  ++version_;
  if (key < dense_size_plus1_.size() && dense_size_plus1_[key] != 0) {
    std::uint32_t& plus1 = dense_size_plus1_[key];
    stored_bytes_ = stored_bytes_ - (plus1 - 1) + size_bytes;
    if (size_bytes != kUnencodable) {
      plus1 = size_bytes + 1;
      return;
    }
    plus1 = 0;
    table_insert(key, size_bytes);
    return;
  }
  if (table_keys_ != 0) {
    Slot& slot = slots_[probe(key)];
    if (slot.used != 0) {
      stored_bytes_ = stored_bytes_ - slot.size + size_bytes;
      slot.size = size_bytes;
      return;
    }
  }
  ++num_keys_;
  stored_bytes_ += size_bytes;
  if (key < kDenseLimit && size_bytes != kUnencodable &&
      (key < dense_size_plus1_.size() ||
       key < kDenseGrowthAllowance + kDenseGrowthFactor * num_keys_)) {
    if (key >= dense_size_plus1_.size()) dense_size_plus1_.resize(key + 1, 0);
    dense_size_plus1_[key] = size_bytes + 1;
    return;
  }
  table_insert(key, size_bytes);
}

void StorageEngine::table_insert(KeyId key, std::uint32_t size_bytes) {
  if ((table_keys_ + 1) * 4 > slots_.size() * 3) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max(kMinSlots, old.size() * 2), Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.used != 0) slots_[probe(slot.key)] = slot;
    }
  }
  slots_[probe(key)] = Slot{key, size_bytes, 1};
  ++table_keys_;
}

}  // namespace brb::store
