#include "store/storage_engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace brb::store {

void StorageEngine::put_meta(KeyId key, std::uint32_t size_bytes) {
  ++version_;
  if (table_keys_ != 0) {
    Slot& slot = slots_[probe(key)];
    if (slot.used != 0) {
      slot.size = size_bytes;
      return;
    }
  }
  // Double the table first when this insert would pass 3/4 load.
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
