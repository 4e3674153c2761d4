// In-memory value-size index.
//
// Each backend server owns one engine holding the replicas of its
// partitions. The simulator needs only value *sizes* (they drive
// service time), and the server looks one up for every read it serves.
//
// Workload keys are small dense integers (datasets number keys
// 0..N-1), so a server holding a dense slice of the keyspace keeps its
// sizes in a flat array indexed by key. Every other key — a sparse
// slice of a large keyspace, raw 64-bit trace keys, UINT32_MAX-sized
// values — lives in a flat open-addressed table: power-of-two
// capacity, multiplicative hashing, linear probing. Neither structure
// allocates per key or divides on lookup, and keys are never erased,
// so the table needs no tombstones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "store/types.hpp"

namespace brb::store {

class StorageEngine {
 public:
  /// Keys below this bound may use the dense size array.
  static constexpr KeyId kDenseLimit = KeyId{1} << 22;

  /// The dense array only grows while it stays within this factor of
  /// the number of stored keys (plus a free initial allowance). A
  /// server holding a dense slice of the keyspace (paper scale: each
  /// replica stores ~1/3 of all keys, inserted in ascending order)
  /// keeps the array; a server holding a few dozen keys of a huge
  /// keyspace (mega-fleet: 10k servers sharding 100k keys) puts them in
  /// the open-addressed table instead of allocating a keyspace-sized
  /// array per server.
  static constexpr std::uint64_t kDenseGrowthFactor = 8;
  static constexpr std::uint64_t kDenseGrowthAllowance = 1024;

  /// Inserts a key or replaces its size, in place wherever it lives.
  void put_meta(KeyId key, std::uint32_t size_bytes);

  /// Size lookup; nullopt when the key is absent.
  std::optional<std::uint32_t> size_of(KeyId key) const {
    if (key < dense_size_plus1_.size()) {
      const std::uint32_t plus1 = dense_size_plus1_[key];
      if (plus1 != 0) return plus1 - 1;
    }
    if (table_keys_ == 0) return std::nullopt;
    const Slot& slot = slots_[probe(key)];
    if (slot.used == 0) return std::nullopt;
    return slot.size;
  }

  bool contains(KeyId key) const { return size_of(key).has_value(); }

  std::size_t num_keys() const noexcept { return num_keys_; }
  std::uint64_t stored_bytes() const noexcept { return stored_bytes_; }

  /// Bumped by every mutation: a size read while the version is
  /// unchanged is still current.
  std::uint64_t version() const noexcept { return version_; }

 private:
  /// One open-addressed slot (16 bytes; four per cache line).
  struct Slot {
    KeyId key = 0;
    std::uint32_t size = 0;
    std::uint32_t used = 0;
  };
  static_assert(sizeof(Slot) == 16);

  static constexpr std::size_t kMinSlots = 16;

  /// Home slot: the top bits of a Fibonacci (multiplicative) hash.
  std::size_t home(KeyId key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  /// Index of `key`'s slot, or of the unused slot that ends its probe
  /// run. Requires a non-empty table; the load cap keeps a slot free.
  std::size_t probe(KeyId key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i].used != 0 && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }
  /// Adds a key absent from both structures to the table, doubling the
  /// table first when the insert would pass 3/4 load.
  void table_insert(KeyId key, std::uint32_t size_bytes);

  /// dense_size_plus1_[key] = size + 1; 0 means absent (or stored in
  /// the table). UINT32_MAX sizes cannot be encoded and live in the
  /// table.
  std::vector<std::uint32_t> dense_size_plus1_;
  /// Open-addressed table; capacity 0 or a power of two, at most 3/4
  /// full. Iterated only to rehash, so its layout cannot reach service
  /// order or artifacts.
  std::vector<Slot> slots_;
  std::size_t table_keys_ = 0;
  int shift_ = 64;
  std::size_t num_keys_ = 0;
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace brb::store
