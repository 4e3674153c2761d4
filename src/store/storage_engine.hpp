// In-memory value-size index.
//
// Each backend server owns one engine holding the replicas of its
// partitions. The simulator needs only value *sizes* (they drive
// service time), and the server looks one up for every read it serves.
//
// A generated workload's sizes are one dense array (datasets number
// keys 0..N-1) that every replica shares read-only as its base: key k
// below the base's length has size base[k]. Which keys reach a replica
// is decided by routing (a client sends a key only to its group's
// replicas), so the engine answers every base key. On top of the base
// each engine keeps a flat open-addressed table of its own writes and
// of keys outside the base (raw 64-bit trace keys, hand-placed test
// keys): power-of-two capacity, multiplicative hashing, linear
// probing. The table shadows the base, never allocates per key or
// divides on lookup, and keys are never erased, so it needs no
// tombstones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "store/types.hpp"

namespace brb::store {

class StorageEngine {
 public:
  /// Shares `base` (key -> size for keys below its length) as this
  /// replica's initial contents. The engine never writes to it; the
  /// caller keeps it alive for the engine's lifetime and attaches it
  /// before the server serves.
  void attach_base(std::span<const std::uint32_t> base) noexcept { base_ = base; }

  /// Inserts a key or replaces its size in this replica's write table.
  void put_meta(KeyId key, std::uint32_t size_bytes);

  /// Size lookup: this replica's last write of `key`, else its base
  /// size; nullopt when the key is in neither.
  std::optional<std::uint32_t> size_of(KeyId key) const {
    if (table_keys_ != 0) {
      const Slot& slot = slots_[probe(key)];
      if (slot.used != 0) return slot.size;
    }
    if (key < base_.size()) return base_[key];
    return std::nullopt;
  }

  /// Bumped by every put_meta: a size read while the version is
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

  /// Shared read-only sizes; empty when none is attached.
  std::span<const std::uint32_t> base_;
  /// Open-addressed write table; capacity 0 or a power of two, at most
  /// 3/4 full. Iterated only to rehash, so its layout cannot reach
  /// service order or artifacts.
  std::vector<Slot> slots_;
  std::size_t table_keys_ = 0;
  int shift_ = 64;
  std::uint64_t version_ = 0;
};

}  // namespace brb::store
