// Pending-event set for the discrete-event simulator: a two-tier
// scheduler behind one `EventQueue` API.
//
// Tier 1 — hierarchical timing wheel. The dominant scheduling pattern
// at paper scale is schedule-at-small-delta (network deliveries,
// service completions, credit/feedback ticks), which a hierarchical
// timing wheel serves with O(1) push and O(1) amortized pop: four
// power-of-two-spaced levels of 256 slots each, a 4.096 us granule at
// level 0, per-slot intrusive doubly-linked lists threaded through the
// slot table by index (no pointers, no per-node allocation), bitmap
// occupancy words for find-next-slot, and lazy cascade — an event is
// only relinked to a lower level when the cursor reaches its bucket.
//
// Tier 2 — the 4-ary generation-validated indirect heap retained from
// the dense-ID refactor. It takes everything the wheel cannot: events
// beyond the wheel horizon (~4.8 h), events scheduled before the wheel
// cursor (legal for the standalone queue; the simulator never does
// this), and is the natural home for far-deadline watchdogs. Both
// tiers share the slot table, the sequence counter, and the EventId
// generation discipline, so cancellation stays O(1) in the wheel and
// O(log n) in the heap with ids never observably reused.
//
// Ordering. `pop()` removes one event at a time, interleaving both
// tiers in exact (time, sequence) order — the stability that makes
// whole simulations bit-reproducible. A wheel slot can hold several
// distinct timestamps (the granule is coarser than 1 ns), so a slot is
// drained into a small sorted "ready run" which is then merge-popped
// against the heap top; same-timestamp events come out in scheduling
// order by construction. An event stays in its slot until it is
// popped, so its id cancels up to that moment.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace brb::sim {

/// Identifies a scheduled event for cancellation. Encodes a slot index
/// plus a per-slot generation, so ids are never observably reused: a
/// stale id (event already executed or cancelled) fails generation
/// validation. 0 is never a valid id.
using EventId = std::uint64_t;

class EventQueue {
 public:
  using Callback = SmallFn;

  struct Entry {
    Time when;
    EventId id = 0;
    Callback fn;
  };

  EventQueue();

  /// Adds an event; returns its id. O(1) for deltas within the wheel
  /// horizon, O(log n) for far/past events (heap tier); allocation-free
  /// once the slot table has grown to the steady-state pending count.
  /// Accepts any callable and constructs the callback directly in its
  /// slot (no intermediate SmallFn move on the hot path).
  template <typename F>
  EventId push(Time when, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.fn.assign(std::forward<F>(fn));
    ++s.generation;  // even -> odd: occupied
    s.when = when;
    s.seq = next_seq_++;
    const EventId id = make_id(slot, s.generation);
    place(slot);
    ++live_;
    return id;
  }

  /// Cancels a pending event. Returns false if the id is unknown,
  /// already executed, or already cancelled. O(1) for wheel-resident
  /// events (intrusive-list unlink), O(log n) for heap-tier events.
  bool cancel(EventId id);

  /// Time of the earliest live event, if any. May lazily cascade wheel
  /// levels (amortized O(1); never changes observable order).
  std::optional<Time> peek_time();

  /// Removes and returns the earliest live event; empty when drained.
  std::optional<Entry> pop();

  /// Number of live events.
  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  /// Drops every pending event.
  void clear();

  /// Events currently resident in the wheel tier (observability/tests).
  std::size_t wheel_resident() const noexcept { return wheel_count_; }
  /// Events currently resident in the heap tier (observability/tests).
  std::size_t heap_resident() const noexcept { return heap_.size(); }

  // --- wheel geometry (exposed for tests and the micro-bench) ---
  /// log2 of the level-0 slot width in nanoseconds (4.096 us).
  static constexpr int kGranularityBits = 12;
  /// log2 of the slots per level.
  static constexpr int kLevelBits = 8;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr int kLevels = 4;
  /// Ticks covered by the whole wheel (beyond this: heap tier).
  static constexpr std::int64_t kWheelSpanTicks = std::int64_t{1} << (kLevelBits * kLevels);

 private:
  /// Where a pending event currently lives.
  enum class Tier : std::uint8_t {
    kWheel,  // linked into a wheel slot list
    kHeap,   // indexed by heap_pos in heap_
    kReady,  // in the sorted ready run (current wheel bucket, drained)
  };

  static constexpr std::uint32_t kNil = 0xffff'ffffu;

  /// Stable home of a pending event: callback, ordering key, and the
  /// per-tier location needed for O(1)/O(log n) cancellation.
  struct Slot {
    Callback fn;
    Time when;
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;  // odd while occupied
    Tier tier = Tier::kWheel;
    std::uint8_t level = 0;       // wheel tier: level index
    std::uint16_t bucket = 0;     // wheel tier: slot within level
    std::uint32_t prev = kNil;    // wheel tier: intrusive list links
    std::uint32_t next = kNil;
    std::uint32_t heap_pos = 0;   // heap tier
  };

  /// One entry of the ready run: the event's ordering key plus the
  /// slot generation it was drained at, so an entry whose event was
  /// cancelled meanwhile is recognised as stale and skipped.
  struct Ready {
    Time when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  /// What the heap actually orders: trivially-copyable, so sifts are
  /// cheap word moves plus one slot position update.
  struct HeapItem {
    Time when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// Heap branching factor: shallower than binary, siblings share
  /// cache lines.
  static constexpr std::size_t kArity = 4;

  static bool later(const HeapItem& a, const HeapItem& b) noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t generation) noexcept {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  static constexpr std::int64_t tick_of(Time t) noexcept {
    // Arithmetic shift: negative times (legal for the standalone queue)
    // round toward -inf, which only matters for the past-goes-to-heap
    // routing decision.
    return t.count_nanos() >> kGranularityBits;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  /// Routes an occupied slot into the right tier based on its time
  /// relative to the wheel cursor.
  void place(std::uint32_t slot);
  void wheel_link(std::uint32_t slot, std::int64_t tick);
  void wheel_unlink(std::uint32_t slot) noexcept;
  void ready_insert(std::uint32_t slot);

  /// Ensures the ready run holds the earliest wheel bucket's events
  /// (sorted); advances the cursor and cascades lazily as needed.
  void ensure_ready();
  /// Drops dead (cancelled) entries from the front of the ready run.
  void skip_dead_ready();
  /// Drains the level-0 bucket at `tick` into the ready run.
  void drain_bucket(std::int64_t tick);
  /// Relinks every event of a level>0 bucket into lower levels.
  void cascade_bucket(int level, std::uint16_t bucket);

  /// Circular distance (in buckets) from `from` to the next occupied
  /// bucket of `level`, searching `from` itself first when `inclusive`.
  /// Returns -1 when the level is empty.
  int next_occupied(int level, std::uint32_t from, bool inclusive) const noexcept;

  // Heap tier (unchanged from the dense-ID refactor).
  void heap_link(std::uint32_t slot);
  void heap_remove_at(std::size_t pos);
  void heap_place(std::size_t pos, HeapItem item) noexcept;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;

  // Wheel tier.
  std::array<std::uint32_t, kLevels * kSlotsPerLevel> head_;
  std::array<std::uint32_t, kLevels * kSlotsPerLevel> tail_;
  std::array<std::uint64_t, kLevels*(kSlotsPerLevel / 64)> bitmap_;
  std::int64_t cursor_tick_ = 0;
  std::size_t wheel_count_ = 0;
  /// Per-level lower bound on the earliest occupied bucket's start
  /// tick (INT64_MAX when no bound). Links tighten it; removals may
  /// leave it stale-low, which only costs one extra bitmap scan the
  /// next time the level looks like the minimum — it is never
  /// stale-high, so no candidate can be missed.
  std::array<std::int64_t, kLevels> level_hint_;

  // Ready run: the drained current bucket, sorted by (when, seq).
  // `ready_pos_` avoids erase-from-front churn.
  std::vector<Ready> ready_;
  std::size_t ready_pos_ = 0;

  // Heap tier.
  std::vector<HeapItem> heap_;
};

}  // namespace brb::sim
