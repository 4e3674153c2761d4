// Pending-event set for the discrete-event simulator: one hierarchical
// timing wheel that spans the whole clock.
//
// The dominant scheduling pattern at paper scale is
// schedule-at-small-delta (network deliveries, service completions,
// credit/feedback ticks), which a hierarchical timing wheel serves with
// O(1) push and O(1) amortized pop: seven power-of-two-spaced levels of
// 256 slots each above a 4.096 us granule (12 + 7 x 8 >= 63 bits, so
// every non-negative `Time` is in range; Varghese & Lauck, "Hashed and
// Hierarchical Timing Wheels", SOSP 1987), per-slot intrusive
// doubly-linked lists threaded through the slot table by index (no
// pointers, no per-node allocation), bitmap occupancy words for
// find-next-slot, and lazy cascade — an event is only relinked to a
// lower level when the cursor reaches its bucket.
//
// Ordering. `pop()` removes one event at a time in exact (time,
// sequence) order — the stability that makes whole simulations
// bit-reproducible. A wheel slot can hold several distinct timestamps
// (the granule is coarser than 1 ns), so a slot is drained into a
// small sorted "ready run" that pops from its front. A push at or
// before the cursor's granule (the standalone queue allows times in
// the past; `Simulator::run_until`'s peek can leave the cursor past
// `now()`) is merge-inserted into that run, so same-timestamp events
// come out in scheduling order by construction. An event stays in its
// slot until it is popped, so its id cancels up to that moment, in
// O(1).
//
// Events are data. A pending event is a trivially copyable 16-byte
// record {kind, target, payload}; `Simulator` dispatches it with one
// switch over the closed set of kinds below, so a wheel slot (record,
// ordering key, generation and links) is 48 bytes and a push or pop
// moves no callable.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace brb::sim {

/// Every kind of event the library schedules. `Simulator::dispatch`
/// maps each to its handler; `target` names the handler object (see
/// `Simulator::attach`) and `payload` is the kind's argument. The kinds
/// from kRequestDelivery to kGrant carry a pooled network message.
enum class EventKind : std::uint32_t {
  kCallable,          // tests, examples, benches: payload holds the callable
  kArrival,           // generated-workload arrival pump
  kReplayArrival,     // trace replay: payload = task index
  kStop,              // run watchdog
  kRequestDelivery,   // network -> server: payload = message slot
  kQueueSubmit,       // network -> global queue: payload = message slot
  kResponseDelivery,  // network -> client: payload = message slot
  kDemandReport,      // network -> credits controller: payload = message slot
  kGrant,             // network -> gate: payload = message slot
  kCongestionSignal,  // network -> controller: payload = (server << 32) | queue length
  kServiceDone,       // server: payload = core
  kGateWake,          // cubic gate: payload = server
  kMeasureTick,       // grant gate's demand measurement
  kAdaptTick,         // credits controller's allocation
  kMonitorTick,       // congestion monitor
  kHedgeFire,         // client: payload = logical request
  kPolicyEpoch,       // policy runtime: payload = epoch index
};

/// One pending event.
struct Event {
  EventKind kind = EventKind::kCallable;
  std::uint32_t target = 0;
  std::uint64_t payload = 0;
};
static_assert(sizeof(Event) == 16 && std::is_trivially_copyable_v<Event>);

/// Identifies a scheduled event for cancellation. Encodes a slot index
/// plus a per-slot generation, so ids are never observably reused: a
/// stale id (event already executed or cancelled) fails generation
/// validation. 0 is never a valid id.
using EventId = std::uint64_t;

class EventQueue {
 public:
  struct Entry {
    Time when;
    EventId id = 0;
    Event event;
  };

  EventQueue();

  /// Adds an event; returns its id. O(1) for times past the cursor's
  /// granule, a sorted insert into the ready run otherwise;
  /// allocation-free once the slot table has grown to the steady-state
  /// pending count.
  EventId push(Time when, Event event) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.event = event;
    ++s.generation;  // even -> odd: occupied
    s.when = when;
    s.seq = next_seq_++;
    const EventId id = make_id(slot, s.generation);
    place(slot);
    ++live_;
    return id;
  }

  /// Cancels a pending event. Returns false if the id is unknown,
  /// already executed, or already cancelled. O(1): an intrusive-list
  /// unlink, or a generation bump that the ready run skips lazily.
  bool cancel(EventId id);

  /// Time of the earliest live event, if any. May lazily cascade wheel
  /// levels (amortized O(1); never changes observable order).
  std::optional<Time> peek_time();

  /// Removes and returns the earliest live event; empty when drained.
  /// Its slot is free again before the caller sees the record.
  std::optional<Entry> pop();

  /// Number of live events.
  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  // --- wheel geometry (exposed for tests and the micro-bench) ---
  /// log2 of the level-0 slot width in nanoseconds (4.096 us).
  static constexpr int kGranularityBits = 12;
  /// log2 of the slots per level.
  static constexpr int kLevelBits = 8;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr int kLevels = 7;
  static_assert(kGranularityBits + kLevelBits * kLevels >= 63,
                "the wheel must span every non-negative int64 nanosecond time");
  /// Bytes per wheel slot: the queue's working set per pending event.
  static constexpr std::size_t slot_bytes() noexcept { return sizeof(Slot); }

 private:
  static constexpr std::uint32_t kNil = 0xffff'ffffu;

  /// Stable home of a pending event: record, ordering key, and the
  /// wheel location needed for O(1) cancellation.
  struct Slot {
    Event event;
    Time when;
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;  // odd while occupied
    bool in_ready = false;        // in the sorted ready run, else in the wheel
    std::uint8_t level = 0;       // wheel: level index
    std::uint16_t bucket = 0;     // wheel: slot within level
    std::uint32_t prev = kNil;    // wheel: intrusive list links
    std::uint32_t next = kNil;
  };
  static_assert(sizeof(Slot) <= 48, "a wheel slot must stay within 48 bytes");

  /// One entry of the ready run: the event's ordering key plus the
  /// slot generation it was drained at, so an entry whose event was
  /// cancelled meanwhile is recognised as stale and skipped.
  struct Ready {
    Time when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t generation) noexcept {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  static constexpr std::int64_t tick_of(Time t) noexcept {
    // Arithmetic shift: negative times (legal for the standalone queue)
    // round toward -inf, so they stay at or before the cursor and go
    // to the ready run.
    return t.count_nanos() >> kGranularityBits;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  /// Routes an occupied slot into the ready run or the wheel based on
  /// its time relative to the wheel cursor.
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

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;

  // Wheel.
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
  // `ready_pos_` avoids erase-from-front churn. `ready_live_` counts
  // the run's entries not yet popped or cancelled; at zero the run is
  // spent, so the next insert drops its stale entries.
  std::vector<Ready> ready_;
  std::size_t ready_pos_ = 0;
  std::size_t ready_live_ = 0;
};

}  // namespace brb::sim
