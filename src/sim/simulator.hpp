// The discrete-event simulation core.
//
// A `Simulator` owns the simulated clock, the pending-event set and the
// run's network message pool. Components post typed event records
// (sim/event_queue.hpp) at absolute or relative times; `run()` pops
// one event at a time in (time, scheduling-order) sequence and
// dispatches it with one switch over the event kinds, so an event can
// cancel a same-instant peer scheduled after it, and a `stop()` leaves
// those peers pending for the next run. A component that receives
// events registers itself once with `attach`; the record's `target`
// is that registration. The engine is single-threaded by design —
// determinism is a feature of the evaluation methodology (the paper
// repeats runs over seeds, which requires bit-stable replay per seed).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "net/message.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace brb::sim {

/// Thrown when a component schedules an event before the current
/// simulated instant.
class ScheduleInPastError : public std::logic_error {
 public:
  explicit ScheduleInPastError(Time now, Time requested)
      : std::logic_error("event scheduled in the past: now=" + to_string(now) +
                         " requested=" + to_string(requested)) {}
};

/// A callable the callable path accepts: trivially copyable and no
/// larger than an event's payload.
template <typename F>
concept PayloadCallable = std::is_trivially_copyable_v<F> && sizeof(F) <= sizeof(std::uint64_t) &&
                          alignof(F) <= alignof(std::uint64_t) && std::is_invocable_v<F&>;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated instant.
  Time now() const noexcept { return now_; }

  /// Posts `event` at absolute time `t` (>= now, else throws).
  EventId post_at(Time t, Event event) {
    if (t < now_) throw ScheduleInPastError(now_, t);
    return queue_.push(t, event);
  }

  /// Posts `event` after a non-negative delay.
  EventId post_after(Duration delay, Event event) { return post_at(now_ + delay, event); }

  /// Registers `actor` as the handler of the events whose `target` is
  /// the returned index. The actor must outlive its pending events and
  /// must not move while any is pending.
  template <typename T>
  std::uint32_t attach(T& actor) {
    actors_.push_back(&actor);
    return static_cast<std::uint32_t>(actors_.size() - 1);
  }

  /// The callable path, for tests, examples and benches: `fn` travels
  /// in the record's payload and runs when the event fires.
  template <PayloadCallable F>
  Event callable(F fn) {
    Event event{EventKind::kCallable, thunk_index(&invoke<F>), 0};
    std::memcpy(&event.payload, &fn, sizeof(F));
    return event;
  }
  template <PayloadCallable F>
  EventId schedule_at(Time t, F fn) {
    return post_at(t, callable(fn));
  }
  template <PayloadCallable F>
  EventId schedule_after(Duration delay, F fn) {
    return post_after(delay, callable(fn));
  }

  /// Cancels a pending event; returns false if it already ran or was
  /// already cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event set drains or `stop()` is called.
  /// Returns the number of events executed by this call.
  std::uint64_t run();

  /// Runs events with time <= `until`; afterwards now() == max(now, until)
  /// unless stopped early. Returns events executed by this call.
  std::uint64_t run_until(Time until);

  /// Executes exactly one event if one is pending. Returns true if an
  /// event ran.
  bool step();

  /// Makes run()/run_until() return after the current event finishes.
  void stop() noexcept { stopped_ = true; }

  bool has_pending() const noexcept { return !queue_.empty(); }
  std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Total events executed over the simulator's lifetime.
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// The run's network messages; a delivery frees its slot after its
  /// handler returns.
  net::MessagePool& messages() noexcept { return messages_; }

 private:
  using Thunk = void (*)(std::uint64_t payload);

  template <typename F>
  static void invoke(std::uint64_t payload) {
    std::array<unsigned char, sizeof(F)> bytes{};
    std::memcpy(bytes.data(), &payload, sizeof(F));
    std::bit_cast<F>(bytes)();
  }
  /// A run schedules a handful of callable types, so a scan suffices.
  std::uint32_t thunk_index(Thunk thunk) {
    for (std::uint32_t i = 0; i < thunks_.size(); ++i) {
      if (thunks_[i] == thunk) return i;
    }
    thunks_.push_back(thunk);
    return static_cast<std::uint32_t>(thunks_.size() - 1);
  }
  template <typename T>
  T& actor(std::uint32_t target) const noexcept {
    return *static_cast<T*>(actors_[target]);
  }
  /// The one switch from an event record to its handler.
  void dispatch(const Event& event);

  EventQueue queue_;
  net::MessagePool messages_;
  std::vector<void*> actors_;
  std::vector<Thunk> thunks_;
  Time now_ = Time::zero();
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace brb::sim
