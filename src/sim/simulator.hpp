// The discrete-event simulation core.
//
// A `Simulator` owns the virtual clock and the pending-event set.
// Components schedule closures at absolute or relative times; `run()`
// pops and executes one event at a time in (time, scheduling-order)
// sequence, so an event can cancel a same-instant peer scheduled after
// it, and a `stop()` leaves those peers pending for the next run. The
// engine is single-threaded by design — determinism is a feature of
// the evaluation methodology (the paper repeats runs over seeds, which
// requires bit-stable replay per seed).
#pragma once

#include <cstdint>
#include <stdexcept>

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

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated instant.
  Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now, else throws). Any
  /// callable; constructed in place in the event queue.
  template <typename F>
  EventId schedule_at(Time t, F&& fn) {
    if (t < now_) throw ScheduleInPastError(now_, t);
    return queue_.push(t, std::forward<F>(fn));
  }

  /// Schedules `fn` after a non-negative delay.
  template <typename F>
  EventId schedule_after(Duration delay, F&& fn) {
    if (delay.is_negative()) throw ScheduleInPastError(now_, now_ + delay);
    return queue_.push(now_ + delay, std::forward<F>(fn));
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

 private:
  EventQueue queue_;
  Time now_ = Time::zero();
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

/// Convenience base for simulation components that hold a simulator
/// reference. Non-owning: the simulator must outlive its actors.
class Actor {
 public:
  explicit Actor(Simulator& sim) noexcept : sim_(&sim) {}
  virtual ~Actor() = default;

 protected:
  Simulator& sim() const noexcept { return *sim_; }
  Time now() const noexcept { return sim_->now(); }

 private:
  Simulator* sim_;
};

}  // namespace brb::sim
