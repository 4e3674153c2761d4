// Tests for the discrete-event engine: ordering, stability,
// cancellation, clock semantics.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "deferred.hpp"

namespace brb::sim {
namespace {

using namespace brb::sim::literals;

TEST(Time, ArithmeticRoundTrips) {
  const Time t = Time::micros(100);
  const Duration d = Duration::micros(50);
  EXPECT_EQ((t + d).count_nanos(), 150'000);
  EXPECT_EQ((t + d) - d, t);
  EXPECT_EQ((t + d) - t, d);
}

TEST(Time, Literals) {
  EXPECT_EQ((5_us).count_nanos(), 5'000);
  EXPECT_EQ((2_ms).count_nanos(), 2'000'000);
  EXPECT_EQ((1_s).count_nanos(), 1'000'000'000);
  EXPECT_EQ((7_ns).count_nanos(), 7);
}

TEST(Time, Comparisons) {
  EXPECT_LT(Time::micros(1), Time::micros(2));
  EXPECT_LE(Duration::zero(), Duration::nanos(0));
  EXPECT_GT(Duration::seconds(1), Duration::millis(999));
}

TEST(Time, DurationScaling) {
  EXPECT_EQ((Duration::micros(100) * 2.5).count_nanos(), 250'000);
  EXPECT_EQ((Duration::micros(100) / 4.0).count_nanos(), 25'000);
  EXPECT_DOUBLE_EQ(Duration::millis(3) / Duration::millis(1), 3.0);
}

TEST(Time, ToStringPicksScale) {
  EXPECT_EQ(to_string(Duration::nanos(5)), "5ns");
  EXPECT_EQ(to_string(Duration::micros(42)), "42.000us");
  EXPECT_EQ(to_string(Duration::millis(1.5)), "1.500ms");
  EXPECT_EQ(to_string(Duration::seconds(2)), "2.000s");
}

/// A record tagged with `tag`, to tell popped events apart.
Event tagged(std::uint64_t tag) { return {EventKind::kCallable, 0, tag}; }

/// Pops every event; returns their tags in pop order.
std::vector<std::uint64_t> drain(EventQueue& q) {
  std::vector<std::uint64_t> tags;
  while (auto e = q.pop()) tags.push_back(e->event.payload);
  return tags;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(Time::micros(30), tagged(3));
  q.push(Time::micros(10), tagged(1));
  q.push(Time::micros(20), tagged(2));
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimes) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) q.push(Time::micros(5), tagged(i));
  const std::vector<std::uint64_t> order = drain(q);
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_EQ(order[i], i);
}

TEST(EventQueue, PopReturnsTheRecordPushed) {
  EventQueue q;
  const Event event{EventKind::kHedgeFire, 7, 0xfeed'beef'0000'0001};
  const EventId id = q.push(Time::micros(4), event);
  const auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->when, Time::micros(4));
  EXPECT_EQ(e->id, id);
  EXPECT_EQ(e->event.kind, event.kind);
  EXPECT_EQ(e->event.target, event.target);
  EXPECT_EQ(e->event.payload, event.payload);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  const EventId id = q.push(Time::micros(1), tagged(1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(Time::micros(1), tagged(1));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  q.push(Time::micros(1), tagged(1));
  const EventId id = q.push(Time::micros(2), tagged(2));
  q.push(Time::micros(3), tagged(3));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 3}));
}

TEST(EventQueue, PeekTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(Time::micros(1), tagged(1));
  q.push(Time::micros(2), tagged(2));
  EXPECT_TRUE(q.cancel(early));
  ASSERT_TRUE(q.peek_time().has_value());
  EXPECT_EQ(*q.peek_time(), Time::micros(2));
}

TEST(EventQueue, RandomizedOrderingProperty) {
  util::Rng rng(99);
  EventQueue q;
  for (int i = 0; i < 5000; ++i) {
    q.push(Time::nanos(rng.uniform_int(0, 1000)), tagged(0));
  }
  Time last = Time::zero();
  std::size_t popped = 0;
  while (auto e = q.pop()) {
    ASSERT_GE(e->when, last);
    last = e->when;
    ++popped;
  }
  EXPECT_EQ(popped, 5000u);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  testutil::Deferred later;
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule_at(Time::micros(123), later([&] { seen = sim.now(); }));
  sim.run();
  EXPECT_EQ(seen, Time::micros(123));
  EXPECT_EQ(sim.now(), Time::micros(123));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  testutil::Deferred later;
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule_at(Time::micros(10), later([&] {
    sim.schedule_after(Duration::micros(5),
                       later([&] { times.push_back(sim.now().count_nanos()); }));
  }));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 15'000);
}

TEST(Simulator, ThrowsOnSchedulingInPast) {
  Simulator sim;
  sim.schedule_at(Time::micros(10), [&] {
    EXPECT_THROW(sim.schedule_at(Time::micros(5), [] {}), ScheduleInPastError);
    EXPECT_THROW(sim.schedule_after(Duration::micros(1) - Duration::micros(2), [] {}),
                 ScheduleInPastError);
  });
  sim.run();
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::micros(10), [&] { ++fired; });
  sim.schedule_at(Time::micros(20), [&] { ++fired; });
  sim.schedule_at(Time::micros(30), [&] { ++fired; });
  const auto executed = sim.run_until(Time::micros(20));
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Time::micros(20));
  EXPECT_TRUE(sim.has_pending());
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(Time::millis(5));
  EXPECT_EQ(sim.now(), Time::millis(5));
}

TEST(Simulator, SchedulesAfterRunUntilRunBeforeThePeekedEvent) {
  // run_until's peek drains the later event's wheel bucket, which moves
  // the queue's cursor past now(). Events scheduled afterwards at now(),
  // between the stop time and that event, and in its own 4.096 us
  // granule must still run first, in time order.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::millis(10), [&] { order.push_back(4); });
  EXPECT_EQ(sim.run_until(Time::millis(1)), 0u);
  EXPECT_EQ(sim.now(), Time::millis(1));

  sim.schedule_at(Time::millis(10) - Duration::micros(1), [&] { order.push_back(3); });
  sim.schedule_at(Time::millis(5), [&] { order.push_back(2); });
  sim.schedule_at(sim.now(), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), Time::millis(10));
}

TEST(Simulator, StopPreemptsRemainingEvents) {
  testutil::Deferred later;
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::micros(1), later([&] {
    ++fired;
    sim.stop();
  }));
  sim.schedule_at(Time::micros(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.has_pending());
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::micros(1), [&] { ++fired; });
  sim.schedule_at(Time::micros(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsProcessedAccumulates) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(Time::micros(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(Simulator, CancelledEventNeverRuns) {
  testutil::Deferred later;
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(Time::micros(5), [&] { ++fired; });
  sim.schedule_at(Time::micros(1), later([&] { EXPECT_TRUE(sim.cancel(id)); }));
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, SameInstantEventsRunInScheduleOrder) {
  testutil::Deferred later;
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(Time::micros(7), later([&order, i] { order.push_back(i); }));
  }
  sim.run();
  for (int i = 0; i < 50; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingAtSameInstantRunsAfterEarlierPeers) {
  testutil::Deferred later;
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::micros(1), later([&] {
    order.push_back(1);
    // Same-time event scheduled mid-execution runs after already-queued
    // peers at that instant (sequence order).
    sim.schedule_at(Time::micros(1), [&] { order.push_back(3); });
  }));
  sim.schedule_at(Time::micros(1), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, HandlerSchedulingAtNowGetsItsOwnFreedSlot) {
  // step() releases an event's slot before dispatching it, so a handler
  // that schedules at now() reuses that slot under a new generation.
  // The new event runs after the instant's earlier peers, and the
  // handler's own id no longer cancels anything.
  testutil::Deferred later;
  Simulator sim;
  std::vector<int> order;
  EventId self = 0;
  EventId again = 0;
  self = sim.schedule_at(Time::micros(2), later([&] {
    order.push_back(1);
    again = sim.schedule_at(sim.now(), [&order] { order.push_back(3); });
    EXPECT_FALSE(sim.cancel(self));
  }));
  sim.schedule_at(Time::micros(2), [&order] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(again & 0xffff'ffffu, self & 0xffff'ffffu);  // the same slot
  EXPECT_NE(again, self);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(sim.cancel(self));
  EXPECT_FALSE(sim.cancel(again));
}

TEST(Simulator, CancelOfSameInstantPeerSuppressesIt) {
  testutil::Deferred later;
  Simulator sim;
  std::vector<int> order;
  EventId peer = 0;
  sim.schedule_at(Time::micros(3), later([&] {
    order.push_back(1);
    EXPECT_TRUE(sim.cancel(peer));
  }));
  peer = sim.schedule_at(Time::micros(3), [&] { order.push_back(2); });
  sim.schedule_at(Time::micros(3), [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_FALSE(sim.cancel(peer));
}

TEST(Simulator, StopLeavesSameInstantPeersPendingAndCancellable) {
  testutil::Deferred later;
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::micros(1), [&] { order.push_back(0); });
  sim.schedule_at(Time::micros(4), later([&] {
    order.push_back(1);
    sim.stop();
  }));
  const EventId second = sim.schedule_at(Time::micros(4), [&] { order.push_back(2); });
  sim.schedule_at(Time::micros(4), [&] { order.push_back(3); });
  const EventId fourth = sim.schedule_at(Time::micros(4), [&] { order.push_back(4); });
  sim.schedule_at(Time::micros(9), [&] { order.push_back(5); });

  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.now(), Time::micros(4));
  EXPECT_EQ(sim.pending_events(), 4u);

  EXPECT_TRUE(sim.cancel(second));
  EXPECT_EQ(sim.now(), Time::micros(4));
  EXPECT_EQ(sim.pending_events(), 3u);

  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 5}));
  EXPECT_EQ(sim.now(), Time::micros(9));
  EXPECT_EQ(sim.events_processed(), 5u);
  EXPECT_FALSE(sim.cancel(fourth));
}

}  // namespace
}  // namespace brb::sim
