// Remaining engine edge cases: queue size and order, histogram error bounds,
// degenerate network parameters, RNG extremes.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "util/rng.hpp"
#include "deferred.hpp"

namespace brb {
namespace {

using sim::Duration;
using sim::Time;

TEST(EventQueueEdge, SizeTracksCancellations) {
  sim::EventQueue queue;
  const auto a = queue.push(Time::micros(1), sim::Event{});
  const auto b = queue.push(Time::micros(2), sim::Event{});
  EXPECT_EQ(queue.size(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.size(), 1u);
  queue.cancel(b);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueEdge, InterleavedPushPopKeepsOrder) {
  sim::EventQueue queue;
  const auto tagged = [](std::uint64_t tag) {
    return sim::Event{sim::EventKind::kCallable, 0, tag};
  };
  std::vector<std::uint64_t> order;
  queue.push(Time::micros(10), tagged(10));
  queue.push(Time::micros(5), tagged(5));
  auto entry = queue.pop();
  order.push_back(entry->event.payload);  // 5
  queue.push(Time::micros(7), tagged(7));
  queue.push(Time::micros(3), tagged(3));  // "past" is legal here
  while ((entry = queue.pop())) order.push_back(entry->event.payload);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{5, 3, 7, 10}));
}

TEST(SimulatorEdge, RunOnEmptyQueueReturnsZero) {
  sim::Simulator simulator;
  EXPECT_EQ(simulator.run(), 0u);
  EXPECT_EQ(simulator.now(), Time::zero());
}

TEST(SimulatorEdge, ZeroDelayScheduleRunsAtCurrentInstant) {
  testutil::Deferred later;
  sim::Simulator simulator;
  Time seen = Time::max();
  simulator.schedule_at(Time::micros(5), later([&] {
    simulator.schedule_after(Duration::zero(), later([&] { seen = simulator.now(); }));
  }));
  simulator.run();
  EXPECT_EQ(seen, Time::micros(5));
}

TEST(SimulatorEdge, StopThenRunResumes) {
  testutil::Deferred later;
  sim::Simulator simulator;
  int fired = 0;
  simulator.schedule_at(Time::micros(1), later([&] {
    ++fired;
    simulator.stop();
  }));
  simulator.schedule_at(Time::micros(2), [&] { ++fired; });
  simulator.run();
  EXPECT_EQ(fired, 1);
  simulator.run();  // resumes with the remaining event
  EXPECT_EQ(fired, 2);
}

TEST(HistogramEdge, RelativeErrorBoundIsAdvertised) {
  stats::Histogram h3(1'000'000'000, 3);
  EXPECT_LE(h3.max_relative_error(), 1e-3);
  stats::Histogram h1(1'000'000'000, 1);
  EXPECT_LE(h1.max_relative_error(), 1e-1);
  EXPECT_GT(h1.max_relative_error(), h3.max_relative_error());
}

TEST(HistogramEdge, QuantileExtremes) {
  stats::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i * 1000);
  EXPECT_LE(h.value_at_quantile(0.0), 1010);
  EXPECT_GE(h.value_at_quantile(1.0), 99'000);
}

TEST(NetworkEdge, ZeroLatencyDeliversSameInstant) {
  testutil::Deferred later;
  sim::Simulator simulator;
  net::Network network(simulator, {Duration::zero(), Duration::zero()}, util::Rng(1));
  Time delivered = Time::max();
  simulator.schedule_at(Time::micros(3), later([&] {
    network.send(0, 1, 1, simulator.callable(later([&] { delivered = simulator.now(); })));
  }));
  simulator.run();
  EXPECT_EQ(delivered, Time::micros(3));
}

TEST(RngEdge, UniformIntFullRangeDoesNotHang) {
  util::Rng rng(3);
  // Full 64-bit span takes the special path.
  (void)rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max());
}

TEST(RngEdge, BoundedParetoTightBounds) {
  util::Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.bounded_pareto(2.0, 10.0, 11.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LE(v, 11.0);
  }
}

TEST(DurationEdge, NegativeDurationsBehave) {
  const Duration d = Duration::micros(10) - Duration::micros(25);
  EXPECT_TRUE(d.is_negative());
  EXPECT_EQ((-d).count_nanos(), 15'000);
  EXPECT_LT(d, Duration::zero());
}

}  // namespace
}  // namespace brb
