// Regression tests for the dense-ID engine refactor: thread-count
// determinism of artifacts, handle-based O(1) event cancellation, and
// the fixed sizes of the event record and its callable path.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cli/driver.hpp"
#include "cli/sweep_plan.hpp"
#include "core/scenario.hpp"
#include "ctrl/replica_policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "deferred.hpp"

namespace brb {
namespace {

using sim::Event;
using sim::EventId;
using sim::EventQueue;
using sim::Time;

// ---------------------------------------------------------------------------
// EventQueue cancellation (heap-position handles)

TEST(EventQueueCancel, HeavyChurnKeepsOrderAndSize) {
  util::Rng rng(7);
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 20'000; ++i) {
    ids.push_back(q.push(Time::nanos(rng.uniform_int(0, 1'000'000)), Event{}));
  }
  // Cancel every other event, in a scrambled order.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < ids.size(); i += 2) order.push_back(i);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (const std::size_t i : order) ASSERT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), ids.size() / 2);

  Time last = Time::zero();
  std::size_t popped = 0;
  while (auto e = q.pop()) {
    ASSERT_GE(e->when, last);
    last = e->when;
    ++popped;
  }
  EXPECT_EQ(popped, ids.size() / 2);
}

TEST(EventQueueCancel, SizeDropsImmediatelyNoTombstones) {
  // The seed-era queue kept cancelled events as tombstones until they
  // reached the top; the handle-based queue unlinks them eagerly, so
  // size() and pop order agree at every step.
  EventQueue q;
  const EventId a = q.push(Time::micros(1), Event{});
  const EventId b = q.push(Time::micros(2), Event{});
  const EventId c = q.push(Time::micros(3), Event{});
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(q.peek_time().has_value());
  EXPECT_EQ(*q.peek_time(), Time::micros(3));
  EXPECT_TRUE(q.cancel(c));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueueCancel, StaleIdsRejectedAfterSlotReuse) {
  // Generation validation: an executed event's id must not cancel a
  // later event that happens to recycle the same slot.
  EventQueue q;
  const EventId first = q.push(Time::micros(1), Event{});
  ASSERT_TRUE(q.pop().has_value());  // slot returns to the freelist
  const EventId second = q.push(Time::micros(2), Event{sim::EventKind::kCallable, 0, 42});
  EXPECT_EQ(second & 0xffff'ffffu, first & 0xffff'ffffu);  // the same slot
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->event.payload, 42u);
}

TEST(EventQueueCancel, CancelledIdCannotCancelTwiceAcrossReuse) {
  EventQueue q;
  const EventId id = q.push(Time::micros(1), Event{});
  EXPECT_TRUE(q.cancel(id));
  q.push(Time::micros(2), Event{});  // reuses the slot
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueCancel, InterleavedWithSimulatorRun) {
  testutil::Deferred later;
  sim::Simulator simulator;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(
        simulator.schedule_at(Time::micros(10 + i), later([&fired, i] { fired.push_back(i); })));
  }
  simulator.schedule_at(Time::micros(5), later([&] {
    for (int i = 0; i < 100; i += 2) EXPECT_TRUE(simulator.cancel(ids[static_cast<std::size_t>(i)]));
  }));
  simulator.run();
  ASSERT_EQ(fired.size(), 50u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(2 * i + 1));
  }
}

// ---------------------------------------------------------------------------
// Event record and callable bound

template <std::size_t N>
struct Blob {
  std::array<char, N> bytes{};
  void operator()() const {}
};

/// True when the simulator's callable path accepts an `F`.
template <typename F>
constexpr bool kSchedulable = requires(sim::Simulator& s, F fn) {
  s.schedule_at(Time::zero(), fn);
};

TEST(EventRecord, SizesAndCallableBoundHoldAtCompileTime) {
  // The record is 16 bytes and a wheel slot at most 48.
  static_assert(sizeof(Event) == 16);
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(EventQueue::slot_bytes() <= 48);

  // A trivially copyable callable up to the 8-byte payload compiles;
  // one byte more, or a non-trivial capture, does not.
  static_assert(kSchedulable<Blob<8>>);
  static_assert(!kSchedulable<Blob<9>>);
  struct Owning {
    std::vector<int> values;
    void operator()() const {}
  };
  static_assert(!kSchedulable<Owning>);

  // The payload carries the callable's bytes to the firing.
  sim::Simulator simulator;
  int seen = 0;
  simulator.schedule_at(Time::micros(1), [p = &seen] { *p += 7; });
  simulator.run();
  EXPECT_EQ(seen, 7);
}

// ---------------------------------------------------------------------------
// Thread-count determinism of driver artifacts

/// One case's artifact over `seeds` from the driver's executor on
/// `threads` workers, minus the wall-clock "timing" subtree.
std::string artifact_at(const core::ScenarioConfig& config, const std::string& label,
                        const std::vector<std::uint64_t>& seeds, std::size_t threads) {
  const cli::SweepPlan plan = cli::plan_cases(label, config, {{label, config}}, seeds);
  stats::Json doc = cli::execute_shard(plan, nullptr, threads);
  doc.erase("timing");
  return doc.dump_string();
}

TEST(ThreadDeterminism, ReportJsonByteIdenticalAcrossWorkerCounts) {
  core::ScenarioConfig config;
  config.system = core::SystemKind::kEqualMaxCredits;
  config.num_tasks = 4000;
  config.cluster.num_servers = 5;
  config.num_clients = 6;
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};

  // Wall-clock time is quarantined in the artifact's trailing "timing"
  // object; drop it, then demand byte-identical serialized artifacts.
  const std::string serial = artifact_at(config, "determinism", seeds, 1);
  EXPECT_EQ(serial, artifact_at(config, "determinism", seeds, 0));  // one worker per seed
  EXPECT_EQ(serial, artifact_at(config, "determinism", seeds, 3));  // fewer workers than units
}

TEST(ThreadDeterminism, PolicyShootoutSubstrateByteIdenticalAcrossWorkerCounts) {
  // The policy-shootout substrate (FIFO direct dispatch + a scored
  // replica policy) drives the control-plane feedback path hardest:
  // staged SignalTable batches, column flushes on every selection, and
  // dense same-timestamp delivery batches through the timing wheel.
  // Worker count must still not leak into the artifact.
  core::ScenarioConfig config;
  config.system = core::SystemKind::kFifoDirect;
  config.policy_spec = ctrl::canonical_policy_name("c3-noderate");
  config.num_tasks = 3000;
  config.cluster.num_servers = 5;
  config.num_clients = 6;
  const std::vector<std::uint64_t> seeds = {11, 12, 13};

  EXPECT_EQ(artifact_at(config, "shootout-determinism", seeds, 1),
            artifact_at(config, "shootout-determinism", seeds, 0));  // one worker per seed
}

TEST(ThreadDeterminism, BatchedArrivalPumpByteIdenticalAcrossWorkerCounts) {
  // The block-based arrival pump pregenerates 256-task TaskBlocks
  // (slab-backed requests) and each arrival submits
  // straight from the block. Multi-tenant + write traffic drives every
  // draw the generator makes (tenant, client, write decision, write
  // sizes, per-tenant fan-out/keys) through fill_block; worker count
  // must still not leak into the artifact.
  core::ScenarioConfig config;
  config.system = core::SystemKind::kEqualMaxCredits;
  config.num_tasks = 4000;
  config.cluster.num_servers = 5;
  config.num_clients = 6;
  config.write_fraction = 0.2;
  config.tenant_spec = "fg,share=0.7,fanout=fixed:2;bg,share=0.3,fanout=fixed:16,write=0.5";
  const std::vector<std::uint64_t> seeds = {21, 22, 23};

  EXPECT_EQ(artifact_at(config, "pump-determinism", seeds, 1),
            artifact_at(config, "pump-determinism", seeds, 0));  // one worker per seed
}

// ---------------------------------------------------------------------------
// Driver flag validation

TEST(FlagValidation, UnknownFlagRejectedWithSuggestion) {
  const char* argv[] = {"brbsim", "--taks=100"};
  const util::Flags flags(2, argv);
  try {
    cli::validate_flags(flags);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--taks"), std::string::npos) << message;
    EXPECT_NE(message.find("did you mean --tasks"), std::string::npos) << message;
  }
}

TEST(FlagValidation, UnknownFlagWithoutNeighborStillRejected) {
  const char* argv[] = {"brbsim", "--complete-gibberish-xyz=1"};
  const util::Flags flags(2, argv);
  EXPECT_THROW(cli::validate_flags(flags), std::invalid_argument);
}

TEST(FlagValidation, KnownFlagsPass) {
  const char* argv[] = {"brbsim", "--tasks=10", "--scenario=paper", "--threads=2"};
  const util::Flags flags(4, argv);
  EXPECT_NO_THROW(cli::validate_flags(flags));
}

TEST(FlagValidation, EditDistanceBasics) {
  EXPECT_EQ(util::edit_distance("tasks", "tasks"), 0u);
  EXPECT_EQ(util::edit_distance("taks", "tasks"), 1u);
  EXPECT_EQ(util::edit_distance("", "abc"), 3u);
  const auto hit = util::closest_name("serers", {"servers", "seeds", "series-x"});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "servers");
  EXPECT_FALSE(util::closest_name("zzzz", {"servers", "seeds"}).has_value());
}

TEST(FlagValidation, SplitListDropsEmptyParts) {
  using Parts = std::vector<std::string>;
  EXPECT_EQ(util::split_list("a,b"), (Parts{"a", "b"}));
  EXPECT_EQ(util::split_list(",a,,b,"), (Parts{"a", "b"}));
  EXPECT_EQ(util::split_list("a:1,b:2"), (Parts{"a:1", "b:2"}));
  EXPECT_TRUE(util::split_list("").empty());
  EXPECT_TRUE(util::split_list(",,").empty());
}

}  // namespace
}  // namespace brb
