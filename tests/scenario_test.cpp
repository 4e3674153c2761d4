// Integration tests: the full system (all SystemKinds) on scaled-down
// versions of the paper's setup — completion, conservation, determinism
// and cross-system ordering properties.
#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/scenario_registry.hpp"
#include "cli/sweep_plan.hpp"
#include "stats/report.hpp"
#include "util/flags.hpp"

namespace brb::core {
namespace {

ScenarioConfig quick_config(SystemKind kind, std::uint64_t seed = 1) {
  ScenarioConfig config;
  config.system = kind;
  config.seed = seed;
  config.num_tasks = 4000;
  config.key_spec = "zipf:20000:0.9";
  config.warmup_fraction = 0.05;
  return config;
}

class AllSystems : public ::testing::TestWithParam<SystemKind> {};

TEST_P(AllSystems, CompletesEveryTaskAndConservesRequests) {
  const ScenarioConfig config = quick_config(GetParam());
  const RunResult result = run_scenario(config);

  EXPECT_EQ(result.tasks_completed, config.num_tasks);
  EXPECT_EQ(result.tasks_submitted, config.num_tasks);
  // Every submitted request got exactly one response.
  EXPECT_GT(result.requests_completed, config.num_tasks);  // fan-out > 1
  // Latency recorders saw the measured tasks.
  EXPECT_EQ(result.task_latency.count(), result.tasks_measured);
  EXPECT_GT(result.tasks_measured, 0u);
  EXPECT_LT(result.tasks_measured, config.num_tasks + 1);
}

TEST_P(AllSystems, LatencyIsBoundedBelowByNetworkAndService) {
  const ScenarioConfig config = quick_config(GetParam());
  const RunResult result = run_scenario(config);
  // A task cannot complete faster than two network hops plus the
  // service floor (base overhead).
  const auto floor_ns = (config.net_latency + config.net_latency + config.service_base)
                            .count_nanos();
  EXPECT_GE(result.task_latency.min().count_nanos(), floor_ns);
}

TEST_P(AllSystems, UtilizationNearTarget) {
  ScenarioConfig config = quick_config(GetParam());
  config.num_tasks = 20000;
  const RunResult result = run_scenario(config);
  // Mean utilization should be in the ballpark of the 70% target
  // (finite-run noise and drain-out allowed for).
  EXPECT_GT(result.mean_utilization, 0.45);
  EXPECT_LT(result.mean_utilization, 0.90);
}

TEST_P(AllSystems, DeterministicForFixedSeed) {
  const ScenarioConfig config = quick_config(GetParam(), 77);
  const RunResult a = run_scenario(config);
  const RunResult b = run_scenario(config);
  EXPECT_EQ(a.task_latency.percentile(50).count_nanos(),
            b.task_latency.percentile(50).count_nanos());
  EXPECT_EQ(a.task_latency.percentile(99).count_nanos(),
            b.task_latency.percentile(99).count_nanos());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.network_messages, b.network_messages);
}

TEST_P(AllSystems, DifferentSeedsDiffer) {
  const RunResult a = run_scenario(quick_config(GetParam(), 1));
  const RunResult b = run_scenario(quick_config(GetParam(), 2));
  EXPECT_NE(a.task_latency.mean().count_nanos(), b.task_latency.mean().count_nanos());
}

INSTANTIATE_TEST_SUITE_P(
    Systems, AllSystems,
    ::testing::Values(SystemKind::kC3, SystemKind::kEqualMaxCredits,
                      SystemKind::kUnifIncrCredits, SystemKind::kEqualMaxModel,
                      SystemKind::kUnifIncrModel, SystemKind::kFifoDirect,
                      SystemKind::kRandomFifo, SystemKind::kEqualMaxDirect,
                      SystemKind::kUnifIncrDirect, SystemKind::kFifoModel,
                      SystemKind::kRequestSjfDirect, SystemKind::kCumSlackCredits,
                      SystemKind::kCumSlackModel),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Scenario, RejectsBadConfigs) {
  ScenarioConfig config = quick_config(SystemKind::kC3);
  config.num_tasks = 0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);

  config = quick_config(SystemKind::kC3);
  config.utilization = 0.0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);

  config = quick_config(SystemKind::kC3);
  config.num_clients = 0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);

  config = quick_config(SystemKind::kC3);
  config.warmup_fraction = 1.0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);
}

TEST(Scenario, CubicRateFairShareBelowRateFloorCompletes) {
  // 2000 clients on the paper fleet get a 7 req/s fair share of each
  // 14k req/s server, under the default 10 req/s rate floor. A resolved
  // fair share lowers the floor with it; an explicit initial rate under
  // the floor is still rejected.
  ScenarioConfig config = quick_config(SystemKind::kC3);
  config.num_clients = 2000;
  config.num_tasks = 2000;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, config.num_tasks);

  config.rate.initial_rate = 5.0;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);
}

TEST(Scenario, SummaryMatchesRecorder) {
  const RunResult result = run_scenario(quick_config(SystemKind::kEqualMaxModel));
  const LatencySummary summary = summarize_tasks(result);
  EXPECT_DOUBLE_EQ(summary.p50_ms, result.task_latency.percentile(50).as_millis());
  EXPECT_DOUBLE_EQ(summary.p99_ms, result.task_latency.percentile(99).as_millis());
  EXPECT_GE(summary.p99_ms, summary.p95_ms);
  EXPECT_GE(summary.p95_ms, summary.p50_ms);
}

/// One case's artifact from the driver's executor on `threads`
/// workers, its wall-clock "timing" subtree dropped.
stats::Json seeds_artifact(const ScenarioConfig& config, const std::vector<std::uint64_t>& seeds,
                           std::size_t threads) {
  const cli::SweepPlan plan = cli::plan_cases("seeds", config, {{"case", config}}, seeds);
  stats::Json doc = cli::execute_shard(plan, nullptr, threads);
  doc.erase("timing");
  return doc;
}

TEST(Scenario, RunSeedsAggregatesAcrossRuns) {
  ScenarioConfig config = quick_config(SystemKind::kEqualMaxModel);
  config.num_tasks = 2000;
  const stats::Json doc = seeds_artifact(config, {1, 2, 3}, 1);
  const stats::Json& item = doc.at("cases").at(0);
  const stats::Json& runs = item.at("runs");
  ASSERT_EQ(runs.size(), 3u);
  // The cross-seed block summarizes exactly the three rows, in seed order.
  double sum = 0.0;
  double lo = runs.at(0).at("p99_ms").as_double();
  double hi = lo;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs.at(i).at("seed").as_int(), static_cast<std::int64_t>(i + 1));
    const double p99 = runs.at(i).at("p99_ms").as_double();
    sum += p99;
    lo = std::min(lo, p99);
    hi = std::max(hi, p99);
  }
  const stats::Json& p99 = item.at("task_latency_ms").at("p99_ms");
  EXPECT_DOUBLE_EQ(p99.at("mean").as_double(), sum / 3.0);
  EXPECT_EQ(p99.at("min").as_double(), lo);
  EXPECT_EQ(p99.at("max").as_double(), hi);
  EXPECT_GT(item.at("task_latency_ms").at("p50_ms").at("mean").as_double(), 0.0);
  // Seeds differ, so some spread exists but is finite.
  EXPECT_GE(p99.at("stddev").as_double(), 0.0);
}

TEST(Scenario, ParallelSeedsMatchSerialBitExactly) {
  ScenarioConfig config = quick_config(SystemKind::kEqualMaxCredits);
  config.num_tasks = 3000;
  const stats::Json serial = seeds_artifact(config, {1, 2, 3}, 1);
  const stats::Json parallel = seeds_artifact(config, {1, 2, 3}, 0);
  ASSERT_EQ(serial.at("cases").at(0).at("runs").size(), 3u);
  // Every row (p99, events, messages, ...) and the cross-seed block.
  EXPECT_EQ(serial.dump_string(), parallel.dump_string());
}

TEST(Scenario, ModelNeverWorseThanCreditsAtP99) {
  // The ideal model is the lower bound BRB aims for; with matched
  // seeds and a non-trivial run it must not lose to the realizable
  // credits scheme at the tail.
  ScenarioConfig model_config = quick_config(SystemKind::kEqualMaxModel, 5);
  ScenarioConfig credits_config = quick_config(SystemKind::kEqualMaxCredits, 5);
  model_config.num_tasks = 20000;
  credits_config.num_tasks = 20000;
  const RunResult model = run_scenario(model_config);
  const RunResult credits = run_scenario(credits_config);
  EXPECT_LE(model.task_latency.percentile(99).count_nanos(),
            credits.task_latency.percentile(99).count_nanos() * 11 / 10);
}

TEST(Scenario, TaskAwareBeatsTaskObliviousAtTail) {
  ScenarioConfig brb_config = quick_config(SystemKind::kEqualMaxDirect, 5);
  ScenarioConfig fifo_config = quick_config(SystemKind::kFifoDirect, 5);
  brb_config.num_tasks = 20000;
  fifo_config.num_tasks = 20000;
  const RunResult brb = run_scenario(brb_config);
  const RunResult fifo = run_scenario(fifo_config);
  EXPECT_LT(brb.task_latency.percentile(99).count_nanos(),
            fifo.task_latency.percentile(99).count_nanos());
}

TEST(Scenario, KofnAtHighLoadWarnsOnceOnStderr) {
  ScenarioConfig config = quick_config(SystemKind::kFifoDirect);
  config.num_tasks = 300;
  config.utilization = 0.6;
  config.dispatch_spec = "kofn";
  ::testing::internal::CaptureStderr();
  run_scenario(config);
  run_scenario(config);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "[WARN] [scenario] kofn dispatch at utilization 0.6 >= 0.6: n-fold load "
            "amplification may exceed fleet capacity (see README, tail-cutting regimes)\n");
}

TEST(Scenario, KofnWarningIgnoresTenantNamedKofn) {
  // The warning follows the resolved modes, not the spec text: a
  // tenant whose name contains "kofn" runs tied here, so no kofn mode
  // is in play.
  ScenarioConfig config = quick_config(SystemKind::kC3);
  config.num_tasks = 300;
  config.utilization = 0.7;
  config.tenant_spec = "kofnx,share=0.5;batch,share=0.5";
  config.dispatch_spec = "kofnx:tied";
  ::testing::internal::CaptureStderr();
  run_scenario(config);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

// ---------------------------------------------------------------------------
// The system table

TEST(SystemTable, NamesRoundTripAndRolesArePinned) {
  struct Row {
    SystemKind kind;
    const char* name;
    bool global_queue;
    bool credits;
    bool task_aware;
  };
  const Row rows[] = {
      {SystemKind::kC3, "c3", false, false, false},
      {SystemKind::kEqualMaxCredits, "equalmax-credits", false, true, true},
      {SystemKind::kUnifIncrCredits, "unifincr-credits", false, true, true},
      {SystemKind::kEqualMaxModel, "equalmax-model", true, false, true},
      {SystemKind::kUnifIncrModel, "unifincr-model", true, false, true},
      {SystemKind::kFifoDirect, "fifo-direct", false, false, false},
      {SystemKind::kRandomFifo, "random-fifo", false, false, false},
      {SystemKind::kEqualMaxDirect, "equalmax-direct", false, false, true},
      {SystemKind::kUnifIncrDirect, "unifincr-direct", false, false, true},
      {SystemKind::kFifoModel, "fifo-model", true, false, false},
      {SystemKind::kRequestSjfDirect, "request-sjf-direct", false, false, false},
      {SystemKind::kCumSlackCredits, "cumslack-credits", false, true, true},
      {SystemKind::kCumSlackModel, "cumslack-model", true, false, true},
  };
  ASSERT_EQ(std::size(rows), kSystemProfiles.size());
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    EXPECT_EQ(to_string(row.kind), row.name);
    EXPECT_EQ(system_kind_from_name(row.name), row.kind);
    EXPECT_EQ(uses_global_queue(row.kind), row.global_queue);
    EXPECT_EQ(uses_credits(row.kind), row.credits);
    EXPECT_EQ(is_task_aware(row.kind), row.task_aware);
  }
  EXPECT_THROW(system_kind_from_name("sjf"), std::invalid_argument);
  EXPECT_THROW(system_kind_from_name(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Behaviour pin: every policy-matrix case (all 13 systems, so every
// queue discipline under both the per-server and the global-queue
// realization, plus the selector ablation) at 3000 tasks, seed 1. The
// values were recorded before the server queue path was collapsed to
// one FIFO and one priority discipline; any change to a pop order or
// to the event stream moves them.

TEST(Scenario, PolicyMatrixObservablesArePinned) {
  struct Pinned {
    const char* label;
    std::uint64_t events_processed;
    std::uint64_t network_messages;
    std::uint64_t requests_completed;
    std::int64_t p50_ns;
    std::int64_t p99_ns;
  };
  const Pinned pinned[] = {
      {"random-fifo", 81879u, 52586u, 26293u, 1179136, 10350592},
      {"fifo-direct", 81879u, 52586u, 26293u, 993536, 9965568},
      {"request-sjf-direct", 81879u, 52586u, 26293u, 480128, 11513856},
      {"c3", 110973u, 52586u, 26293u, 813312, 65355776},
      {"equalmax-direct", 81879u, 52586u, 26293u, 429952, 7002112},
      {"unifincr-direct", 81879u, 52586u, 26293u, 467584, 7129088},
      {"equalmax-credits", 81953u, 52622u, 26293u, 429952, 7002112},
      {"unifincr-credits", 81990u, 52640u, 26293u, 467584, 7129088},
      {"cumslack-credits", 81990u, 52640u, 26293u, 427136, 7497728},
      {"fifo-model", 81879u, 52586u, 26293u, 906496, 7170048},
      {"equalmax-model", 81879u, 52586u, 26293u, 378240, 5642240},
      {"unifincr-model", 81879u, 52586u, 26293u, 405376, 5253120},
      {"cumslack-model", 81879u, 52586u, 26293u, 375424, 6260736},
      {"equalmax-direct/c3", 81879u, 52586u, 26293u, 436608, 11325440},
      {"equalmax-direct/least-pending-cost", 81879u, 52586u, 26293u, 429952, 7002112},
      {"equalmax-direct/least-outstanding", 81879u, 52586u, 26293u, 426112, 7075840},
      {"equalmax-direct/random", 81879u, 52586u, 26293u, 429184, 9580544},
  };
  const char* argv[] = {"brbsim", "--tasks=3000", "--seed=1"};
  const util::Flags flags(3, argv);
  const auto cases =
      cli::find_scenario("policy-matrix")->expand(cli::config_from_flags(flags), flags);
  ASSERT_EQ(cases.size(), std::size(pinned));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(pinned[i].label);
    ASSERT_EQ(cases[i].label, pinned[i].label);
    const RunResult result = run_scenario(cases[i].config);
    EXPECT_EQ(result.events_processed, pinned[i].events_processed);
    EXPECT_EQ(result.network_messages, pinned[i].network_messages);
    EXPECT_EQ(result.requests_completed, pinned[i].requests_completed);
    EXPECT_EQ(result.task_latency.percentile(50).count_nanos(), pinned[i].p50_ns);
    EXPECT_EQ(result.task_latency.percentile(99).count_nanos(), pinned[i].p99_ns);
  }
}

// The cubic rate gate releases each server's held requests in arrival
// order. Plain c3 cannot show that order: its FIFO priority stamps
// arrival time, so a priority-ordered hold queue would drain the same
// way. Task-aware priorities behind the rate gate, and hedged copies
// stamped at their later issue time, would not; these pins would move.
void expect_paper_run(const char* system, const char* extra_flag,
                      std::uint64_t events_processed, std::uint64_t network_messages,
                      std::int64_t p50_ns, std::int64_t p99_ns) {
  const char* argv[] = {"brbsim", "--tasks=3000", "--seed-list=1", system, extra_flag};
  const util::Flags flags(5, argv);
  const auto cases = cli::find_scenario("paper")->expand(cli::config_from_flags(flags), flags);
  ASSERT_EQ(cases.size(), 1u);
  const RunResult result = run_scenario(cases.front().config);
  EXPECT_EQ(result.events_processed, events_processed);
  EXPECT_EQ(result.network_messages, network_messages);
  EXPECT_EQ(result.task_latency.percentile(50).count_nanos(), p50_ns);
  EXPECT_EQ(result.task_latency.percentile(99).count_nanos(), p99_ns);
}

TEST(Scenario, RateGateHoldOrderUnderTaskPrioritiesIsPinned) {
  expect_paper_run("--systems=equalmax-direct", "--admission=cubic-rate", 108854u, 52586u,
                   705280, 72581120);
}

TEST(Scenario, RateGateHoldOrderUnderHedgingIsPinned) {
  expect_paper_run("--systems=c3", "--dispatch=hedge:q95", 188192u, 53657u, 40484864,
                   557056000);
}

// No other scenario-level pin runs the network with jitter, where the
// per-pair FIFO horizon clamps deliveries.
TEST(Scenario, JitteredNetworkObservablesArePinned) {
  expect_paper_run("--systems=equalmax-credits", "--net-jitter-us=20", 81953u, 52622u, 449152,
                   7014400);
}

TEST(Scenario, CreditsObservablesArePinned) {
  // The credits realization's control loop, pinned on both credit-pair
  // layouts: every pair pinned (credits-interval's adaptation-cadence
  // sweep) and first-touch pairs only (a fleet past 2^24 pairs).
  struct Pinned {
    const char* label;
    std::uint64_t events_processed;
    std::uint64_t network_messages;
    std::uint64_t credit_hold_events;
    std::uint64_t controller_adaptations;
    std::int64_t p50_ns;
    std::int64_t p99_ns;
  };
  const auto check = [](const std::vector<cli::ExperimentCase>& cases, const Pinned& pin) {
    SCOPED_TRACE(pin.label);
    const auto it = std::find_if(cases.begin(), cases.end(), [&](const cli::ExperimentCase& c) {
      return c.label == pin.label;
    });
    ASSERT_NE(it, cases.end());
    const RunResult result = run_scenario(it->config);
    EXPECT_EQ(result.events_processed, pin.events_processed);
    EXPECT_EQ(result.network_messages, pin.network_messages);
    EXPECT_EQ(result.credit_hold_events, pin.credit_hold_events);
    EXPECT_EQ(result.controller_adaptations, pin.controller_adaptations);
    EXPECT_EQ(result.task_latency.percentile(50).count_nanos(), pin.p50_ns);
    EXPECT_EQ(result.task_latency.percentile(99).count_nanos(), pin.p99_ns);
  };

  const Pinned all_pinned[] = {
      {"equalmax-model", 276049u, 177366u, 0u, 0u, 398720, 7018496},
      {"equalmax-credits@adapt-ms=100", 277061u, 177960u, 3789u, 11u, 466304, 27090944},
      {"equalmax-credits@adapt-ms=250", 276495u, 177618u, 1086u, 4u, 454784, 11636736},
      {"equalmax-credits@adapt-ms=500", 276457u, 177582u, 1357u, 2u, 457600, 33103872},
      {"equalmax-credits@adapt-ms=1000", 276438u, 177564u, 14u, 1u, 454784, 8720384},
      {"equalmax-credits@adapt-ms=2000", 276382u, 177528u, 0u, 0u, 454784, 8523776},
      {"equalmax-credits@adapt-ms=4000", 276382u, 177528u, 0u, 0u, 454784, 8523776},
  };
  {
    const char* argv[] = {"brbsim", "--tasks=10000", "--seed=1"};
    const util::Flags flags(3, argv);
    const auto cases =
        cli::find_scenario("credits-interval")->expand(cli::config_from_flags(flags), flags);
    ASSERT_EQ(cases.size(), std::size(all_pinned));
    for (const Pinned& pin : all_pinned) check(cases, pin);
  }

  // 1000 x 17000 = 17M pairs, just past 2^24: every credit pair is
  // first-touch. Each opening balance is below one credit, so nearly
  // every request waits for the first grant (see README, scaling).
  const Pinned first_touch = {"equalmax-credits", 290008u, 79998u, 35999u, 1u, 999555072,
                              1009516544};
  {
    const char* argv[] = {"brbsim", "--servers=1000", "--clients=17000", "--tasks=4000",
                          "--seed=1"};
    const util::Flags flags(5, argv);
    const auto cases =
        cli::find_scenario("mega-fleet")->expand(cli::config_from_flags(flags), flags);
    check(cases, first_touch);
  }
}

}  // namespace
}  // namespace brb::core
