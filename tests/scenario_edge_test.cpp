// Edge-case and stress tests for the experiment runner: degenerate
// topologies, overload, trace replay, observer hooks, paced arrivals.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "workload/task_gen.hpp"
#include "workload/trace.hpp"

namespace brb::core {
namespace {

ScenarioConfig small_config(SystemKind kind) {
  ScenarioConfig config;
  config.system = kind;
  config.num_tasks = 3000;
  config.key_spec = "zipf:10000:0.9";
  return config;
}

TEST(ScenarioEdge, SingleReplicaRemovesSelectionFreedom) {
  ScenarioConfig config = small_config(SystemKind::kEqualMaxCredits);
  config.replication = 1;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, config.num_tasks);
}

TEST(ScenarioEdge, FullReplication) {
  ScenarioConfig config = small_config(SystemKind::kEqualMaxModel);
  config.replication = config.cluster.num_servers;  // every server holds everything
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, config.num_tasks);
}

TEST(ScenarioEdge, SingleClient) {
  ScenarioConfig config = small_config(SystemKind::kC3);
  config.num_clients = 1;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, config.num_tasks);
}

TEST(ScenarioEdge, SingleServerSingleCore) {
  ScenarioConfig config = small_config(SystemKind::kEqualMaxDirect);
  config.cluster.num_servers = 1;
  config.cluster.cores_per_server = 1;
  config.replication = 1;
  config.num_tasks = 500;
  config.utilization = 0.5;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, 500u);
  EXPECT_EQ(result.server_utilization.size(), 1u);
}

TEST(ScenarioEdge, FixedFanoutOne) {
  // Degenerate tasks: one request each — task latency == request latency.
  ScenarioConfig config = small_config(SystemKind::kEqualMaxCredits);
  config.fanout_spec = "fixed:1";
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.requests_completed, config.num_tasks);
}

TEST(ScenarioEdge, GateDrainsFullyAcrossPolicyMatrix) {
  // RunResult documents gate_held_requests as "held at end of run
  // (should be 0)": whatever the dispatch mechanism (direct, credits,
  // rate-gated C3, global queue), a completed run must not strand
  // requests inside a client gate.
  const SystemKind matrix[] = {
      SystemKind::kC3,
      SystemKind::kEqualMaxCredits,
      SystemKind::kUnifIncrCredits,
      SystemKind::kEqualMaxModel,
      SystemKind::kUnifIncrModel,
      SystemKind::kFifoDirect,
      SystemKind::kRandomFifo,
      SystemKind::kEqualMaxDirect,
      SystemKind::kUnifIncrDirect,
      SystemKind::kFifoModel,
      SystemKind::kRequestSjfDirect,
      SystemKind::kCumSlackCredits,
      SystemKind::kCumSlackModel,
  };
  for (const SystemKind kind : matrix) {
    ScenarioConfig config = small_config(kind);
    config.num_tasks = 1500;
    const RunResult result = run_scenario(config);
    EXPECT_EQ(result.gate_held_requests, 0u) << to_string(kind);
    EXPECT_EQ(result.tasks_completed, config.num_tasks) << to_string(kind);
  }
}

TEST(ScenarioEdge, TransientOverloadStillCompletes) {
  // Offered load 20% above capacity for a short burst: queues grow, the
  // congestion machinery engages, and the drain finishes the run.
  ScenarioConfig config = small_config(SystemKind::kEqualMaxCredits);
  config.utilization = 1.2;
  config.num_tasks = 4000;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, 4000u);
  // Under overload the latencies must reflect queueing, not hide it.
  EXPECT_GT(result.task_latency.percentile(99).as_millis(), 1.0);
}

TEST(ScenarioEdge, OverloadTriggersCongestionSignals) {
  ScenarioConfig config = small_config(SystemKind::kEqualMaxCredits);
  config.utilization = 1.3;
  config.num_tasks = 12000;
  const RunResult result = run_scenario(config);
  EXPECT_GT(result.congestion_signals, 0u);
}

TEST(ScenarioEdge, PacedArrivalsAreSupported) {
  ScenarioConfig config = small_config(SystemKind::kFifoDirect);
  config.paced_arrivals = true;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, config.num_tasks);
}

TEST(ScenarioEdge, ServiceNoiseSupported) {
  ScenarioConfig config = small_config(SystemKind::kEqualMaxModel);
  config.service_noise_sigma = 0.3;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, config.num_tasks);
}

TEST(ScenarioEdge, NetworkJitterSupported) {
  ScenarioConfig config = small_config(SystemKind::kC3);
  config.net_jitter = sim::Duration::micros(20);
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, config.num_tasks);
}

TEST(ScenarioEdge, ZeroWarmupMeasuresEverything) {
  ScenarioConfig config = small_config(SystemKind::kFifoDirect);
  config.warmup_fraction = 0.0;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_measured, config.num_tasks);
}

TEST(ScenarioEdge, SignalStoreCapMustBeDecimalInUint32Range) {
  // CAP is 1..2^32-1 written in decimal digits. Anything else fails
  // with the grammar message instead of being truncated, wrapped or
  // silently defaulted.
  const struct {
    const char* spec;
    bool valid;
  } cases[] = {
      {"sparse", true},           {"sparse:1", true},         {"sparse:4294967295", true},
      {"sparse:", false},         {"sparse:0", false},        {"sparse:12x", false},
      {"sparse:-1", false},       {"sparse:+4", false},       {"sparse: 4", false},
      {"sparse:abc", false},      {"sparse:4294967296", false},
      {"sparse:99999999999999999999", false},                 {"dense:4", false},
  };
  for (const auto& c : cases) {
    ScenarioConfig config = small_config(SystemKind::kFifoDirect);
    config.num_tasks = 200;
    config.signal_store = c.spec;
    if (c.valid) {
      const RunResult result = run_scenario(config);
      EXPECT_TRUE(result.sparse_signal_store) << c.spec;
      EXPECT_EQ(result.tasks_completed, 200u) << c.spec;
      continue;
    }
    try {
      run_scenario(config);
      ADD_FAILURE() << "accepted " << c.spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "run_scenario: signal store must be auto|dense|sparse[:CAP]")
          << c.spec;
    }
  }
}

TEST(ScenarioEdge, SelectorOverrideIsHonored) {
  ScenarioConfig config = small_config(SystemKind::kEqualMaxDirect);
  config.selector_override = "round-robin";
  EXPECT_EQ(run_scenario(config).tasks_completed, config.num_tasks);
  config.selector_override = "no-such-selector";
  EXPECT_THROW(run_scenario(config), std::invalid_argument);
}

TEST(ScenarioEdge, ObserverHookSeesEveryTask) {
  ScenarioConfig config = small_config(SystemKind::kEqualMaxCredits);
  std::uint64_t observed = 0;
  sim::Duration total = sim::Duration::zero();
  config.on_task_complete = [&](const workload::TaskSpec&, sim::Duration latency) {
    ++observed;
    total += latency;
  };
  const RunResult result = run_scenario(config);
  EXPECT_EQ(observed, result.tasks_completed);
  EXPECT_GT(total.count_nanos(), 0);
}

TEST(ScenarioEdge, KeepRawLatenciesGivesExactPercentiles) {
  ScenarioConfig config = small_config(SystemKind::kFifoModel);
  config.keep_raw_latencies = true;
  const RunResult result = run_scenario(config);
  // Raw percentiles are self-consistent and ordered.
  EXPECT_LE(result.task_latency.percentile(50).count_nanos(),
            result.task_latency.percentile(99).count_nanos());
}

// ---------------------------------------------------------------------------
// Trace replay through the runner

std::vector<workload::TaskSpec> tiny_trace() {
  std::vector<workload::TaskSpec> tasks;
  for (std::uint64_t i = 0; i < 400; ++i) {
    workload::TaskSpec task;
    task.id = i;
    task.client = static_cast<store::ClientId>(i % 18);
    task.arrival = sim::Time::micros(static_cast<double>(100 + i * 97));
    const std::uint32_t fanout = 1 + static_cast<std::uint32_t>(i % 7);
    for (std::uint32_t r = 0; r < fanout; ++r) {
      task.requests.push_back({i * 13 + r, 200 + static_cast<std::uint32_t>(r) * 100});
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

TEST(ScenarioTrace, InMemoryOverrideReplaysExactly) {
  const auto tasks = tiny_trace();
  ScenarioConfig config;
  config.system = SystemKind::kEqualMaxCredits;
  config.tasks_override = &tasks;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, tasks.size());
  std::uint64_t expected_requests = 0;
  for (const auto& task : tasks) expected_requests += task.requests.size();
  EXPECT_EQ(result.requests_completed, expected_requests);
}

TEST(ScenarioTrace, ReplayIsDeterministicAcrossSystems) {
  const auto tasks = tiny_trace();
  ScenarioConfig config;
  config.tasks_override = &tasks;
  config.system = SystemKind::kEqualMaxModel;
  const RunResult a = run_scenario(config);
  const RunResult b = run_scenario(config);
  EXPECT_EQ(a.task_latency.percentile(99).count_nanos(),
            b.task_latency.percentile(99).count_nanos());
}

TEST(ScenarioTrace, FileRoundTripThroughRunner) {
  const auto tasks = tiny_trace();
  const std::string path = "/tmp/brb_scenario_trace_test.csv";
  workload::TraceWriter::write_file(path, tasks);
  ScenarioConfig config;
  config.system = SystemKind::kC3;
  config.trace_path = path;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, tasks.size());
  std::remove(path.c_str());
}

TEST(ScenarioTrace, WarmupCountsArrivalsWhateverTheIds) {
  // Ids offset far past the task count: warm-up still leaves out the
  // first 5% of arrivals, N - floor(0.05 N) measured.
  auto tasks = tiny_trace();
  for (auto& task : tasks) task.id += 1'000'000;
  ScenarioConfig config;
  config.system = SystemKind::kEqualMaxCredits;
  config.tasks_override = &tasks;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_EQ(result.tasks_measured, tasks.size() - tasks.size() * 5 / 100);
}

TEST(ScenarioTrace, RepeatedIdsInFlightTogetherComplete) {
  // Tasks 2k and 2k+1 share an id and arrive 97 us apart at clients 0
  // and 18, which fold onto client 0 of 18: both are in flight there at
  // once, and the run still completes every task.
  auto tasks = tiny_trace();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = i / 2;
    tasks[i].client = static_cast<store::ClientId>(i % 2 * 18);
  }
  ScenarioConfig config;
  config.system = SystemKind::kEqualMaxCredits;
  config.tasks_override = &tasks;
  const RunResult result = run_scenario(config);
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_EQ(result.tasks_measured, tasks.size() - tasks.size() * 5 / 100);
}

TEST(ScenarioTrace, EmptyTraceRejected) {
  const std::vector<workload::TaskSpec> empty;
  ScenarioConfig config;
  config.tasks_override = &empty;
  EXPECT_THROW(run_scenario(config), std::invalid_argument);
}

TEST(ScenarioTrace, MissingTraceFileRejected) {
  ScenarioConfig config;
  config.trace_path = "/nonexistent/brb-trace.csv";
  EXPECT_THROW(run_scenario(config), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Cross-system statistical properties at moderate scale

TEST(ScenarioProperty, ModelBeatsEveryRealizableSystemAtP99) {
  ScenarioConfig base = small_config(SystemKind::kEqualMaxModel);
  base.num_tasks = 15000;
  base.seed = 9;
  const RunResult model = run_scenario(base);
  for (const SystemKind kind :
       {SystemKind::kEqualMaxCredits, SystemKind::kEqualMaxDirect, SystemKind::kC3,
        SystemKind::kFifoDirect}) {
    ScenarioConfig config = base;
    config.system = kind;
    const RunResult other = run_scenario(config);
    EXPECT_LE(model.task_latency.percentile(99).count_nanos(),
              other.task_latency.percentile(99).count_nanos() * 11 / 10)
        << to_string(kind);
  }
}

TEST(ScenarioProperty, TaskAwarenessImprovesMedianOverOblivious) {
  ScenarioConfig brb_config = small_config(SystemKind::kEqualMaxCredits);
  ScenarioConfig fifo_config = small_config(SystemKind::kFifoDirect);
  brb_config.num_tasks = 15000;
  fifo_config.num_tasks = 15000;
  brb_config.seed = 9;
  fifo_config.seed = 9;
  const RunResult brb_run = run_scenario(brb_config);
  const RunResult fifo_run = run_scenario(fifo_config);
  EXPECT_LT(brb_run.task_latency.percentile(50).count_nanos(),
            fifo_run.task_latency.percentile(50).count_nanos());
}

class UtilizationSweep : public ::testing::TestWithParam<double> {};

TEST_P(UtilizationSweep, LatencyMonotoneInLoadForBrb) {
  // Within one seed, p99 at higher load must not be lower than p99 at
  // 50% load (sanity of the load model across the sweep).
  ScenarioConfig lo = small_config(SystemKind::kEqualMaxCredits);
  lo.num_tasks = 8000;
  lo.utilization = 0.5;
  lo.seed = 4;
  ScenarioConfig hi = lo;
  hi.utilization = GetParam();
  const RunResult lo_run = run_scenario(lo);
  const RunResult hi_run = run_scenario(hi);
  EXPECT_GE(hi_run.task_latency.percentile(99).count_nanos() * 12 / 10,
            lo_run.task_latency.percentile(99).count_nanos());
}

INSTANTIATE_TEST_SUITE_P(Loads, UtilizationSweep, ::testing::Values(0.6, 0.7, 0.8));

}  // namespace
}  // namespace brb::core
