// Scenario-diversity subsystem tests: heterogeneous cluster specs and
// capacity arithmetic, modulated (diurnal) arrivals, the write path,
// multi-tenant generation and fairness accounting, flag conflicts, and
// thread-count determinism of every new registry scenario's artifacts.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/scenario_registry.hpp"
#include "cli/sweep_plan.hpp"
#include "core/scenario.hpp"
#include "server/backend_server.hpp"
#include "server/queue_discipline.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "store/types.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/capacity.hpp"
#include "workload/fanout_dist.hpp"
#include "workload/key_dist.hpp"
#include "workload/size_dist.hpp"
#include "workload/task_gen.hpp"

namespace brb {
namespace {

// ---------------------------------------------------------------------------
// Heterogeneous ClusterSpec + CapacityPlanner

TEST(HeteroCluster, ParseAndPerServerShapes) {
  const auto spec = workload::ClusterSpec::parse("hetero:6x4x3500,3x8x7000");
  ASSERT_TRUE(spec.heterogeneous());
  EXPECT_EQ(spec.num_servers, 9u);
  EXPECT_EQ(spec.total_cores(), 6u * 4u + 3u * 8u);
  // Servers are numbered class by class in declaration order.
  for (std::uint32_t s = 0; s < 6; ++s) {
    EXPECT_EQ(spec.cores_of(s), 4u) << s;
    EXPECT_DOUBLE_EQ(spec.rate_of(s), 3500.0) << s;
    EXPECT_DOUBLE_EQ(spec.capacity_of(s), 14000.0) << s;
  }
  for (std::uint32_t s = 6; s < 9; ++s) {
    EXPECT_EQ(spec.cores_of(s), 8u) << s;
    EXPECT_DOUBLE_EQ(spec.rate_of(s), 7000.0) << s;
    EXPECT_DOUBLE_EQ(spec.capacity_of(s), 56000.0) << s;
  }
  EXPECT_THROW(spec.cores_of(9), std::out_of_range);
  EXPECT_EQ(spec.describe(), "hetero:6x4x3500,3x8x7000");
}

TEST(HeteroCluster, PlannerSumsMixedFleetCapacity) {
  const workload::CapacityPlanner planner(
      workload::ClusterSpec::parse("hetero:6x4x3500,3x8x7000"));
  // 6*4*3500 + 3*8*7000 = 84000 + 168000.
  EXPECT_DOUBLE_EQ(planner.system_capacity_rps(), 252000.0);
  EXPECT_DOUBLE_EQ(planner.request_rate_for_utilization(0.5), 126000.0);
  EXPECT_DOUBLE_EQ(planner.task_rate_for_utilization(0.5, 10.0), 12600.0);
  EXPECT_NEAR(planner.utilization_for_task_rate(12600.0, 10.0), 0.5, 1e-12);
}

TEST(HeteroCluster, HomogeneousPathUnchanged) {
  // The default ClusterSpec must plan exactly as it did pre-hetero.
  const workload::CapacityPlanner planner{workload::ClusterSpec{}};
  EXPECT_DOUBLE_EQ(planner.system_capacity_rps(), 9.0 * 4.0 * 3500.0);
  EXPECT_EQ(workload::ClusterSpec{}.describe(), "9x4x3500");
}

TEST(HeteroCluster, UniformShorthandAndErrors) {
  const auto uniform = workload::ClusterSpec::parse("uniform:5x2x1000");
  EXPECT_FALSE(uniform.heterogeneous());
  EXPECT_EQ(uniform.num_servers, 5u);
  EXPECT_EQ(uniform.cores_per_server, 2u);
  EXPECT_DOUBLE_EQ(uniform.service_rate_per_core, 1000.0);

  EXPECT_THROW(workload::ClusterSpec::parse("hetero:"), std::invalid_argument);
  EXPECT_THROW(workload::ClusterSpec::parse("9x4x3500"), std::invalid_argument);
  EXPECT_THROW(workload::ClusterSpec::parse("hetero:0x4x3500"), std::invalid_argument);
  EXPECT_THROW(workload::ClusterSpec::parse("hetero:3x0x3500"), std::invalid_argument);
  EXPECT_THROW(workload::ClusterSpec::parse("hetero:3x4x0"), std::invalid_argument);
  EXPECT_THROW(workload::ClusterSpec::parse("hetero:3x4"), std::invalid_argument);
  EXPECT_THROW(workload::ClusterSpec::parse("hetero:axbxc"), std::invalid_argument);
  EXPECT_THROW(workload::ClusterSpec::parse("mystery:3x4x100"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ModulatedArrivals

TEST(ModulatedArrivals, GapsStrictlyPositive) {
  util::Rng rng(11);
  auto arrivals = workload::make_arrival_process("diurnal:0.4:0.9:0.5", 2000.0);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GT(arrivals->next_gap(rng).count_nanos(), 0);
  }
}

TEST(ModulatedArrivals, DiurnalPreservesMeanRateOverWholePeriods) {
  // The envelope is normalized to unit mean, so arrivals over k whole
  // periods must average the nominal rate.
  util::Rng rng(7);
  const double rate = 5000.0;
  const double period_s = 0.25;
  workload::ModulatedArrivals arrivals(
      rate, workload::ModulatedArrivals::Envelope::diurnal(0.4, 0.9, period_s));
  const double horizon_s = 80 * period_s;  // 100k expected arrivals
  double t = 0.0;
  std::uint64_t count = 0;
  while (true) {
    t += arrivals.next_gap(rng).as_seconds();
    if (t > horizon_s) break;
    ++count;
  }
  const double observed_rate = static_cast<double>(count) / horizon_s;
  EXPECT_NEAR(observed_rate / rate, 1.0, 0.03);
}

TEST(ModulatedArrivals, StepsEnvelopeNormalizedAndPreservesMean) {
  const auto envelope =
      workload::ModulatedArrivals::Envelope::piecewise({0.5, 1.5, 2.0}, 0.3);
  // Normalized to unit mean: (0.5 + 1.5 + 2.0)/3 scales away.
  EXPECT_NEAR(envelope.at(0.0), 0.375, 1e-12);
  EXPECT_NEAR(envelope.at(0.11), 1.125, 1e-12);
  EXPECT_NEAR(envelope.at(0.21), 1.5, 1e-12);
  EXPECT_NEAR(envelope.at(0.31), 0.375, 1e-12);  // wraps around

  util::Rng rng(3);
  workload::ModulatedArrivals arrivals(4000.0, envelope);
  double t = 0.0;
  std::uint64_t count = 0;
  const double horizon_s = 100 * 0.3;
  while (true) {
    t += arrivals.next_gap(rng).as_seconds();
    if (t > horizon_s) break;
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count) / horizon_s / 4000.0, 1.0, 0.03);
}

TEST(ModulatedArrivals, ModulationActuallyShapesArrivals) {
  // More arrivals must land in the crest half-period than the trough.
  util::Rng rng(5);
  workload::ModulatedArrivals arrivals(
      8000.0, workload::ModulatedArrivals::Envelope::diurnal(0.25, 1.75, 1.0));
  double t = 0.0;
  std::uint64_t crest = 0;
  std::uint64_t trough = 0;
  while (t < 50.0) {
    t += arrivals.next_gap(rng).as_seconds();
    const double phase = t - std::floor(t);
    if (phase < 0.5) {
      ++crest;  // sin > 0: above-mean rate
    } else {
      ++trough;
    }
  }
  EXPECT_GT(static_cast<double>(crest), 1.5 * static_cast<double>(trough));
}

/// True when `spec` builds an arrival process of type T.
template <typename T>
bool arrivals_are(const std::string& spec) {
  const auto process = workload::make_arrival_process(spec, 100.0);
  return dynamic_cast<const T*>(process.get()) != nullptr;
}

TEST(ModulatedArrivals, SpecParsingAndErrors) {
  EXPECT_TRUE(arrivals_are<workload::PoissonArrivals>(""));
  EXPECT_TRUE(arrivals_are<workload::PoissonArrivals>("poisson"));
  EXPECT_TRUE(arrivals_are<workload::PacedArrivals>("paced"));
  EXPECT_TRUE(arrivals_are<workload::ModulatedArrivals>("diurnal:0.5:1.5:60"));
  EXPECT_TRUE(arrivals_are<workload::ModulatedArrivals>("steps:1,2,1:10"));

  EXPECT_THROW(workload::make_arrival_process("diurnal:0:1.5:60", 100.0), std::invalid_argument);
  EXPECT_THROW(workload::make_arrival_process("diurnal:1.5:0.5:60", 100.0),
               std::invalid_argument);
  EXPECT_THROW(workload::make_arrival_process("diurnal:0.5:1.5:0", 100.0), std::invalid_argument);
  EXPECT_THROW(workload::make_arrival_process("diurnal:0.5:1.5", 100.0), std::invalid_argument);
  EXPECT_THROW(workload::make_arrival_process("steps:1,-2:10", 100.0), std::invalid_argument);
  EXPECT_THROW(workload::make_arrival_process("steps::10", 100.0), std::invalid_argument);
  EXPECT_THROW(workload::make_arrival_process("sawtooth:1:2", 100.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Write path

TEST(WritePath, ServerInstallsNewSizeAndAcks) {
  sim::Simulator sim;
  server::SizeLinearServiceModel model(sim::Duration::micros(10), 0.0);
  server::BackendServer::Config config;
  config.id = 0;
  config.cores = 1;
  server::BackendServer server(sim, config, model, util::Rng(1));
  server.use_private_queue(server::make_discipline("fifo"));
  server.storage().put_meta(42, 100);

  std::vector<store::ReadResponse> responses;
  server.set_response_handler(
      [&responses](const store::ReadResponse& response) { responses.push_back(response); });

  store::ReadRequest write;
  write.request_id = 1;
  write.key = 42;
  write.is_write = true;
  write.write_size = 9000;
  server.receive(write);
  store::ReadRequest read;
  read.request_id = 2;
  read.key = 42;
  server.receive(read);
  sim.run();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].is_write);
  EXPECT_EQ(responses[0].value_size, 0u);  // bare acknowledgement
  // The read served after the write observes the resized value.
  EXPECT_FALSE(responses[1].is_write);
  EXPECT_EQ(responses[1].value_size, 9000u);
  EXPECT_EQ(server.storage().size_of(42).value_or(0), 9000u);
}

TEST(WritePath, WireBytesCarryWritePayloadOutbound) {
  store::ReadRequest read;
  EXPECT_EQ(store::request_wire_bytes(read), store::kRequestWireBytes);
  store::ReadRequest write;
  write.is_write = true;
  write.write_size = 512;
  EXPECT_EQ(store::request_wire_bytes(write), store::kRequestWireBytes + 512);
}

core::RunResult run_small(core::SystemKind system, double write_fraction,
                          const std::string& tenant_spec = "") {
  core::ScenarioConfig config;
  config.system = system;
  config.num_tasks = 1200;
  config.cluster.num_servers = 5;
  config.num_clients = 6;
  config.replication = 3;
  config.write_fraction = write_fraction;
  config.tenant_spec = tenant_spec;
  config.seed = 3;
  return core::run_scenario(config);
}

TEST(WritePath, EveryReplicaCopyAcknowledged) {
  for (const core::SystemKind system :
       {core::SystemKind::kEqualMaxCredits, core::SystemKind::kC3,
        core::SystemKind::kEqualMaxModel}) {
    const core::RunResult result = run_small(system, 0.5);
    EXPECT_EQ(result.tasks_completed, 1200u) << to_string(system);
    EXPECT_GT(result.write_requests_sent, 0u) << to_string(system);
    EXPECT_EQ(result.write_requests_acked, result.write_requests_sent) << to_string(system);
    // Write replica copies come in multiples of the replication factor.
    EXPECT_EQ(result.write_requests_sent % 3, 0u) << to_string(system);
    EXPECT_EQ(result.gate_held_requests, 0u) << to_string(system);
  }
}

TEST(WritePath, ReadOnlyRunsStayWriteFree) {
  const core::RunResult result = run_small(core::SystemKind::kEqualMaxCredits, 0.0);
  EXPECT_EQ(result.write_requests_sent, 0u);
  EXPECT_EQ(result.write_requests_acked, 0u);
}

TEST(WritePath, AllWritesFanOutEveryRequest) {
  const core::RunResult result = run_small(core::SystemKind::kEqualMaxCredits, 1.0);
  // Every request is a write copy: requests_completed = writes acked.
  EXPECT_EQ(result.write_requests_acked, result.requests_completed);
  EXPECT_EQ(result.tasks_completed, 1200u);
}

TEST(WritePath, CapacityPlanningAccountsForWriteAmplification) {
  // At write_fraction=0.5 and R=3 each task offers 2x the requests of
  // its read-only counterpart; without the amplification term in the
  // task-rate arithmetic this run would execute at ~1.4x capacity
  // (saturated servers), not the configured 70%.
  const core::RunResult result = run_small(core::SystemKind::kEqualMaxCredits, 0.5);
  EXPECT_GT(result.mean_utilization, 0.40);
  EXPECT_LT(result.mean_utilization, 0.85);
}

TEST(WritePath, MixedReadWriteOverrideTasksStillSelectForReads) {
  // Mixed tasks cannot come out of the generator (write decisions are
  // task-level) but are legal through tasks_override; the reads must
  // still go through replica selection rather than defaulting to
  // server 0.
  std::vector<workload::TaskSpec> tasks;
  for (int i = 0; i < 200; ++i) {
    workload::TaskSpec task;
    task.id = static_cast<store::TaskId>(i);
    task.client = static_cast<store::ClientId>(i % 6);
    task.arrival = sim::Time::micros(100 + 50 * i);
    task.requests.push_back({static_cast<store::KeyId>(i % 40), 200, /*is_write=*/true});
    task.requests.push_back({static_cast<store::KeyId>((i + 7) % 40), 300, false});
    tasks.push_back(std::move(task));
  }
  core::ScenarioConfig config;
  config.system = core::SystemKind::kEqualMaxCredits;
  config.cluster.num_servers = 5;
  config.num_clients = 6;
  config.replication = 3;
  config.tasks_override = &tasks;
  config.seed = 2;
  const core::RunResult result = core::run_scenario(config);
  EXPECT_EQ(result.tasks_completed, 200u);
  // One write per task, fanned out to all 3 replicas.
  EXPECT_EQ(result.write_requests_acked, 200u * 3u);
  // One read per task on top of the write copies.
  EXPECT_EQ(result.requests_completed, 200u * 4u);
}

// ---------------------------------------------------------------------------
// Multi-tenant generation + fairness accounting

workload::TaskGenerator make_tenant_generator(const workload::Dataset& dataset,
                                              const workload::KeyDistribution& keys,
                                              const workload::FanoutDistribution& fanout,
                                              const std::string& spec) {
  workload::TaskGenerator::Config config;
  config.num_clients = 10;
  workload::TaskGenerator generator(config, dataset, keys, fanout,
                                    std::make_unique<workload::PoissonArrivals>(1000.0),
                                    util::Rng(5));
  generator.set_tenants(workload::parse_tenant_mixes(spec));
  return generator;
}

TEST(MultiTenant, ParseErrorsNameTheOffendingField) {
  try {
    workload::parse_tenant_mixes("fg,share=abc");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("share=abc"), std::string::npos) << e.what();
  }
  try {
    workload::parse_tenant_mixes("fg,write=x");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("write=x"), std::string::npos) << e.what();
  }
}

TEST(ScenarioExpanders, HeteroServersRejectsScalarFleetFlags) {
  const cli::ScenarioSpec* scenario = cli::find_scenario("hetero-servers");
  ASSERT_NE(scenario, nullptr);
  // The scenario's profile overwrites the scalar fleet flags, so flag
  // validation rejects them and names --cluster instead.
  const char* argv[] = {"brbsim", "--scenario=hetero-servers", "--servers=5"};
  try {
    cli::validate_flags(util::Flags(3, argv));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--cluster"), std::string::npos) << e.what();
  }
  // An explicit profile wins over the scenario default.
  const char* cluster_argv[] = {"brbsim", "--cluster=hetero:2x2x3500,1x4x7000"};
  const util::Flags cluster_flags(2, cluster_argv);
  const auto cases = scenario->expand(cli::config_from_flags(cluster_flags), cluster_flags);
  ASSERT_FALSE(cases.empty());
  EXPECT_EQ(cases.front().config.cluster.num_servers, 3u);
}

TEST(ScenarioExpanders, LargeClusterRespectsClusterProfile) {
  const cli::ScenarioSpec* scenario = cli::find_scenario("large-cluster");
  ASSERT_NE(scenario, nullptr);
  const char* argv[] = {"brbsim", "--cluster=hetero:6x4x3500,3x8x7000"};
  const util::Flags flags(2, argv);
  const auto cases = scenario->expand(cli::config_from_flags(flags), flags);
  ASSERT_FALSE(cases.empty());
  // The profile's 9-server fleet must not be inflated to the scenario's
  // default 100 (which would contradict the class counts and throw
  // deep inside capacity planning).
  EXPECT_EQ(cases.front().config.cluster.num_servers, 9u);
  EXPECT_TRUE(cases.front().config.cluster.heterogeneous());
}

TEST(ScenarioExpanders, ReplicationSweepRejectsNonIntegerFactors) {
  const cli::ScenarioSpec* scenario = cli::find_scenario("replication-sweep");
  ASSERT_NE(scenario, nullptr);
  const char* argv[] = {"brbsim", "--replications=1.5,3"};
  const util::Flags flags(2, argv);
  EXPECT_THROW(scenario->expand(core::ScenarioConfig{}, flags), std::invalid_argument);
  // Parts are whole decimals in [1, 2^32-1]: 1e30 used to pass the
  // integer check and wrap through the uint32 cast to R=0.
  for (const char* bad : {"--replications=1e30", "--replications=3x", "--replications=0",
                          "--replications=-2", "--replications=4294967296"}) {
    const char* bad_argv[] = {"brbsim", bad};
    EXPECT_THROW(scenario->expand(core::ScenarioConfig{}, util::Flags(2, bad_argv)),
                 std::invalid_argument)
        << bad;
  }
  const char* good_argv[] = {"brbsim", "--replications=2,4294967295", "--systems=c3"};
  const auto cases = scenario->expand(core::ScenarioConfig{}, util::Flags(3, good_argv));
  ASSERT_EQ(cases.size(), 2u);
  EXPECT_EQ(cases[1].label, "c3@R=4294967295");
  // Every list flag parses its parts strictly.
  const char* load_argv[] = {"brbsim", "--loads=0.5x"};
  EXPECT_THROW(cli::find_scenario("load-sweep")->expand(core::ScenarioConfig{},
                                                        util::Flags(2, load_argv)),
               std::invalid_argument);
}

TEST(MultiTenant, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(workload::parse_tenant_mixes(""), std::invalid_argument);
  EXPECT_THROW(workload::parse_tenant_mixes("a;a"), std::invalid_argument);
  EXPECT_THROW(workload::parse_tenant_mixes("a,share=0"), std::invalid_argument);
  EXPECT_THROW(workload::parse_tenant_mixes("a,share=-1"), std::invalid_argument);
  EXPECT_THROW(workload::parse_tenant_mixes("a,write=1.5"), std::invalid_argument);
  // -1 is TenantMix's "inherit the base fraction" value; a written
  // negative must not pass for it.
  EXPECT_THROW(workload::parse_tenant_mixes("a,write=-0.5;b"), std::invalid_argument);
  EXPECT_THROW(workload::parse_tenant_mixes("a,write=-1"), std::invalid_argument);
  EXPECT_THROW(workload::parse_tenant_mixes("a,bogus=1"), std::invalid_argument);
  EXPECT_THROW(workload::parse_tenant_mixes("share=1"), std::invalid_argument);
  EXPECT_THROW(workload::parse_tenant_mixes("a,share"), std::invalid_argument);
  EXPECT_THROW(workload::parse_tenant_mixes("a,fanout=nosuch:1"), std::invalid_argument);

  const auto mixes = workload::parse_tenant_mixes("fg,share=3,fanout=fixed:2;bg,write=0.25");
  ASSERT_EQ(mixes.size(), 2u);
  EXPECT_EQ(mixes[0].name, "fg");
  EXPECT_DOUBLE_EQ(mixes[0].share, 3.0);
  ASSERT_NE(mixes[0].fanout, nullptr);
  EXPECT_EQ(mixes[1].name, "bg");
  EXPECT_DOUBLE_EQ(mixes[1].write_fraction, 0.25);
}

TEST(MultiTenant, ClientsPartitionIntoShareProportionalBlocks) {
  util::Rng rng(1);
  const auto sizes = workload::SizeDistribution::fixed(100);
  workload::Dataset dataset(1000, sizes, rng.split());
  const auto keys = workload::KeyDistribution::uniform(1000);
  const auto fanout = workload::FanoutDistribution::fixed(4);
  auto generator =
      make_tenant_generator(dataset, keys, fanout, "fg,share=0.7,fanout=fixed:2;bg,share=0.3");

  ASSERT_EQ(generator.num_tenants(), 2u);
  const auto [fg_begin, fg_end] = generator.tenant_clients(0);
  const auto [bg_begin, bg_end] = generator.tenant_clients(1);
  EXPECT_EQ(fg_begin, 0u);
  EXPECT_EQ(fg_end, 7u);  // 0.7 of 10 clients
  EXPECT_EQ(bg_begin, 7u);
  EXPECT_EQ(bg_end, 10u);

  // Generated tasks respect tenant client blocks and fan-out mixes.
  std::set<std::uint32_t> seen_tenants;
  for (int i = 0; i < 2000; ++i) {
    const workload::TaskSpec task = generator.next();
    seen_tenants.insert(task.tenant.value());
    if (task.tenant == store::TenantId{0}) {
      EXPECT_LT(task.client, 7u);
      EXPECT_EQ(task.fanout(), 2u);  // tenant override
    } else {
      EXPECT_GE(task.client, 7u);
      EXPECT_LT(task.client, 10u);
      EXPECT_EQ(task.fanout(), 4u);  // base fan-out
    }
  }
  EXPECT_EQ(seen_tenants.size(), 2u);
}

TEST(MultiTenant, TenantWriteFractionNeedsSizes) {
  util::Rng rng(1);
  const auto sizes = workload::SizeDistribution::fixed(100);
  workload::Dataset dataset(100, sizes, rng.split());
  const auto keys = workload::KeyDistribution::uniform(100);
  const auto fanout = workload::FanoutDistribution::fixed(2);
  workload::TaskGenerator::Config config;
  config.num_clients = 4;
  workload::TaskGenerator generator(config, dataset, keys, fanout,
                                    std::make_unique<workload::PoissonArrivals>(100.0),
                                    util::Rng(2));
  EXPECT_THROW(generator.set_tenants(workload::parse_tenant_mixes("a,write=0.5;b")),
               std::invalid_argument);
  generator.set_write_traffic(0.0, &sizes);
  EXPECT_NO_THROW(generator.set_tenants(workload::parse_tenant_mixes("a,write=0.5;b")));
}

TEST(MultiTenant, RunRecordsPerTenantLatencyAndFairness) {
  const core::RunResult result =
      run_small(core::SystemKind::kEqualMaxCredits, 0.0,
                "fg,share=0.7,fanout=fixed:1;bg,share=0.3,fanout=fixed:24,write=0.2");
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_EQ(result.tenants[0].name, "fg");
  EXPECT_EQ(result.tenants[1].name, "bg");
  EXPECT_EQ(result.tenants[0].tasks_completed + result.tenants[1].tasks_completed,
            result.tasks_completed);
  EXPECT_EQ(result.tenants[0].tasks_measured + result.tenants[1].tasks_measured,
            result.tasks_measured);
  EXPECT_GT(result.tenants[0].tasks_measured, 0u);
  EXPECT_GT(result.tenants[1].tasks_measured, 0u);
  // Only the bg tenant writes.
  EXPECT_GT(result.write_requests_acked, 0u);
  // Fairness headline: high-fanout bg tasks are slower, ratio > 1.
  EXPECT_GT(result.tenant_p99_ratio, 1.0);
}

TEST(MultiTenant, SingleTenantRunsCarryNoTenantState) {
  const core::RunResult result = run_small(core::SystemKind::kEqualMaxCredits, 0.0);
  EXPECT_TRUE(result.tenants.empty());
  EXPECT_DOUBLE_EQ(result.tenant_p99_ratio, 0.0);
}

// ---------------------------------------------------------------------------
// Config conflicts (the did-you-mean-style fail-fast path)

core::ScenarioConfig config_from(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "brbsim");
  const util::Flags flags(static_cast<int>(argv.size()), argv.data());
  cli::validate_flags(flags);
  return cli::config_from_flags(flags);
}

TEST(ConfigConflicts, TraceExcludesGeneratorSideSpecs) {
  EXPECT_THROW(config_from({"--trace=t.trace", "--arrivals=diurnal:0.5:1.5:60"}),
               std::invalid_argument);
  EXPECT_THROW(config_from({"--trace=t.trace", "--write-fraction=0.2"}), std::invalid_argument);
  EXPECT_THROW(config_from({"--trace=t.trace", "--tenants=a;b"}), std::invalid_argument);
  EXPECT_NO_THROW(config_from({"--trace=t.trace"}));
}

TEST(ConfigConflicts, PacedExcludesArrivalSpec) {
  EXPECT_THROW(config_from({"--paced", "--arrivals=diurnal:0.5:1.5:60"}),
               std::invalid_argument);
  EXPECT_NO_THROW(config_from({"--arrivals=diurnal:0.5:1.5:60"}));
}

TEST(ConfigConflicts, ClusterProfileExcludesScalarOverrides) {
  EXPECT_THROW(config_from({"--cluster=hetero:2x4x3500,1x8x7000", "--servers=5"}),
               std::invalid_argument);
  EXPECT_THROW(config_from({"--cluster=hetero:2x4x3500", "--cores=8"}), std::invalid_argument);
  EXPECT_THROW(config_from({"--cluster=hetero:2x4x3500", "--rate=1000"}), std::invalid_argument);
  const core::ScenarioConfig config = config_from({"--cluster=hetero:2x4x3500,1x8x7000"});
  EXPECT_EQ(config.cluster.num_servers, 3u);
  EXPECT_TRUE(config.cluster.heterogeneous());
}

TEST(ConfigConflicts, NewFlagsAreKnownToValidation) {
  EXPECT_NO_THROW(config_from({"--write-fraction=0.1", "--tenants=a;b",
                               "--arrivals=steps:1,2:10", "--cluster=hetero:2x4x3500"}));
  // A typo'd new flag still gets the did-you-mean treatment.
  const char* argv[] = {"brbsim", "--write-fractoin=0.1"};
  const util::Flags flags(2, argv);
  try {
    cli::validate_flags(flags);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean --write-fraction"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigConflicts, RunScenarioRejectsOverrideTasksWithNewSpecs) {
  const std::vector<workload::TaskSpec> tasks(1);
  core::ScenarioConfig config;
  config.tasks_override = &tasks;
  config.write_fraction = 0.5;
  EXPECT_THROW(core::run_scenario(config), std::invalid_argument);
  config.write_fraction = 0.0;
  config.tenant_spec = "a;b";
  EXPECT_THROW(core::run_scenario(config), std::invalid_argument);
  config.tenant_spec.clear();
  config.arrival_spec = "diurnal:0.5:1.5:60";
  EXPECT_THROW(core::run_scenario(config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Thread-count determinism of every new scenario's artifacts

TEST(DiversityDeterminism, NewScenarioReportsByteIdenticalAcrossWorkerCounts) {
  const char* argv[] = {"brbsim", "--tasks=800", "--servers=5", "--clients=6",
                        "--systems=equalmax-credits"};
  const util::Flags flags(5, argv);
  // hetero-servers rejects --servers (the profile fixes the fleet), so
  // it gets its own flag set with a small mixed fleet.
  const char* hetero_argv[] = {"brbsim", "--tasks=800", "--clients=6",
                               "--systems=equalmax-credits",
                               "--cluster=hetero:3x2x3500,2x4x7000"};
  const util::Flags hetero_flags(5, hetero_argv);
  const std::vector<std::uint64_t> seeds = {1, 2};

  for (const char* name :
       {"hetero-servers", "diurnal", "write-heavy", "multi-tenant", "replication-skew"}) {
    const bool hetero = std::string(name) == "hetero-servers";
    const util::Flags& scenario_flags = hetero ? hetero_flags : flags;
    const core::ScenarioConfig scenario_base = cli::config_from_flags(scenario_flags);
    const cli::SweepPlan plan =
        cli::build_sweep_plan(name, scenario_base, seeds, scenario_flags);
    ASSERT_FALSE(plan.cases.empty()) << name;

    std::vector<std::string> dumps;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      // Wall-clock time lives in the trailing "timing" object; drop it
      // and demand byte-identical artifacts across thread counts.
      stats::Json doc = cli::execute_shard(plan, nullptr, threads);
      doc.erase("timing");
      dumps.push_back(doc.dump_string());
    }
    EXPECT_EQ(dumps[0], dumps[1]) << name;
  }
}

}  // namespace
}  // namespace brb
