// Dispatch-plan API tests: the SingleTargetAdapter lift (bit-identity
// with every registered legacy selector), plan shapes for the
// tail-cutting modes, the mode spec grammar (--dispatch and
// --policy-switch payloads), and scenario-level executor invariants —
// hedge arm/cancel accounting, tied loser rejection, k-of-n straggler
// cancellation under worker-thread invariance, and the
// duplicate_work_fraction == 0 guarantee for single-target dispatch.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cli/sweep_plan.hpp"
#include "core/scenario.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "ctrl/policy_runtime.hpp"
#include "ctrl/replica_policy.hpp"
#include "ctrl/signal_table.hpp"
#include "sim/simulator.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace brb {
namespace {

using ctrl::DispatchMode;
using ctrl::DispatchModeConfig;
using ctrl::DispatchPlan;
using sim::Duration;
using sim::Time;

store::ServerFeedback feedback(std::uint32_t queue, double rate) {
  store::ServerFeedback f;
  f.queue_length = queue;
  f.service_rate = rate;
  f.service_time = Duration::micros(300);
  return f;
}

// ---------------------------------------------------------------------------
// SingleTargetAdapter: bit-identity with every registered selector

/// Drives one raw selector and its adapter-lifted twin through an
/// identical synthetic signal history and asserts the decision streams
/// never diverge. Randomized policies get identically-seeded streams.
void expect_adapter_bit_identity(const std::string& policy_name) {
  const ctrl::C3ScoreConfig c3{};
  const auto raw = ctrl::make_replica_policy(policy_name, c3, util::Rng(17));
  ctrl::SingleTargetAdapter adapter(ctrl::make_replica_policy(policy_name, c3, util::Rng(17)));

  ctrl::SignalTable raw_signals;
  ctrl::SignalTable adapter_signals;
  const std::vector<store::ServerId> replicas = {2, 5, 9};
  util::Rng history(23);  // shared history perturbation, applied to both

  for (int round = 0; round < 300; ++round) {
    const Duration cost = Duration::micros(100 + 10 * (round % 7));
    const store::ServerId picked = raw->select(raw_signals, replicas, cost);
    const DispatchPlan plan = adapter.plan(adapter_signals, replicas, cost);

    ASSERT_EQ(plan.mode, DispatchMode::kSingle) << policy_name;
    ASSERT_EQ(plan.num_targets, 1u) << policy_name;
    ASSERT_EQ(plan.needed, 1u) << policy_name;
    ASSERT_EQ(plan.primary(), picked) << policy_name << " diverged at round " << round;

    // Evolve both tables identically: charge the winner, complete an
    // older copy on a rotating server with varying feedback.
    raw_signals.on_send(picked, cost);
    adapter_signals.on_send(picked, cost);
    const store::ServerId done = replicas[history.uniform_u64_below(replicas.size())];
    const store::ServerFeedback fb =
        feedback(1 + round % 5, 8'000.0 + 500.0 * static_cast<double>(round % 4));
    const Duration rtt = Duration::micros(300 + 40 * (round % 9));
    raw_signals.on_response(done, fb, rtt, cost);
    adapter_signals.on_response(done, fb, rtt, cost);
  }
}

TEST(SingleTargetAdapter, BitIdenticalForEveryRegisteredPolicy) {
  // The whole catalog — the adapter must not perturb a single pick.
  std::size_t covered = 0;
  for (const ctrl::ReplicaPolicyInfo& info : ctrl::replica_policy_catalog()) {
    expect_adapter_bit_identity(info.name);
    ++covered;
  }
  EXPECT_GE(covered, 8u);  // the eight registered selectors (at least)
}

TEST(SingleTargetAdapter, CreditAwareWrapperMatchesLegacyDecorator) {
  // The plan-layer credits decorator must reproduce the old
  // select()-layer decorator pick for pick, funded or broke.
  ctrl::CreditAwarePolicy legacy(std::make_unique<ctrl::LeastOutstandingPolicy>());
  ctrl::CreditAwareDispatchPolicy lifted(std::make_unique<ctrl::SingleTargetAdapter>(
      std::make_unique<ctrl::LeastOutstandingPolicy>()));

  ctrl::SignalTable legacy_signals;
  ctrl::SignalTable lifted_signals;
  const std::vector<store::ServerId> replicas = {0, 1, 2};
  util::Rng history(31);
  for (int round = 0; round < 200; ++round) {
    // Rotate balances through all-funded / partially-funded / all-broke.
    for (const store::ServerId s : replicas) {
      const double balance = static_cast<double>((round + s) % 3);
      legacy_signals.set_credit_balance(s, balance);
      lifted_signals.set_credit_balance(s, balance);
    }
    const Duration cost = Duration::micros(150);
    const store::ServerId picked = legacy.select(legacy_signals, replicas, cost);
    const DispatchPlan plan = lifted.plan(lifted_signals, replicas, cost);
    ASSERT_EQ(plan.primary(), picked) << "diverged at round " << round;

    const store::ServerId loaded = replicas[history.uniform_u64_below(replicas.size())];
    legacy_signals.on_send(loaded, cost);
    lifted_signals.on_send(loaded, cost);
  }
}

// ---------------------------------------------------------------------------
// Plan shapes

TEST(DispatchPlan, SingleFactory) {
  const DispatchPlan plan = DispatchPlan::single(7);
  EXPECT_EQ(plan.primary(), 7u);
  EXPECT_EQ(plan.num_targets, 1u);
  EXPECT_EQ(plan.mode, DispatchMode::kSingle);
  EXPECT_EQ(plan.needed, 1u);
  EXPECT_EQ(plan.hedge_delay, Duration::zero());
}

TEST(HedgeDispatchPolicy, PlansDistinctBackupWithQuantileDeadline) {
  ctrl::HedgeDispatchPolicy hedge(
      std::make_unique<ctrl::SingleTargetAdapter>(std::make_unique<ctrl::FirstReplicaPolicy>()),
      0.95, Duration::millis(2));
  ctrl::SignalTable signals;

  // Unseen primary: the deadline falls back to the configured prior.
  DispatchPlan cold = hedge.plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_EQ(cold.mode, DispatchMode::kHedge);
  EXPECT_EQ(cold.num_targets, 2u);
  EXPECT_EQ(cold.needed, 1u);
  EXPECT_EQ(cold.primary(), 3u);
  EXPECT_EQ(cold.targets[1], 8u);
  const double factor = -std::log(1.0 - 0.95);
  EXPECT_NEAR(static_cast<double>(cold.hedge_delay.count_nanos()), factor * 2e6, 1.0);

  // Seen primary: the deadline tracks its response EWMA.
  signals.on_response(3, feedback(1, 10'000), Duration::millis(1), Duration::zero());
  DispatchPlan warm = hedge.plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_NEAR(static_cast<double>(warm.hedge_delay.count_nanos()), factor * 1e6, 1.0);

  // A single replica leaves nobody to hedge onto.
  DispatchPlan lone = hedge.plan(signals, {3}, Duration::micros(100));
  EXPECT_EQ(lone.mode, DispatchMode::kSingle);
  EXPECT_EQ(lone.num_targets, 1u);
}

TEST(HedgeDispatchPolicy, FreshFeedbackSuppressesTheBackup) {
  // Signal-aware skip: feedback younger than fresh_age degrades the
  // plan to single (skipped_fresh set); once the feedback ages past
  // the threshold the full hedge plan returns.
  sim::Simulator sim;
  ctrl::HedgeDispatchPolicy hedge(
      std::make_unique<ctrl::SingleTargetAdapter>(std::make_unique<ctrl::FirstReplicaPolicy>()),
      0.95, Duration::millis(2), /*fresh_age=*/Duration::millis(1), &sim);
  ctrl::SignalTable signals;

  // No feedback yet: nothing to trust, hedge as usual.
  DispatchPlan cold = hedge.plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_EQ(cold.mode, DispatchMode::kHedge);
  EXPECT_FALSE(cold.skipped_fresh);

  // Feedback stamped "now": fresher than 1 ms, so the plan degrades.
  signals.on_response(3, feedback(1, 10'000), Duration::millis(1), Duration::zero(), sim.now());
  DispatchPlan fresh = hedge.plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_EQ(fresh.mode, DispatchMode::kSingle);
  EXPECT_EQ(fresh.num_targets, 1u);
  EXPECT_EQ(fresh.primary(), 3u);
  EXPECT_TRUE(fresh.skipped_fresh);

  // 5 ms later the same feedback is stale: the back-up is armed again.
  sim.run_until(Time::millis(5));
  DispatchPlan stale = hedge.plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_EQ(stale.mode, DispatchMode::kHedge);
  EXPECT_EQ(stale.num_targets, 2u);
  EXPECT_FALSE(stale.skipped_fresh);
}

TEST(HedgeDispatchPolicy, SkipDisabledWithoutThresholdOrClock) {
  sim::Simulator sim;
  ctrl::SignalTable signals;
  signals.on_response(3, feedback(1, 10'000), Duration::millis(1), Duration::zero(), sim.now());

  // fresh_age zero (the default): always hedge, even on fresh feedback.
  ctrl::HedgeDispatchPolicy no_threshold(
      std::make_unique<ctrl::SingleTargetAdapter>(std::make_unique<ctrl::FirstReplicaPolicy>()),
      0.95, Duration::millis(2), Duration::zero(), &sim);
  EXPECT_EQ(no_threshold.plan(signals, {3, 8}, Duration::micros(100)).mode,
            DispatchMode::kHedge);

  // No clock wired: freshness cannot be judged, always hedge.
  ctrl::HedgeDispatchPolicy no_clock(
      std::make_unique<ctrl::SingleTargetAdapter>(std::make_unique<ctrl::FirstReplicaPolicy>()),
      0.95, Duration::millis(2), Duration::millis(1), nullptr);
  EXPECT_EQ(no_clock.plan(signals, {3, 8}, Duration::micros(100)).mode, DispatchMode::kHedge);
}

TEST(TiedDispatchPolicy, PlansTwoDistinctCopies) {
  ctrl::TiedDispatchPolicy tied(
      std::make_unique<ctrl::SingleTargetAdapter>(std::make_unique<ctrl::FirstReplicaPolicy>()));
  ctrl::SignalTable signals;
  const DispatchPlan plan = tied.plan(signals, {4, 6, 1}, Duration::micros(100));
  EXPECT_EQ(plan.mode, DispatchMode::kTied);
  EXPECT_EQ(plan.num_targets, 2u);
  EXPECT_EQ(plan.needed, 1u);
  EXPECT_NE(plan.primary(), plan.targets[1]);
}

TEST(KofnDispatchPolicy, RanksDistinctTargetsAndClampsNeeded) {
  ctrl::KofnDispatchPolicy kofn(
      std::make_unique<ctrl::SingleTargetAdapter>(
          std::make_unique<ctrl::LeastOutstandingPolicy>()),
      3);
  ctrl::SignalTable signals;
  signals.on_send(0, Duration::micros(500));  // 0 is the most loaded

  const std::vector<store::ServerId> replicas = {0, 1, 2, 3, 4};
  const DispatchPlan plan = kofn.plan(signals, replicas, Duration::micros(100));
  EXPECT_EQ(plan.mode, DispatchMode::kKofn);
  EXPECT_EQ(plan.num_targets, DispatchPlan::kMaxTargets);
  EXPECT_EQ(plan.needed, 3u);
  for (std::size_t i = 0; i < plan.num_targets; ++i) {
    for (std::size_t j = i + 1; j < plan.num_targets; ++j) {
      EXPECT_NE(plan.targets[i], plan.targets[j]);
    }
  }
  // Loaded server 0 ranks last of the four chosen.
  EXPECT_NE(plan.primary(), 0u);

  // k clamps to the replica count; a lone replica degenerates to single.
  const DispatchPlan pair = kofn.plan(signals, {1, 2}, Duration::micros(100));
  EXPECT_EQ(pair.needed, 2u);
  EXPECT_EQ(pair.num_targets, 2u);
  const DispatchPlan lone = kofn.plan(signals, {1}, Duration::micros(100));
  EXPECT_EQ(lone.mode, DispatchMode::kSingle);
}

// ---------------------------------------------------------------------------
// Mode grammar

TEST(DispatchModeGrammar, ParsesAndCanonicalizes) {
  EXPECT_EQ(ctrl::parse_dispatch_mode("single").canonical(), "single");
  EXPECT_EQ(ctrl::parse_dispatch_mode("tied").canonical(), "tied");
  EXPECT_EQ(ctrl::parse_dispatch_mode("hedge").canonical(), "hedge:q95");  // default
  EXPECT_EQ(ctrl::parse_dispatch_mode("hedge:q99.9").canonical(), "hedge:q99.9");
  EXPECT_EQ(ctrl::parse_dispatch_mode("kofn").canonical(), "kofn:2");  // default
  EXPECT_EQ(ctrl::parse_dispatch_mode("kofn:4").canonical(), "kofn:4");
  EXPECT_EQ(ctrl::parse_dispatch_mode("hedge:q95:fresh=2").canonical(), "hedge:q95:fresh=2");
  EXPECT_EQ(ctrl::parse_dispatch_mode("hedge:fresh=0.5").canonical(), "hedge:q95:fresh=0.5");

  const DispatchModeConfig fresh_hedge = ctrl::parse_dispatch_mode("hedge:q90:fresh=2");
  EXPECT_EQ(fresh_hedge.mode, DispatchMode::kHedge);
  EXPECT_EQ(fresh_hedge.fresh_age, sim::Duration::millis(2));
  EXPECT_EQ(ctrl::parse_dispatch_mode("hedge").fresh_age, sim::Duration::zero());

  const DispatchModeConfig hedge = ctrl::parse_dispatch_mode("hedge:q90");
  EXPECT_EQ(hedge.mode, DispatchMode::kHedge);
  EXPECT_DOUBLE_EQ(hedge.hedge_quantile, 0.90);
  EXPECT_TRUE(ctrl::parse_dispatch_mode("single").is_single());
  EXPECT_FALSE(hedge.is_single());
}

TEST(DispatchModeGrammar, RejectsWithDidYouMean) {
  try {
    ctrl::parse_dispatch_mode("hedged");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hedge"), std::string::npos);
  }
  EXPECT_THROW(ctrl::parse_dispatch_mode(""), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_dispatch_mode("tied:2"), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_dispatch_mode("single:x"), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_dispatch_mode("hedge:95"), std::invalid_argument);  // missing 'q'
  EXPECT_THROW(ctrl::parse_dispatch_mode("hedge:q0"), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_dispatch_mode("hedge:q100"), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_dispatch_mode("kofn:0"), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_dispatch_mode("kofn:5"), std::invalid_argument);  // > kMaxTargets
  EXPECT_THROW(ctrl::parse_dispatch_mode("kofn:two"), std::invalid_argument);
}

TEST(DispatchModeGrammar, SpecBindsFleetWideAndPerTenant) {
  const auto fleet = ctrl::parse_dispatch_spec("hedge:q95");
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet[0].tenant, "");
  EXPECT_EQ(fleet[0].mode.canonical(), "hedge:q95");

  const auto mixed = ctrl::parse_dispatch_spec("tenantA:tied,tenantB:kofn:3");
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0].tenant, "tenantA");
  EXPECT_EQ(mixed[0].mode.mode, DispatchMode::kTied);
  EXPECT_EQ(mixed[1].tenant, "tenantB");
  EXPECT_EQ(mixed[1].mode.canonical(), "kofn:3");

  EXPECT_TRUE(ctrl::parse_dispatch_spec("").empty());
  EXPECT_THROW(ctrl::parse_dispatch_spec("tenantA:"), std::invalid_argument);
}

TEST(DispatchModeGrammar, SwitchEpochsCarryModePayloads) {
  const auto epochs = ctrl::parse_policy_switch_spec("t0:random,1s:hedge:q99,2s:batch:kofn:3");
  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_EQ(epochs[0].kind, ctrl::PolicySwitch::Kind::kPolicy);
  EXPECT_EQ(epochs[0].policy, "random");

  EXPECT_EQ(epochs[1].kind, ctrl::PolicySwitch::Kind::kMode);
  EXPECT_EQ(epochs[1].at, Time::seconds(1.0));
  EXPECT_TRUE(epochs[1].tenant.empty());
  EXPECT_EQ(epochs[1].mode.canonical(), "hedge:q99");

  EXPECT_EQ(epochs[2].kind, ctrl::PolicySwitch::Kind::kMode);
  EXPECT_EQ(epochs[2].tenant, "batch");
  EXPECT_EQ(epochs[2].mode.canonical(), "kofn:3");

  // Unknown payloads still get a did-you-mean over the joint catalog.
  EXPECT_THROW(ctrl::parse_policy_switch_spec("1s:kofn:9"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PolicyRuntime: mode bindings and mid-run mode switches

TEST(PolicyRuntimeDispatch, ResolvesInitialModesPerTenant) {
  sim::Simulator sim;
  ctrl::PolicyRuntime::Config config;
  config.dispatch_spec = "tied,interactive:hedge:q90";
  config.tenants = {"interactive", "batch"};
  ctrl::PolicyRuntime runtime(sim, config);
  EXPECT_EQ(runtime.initial_mode(store::TenantId{0}).canonical(), "hedge:q90");
  EXPECT_EQ(runtime.initial_mode(store::TenantId{1}).canonical(), "tied");
  EXPECT_TRUE(runtime.may_dispatch_duplicates());
}

TEST(PolicyRuntimeDispatch, SingleModeRunsNeverArmTheExecutor) {
  sim::Simulator sim;
  ctrl::PolicyRuntime::Config config;
  EXPECT_FALSE(ctrl::PolicyRuntime(sim, config).may_dispatch_duplicates());
  config.dispatch_spec = "single";
  EXPECT_FALSE(ctrl::PolicyRuntime(sim, config).may_dispatch_duplicates());
  // A reachable mode epoch arms it even when t=0 is single.
  config.switch_spec = "5s:tied";
  EXPECT_TRUE(ctrl::PolicyRuntime(sim, config).may_dispatch_duplicates());
}

TEST(PolicyRuntimeDispatch, ModeEpochRebindsKeepingPolicyAxis) {
  sim::Simulator sim;
  ctrl::PolicyRuntime::Config config;
  config.default_policy = "round-robin";
  config.switch_spec = "1s:tied";
  ctrl::PolicyRuntime runtime(sim, config);
  const auto endpoint = runtime.bind_client(0, store::TenantId{0}, util::Rng(3));
  EXPECT_EQ(endpoint->name(), "round-robin");
  runtime.start();
  sim.schedule_at(Time::seconds(2.0), [&sim] { sim.stop(); });
  sim.run();
  EXPECT_EQ(endpoint->name(), "tied(round-robin)");
  EXPECT_EQ(runtime.switches_applied(), 1u);
}

// ---------------------------------------------------------------------------
// Scenario-level executor invariants

core::ScenarioConfig dispatch_config(const std::string& spec) {
  core::ScenarioConfig config;
  config.system = core::SystemKind::kFifoDirect;
  config.num_tasks = 2500;
  config.seed = 1;
  config.dispatch_spec = spec;
  return config;
}

TEST(DispatchScenario, SingleModeIsTheLegacyPathWithZeroDuplicateWork) {
  const core::RunResult legacy = core::run_scenario(dispatch_config(""));
  const core::RunResult single = core::run_scenario(dispatch_config("single"));

  // Same decision stream, same physics: bit-equal latency distributions.
  EXPECT_EQ(legacy.task_latency.percentile(99), single.task_latency.percentile(99));
  EXPECT_EQ(legacy.task_latency.mean(), single.task_latency.mean());
  EXPECT_EQ(legacy.requests_completed, single.requests_completed);
  EXPECT_EQ(legacy.events_processed, single.events_processed);

  // "" carries no dispatch metrics; "single" reports them, all zero.
  EXPECT_FALSE(legacy.dispatch_metrics);
  EXPECT_TRUE(single.dispatch_metrics);
  EXPECT_EQ(single.duplicates_sent, 0u);
  EXPECT_EQ(single.duplicates_served, 0u);
  EXPECT_EQ(single.hedges_issued, 0u);
  EXPECT_DOUBLE_EQ(single.duplicate_work_fraction, 0.0);
}

TEST(DispatchScenario, HedgeArmCancelRoundTrip) {
  const core::RunResult run = core::run_scenario(dispatch_config("hedge:q90"));
  EXPECT_EQ(run.tasks_completed, 2500u);
  EXPECT_TRUE(run.dispatch_metrics);

  // Most hedge timers never fire (the primary answers first) …
  EXPECT_GT(run.hedges_cancelled, 0u);
  // … and every fired back-up is a duplicate copy that is later either
  // rejected at dequeue or absorbed as wasted full service. (A copy can
  // still be in flight when the last task completion stops the clock.)
  EXPECT_GT(run.hedges_issued, 0u);
  EXPECT_EQ(run.duplicates_sent, run.hedges_issued);
  EXPECT_LE(run.duplicates_cancelled + run.duplicates_served, run.duplicates_sent);
  EXPECT_GT(run.duplicates_cancelled, 0u);

  // Wins come only from fired hedges.
  EXPECT_LE(run.hedges_won, run.hedges_issued);
  EXPECT_GT(run.duplicate_work_fraction, 0.0);
  EXPECT_LT(run.duplicate_work_fraction, 0.5);
}

TEST(DispatchScenario, FreshSkipSuppressesHedgesAndCountsThem) {
  // A generous freshness window (50 ms at ~sub-ms response times)
  // suppresses most back-ups; the skip counter must record exactly the
  // plans that degraded, and zero without a fresh= spec.
  const core::RunResult always = core::run_scenario(dispatch_config("hedge:q90"));
  EXPECT_EQ(always.hedges_skipped_fresh, 0u);

  const core::RunResult skipping = core::run_scenario(dispatch_config("hedge:q90:fresh=50"));
  EXPECT_EQ(skipping.tasks_completed, 2500u);
  EXPECT_GT(skipping.hedges_skipped_fresh, 0u);
  // Skipped plans arm no timer and send no duplicate, so duplicate
  // work cannot exceed the always-hedge run's.
  EXPECT_LE(skipping.duplicates_sent, always.duplicates_sent);
  EXPECT_LE(skipping.duplicate_work_fraction, always.duplicate_work_fraction);
}

TEST(DispatchScenario, TiedLoserIsAlwaysRejectedAtDequeue) {
  const core::ScenarioConfig config = dispatch_config("tied");
  const core::RunResult run = core::run_scenario(config);
  EXPECT_EQ(run.tasks_completed, 2500u);

  // Every read with >= 2 replicas gets a sibling copy; the first
  // dequeue claims the request, so no duplicate ever reaches service.
  EXPECT_GT(run.duplicates_sent, 0u);
  EXPECT_EQ(run.duplicates_served, 0u);
  EXPECT_DOUBLE_EQ(run.duplicate_work_fraction, 0.0);
  EXPECT_LE(run.duplicates_cancelled, run.duplicates_sent);
  // All but the handful in flight at teardown were rejected.
  EXPECT_GE(run.duplicates_cancelled + config.num_clients, run.duplicates_sent);
  EXPECT_EQ(run.hedges_issued, 0u);  // no timers in tied mode
}

TEST(DispatchScenario, KofnCancelsStragglersAndIsThreadInvariant) {
  core::ScenarioConfig config = dispatch_config("kofn:2");
  const std::vector<std::uint64_t> seeds = {1, 2};
  const core::AggregateResult serial = core::run_seeds(config, seeds, {.max_threads = 1});
  const core::AggregateResult parallel = core::run_seeds(config, seeds, {.max_threads = 0});

  // Worker threads must not move a single sample or counter.
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  EXPECT_EQ(serial.p99_ms.mean(), parallel.p99_ms.mean());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    const core::RunResult& a = serial.runs[i];
    const core::RunResult& b = parallel.runs[i];
    EXPECT_EQ(a.task_latency.percentile(99), b.task_latency.percentile(99));
    EXPECT_EQ(a.duplicates_sent, b.duplicates_sent);
    EXPECT_EQ(a.duplicates_cancelled, b.duplicates_cancelled);
    EXPECT_EQ(a.duplicates_served, b.duplicates_served);
    EXPECT_EQ(a.events_processed, b.events_processed);
  }

  // Fan-out beyond k produces duplicates; stragglers are cancelled at
  // their dequeue, so wasted full services stay a bounded fraction.
  const core::RunResult& run = serial.runs[0];
  EXPECT_GT(run.duplicates_sent, 0u);
  EXPECT_GT(run.duplicates_cancelled, 0u);
  EXPECT_LE(run.duplicates_cancelled + run.duplicates_served, run.duplicates_sent);
  EXPECT_GT(run.duplicate_work_fraction, 0.0);
  EXPECT_LT(run.duplicate_work_fraction, 0.5);
}

TEST(DispatchScenario, DuplicateModesRejectGlobalQueueSystems) {
  core::ScenarioConfig config = dispatch_config("tied");
  config.system = core::SystemKind::kEqualMaxModel;  // global-queue system
  EXPECT_THROW(core::run_scenario(config), std::invalid_argument);
  // single stays compatible everywhere.
  config.dispatch_spec = "single";
  EXPECT_NO_THROW(core::run_scenario(config));
}

// ---------------------------------------------------------------------------
// Sweep plans

TEST(HedgingShootoutScenario, SweepsModesOverBothWorkloads) {
  const util::Flags flags;
  const core::ScenarioConfig base;
  const cli::SweepPlan plan = cli::build_sweep_plan("hedging-shootout", base, {1}, flags);
  ASSERT_EQ(plan.cases.size(), 8u);
  EXPECT_EQ(plan.cases[0].label, "steady/single");
  EXPECT_EQ(plan.cases[1].label, "steady/hedge:q98");
  EXPECT_EQ(plan.cases[2].label, "steady/tied");
  EXPECT_EQ(plan.cases[3].label, "steady/kofn:2");
  EXPECT_EQ(plan.cases[4].label, "diurnal/single");
  EXPECT_TRUE(plan.cases[0].config.dispatch_spec.empty());  // reference case
  EXPECT_EQ(plan.cases[1].config.dispatch_spec, "hedge:q98");
  EXPECT_EQ(plan.cases[1].config.policy_spec, "c3-noderate");
  // The shootout runs on the large-fleet shape, where per-server
  // signals are sparse enough for hedging to pay.
  EXPECT_EQ(plan.cases[0].config.cluster.num_servers, 100u);
  EXPECT_EQ(plan.cases[0].config.num_clients, 1000u);
  EXPECT_TRUE(plan.cases[0].config.arrival_spec.empty());
  EXPECT_EQ(plan.cases[4].config.arrival_spec, "diurnal:0.5:1.5:1");

  core::ScenarioConfig bound;
  bound.dispatch_spec = "tied";
  EXPECT_THROW(cli::build_sweep_plan("hedging-shootout", bound, {1}, flags),
               std::invalid_argument);
  core::ScenarioConfig picked;
  picked.policy_spec = "random";
  EXPECT_THROW(cli::build_sweep_plan("hedging-shootout", picked, {1}, flags),
               std::invalid_argument);
}

TEST(PolicySwitchScenario, ModeEpochsGetStaticModeEndpoints) {
  const util::Flags flags;
  core::ScenarioConfig base;
  base.policy_switch_spec = "t0:random,1s:hedge:q95";
  const cli::SweepPlan plan = cli::build_sweep_plan("policy-switch", base, {1}, flags);
  ASSERT_EQ(plan.cases.size(), 3u);
  EXPECT_EQ(plan.cases[0].label, "static/random");
  EXPECT_TRUE(plan.cases[0].config.dispatch_spec.empty());
  EXPECT_EQ(plan.cases[1].label, "static/random+hedge:q95");
  EXPECT_EQ(plan.cases[1].config.dispatch_spec, "hedge:q95");
  EXPECT_EQ(plan.cases[2].label, "switch/t0:random,1s:hedge:q95");
}

}  // namespace
}  // namespace brb
