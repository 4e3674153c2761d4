// Tests for replica policies, C3 (scoring and rate control), and the BRB
// priority-assignment policies (the paper's core algorithms).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/dispatch_gate.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "ctrl/signal_table.hpp"
#include "policy/c3.hpp"
#include "policy/priority_policy.hpp"
#include "util/rng.hpp"

namespace brb::policy {
namespace {

using sim::Duration;
using sim::Time;

const std::vector<store::ServerId> kReplicas = {3, 5, 7};

store::ServerFeedback feedback(std::uint32_t queue, double rate) {
  store::ServerFeedback f;
  f.queue_length = queue;
  f.service_rate = rate;
  f.service_time = Duration::micros(300);
  return f;
}

// ---------------------------------------------------------------------------
// Replica rules (stateless rankings over one SignalTable)

/// Test harness pairing one single-mode dispatch policy with its own
/// SignalTable — the shape the production DispatchEndpoint maintains
/// per client.
struct Bound {
  ctrl::SignalTable signals;
  std::unique_ptr<ctrl::DispatchPolicy> policy;

  explicit Bound(const std::string& name, std::uint64_t seed = 0,
                 const ctrl::C3ScoreConfig& c3 = {})
      : policy(ctrl::make_dispatch_policy(name, {}, c3, false, c3.prior_service_time,
                                          util::Rng(seed))) {}

  store::ServerId select(const std::vector<store::ServerId>& replicas, Duration cost) {
    const ctrl::DispatchPlan plan = policy->plan(signals, replicas, cost);
    EXPECT_EQ(plan.num_targets, 1u);
    return plan.primary();
  }
  void on_send(store::ServerId server, Duration cost) { signals.on_send(server, cost); }
  void on_response(store::ServerId server, const store::ServerFeedback& fb, Duration rtt,
                   Duration cost) {
    signals.on_response(server, fb, rtt, cost);
  }
};

TEST(RandomPolicy, UniformOverReplicas) {
  Bound selector("random", 1);
  std::map<store::ServerId, int> counts;
  for (int i = 0; i < 30000; ++i) ++counts[selector.select(kReplicas, Duration::zero())];
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& [server, count] : counts) EXPECT_NEAR(count, 10000, 700);
}

TEST(RandomPolicy, ThrowsOnEmpty) {
  Bound selector("random", 2);
  EXPECT_THROW(selector.select({}, Duration::zero()), std::invalid_argument);
}

TEST(RoundRobinPolicy, Cycles) {
  Bound selector("round-robin");
  EXPECT_EQ(selector.select(kReplicas, Duration::zero()), 3u);
  EXPECT_EQ(selector.select(kReplicas, Duration::zero()), 5u);
  EXPECT_EQ(selector.select(kReplicas, Duration::zero()), 7u);
  EXPECT_EQ(selector.select(kReplicas, Duration::zero()), 3u);
}

TEST(LeastOutstandingPolicy, PicksIdleServer) {
  Bound selector("least-outstanding");
  selector.on_send(3, Duration::zero());
  selector.on_send(3, Duration::zero());
  selector.on_send(5, Duration::zero());
  EXPECT_EQ(selector.select(kReplicas, Duration::zero()), 7u);
}

TEST(LeastOutstandingPolicy, ResponsesDecrement) {
  Bound selector("least-outstanding");
  selector.on_send(3, Duration::zero());
  selector.on_response(3, feedback(0, 1), Duration::micros(100), Duration::zero());
  EXPECT_EQ(selector.signals.outstanding(3), 0u);
  // Double response never underflows.
  selector.on_response(3, feedback(0, 1), Duration::micros(100), Duration::zero());
  EXPECT_EQ(selector.signals.outstanding(3), 0u);
}

TEST(LeastOutstandingPolicy, TieBreakRotates) {
  Bound selector("least-outstanding");
  std::map<store::ServerId, int> counts;
  for (int i = 0; i < 3000; ++i) ++counts[selector.select(kReplicas, Duration::zero())];
  // All tied at zero outstanding: rotation spreads the picks evenly.
  for (const auto& [server, count] : counts) EXPECT_EQ(count, 1000);
}

TEST(LeastPendingCostPolicy, PicksCheapestServer) {
  Bound selector("least-pending-cost");
  selector.on_send(3, Duration::micros(500));
  selector.on_send(5, Duration::micros(100));
  selector.on_send(7, Duration::micros(300));
  EXPECT_EQ(selector.select(kReplicas, Duration::zero()), 5u);
  EXPECT_EQ(selector.signals.pending_cost(3), Duration::micros(500));
}

TEST(LeastPendingCostPolicy, ResponsesReleaseCost) {
  Bound selector("least-pending-cost");
  selector.on_send(3, Duration::micros(500));
  selector.on_response(3, feedback(0, 1), Duration::micros(100), Duration::micros(500));
  EXPECT_EQ(selector.signals.pending_cost(3), Duration::zero());
  // Over-release clamps at zero.
  selector.on_response(3, feedback(0, 1), Duration::micros(100), Duration::micros(500));
  EXPECT_EQ(selector.signals.pending_cost(3), Duration::zero());
}

TEST(FirstReplicaPolicy, AlwaysFront) {
  Bound selector("first");
  EXPECT_EQ(selector.select(kReplicas, Duration::zero()), 3u);
  EXPECT_THROW(selector.select({}, Duration::zero()), std::invalid_argument);
}

TEST(TwoChoicesPolicy, FollowsOutstandingCounts) {
  Bound selector("two-choices", 9);
  // Load servers 3 and 5; with three replicas every sampled pair
  // contains 7 at least sometimes, and 7 must win whenever it does.
  selector.on_send(3, Duration::zero());
  selector.on_send(3, Duration::zero());
  selector.on_send(5, Duration::zero());
  std::map<store::ServerId, int> counts;
  for (int i = 0; i < 3000; ++i) ++counts[selector.select(kReplicas, Duration::zero())];
  EXPECT_GT(counts[7], counts[3]);
  EXPECT_EQ(selector.signals.outstanding(3), 2u);
}

TEST(SignalBackedPolicies, ObservationsLandInTheTable) {
  // Policies are stateless rankings; observations land in the shared
  // SignalTable, not in per-policy private state.
  Bound selector("least-outstanding");
  selector.on_send(3, Duration::micros(50));
  EXPECT_EQ(selector.signals.outstanding(3), 1u);
  EXPECT_EQ(selector.signals.pending_cost(3), Duration::micros(50));
  EXPECT_EQ(selector.policy->name(), "least-outstanding");
}

// ---------------------------------------------------------------------------
// C3 scoring (ctrl::c3_score over one client's SignalTable)

const ctrl::C3ScoreConfig kC3 = [] {
  ctrl::C3ScoreConfig config;
  config.num_clients = 18;
  return config;
}();

struct C3Bound : Bound {
  explicit C3Bound(double ewma_alpha = 0.5) : Bound("c3", 0, kC3) {
    signals = ctrl::SignalTable(ctrl::SignalTableConfig{ewma_alpha});
  }
  double score(store::ServerId server) const { return ctrl::c3_score(kC3, signals, server); }
};

TEST(C3ScorePolicy, PrefersShorterQueues) {
  C3Bound c3;
  c3.on_response(3, feedback(20, 14'000), Duration::micros(500), Duration::zero());
  c3.on_response(5, feedback(1, 14'000), Duration::micros(500), Duration::zero());
  c3.on_response(7, feedback(10, 14'000), Duration::micros(500), Duration::zero());
  EXPECT_EQ(c3.select(kReplicas, Duration::zero()), 5u);
}

TEST(C3ScorePolicy, CubicPenaltyDominatesForLongQueues) {
  C3Bound c3;
  // Server 3: tiny response time but a huge queue; server 5: slower
  // responses, empty queue. The q^3 term must win.
  c3.on_response(3, feedback(50, 14'000), Duration::micros(100), Duration::zero());
  c3.on_response(5, feedback(0, 14'000), Duration::micros(2'000), Duration::zero());
  EXPECT_GT(c3.score(3), c3.score(5));
}

TEST(C3ScorePolicy, OutstandingRequestsRaiseScore) {
  C3Bound c3;
  c3.on_response(3, feedback(2, 14'000), Duration::micros(500), Duration::zero());
  const double before = c3.score(3);
  c3.on_send(3, Duration::zero());
  c3.on_send(3, Duration::zero());
  EXPECT_GT(c3.score(3), before);
  EXPECT_EQ(c3.signals.outstanding(3), 2u);
}

TEST(C3ScorePolicy, EwmaSmoothsResponseTimes) {
  C3Bound c3(/*ewma_alpha=*/0.5);
  c3.on_response(3, feedback(0, 14'000), Duration::micros(1000), Duration::zero());
  c3.on_response(3, feedback(0, 14'000), Duration::micros(2000), Duration::zero());
  // EWMA(1000, 2000; a=0.5) = 1500us -> score reflects the blend, and
  // selecting between two servers with raw extremes goes to the one
  // whose smoothed estimate is lower.
  c3.on_response(5, feedback(0, 14'000), Duration::micros(1600), Duration::zero());
  EXPECT_LT(c3.score(3), c3.score(5));
}

TEST(C3ScorePolicy, UnknownServersUseNeutralPrior) {
  C3Bound c3;
  // Never-seen servers are selectable without throwing.
  EXPECT_NO_THROW(c3.select(kReplicas, Duration::zero()));
}

TEST(C3ScorePolicy, RejectsBadConfig) {
  // The EWMA weight belongs to the table, the scoring knobs to the
  // policy; each side validates its own.
  EXPECT_THROW(ctrl::SignalTable(ctrl::SignalTableConfig{0.0}), std::invalid_argument);
  const auto make_c3 = [](const ctrl::C3ScoreConfig& config) {
    return ctrl::make_dispatch_policy("c3", {}, config, false, config.prior_service_time,
                                      util::Rng(0));
  };
  ctrl::C3ScoreConfig bad;
  bad.num_clients = 18;
  bad.queue_exponent = 0.5;
  EXPECT_THROW(make_c3(bad), std::invalid_argument);
  bad = ctrl::C3ScoreConfig{};
  bad.num_clients = 0;
  EXPECT_THROW(make_c3(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cubic rate law, driven through a cubic-law DispatchGate: server 1 is
// the pair under test.

CubicRateConfig rate_config(double initial = 1000.0) {
  CubicRateConfig config;
  config.initial_rate = initial;
  return config;
}

struct RateGate {
  sim::Simulator simulator;
  client::DispatchGate gate;
  std::vector<Time> sent_at;

  explicit RateGate(const CubicRateConfig& config)
      : gate(simulator, 2, config) {
    gate.set_transmit([this](client::OutboundRequest&) { sent_at.push_back(simulator.now()); });
  }

  /// Offers `n` requests at `t`; returns how many went out at once.
  int offer(Time t, int n) {
    simulator.run_until(t);
    const std::size_t before = sent_at.size();
    for (int i = 0; i < n; ++i) {
      client::OutboundRequest out;
      out.server = 1;
      gate.offer(out);
    }
    return static_cast<int>(sent_at.size() - before);
  }

  void respond(Time t, std::uint32_t queue, double service_rate) {
    simulator.run_until(t);
    gate.on_response(1, feedback(queue, service_rate));
  }

  double rate() const { return gate.rate(1); }
};

TEST(CubicRateController, TokenBucketLimitsBurst) {
  RateGate f(rate_config());
  EXPECT_EQ(f.offer(Time::zero(), 20), 8);  // burst depth
  EXPECT_EQ(f.gate.held(), 12u);
}

TEST(CubicRateController, TokensRefillAtRate) {
  RateGate f(rate_config(1000.0));
  ASSERT_EQ(f.offer(Time::zero(), 8), 8);
  // After 10ms at 1000 req/s, ~10 tokens are back (capped at burst 8):
  // the ninth offer waits, and goes out 1ms later with the next token.
  EXPECT_EQ(f.offer(Time::millis(10), 9), 8);
  f.simulator.run_until(Time::millis(11));
  ASSERT_EQ(f.sent_at.size(), 17u);
  EXPECT_EQ(f.sent_at.back(), Time::millis(11));
  // After 2 more ms, exactly 2 tokens.
  EXPECT_EQ(f.offer(Time::millis(13), 3), 2);
}

TEST(CubicRateController, EarliestSendIsConsistent) {
  RateGate f(rate_config(1000.0));
  ASSERT_EQ(f.offer(Time::zero(), 9), 8);
  // The held request schedules one wake, for when a token accrues ...
  EXPECT_EQ(f.simulator.pending_events(), 1u);
  f.simulator.run();
  // ... and at the promised time a token is indeed available: it goes
  // out on that wake, with no retry.
  EXPECT_EQ(f.simulator.events_processed(), 1u);
  ASSERT_EQ(f.sent_at.size(), 9u);
  EXPECT_GT(f.sent_at.back(), Time::zero());
  EXPECT_EQ(f.gate.held(), 0u);
}

TEST(CubicRateController, DecreasesWhenReceiveLagsSend) {
  RateGate f(rate_config(1000.0));
  // Window 1: send 10, receive only 1 -> congestion on window close.
  ASSERT_EQ(f.offer(Time::zero(), 8), 8);
  ASSERT_EQ(f.offer(Time::millis(2), 1), 1);
  ASSERT_EQ(f.offer(Time::millis(4), 1), 1);
  f.respond(Time::millis(25), 5, 10'000);  // past the 20ms window
  // Exactly one multiplicative decrease (beta 0.2).
  EXPECT_DOUBLE_EQ(f.rate(), 800.0);
}

TEST(CubicRateController, GrowsWhenBalanced) {
  RateGate f(rate_config(1000.0));
  Time t = Time::zero();
  // Balanced traffic across several windows -> cubic growth kicks in.
  for (int w = 1; w <= 50; ++w) {
    ASSERT_EQ(f.offer(t, 4), 4);
    t = Time::millis(w * 21);
    for (int i = 0; i < 4; ++i) f.respond(t, 0, 10'000);
  }
  EXPECT_GT(f.rate(), 1000.0);
  // No decrease on the way: the rate is still on the curve that began
  // when the pair opened, W_max = 1000 at epoch 0.
  const double k = std::cbrt(1000.0 * 0.2 / 250'000.0);
  EXPECT_NEAR(f.rate(), 250'000.0 * std::pow(t.as_seconds() - k, 3.0) + 1000.0, 1e-6);
}

TEST(CubicRateController, RecoveryApproachesPreDecreaseRate) {
  RateGate f(rate_config(1000.0));
  // Force one decrease.
  f.offer(Time::zero(), 8);
  Time t = Time::millis(25);
  f.respond(t, 9, 10'000);
  const double post_decrease = f.rate();
  ASSERT_LT(post_decrease, 1000.0);
  // Balanced windows afterwards: rate recovers toward 1000 within ~1s.
  for (int w = 1; w <= 50; ++w) {
    f.offer(t, 1);
    t = t + Duration::millis(21);
    f.respond(t, 0, 10'000);
  }
  EXPECT_GE(f.rate(), 1000.0 * 0.95);
}

TEST(CubicRateController, RecoveryCrossesWmaxAndKeepsGrowing) {
  // Full CUBIC episode: a decrease records W_max = 1000, the recovery
  // curve climbs back, crosses W_max (the curve's inflection point),
  // and continues into the convex probing region beyond it.
  RateGate f(rate_config(1000.0));
  f.offer(Time::zero(), 8);
  Time t = Time::millis(25);
  f.respond(t, 9, 10'000);  // congestion verdict
  ASSERT_DOUBLE_EQ(f.rate(), 800.0);  // one decrease

  // Balanced windows until the cap crosses W_max. The recovery curve
  // only rises, so any drop would be a spurious decrease.
  double previous = f.rate();
  double rate_at_crossing = 0.0;
  for (int w = 1; w <= 400 && rate_at_crossing == 0.0; ++w) {
    f.offer(t, 1);
    t = t + Duration::millis(21);
    f.respond(t, 0, 10'000);
    ASSERT_GE(f.rate(), previous);
    previous = f.rate();
    if (f.rate() > 1000.0) rate_at_crossing = f.rate();
  }
  ASSERT_GT(rate_at_crossing, 1000.0) << "recovery never crossed W_max";

  // Past W_max the curve is convex: growth must continue, not plateau.
  for (int w = 0; w < 100; ++w) {
    f.offer(t, 1);
    t = t + Duration::millis(21);
    f.respond(t, 0, 10'000);
    ASSERT_GE(f.rate(), previous);
    previous = f.rate();
  }
  EXPECT_GT(f.rate(), rate_at_crossing);
}

TEST(CubicRateController, RespectsMinAndMaxRate) {
  CubicRateConfig config = rate_config(100.0);
  config.min_rate = 50.0;
  config.max_rate = 200.0;
  RateGate f(config);
  Time t = Time::zero();
  // Hammer with congestion verdicts.
  for (int w = 1; w <= 30; ++w) {
    f.offer(t, 10);
    t = t + Duration::millis(21);
    f.respond(t, 99, 1'000);
  }
  EXPECT_GE(f.rate(), 50.0);
  // And with long balanced growth.
  for (int w = 1; w <= 200; ++w) {
    f.offer(t, 1);
    t = t + Duration::millis(21);
    f.respond(t, 0, 10'000);
  }
  EXPECT_LE(f.rate(), 200.0);
}

TEST(CubicRateController, RejectsBadConfig) {
  sim::Simulator simulator;
  using client::DispatchGate;
  EXPECT_THROW(DispatchGate(simulator, 2, rate_config(0.0)), std::invalid_argument);
  auto bad = rate_config();
  bad.beta = 1.5;
  EXPECT_THROW(DispatchGate(simulator, 2, bad), std::invalid_argument);
  bad = rate_config();
  bad.burst = 0.5;
  EXPECT_THROW(DispatchGate(simulator, 2, bad), std::invalid_argument);
  bad = rate_config();
  bad.congestion_tolerance = 0.9;
  EXPECT_THROW(DispatchGate(simulator, 2, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Priority policies (the BRB algorithms)

TaskPlan make_plan(std::vector<std::pair<store::GroupId, std::int64_t>> requests) {
  TaskPlan plan;
  plan.task_id = 1;
  plan.arrival = Time::micros(123);
  for (const auto& [group, cost_ns] : requests) {
    PlannedRequest request;
    request.group = group;
    request.expected_cost = Duration::nanos(cost_ns);
    plan.requests.push_back(request);
  }
  compute_bottleneck(plan);
  return plan;
}

TEST(ComputeBottleneck, SumsPerGroupAndTakesMax) {
  // Fig. 1 structure: group 0 = {A:1}, group 1 = {B:1, C:1}, unit 1000ns.
  const TaskPlan plan = make_plan({{0, 1000}, {1, 1000}, {1, 1000}});
  EXPECT_EQ(plan.bottleneck_cost.count_nanos(), 2000);
}

TEST(ComputeBottleneck, SingleRequest) {
  const TaskPlan plan = make_plan({{0, 500}});
  EXPECT_EQ(plan.bottleneck_cost.count_nanos(), 500);
}

TEST(FifoPolicy, PriorityIsArrivalTime) {
  TaskPlan plan = make_plan({{0, 1000}, {1, 2000}});
  const PriorityPolicy policy(PriorityPolicy::Rule::kFifo);
  policy.assign(plan);
  for (const auto& request : plan.requests) {
    EXPECT_DOUBLE_EQ(request.priority, 123'000.0);
  }
}

TEST(EqualMaxPolicy, AllRequestsGetBottleneckCost) {
  TaskPlan plan = make_plan({{0, 1000}, {1, 1000}, {1, 1000}});
  const PriorityPolicy policy(PriorityPolicy::Rule::kEqualMax);
  policy.assign(plan);
  for (const auto& request : plan.requests) {
    EXPECT_DOUBLE_EQ(request.priority, 2000.0);
  }
}

TEST(EqualMaxPolicy, ShorterTasksGetBetterPriority) {
  // Fig. 1: T1 bottleneck 2 units, T2 bottleneck 1 unit -> T2's
  // requests outrank T1's everywhere.
  TaskPlan t1 = make_plan({{0, 1000}, {1, 1000}, {1, 1000}});
  TaskPlan t2 = make_plan({{2, 1000}, {0, 1000}});
  const PriorityPolicy policy(PriorityPolicy::Rule::kEqualMax);
  policy.assign(t1);
  policy.assign(t2);
  EXPECT_LT(t2.requests[1].priority, t1.requests[0].priority);
}

TEST(UnifIncrPolicy, PriorityIsSlackBehindBottleneck) {
  TaskPlan plan = make_plan({{0, 1000}, {1, 1500}, {2, 3000}});
  const PriorityPolicy policy(PriorityPolicy::Rule::kUnifIncr);
  policy.assign(plan);
  EXPECT_DOUBLE_EQ(plan.requests[0].priority, 2000.0);  // 3000 - 1000
  EXPECT_DOUBLE_EQ(plan.requests[1].priority, 1500.0);  // 3000 - 1500
  EXPECT_DOUBLE_EQ(plan.requests[2].priority, 0.0);     // the bottleneck
}

TEST(UnifIncrPolicy, BottleneckRequestHasZeroSlack) {
  TaskPlan plan = make_plan({{0, 100}, {1, 100}, {2, 100}});
  const PriorityPolicy policy(PriorityPolicy::Rule::kUnifIncr);
  policy.assign(plan);
  // All groups equal: every request is its group's bottleneck.
  for (const auto& request : plan.requests) EXPECT_DOUBLE_EQ(request.priority, 0.0);
}

TEST(UnifIncrPolicy, SlackNeverNegative) {
  TaskPlan plan = make_plan({{0, 500}, {0, 700}});  // same group sums to 1200
  const PriorityPolicy policy(PriorityPolicy::Rule::kUnifIncr);
  policy.assign(plan);
  for (const auto& request : plan.requests) EXPECT_GE(request.priority, 0.0);
}

TEST(CumSlackPolicy, LastBottleneckRequestHasZeroSlack) {
  // Group 1 holds two 1000ns requests (bottleneck 2000ns).
  TaskPlan plan = make_plan({{0, 1000}, {1, 1000}, {1, 1000}});
  const PriorityPolicy policy(PriorityPolicy::Rule::kCumSlack);
  policy.assign(plan);
  EXPECT_DOUBLE_EQ(plan.requests[0].priority, 1000.0);  // 2000 - 1000
  EXPECT_DOUBLE_EQ(plan.requests[1].priority, 1000.0);  // first of group 1
  EXPECT_DOUBLE_EQ(plan.requests[2].priority, 0.0);     // cumulative = bottleneck
}

TEST(CumSlackPolicy, MatchesUnifIncrForSingletonSubtasks) {
  TaskPlan a = make_plan({{0, 500}, {1, 1500}, {2, 900}});
  TaskPlan b = a;
  const PriorityPolicy cumslack(PriorityPolicy::Rule::kCumSlack);
  const PriorityPolicy unifincr(PriorityPolicy::Rule::kUnifIncr);
  cumslack.assign(a);
  unifincr.assign(b);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.requests[i].priority, b.requests[i].priority);
  }
}

TEST(CumSlackPolicy, SlackNeverNegative) {
  TaskPlan plan = make_plan({{0, 300}, {0, 300}, {0, 300}, {1, 100}});
  const PriorityPolicy policy(PriorityPolicy::Rule::kCumSlack);
  policy.assign(plan);
  for (const auto& request : plan.requests) EXPECT_GE(request.priority, 0.0);
}

TEST(RequestSjfPolicy, PriorityIsOwnCost) {
  TaskPlan plan = make_plan({{0, 111}, {1, 222}});
  const PriorityPolicy policy(PriorityPolicy::Rule::kRequestSjf);
  policy.assign(plan);
  EXPECT_DOUBLE_EQ(plan.requests[0].priority, 111.0);
  EXPECT_DOUBLE_EQ(plan.requests[1].priority, 222.0);
}

TEST(PolicyFactory, KnownNames) {
  EXPECT_EQ(make_priority_policy("fifo")->name(), "fifo");
  EXPECT_EQ(make_priority_policy("equalmax")->name(), "equalmax");
  EXPECT_EQ(make_priority_policy("unifincr")->name(), "unifincr");
  EXPECT_EQ(make_priority_policy("request-sjf")->name(), "request-sjf");
  EXPECT_EQ(make_priority_policy("cumslack")->name(), "cumslack");
  EXPECT_THROW(make_priority_policy("lifo"), std::invalid_argument);
}

}  // namespace
}  // namespace brb::policy
