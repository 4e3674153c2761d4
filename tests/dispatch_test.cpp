// Dispatch-plan API tests: pinned decision streams for every (replica
// rule, dispatch mode, credit filter) combination, plan shapes for the
// tail-cutting modes, the mode spec grammar (--dispatch and
// --policy-switch payloads), and scenario-level executor invariants —
// hedge arm/cancel accounting, tied loser rejection, k-of-n straggler
// cancellation under worker-thread invariance, and the
// duplicate_work_fraction == 0 guarantee for single-target dispatch.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/sweep_plan.hpp"
#include "core/scenario.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "ctrl/policy_runtime.hpp"
#include "ctrl/replica_policy.hpp"
#include "ctrl/signal_table.hpp"
#include "sim/simulator.hpp"
#include "stats/report.hpp"
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
// Decision-stream pins: every (replica rule, dispatch mode, credit
// filter) combination, driven through one seeded history, must keep
// producing the exact plans it produced when the stack was first
// pinned. Any change to an RNG draw, a cursor step, a tie-break or a
// sub-list moves a hash.

const std::vector<std::string> kPinnedModes = {
    "single", "hedge:q95", "hedge:q95:fresh=1", "tied", "kofn:2", "kofn:4"};

struct PinnedStreams {
  std::string policy;
  /// Indexed [mode][credit_aware] over kPinnedModes.
  std::array<std::array<std::uint64_t, 2>, 6> hashes;
};

template <typename T>
void fnv1a(std::uint64_t& hash, T value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char b : bytes) {
    hash ^= b;
    hash *= 1099511628211ULL;
  }
}

/// FNV-1a over 600 plans (targets, num_targets, mode, needed,
/// hedge_delay ns, skipped_fresh) of one dispatch stack. The history
/// draws replica sets of size 1-5, cycles credit balances through
/// all-funded / some-funded / all-broke, and completes in-flight copies
/// by response or cancel in random order while the clock advances.
std::uint64_t decision_stream_hash(const std::string& policy, const std::string& mode_spec,
                                   bool credit_aware) {
  sim::Simulator sim;
  const DispatchModeConfig mode = ctrl::parse_dispatch_mode(mode_spec);
  ctrl::C3ScoreConfig c3;
  c3.num_clients = 4;
  const auto dispatch =
      ctrl::make_dispatch_policy(policy, mode, c3, credit_aware, Duration::millis(2),
                                 util::Rng(41), mode.fresh_age > Duration::zero() ? &sim : nullptr);
  ctrl::SignalTable signals;
  util::Rng history(43);
  const std::vector<std::vector<store::ServerId>> sets = {
      {4}, {1, 6}, {0, 3, 5}, {2, 7, 1, 4}, {5, 0, 6, 3, 2}};
  std::vector<std::pair<store::ServerId, Duration>> in_flight;

  std::uint64_t hash = 14695981039346656037ULL;
  for (int round = 0; round < 600; ++round) {
    const int phase = (round / 5) % 3;  // 0 all funded, 1 some funded, 2 all broke
    for (store::ServerId s = 0; s < 8; ++s) {
      const bool funded = phase == 0 || (phase == 1 && (s + round / 15) % 2 == 0);
      signals.set_credit_balance(s, funded ? 1.0 + static_cast<double>(s % 3) : 0.5);
    }
    const auto& replicas = sets[history.uniform_u64_below(sets.size())];
    const Duration cost = Duration::micros(50 + history.uniform_u64_below(400));
    const DispatchPlan plan = dispatch->plan(signals, replicas, cost);

    for (std::size_t i = 0; i < plan.num_targets; ++i) fnv1a(hash, plan.targets[i]);
    fnv1a(hash, plan.num_targets);
    fnv1a(hash, plan.mode);
    fnv1a(hash, plan.needed);
    fnv1a(hash, plan.hedge_delay.count_nanos());
    fnv1a(hash, plan.skipped_fresh);

    for (std::size_t i = 0; i < plan.num_targets; ++i) {
      signals.on_send(plan.targets[i], cost);
      in_flight.emplace_back(plan.targets[i], cost);
    }
    sim.run_until(sim.now() + Duration::micros(20 + history.uniform_u64_below(300)));
    for (std::uint64_t done = history.uniform_u64_below(4); done > 0 && !in_flight.empty();
         --done) {
      const std::size_t pick = history.uniform_u64_below(in_flight.size());
      const auto [server, sent_cost] = in_flight[pick];
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
      if (history.uniform_u64_below(4) == 0) {
        signals.on_cancel(server, sent_cost);
      } else {
        store::ServerFeedback fb =
            feedback(static_cast<std::uint32_t>(history.uniform_u64_below(12)),
                     6'000.0 + 1'000.0 * static_cast<double>(history.uniform_u64_below(8)));
        fb.service_time = Duration::micros(100 + history.uniform_u64_below(500));
        const Duration rtt = Duration::micros(150 + history.uniform_u64_below(900));
        signals.on_response(server, fb, rtt, sent_cost, sim.now());
      }
    }
  }
  return hash;
}

/// Hashes generated by the stack of per-rule selector classes, the
/// single-target adapter and the mode/credit decorators that the one
/// DispatchPolicy replaced; one row per catalog entry, in catalog order.
const std::vector<PinnedStreams> kPins = {
    {"random",
     {{{0x5c9a0554c891f855, 0x75470b251aaf5850},
       {0x9ce227804f49e721, 0xeb093e97a0ac2b5d},
       {0xff178e143a35a55d, 0xc148830f17173975},
       {0xd58ec97934553905, 0x1d0c748f42cb8ca1},
       {0x4e32dfda803fb2ba, 0x56a099ab78065767},
       {0xe89021b7eabe6c14, 0x1d74efa32c76c1aa}}}},
    {"round-robin",
     {{{0xd29f096b48b93091, 0x09c17a5e1f2cff12},
       {0xad91ea13eb96f09e, 0xe497f7d1bdb8d4b4},
       {0xaf10d8d038ab2746, 0xfcb6c40d45d50126},
       {0xba95ca113f432bb7, 0x233704c7420bfaf2},
       {0xb489f2d82a740b55, 0xdd569521169a8015},
       {0x0480b9fc01012793, 0xabea4d2638caadb0}}}},
    {"least-outstanding",
     {{{0xd5ea75b1d36ab802, 0x398287baf0023d34},
       {0x923e91dad2615a69, 0x784d496eba7c0ba0},
       {0x65579e52d4bade61, 0xd4e76307958af638},
       {0x58680bc9f407e2ff, 0x3c1e611a25734349},
       {0x91fd4152c1bc42b8, 0xf9f565523e7942cf},
       {0x30acb5a00afa67a6, 0x05a622338461f0a2}}}},
    {"two-choices",
     {{{0x893404fe34aaa506, 0x39e95f8806e8ea46},
       {0x9da02989114b5c0c, 0xd91df6d13ca6072a},
       {0xc49cd0141a4026a3, 0xa285ded40084af4c},
       {0x6624077a887b20ef, 0x39de94f19eace584},
       {0x61825d2419455b68, 0x172f76e8f8d17f0c},
       {0xfde17262137afc96, 0x0b8afc50569abe91}}}},
    {"least-pending-cost",
     {{{0xdce753a8f93a7950, 0x1535ffa8130d3c34},
       {0x6c5f078efa21a6d5, 0x39da106fe9ef0a54},
       {0xd79f4db1b758e8fe, 0x4fcede15d318d94c},
       {0x3dd0512a2e491bba, 0xf644c5ac7e1494da},
       {0x73631222a1e4f752, 0x45295fb3d83c6c39},
       {0x8771332b90b83234, 0x2c249005616c2f84}}}},
    {"c3",
     {{{0xf4fd9c8ad8cf6422, 0x8627a71a6a41eb27},
       {0x8a0471f429d07f77, 0xa8f82dd411a73833},
       {0x91e4be9db0917711, 0xe427925136bdd3d8},
       {0x4610a04d80244b4e, 0xc9868a6bf59af3e7},
       {0x9841eec55dad3b86, 0x2e635d3222bb00f8},
       {0xa4d430acd76bab40, 0x721e28b08ec8219d}}}},
    {"c3-noderate",
     {{{0xf4fd9c8ad8cf6422, 0x8627a71a6a41eb27},
       {0x8a0471f429d07f77, 0xa8f82dd411a73833},
       {0x91e4be9db0917711, 0xe427925136bdd3d8},
       {0x4610a04d80244b4e, 0xc9868a6bf59af3e7},
       {0x9841eec55dad3b86, 0x2e635d3222bb00f8},
       {0xa4d430acd76bab40, 0x721e28b08ec8219d}}}},
    {"first",
     {{{0x2acfaef824af5e44, 0x9f062a6893841db4},
       {0x396dc091fb4177fc, 0x7cd0bd342add0378},
       {0xde9abd5859d19978, 0x3b36755ad4fbfd18},
       {0xe1bfe315fe275ad9, 0xac33497bb338630c},
       {0xb42cf0e103d81262, 0xbe1f754b40788dcc},
       {0xb3d69af484f9bc8c, 0x8e24d33d23e21ea9}}}},
};

/// Checks every catalog rule's stream for the modes kPinnedModes[first,
/// last) with and/or without the credit filter.
void expect_pinned_streams(std::size_t first_mode, std::size_t last_mode,
                           const std::vector<bool>& credit_flags) {
  ASSERT_EQ(kPins.size(), ctrl::replica_policy_catalog().size());
  for (std::size_t p = 0; p < kPins.size(); ++p) {
    ASSERT_EQ(kPins[p].policy, ctrl::replica_policy_catalog()[p].name);
    for (std::size_t m = first_mode; m < last_mode; ++m) {
      for (const bool credit_aware : credit_flags) {
        const std::uint64_t actual =
            decision_stream_hash(kPins[p].policy, kPinnedModes[m], credit_aware);
        EXPECT_EQ(actual, kPins[p].hashes[m][credit_aware])
            << kPins[p].policy << " / " << kPinnedModes[m] << " / credit_aware=" << credit_aware
            << ": 0x" << std::hex << actual;
      }
    }
  }
}

// Single-target dispatch picks exactly what the adapter-lifted
// selectors picked, for the whole catalog.
TEST(SingleTargetAdapter, BitIdenticalForEveryRegisteredPolicy) {
  EXPECT_GE(kPins.size(), 8u);  // the eight registered rules (at least)
  expect_pinned_streams(0, 1, {false});
}

// The credit filter reproduces the old credit decorator pick for pick,
// through all-funded, some-funded and all-broke balances.
TEST(SingleTargetAdapter, CreditAwareWrapperMatchesLegacyDecorator) {
  expect_pinned_streams(0, 1, {true});
}

// The tail-cutting modes, with and without the credit filter.
TEST(DispatchPolicy, DecisionStreamsArePinned) {
  expect_pinned_streams(1, kPinnedModes.size(), {false, true});
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

/// A dispatch policy over the "first" rule in mode `spec`.
std::unique_ptr<ctrl::DispatchPolicy> first_in_mode(const std::string& spec,
                                                    const sim::Simulator* sim = nullptr) {
  return ctrl::make_dispatch_policy("first", ctrl::parse_dispatch_mode(spec), {}, false,
                                    Duration::millis(2), util::Rng(1), sim);
}

TEST(HedgeDispatchPolicy, PlansDistinctBackupWithQuantileDeadline) {
  const auto hedge = first_in_mode("hedge:q95");
  ctrl::SignalTable signals;

  // Unseen primary: the deadline falls back to the configured prior.
  DispatchPlan cold = hedge->plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_EQ(cold.mode, DispatchMode::kHedge);
  EXPECT_EQ(cold.num_targets, 2u);
  EXPECT_EQ(cold.needed, 1u);
  EXPECT_EQ(cold.primary(), 3u);
  EXPECT_EQ(cold.targets[1], 8u);
  const double factor = -std::log(1.0 - 0.95);
  EXPECT_NEAR(static_cast<double>(cold.hedge_delay.count_nanos()), factor * 2e6, 1.0);

  // Seen primary: the deadline tracks its response EWMA.
  signals.on_response(3, feedback(1, 10'000), Duration::millis(1), Duration::zero());
  DispatchPlan warm = hedge->plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_NEAR(static_cast<double>(warm.hedge_delay.count_nanos()), factor * 1e6, 1.0);

  // A single replica leaves nobody to hedge onto.
  DispatchPlan lone = hedge->plan(signals, {3}, Duration::micros(100));
  EXPECT_EQ(lone.mode, DispatchMode::kSingle);
  EXPECT_EQ(lone.num_targets, 1u);
}

TEST(HedgeDispatchPolicy, FreshFeedbackSuppressesTheBackup) {
  // Signal-aware skip: feedback younger than fresh_age degrades the
  // plan to single (skipped_fresh set); once the feedback ages past
  // the threshold the full hedge plan returns.
  sim::Simulator sim;
  const auto hedge = first_in_mode("hedge:q95:fresh=1", &sim);
  ctrl::SignalTable signals;

  // No feedback yet: nothing to trust, hedge as usual.
  DispatchPlan cold = hedge->plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_EQ(cold.mode, DispatchMode::kHedge);
  EXPECT_FALSE(cold.skipped_fresh);

  // Feedback stamped "now": fresher than 1 ms, so the plan degrades.
  signals.on_response(3, feedback(1, 10'000), Duration::millis(1), Duration::zero(), sim.now());
  DispatchPlan fresh = hedge->plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_EQ(fresh.mode, DispatchMode::kSingle);
  EXPECT_EQ(fresh.num_targets, 1u);
  EXPECT_EQ(fresh.primary(), 3u);
  EXPECT_TRUE(fresh.skipped_fresh);

  // 5 ms later the same feedback is stale: the back-up is armed again.
  sim.run_until(Time::millis(5));
  DispatchPlan stale = hedge->plan(signals, {3, 8}, Duration::micros(100));
  EXPECT_EQ(stale.mode, DispatchMode::kHedge);
  EXPECT_EQ(stale.num_targets, 2u);
  EXPECT_FALSE(stale.skipped_fresh);
}

TEST(HedgeDispatchPolicy, SkipDisabledWithoutThresholdOrClock) {
  sim::Simulator sim;
  ctrl::SignalTable signals;
  signals.on_response(3, feedback(1, 10'000), Duration::millis(1), Duration::zero(), sim.now());

  // fresh_age zero (the default): always hedge, even on fresh feedback.
  const auto no_threshold = first_in_mode("hedge:q95", &sim);
  EXPECT_EQ(no_threshold->plan(signals, {3, 8}, Duration::micros(100)).mode,
            DispatchMode::kHedge);

  // No clock wired: freshness cannot be judged, always hedge.
  const auto no_clock = first_in_mode("hedge:q95:fresh=1", nullptr);
  EXPECT_EQ(no_clock->plan(signals, {3, 8}, Duration::micros(100)).mode, DispatchMode::kHedge);
}

TEST(TiedDispatchPolicy, PlansTwoDistinctCopies) {
  const auto tied = first_in_mode("tied");
  ctrl::SignalTable signals;
  const DispatchPlan plan = tied->plan(signals, {4, 6, 1}, Duration::micros(100));
  EXPECT_EQ(plan.mode, DispatchMode::kTied);
  EXPECT_EQ(plan.num_targets, 2u);
  EXPECT_EQ(plan.needed, 1u);
  EXPECT_NE(plan.primary(), plan.targets[1]);
}

TEST(KofnDispatchPolicy, RanksDistinctTargetsAndClampsNeeded) {
  const auto kofn = ctrl::make_dispatch_policy("least-outstanding",
                                               ctrl::parse_dispatch_mode("kofn:3"), {}, false,
                                               Duration::millis(2), util::Rng(1));
  ctrl::SignalTable signals;
  signals.on_send(0, Duration::micros(500));  // 0 is the most loaded

  const std::vector<store::ServerId> replicas = {0, 1, 2, 3, 4};
  const DispatchPlan plan = kofn->plan(signals, replicas, Duration::micros(100));
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
  const DispatchPlan pair = kofn->plan(signals, {1, 2}, Duration::micros(100));
  EXPECT_EQ(pair.needed, 2u);
  EXPECT_EQ(pair.num_targets, 2u);
  const DispatchPlan lone = kofn->plan(signals, {1}, Duration::micros(100));
  EXPECT_EQ(lone.mode, DispatchMode::kSingle);
}

TEST(DispatchPolicy, ConstructorRejectsBadParameters) {
  const auto make = [](const std::string& rule, const DispatchModeConfig& mode,
                       const ctrl::C3ScoreConfig& c3, Duration prior) {
    return ctrl::make_dispatch_policy(rule, mode, c3, false, prior, util::Rng(1));
  };
  DispatchModeConfig hedge;
  hedge.mode = DispatchMode::kHedge;
  EXPECT_NO_THROW(make("first", hedge, {}, Duration::millis(1)));
  EXPECT_THROW(make("first", hedge, {}, Duration::zero()), std::invalid_argument);
  hedge.hedge_quantile = 1.0;
  EXPECT_THROW(make("first", hedge, {}, Duration::millis(1)), std::invalid_argument);

  DispatchModeConfig kofn;
  kofn.mode = DispatchMode::kKofn;
  kofn.k = 0;
  EXPECT_THROW(make("first", kofn, {}, Duration::millis(1)), std::invalid_argument);
  kofn.k = DispatchPlan::kMaxTargets + 1;
  EXPECT_THROW(make("first", kofn, {}, Duration::millis(1)), std::invalid_argument);

  // The C3 parameters are checked only for the C3 rules.
  ctrl::C3ScoreConfig bad;
  bad.num_clients = 0;
  EXPECT_THROW(make("c3-noderate", {}, bad, Duration::millis(1)), std::invalid_argument);
  EXPECT_NO_THROW(make("random", {}, bad, Duration::millis(1)));

  try {
    make("two-choice", {}, {}, Duration::millis(1));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("two-choices"), std::string::npos);
  }
}

TEST(DispatchPolicy, NameNestsRuleModeAndCreditFilter) {
  const auto name = [](const std::string& rule, const std::string& mode, bool credit_aware) {
    return ctrl::make_dispatch_policy(rule, ctrl::parse_dispatch_mode(mode), {}, credit_aware,
                                      Duration::millis(1), util::Rng(1))
        ->name();
  };
  EXPECT_EQ(name("lor", "single", false), "least-outstanding");
  EXPECT_EQ(name("rr", "tied", false), "tied(round-robin)");
  EXPECT_EQ(name("c3", "hedge:q95:fresh=2", true), "credit-aware(hedge:q95(c3))");
  EXPECT_EQ(name("c3-noderate", "kofn:3", false), "kofn:3(c3-noderate)");
  EXPECT_EQ(name("first", "single", true), "credit-aware(first)");
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

  // The canonical spelling re-parses to the same config, also past the
  // six digits "%g" prints and where the millisecond parse truncates.
  for (const char* spec : {"hedge:q99.12345678", "hedge:q0.0001:fresh=0.000003",
                           "hedge:q33.3:fresh=0.3", "hedge:fresh=1e12"}) {
    const DispatchModeConfig mode = ctrl::parse_dispatch_mode(spec);
    const DispatchModeConfig again = ctrl::parse_dispatch_mode(mode.canonical());
    EXPECT_EQ(again.hedge_quantile, mode.hedge_quantile) << spec << " -> " << mode.canonical();
    EXPECT_EQ(again.fresh_age, mode.fresh_age) << spec << " -> " << mode.canonical();
  }

  // Numbers parse whole and finite: no sign, space, NaN, infinity or
  // duration past the int64 nanosecond clock.
  for (const char* spec : {"hedge:fresh=inf", "hedge:fresh=nan", "hedge:fresh=1e300",
                           "hedge:fresh=-1", "hedge:fresh=", "hedge:q 95", "hedge:q+95",
                           "hedge:qnan", "hedge:q95 ", "kofn:+2", "kofn: 2", "kofn:2.0",
                           "kofn:", "hedge:", "tied:", "kofn:2:3"}) {
    EXPECT_THROW(ctrl::parse_dispatch_mode(spec), std::invalid_argument) << spec;
  }
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

TEST(PolicyRuntimeDispatch, ReachableModesFollowResolvedBindings) {
  // A tenant named like a mode is still a tenant: "kofnx:tied" binds
  // tied, and kofn becomes reachable only through a real kofn epoch.
  sim::Simulator sim;
  ctrl::PolicyRuntime::Config config;
  config.tenants = {"kofnx", "batch"};
  config.dispatch_spec = "kofnx:tied";
  EXPECT_TRUE(ctrl::PolicyRuntime(sim, config).may_dispatch(DispatchMode::kTied));
  EXPECT_FALSE(ctrl::PolicyRuntime(sim, config).may_dispatch(DispatchMode::kKofn));
  config.switch_spec = "5s:batch:kofn:2";
  EXPECT_TRUE(ctrl::PolicyRuntime(sim, config).may_dispatch(DispatchMode::kKofn));
  EXPECT_FALSE(ctrl::PolicyRuntime(sim, config).may_dispatch(DispatchMode::kHedge));
}

TEST(PolicyRuntimeDispatch, ModeEpochRebindsKeepingPolicyAxis) {
  sim::Simulator sim;
  ctrl::PolicyRuntime::Config config;
  config.default_policy = "round-robin";
  config.switch_spec = "1s:tied";
  ctrl::PolicyRuntime runtime(sim, config);
  ctrl::DispatchEndpoint endpoint = runtime.make_endpoint(store::TenantId{0}, util::Rng(3));
  EXPECT_EQ(endpoint.name(), "round-robin");
  runtime.start({&endpoint});
  sim.schedule_at(Time::seconds(2.0), [&sim] { sim.stop(); });
  sim.run();
  EXPECT_EQ(endpoint.name(), "tied(round-robin)");
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
  const core::ScenarioConfig config = dispatch_config("kofn:2");
  const cli::SweepPlan plan = cli::plan_cases("kofn", config, {{"kofn", config}}, {1, 2});
  stats::Json serial = cli::execute_shard(plan, nullptr, 1);
  stats::Json parallel = cli::execute_shard(plan, nullptr, 0);

  // Worker threads must not move a single sample or counter.
  serial.erase("timing");
  parallel.erase("timing");
  EXPECT_EQ(serial.dump_string(), parallel.dump_string());

  // Fan-out beyond k produces duplicates; stragglers are cancelled at
  // their dequeue, so wasted full services stay a bounded fraction.
  const stats::Json& run = serial.at("cases").at(0).at("runs").at(0);
  const std::int64_t sent = run.at("duplicates_sent").as_int();
  const std::int64_t cancelled = run.at("duplicates_cancelled").as_int();
  EXPECT_GT(sent, 0);
  EXPECT_GT(cancelled, 0);
  EXPECT_LE(cancelled + run.at("duplicates_served").as_int(), sent);
  EXPECT_GT(run.at("duplicate_work_fraction").as_double(), 0.0);
  EXPECT_LT(run.at("duplicate_work_fraction").as_double(), 0.5);
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

  // The scenario fixes the dispatch mode and replica policy per case,
  // so flag validation rejects a base binding of either.
  for (const char* binding : {"--dispatch=tied", "--policy=random"}) {
    const char* argv[] = {"brbsim", "--scenario=hedging-shootout", binding};
    EXPECT_THROW(cli::validate_flags(util::Flags(3, argv)), std::invalid_argument) << binding;
  }
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
