// The dispatch-plan API — the control plane's request-layer surface.
//
// Replica selection used to answer "which one server?"; tail-cutting
// mechanisms (hedged and tied requests, k-of-n partial fanout — the
// "Tail at Scale" family) need an ordered *set* of targets plus a rule
// for when duplicates are issued and when losers are cancelled. A
// DispatchPolicy therefore returns a DispatchPlan:
//
//   single            one target, no duplicates
//   hedge{q}          primary now; back-up re-issued to a second
//                     replica if no response within the per-server
//                     latency-quantile deadline (EWMA-fed), loser
//                     cancelled best-effort
//   tied              two copies enqueued at once; the first to reach
//                     service claims the request and the sibling is
//                     cancelled at dequeue
//   kofn{k}           fan out to n replicas, complete on the k-th
//                     response, cancel the stragglers
//
// DispatchPolicy is one concrete class: a closed set of replica rules
// (ctrl/replica_policy.hpp), the four modes above and the credits
// filter, each a switch inside plan(). In single mode plan() is exactly
// one pick by the rule. The executor lives in client::AppClient;
// cancellation rides the engine's generation-validated event cancel and
// the servers' service-admission filter.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ctrl/replica_policy.hpp"
#include "ctrl/signal_table.hpp"
#include "sim/time.hpp"
#include "store/ids.hpp"
#include "store/types.hpp"
#include "util/rng.hpp"

namespace brb::sim {
class Simulator;
}

namespace brb::ctrl {

enum class DispatchMode : std::uint8_t {
  kSingle = 0,
  kHedge,
  kTied,
  kKofn,
};

const char* to_string(DispatchMode mode);

/// An ordered target list plus the duplicate/cancellation rule.
/// Fixed capacity — plans live on the submit hot path and must stay
/// allocation-free.
struct DispatchPlan {
  static constexpr std::size_t kMaxTargets = 4;

  std::array<store::ServerId, kMaxTargets> targets{};
  std::uint8_t num_targets = 0;
  DispatchMode mode = DispatchMode::kSingle;
  /// Responses required to complete the logical request (k of k-of-n;
  /// 1 for every other mode).
  std::uint8_t needed = 1;
  /// Hedge mode only: how long the primary may stay unanswered before
  /// the back-up copy is issued.
  sim::Duration hedge_delay = sim::Duration::zero();
  /// Signal-aware hedge suppression fired: the primary's feedback was
  /// fresher than the configured age threshold, so the plan degraded
  /// to single and no back-up will be armed (counted in artifacts as
  /// `hedges_skipped_fresh`).
  bool skipped_fresh = false;

  store::ServerId primary() const { return targets[0]; }

  static DispatchPlan single(store::ServerId target) {
    DispatchPlan plan;
    plan.targets[0] = target;
    plan.num_targets = 1;
    return plan;
  }
};

/// Parsed form of one dispatch-mode spec ("single",
/// "hedge[:qNN][:fresh=MS]", "tied", "kofn[:K]").
struct DispatchModeConfig {
  // The two one-byte fields lead so the struct packs into 24 bytes;
  // every client's policy and binding hold a copy.
  DispatchMode mode = DispatchMode::kSingle;
  /// k of k-of-n.
  std::uint8_t k = 2;
  /// Hedge deadline quantile of the per-server response distribution.
  double hedge_quantile = 0.95;
  /// Hedge only: suppress the back-up when the primary's last feedback
  /// is younger than this (signal-aware hedge skip). Zero = disabled —
  /// the pre-existing always-hedge behavior, and the default, so
  /// artifacts without `fresh=` stay byte-identical.
  sim::Duration fresh_age = sim::Duration::zero();

  /// Canonical spelling ("hedge:q95", "hedge:q95:fresh=2", "kofn:2",
  /// "tied", "single").
  std::string canonical() const;
  bool is_single() const noexcept { return mode == DispatchMode::kSingle; }
};

/// One client's decision procedure: a replica rule, a dispatch mode
/// and an optional credit filter, applied in that nesting:
///
///   credit filter   restrict the replicas to servers the client can
///                   pay for right now (gate-mirrored balances); pass
///                   the full set through when all or none are funded
///   mode            single: one pick. hedge: the pick is the primary,
///                   the back-up is a second pick over the replicas
///                   minus the primary, armed after the configured
///                   quantile of the primary's response EWMA
///                   (exponential tail: t_q = -ln(1-q) * mean; the
///                   prior for unseen servers). tied: primary plus a
///                   sibling picked the same way. kofn: up to 4
///                   targets by repeated picks over a shrinking list,
///                   complete on the k-th response
///   rule            the pick itself (ReplicaRule)
///
/// Signal-aware hedge skip (`fresh_age` > 0 and a clock wired): when
/// the primary's last feedback is younger than `fresh_age`, the plan
/// degrades to single with `skipped_fresh` set.
///
/// One value per client (its endpoint holds it inline) and one direct
/// plan() call. It holds only private decision state (RNG stream,
/// cursor), so the PolicyRuntime can swap it mid-run over the same
/// signals.
class DispatchPolicy final {
 public:
  /// Throws std::invalid_argument on a C3 rule with queue_exponent < 1
  /// or num_clients == 0, a hedge mode with a quantile outside (0, 1)
  /// or a non-positive prior, and a kofn mode with k outside [1, 4].
  /// `prior_response` seeds hedge deadlines for servers without
  /// feedback yet; `sim` supplies the clock for the hedge freshness
  /// skip (null or zero `fresh_age`: always hedge).
  DispatchPolicy(ReplicaRule rule, const DispatchModeConfig& mode, const C3ScoreConfig& c3,
                 bool credit_aware, sim::Duration prior_response, util::Rng rng,
                 const sim::Simulator* sim = nullptr);

  /// Throws std::invalid_argument on an empty `replicas`.
  DispatchPlan plan(const SignalTable& signals, const std::vector<store::ServerId>& replicas,
                    sim::Duration expected_cost);

  /// Rule wrapped by mode and credit filter, e.g. "round-robin",
  /// "tied(round-robin)", "credit-aware(hedge:q95(c3))".
  std::string name() const;
  ReplicaRule rule() const noexcept { return rule_; }
  const DispatchModeConfig& mode() const noexcept { return mode_; }

 private:
  /// One pick by `rule_` over a non-empty list.
  store::ServerId select(const SignalTable& signals, const std::vector<store::ServerId>& replicas);

  util::Rng rng_;             // random, two-choices
  std::uint64_t cursor_ = 0;  // round-robin counter; LOR/LPC scan rotation
  C3ScoreConfig c3_;
  DispatchModeConfig mode_;
  double quantile_factor_;  // -ln(1 - hedge_quantile)
  sim::Duration prior_response_;
  const sim::Simulator* sim_;  // clock for feedback ages (may be null)
  ReplicaRule rule_;
  bool credit_aware_;
};

// ---------------------------------------------------------------------------
// Mode registry

/// One catalog row (drives --help and the README mode table).
struct DispatchModeInfo {
  std::string name;
  std::string grammar;
  std::string summary;
};

const std::vector<DispatchModeInfo>& dispatch_mode_catalog();

/// True if `head` (the text before the first ':' of a spec entry) names
/// a dispatch mode — the disambiguator between "tenant:policy" and
/// mode specs like "hedge:q95" in shared binding grammars.
bool is_dispatch_mode_name(const std::string& head);

/// Parses one mode spec; throws std::invalid_argument with a
/// did-you-mean hint on unknown modes and on malformed parameters.
DispatchModeConfig parse_dispatch_mode(const std::string& spec);

/// Builds the DispatchPolicy for one binding, resolving the replica
/// policy by (canonical or alias) name; unknown names throw with a
/// did-you-mean hint. The other arguments are the constructor's.
std::unique_ptr<DispatchPolicy> make_dispatch_policy(const std::string& policy_name,
                                                     const DispatchModeConfig& mode,
                                                     const C3ScoreConfig& c3, bool credit_aware,
                                                     sim::Duration prior_response, util::Rng rng,
                                                     const sim::Simulator* sim = nullptr);

// ---------------------------------------------------------------------------
// DispatchEndpoint

class PolicyRuntime;

/// One client's control-plane endpoint: the SignalTable plus the bound
/// DispatchPolicy, with the *single* feedback entry point the client
/// drives. All outstanding/pending-cost accounting funnels through
/// on_send/on_response/on_cancel here — there is no second forwarding
/// path a hedged duplicate could double-count through. Both parts are
/// held by value, so an endpoint is one object inside its client.
class DispatchEndpoint final {
 public:
  DispatchEndpoint(SignalTableConfig signals, DispatchPolicy policy, util::Rng rng,
                   store::TenantId tenant);

  DispatchPlan plan(const std::vector<store::ServerId>& replicas, sim::Duration expected_cost) {
    return policy_.plan(signals_, replicas, expected_cost);
  }
  /// A copy was bound to `server` (offer time, before any gate hold).
  void on_send(store::ServerId server, sim::Duration expected_cost) {
    signals_.on_send(server, expected_cost);
  }
  /// A copy's response arrived (real server work: full feedback fold).
  /// `at` stamps the fold on the simulated clock (hedge freshness).
  void on_response(store::ServerId server, const store::ServerFeedback& feedback,
                   sim::Duration rtt, sim::Duration expected_cost,
                   sim::Time at = sim::Time::zero()) {
    signals_.on_response(server, feedback, rtt, expected_cost, at);
  }
  /// A copy was cancelled before service: release the in-flight
  /// accounting its on_send charged, with no EWMA fold (no feedback
  /// was produced) — C3's estimates stay uncorrupted by duplicates.
  void on_cancel(store::ServerId server, sim::Duration expected_cost) {
    signals_.on_cancel(server, expected_cost);
  }

  std::string name() const { return policy_.name(); }
  SignalTable& signals() noexcept { return signals_; }
  const SignalTable& signals() const noexcept { return signals_; }
  store::TenantId tenant() const noexcept { return tenant_; }

  /// Swaps the decision procedure; the accumulated signals survive.
  void rebind(DispatchPolicy policy) { policy_ = std::move(policy); }

 private:
  friend class PolicyRuntime;

  SignalTable signals_;
  DispatchPolicy policy_;
  /// Stream for policies constructed at switch epochs (split per
  /// rebind; the t=0 policy uses the client's original stream copy).
  util::Rng rng_;
  store::TenantId tenant_;
};

}  // namespace brb::ctrl
