// Replica-selection policies over the unified SignalTable — layer 2 of
// the control plane.
//
// A ReplicaPolicy is pure decision logic: it reads the client's
// SignalTable (maintained by the single feedback path) and picks a
// replica. Observable state lives in the table; a policy instance
// keeps only private decision state (cycle counters, RNG), which is
// why the PolicyRuntime can swap policies mid-run without losing the
// accumulated signals.
//
// The catalog spans the literature baselines the paper's evaluation
// invites comparison against:
//   random             uniform choice (memcached-era floor)
//   round-robin        deterministic cycling
//   least-outstanding  fewest in-flight requests (classic LOR)
//   two-choices        power of two random choices (Mitzenmacher '01)
//   least-pending-cost least forecast work in flight (BRB's default)
//   c3 / c3-noderate   C3's cubic replica ranking (Suresh et al. '15);
//                      the -noderate alias names the ranking run
//                      without C3's cubic rate gate
//   first              degenerate first-replica choice (model systems)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ctrl/signal_table.hpp"
#include "sim/time.hpp"
#include "store/types.hpp"
#include "util/rng.hpp"

namespace brb::ctrl {

class ReplicaPolicy {
 public:
  virtual ~ReplicaPolicy() = default;

  /// Chooses one replica for a request with the given forecast cost,
  /// reading only `signals`. `replicas` is never empty.
  virtual store::ServerId select(const SignalTable& signals,
                                 const std::vector<store::ServerId>& replicas,
                                 sim::Duration expected_cost) = 0;

  virtual std::string name() const = 0;
};

/// Parameters of the C3 scoring function (the EWMA weight lives in
/// SignalTableConfig — smoothing belongs to the table, scoring to the
/// policy).
struct C3ScoreConfig {
  /// Exponent b of the queue-size penalty (the paper uses b = 3).
  double queue_exponent = 3.0;
  /// Concurrency compensation: number of clients sharing each server.
  std::uint32_t num_clients = 1;
  /// Initial per-server service-time guess until feedback arrives.
  sim::Duration prior_service_time = sim::Duration::micros(285);
};

/// Uniform random choice.
class RandomPolicy final : public ReplicaPolicy {
 public:
  explicit RandomPolicy(util::Rng rng) : rng_(rng) {}
  store::ServerId select(const SignalTable& signals, const std::vector<store::ServerId>& replicas,
                         sim::Duration expected_cost) override;
  std::string name() const override { return "random"; }

 private:
  util::Rng rng_;
};

/// Cycles deterministically through the replica list.
class RoundRobinPolicy final : public ReplicaPolicy {
 public:
  store::ServerId select(const SignalTable& signals, const std::vector<store::ServerId>& replicas,
                         sim::Duration expected_cost) override;
  std::string name() const override { return "round-robin"; }

 private:
  std::uint64_t counter_ = 0;
};

/// Fewest outstanding requests from this client. The scan start
/// rotates so ties do not herd every client onto the lowest server id.
class LeastOutstandingPolicy final : public ReplicaPolicy {
 public:
  store::ServerId select(const SignalTable& signals, const std::vector<store::ServerId>& replicas,
                         sim::Duration expected_cost) override;
  std::string name() const override { return "least-outstanding"; }

 private:
  std::uint64_t rotation_ = 0;
};

/// Power of two choices: sample two distinct replicas uniformly and
/// take the one with fewer outstanding requests (ties break on the
/// lower server id). O(1) per decision with most of
/// least-outstanding's balance — the classic Mitzenmacher result.
class TwoChoicesPolicy final : public ReplicaPolicy {
 public:
  explicit TwoChoicesPolicy(util::Rng rng) : rng_(rng) {}
  store::ServerId select(const SignalTable& signals, const std::vector<store::ServerId>& replicas,
                         sim::Duration expected_cost) override;
  std::string name() const override { return "two-choices"; }

 private:
  util::Rng rng_;
};

/// Least forecast work in flight (outstanding expected cost) — BRB's
/// default: cheap, cost-aware, and sub-task friendly.
class LeastPendingCostPolicy final : public ReplicaPolicy {
 public:
  store::ServerId select(const SignalTable& signals, const std::vector<store::ServerId>& replicas,
                         sim::Duration expected_cost) override;
  std::string name() const override { return "least-pending-cost"; }

 private:
  std::uint64_t rotation_ = 0;
};

/// C3's cubic replica ranking (Suresh et al., NSDI 2015) over the
/// table's EWMAs:
///     q_hat = 1 + outstanding * n + ewma_queue
///     Psi   = R_bar - 1/mu_bar + q_hat^b / mu_bar
/// Registered under both "c3" and "c3-noderate" (the scoring is the
/// same; the names differ in which admission policy the system runs).
class C3ScorePolicy final : public ReplicaPolicy {
 public:
  C3ScorePolicy(C3ScoreConfig config, std::string registered_name = "c3");

  store::ServerId select(const SignalTable& signals, const std::vector<store::ServerId>& replicas,
                         sim::Duration expected_cost) override;
  std::string name() const override { return name_; }

  /// The scoring function, exposed for tests.
  double score(const SignalTable& signals, store::ServerId server) const;

 private:
  C3ScoreConfig config_;
  std::string name_;
};

/// Always the first replica (the ideal-model systems, where placement
/// is irrelevant because servers work-pull from the global queue).
class FirstReplicaPolicy final : public ReplicaPolicy {
 public:
  store::ServerId select(const SignalTable& signals, const std::vector<store::ServerId>& replicas,
                         sim::Duration expected_cost) override;
  std::string name() const override { return "first"; }
};

/// Decorator for credits systems: prefer replicas the client can pay
/// for right now. Among replicas with at least one credit (read from
/// the table's gate-mirrored balances), defer to the inner policy;
/// when every replica is broke, fall through unconstrained.
class CreditAwarePolicy final : public ReplicaPolicy {
 public:
  explicit CreditAwarePolicy(std::unique_ptr<ReplicaPolicy> inner);

  store::ServerId select(const SignalTable& signals, const std::vector<store::ServerId>& replicas,
                         sim::Duration expected_cost) override;
  std::string name() const override { return "credit-aware(" + inner_->name() + ")"; }

 private:
  std::unique_ptr<ReplicaPolicy> inner_;
  std::vector<store::ServerId> funded_scratch_;  // reused per select
};

// ---------------------------------------------------------------------------
// Registry

/// One catalog row (drives --help, README's policy table, and the
/// policy-shootout scenario's case list).
struct ReplicaPolicyInfo {
  std::string name;
  std::vector<std::string> aliases;
  /// SignalTable fields the policy reads ("-" for oblivious policies).
  std::string signals;
  /// One-line provenance + behavior summary.
  std::string summary;
};

/// All registered replica policies, in presentation order.
const std::vector<ReplicaPolicyInfo>& replica_policy_catalog();

/// Resolves a name or alias ("lor" -> "least-outstanding"); throws
/// std::invalid_argument with a did-you-mean hint on unknown names.
std::string canonical_policy_name(const std::string& name);

/// Constructs a policy by (canonical or alias) name. `rng` seeds the
/// randomized policies; `c3` parameterizes the C3 ranking.
std::unique_ptr<ReplicaPolicy> make_replica_policy(const std::string& name,
                                                   const C3ScoreConfig& c3, util::Rng rng);

}  // namespace brb::ctrl
