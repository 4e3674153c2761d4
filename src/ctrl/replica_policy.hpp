// Replica-selection rules over the unified SignalTable — layer 2 of
// the control plane.
//
// A replica rule is pure decision logic: it reads the client's
// SignalTable (maintained by the single feedback path) and picks a
// replica. Observable state lives in the table; the only private
// decision state is an RNG stream and a cycle cursor, which is why the
// PolicyRuntime can swap rules mid-run without losing the accumulated
// signals. The rules are a closed set: ctrl::DispatchPolicy holds one
// ReplicaRule and switches on it (ctrl/dispatch_policy.hpp).
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

#include <cstdint>
#include <string>
#include <vector>

#include "ctrl/signal_table.hpp"
#include "sim/time.hpp"
#include "store/types.hpp"

namespace brb::ctrl {

/// The registered replica rules. Each value is the rule's row in
/// replica_policy_catalog(), so c3 and c3-noderate (the same scoring)
/// keep their distinct names.
enum class ReplicaRule : std::uint8_t {
  kRandom = 0,        // uniform random choice
  kRoundRobin,        // cycles through the replica list
  kLeastOutstanding,  // fewest outstanding requests; the scan start rotates
  kTwoChoices,        // two distinct uniform samples, fewer outstanding wins
  kLeastPendingCost,  // least forecast work in flight; the scan start rotates
  kC3,                // lowest c3_score
  kC3NoDerate,        // lowest c3_score (run without C3's rate gate)
  kFirst,             // always the first replica
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

/// C3's cubic replica score (Suresh et al., NSDI 2015) over the
/// table's EWMAs, in nanoseconds; lower is better:
///     q_hat = 1 + outstanding * n + ewma_queue
///     Psi   = R_bar - 1/mu_bar + q_hat^b / mu_bar
double c3_score(const C3ScoreConfig& config, const SignalTable& signals, store::ServerId server);

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

/// All registered replica policies, in presentation (ReplicaRule) order.
const std::vector<ReplicaPolicyInfo>& replica_policy_catalog();

/// Resolves a name or alias ("lor" -> least-outstanding); throws
/// std::invalid_argument with a did-you-mean hint on unknown names.
ReplicaRule replica_rule(const std::string& name);

/// The rule's canonical catalog name.
const std::string& rule_name(ReplicaRule rule);

/// replica_rule() spelled as its canonical name ("lor" ->
/// "least-outstanding").
std::string canonical_policy_name(const std::string& name);

}  // namespace brb::ctrl
