#include "ctrl/replica_policy.hpp"

#include <cmath>
#include <stdexcept>

#include "util/flags.hpp"

namespace brb::ctrl {

double c3_score(const C3ScoreConfig& config, const SignalTable& signals, store::ServerId server) {
  const bool seen = signals.seen(server);
  const double ewma_service_ns = signals.ewma_service_time_ns(server);
  const double prior_ns = static_cast<double>(config.prior_service_time.count_nanos());
  const double service_ns = seen && ewma_service_ns > 0 ? ewma_service_ns : prior_ns;
  const double response_ns = seen ? signals.ewma_response_ns(server) : 0.0;
  const double q_hat =
      1.0 +
      static_cast<double>(signals.outstanding(server)) * static_cast<double>(config.num_clients) +
      signals.ewma_queue(server);
  // Psi = R - 1/mu + q^b / mu, all in nanoseconds.
  return response_ns - service_ns + std::pow(q_hat, config.queue_exponent) * service_ns;
}

// ---------------------------------------------------------------------------
// Registry

const std::vector<ReplicaPolicyInfo>& replica_policy_catalog() {
  static const std::vector<ReplicaPolicyInfo> catalog = {
      {"random", {}, "-", "uniform random choice (memcached-era baseline)"},
      {"round-robin", {"rr"}, "-", "deterministic cycling through the replica list"},
      {"least-outstanding",
       {"lor"},
       "outstanding",
       "fewest in-flight requests (classic least-outstanding-requests)"},
      {"two-choices",
       {"2c", "p2c"},
       "outstanding",
       "power of two random choices over outstanding counts (Mitzenmacher)"},
      {"least-pending-cost",
       {"lpc"},
       "pending_cost",
       "least forecast work in flight (BRB's default selector)"},
      {"c3",
       {},
       "ewma_response, ewma_queue, ewma_service_time, outstanding",
       "C3 cubic replica ranking (Suresh et al., NSDI '15)"},
      {"c3-noderate",
       {},
       "ewma_response, ewma_queue, ewma_service_time, outstanding",
       "C3 ranking without C3's cubic rate gate (selection-only ablation)"},
      {"first", {}, "-", "always the first replica (ideal-model systems)"},
  };
  return catalog;
}

ReplicaRule replica_rule(const std::string& name) {
  const std::vector<ReplicaPolicyInfo>& catalog = replica_policy_catalog();
  std::vector<std::string> known;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].name == name) return static_cast<ReplicaRule>(i);
    for (const std::string& alias : catalog[i].aliases) {
      if (alias == name) return static_cast<ReplicaRule>(i);
    }
    known.push_back(catalog[i].name);
  }
  std::string message = "unknown replica policy '" + name + "'";
  if (const auto suggestion = util::closest_name(name, known)) {
    message += " (did you mean '" + *suggestion + "'?)";
  }
  throw std::invalid_argument(message);
}

const std::string& rule_name(ReplicaRule rule) {
  return replica_policy_catalog()[static_cast<std::size_t>(rule)].name;
}

std::string canonical_policy_name(const std::string& name) { return rule_name(replica_rule(name)); }

}  // namespace brb::ctrl
