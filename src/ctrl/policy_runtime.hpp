// The policy runtime — layer 3 of the control plane.
//
// Binds a DispatchPolicy (replica rule + dispatch mode) per tenant
// onto each client's SignalTable and supports epoch-scheduled mid-run
// switching:
//
//   --policy=c3                        one policy for every tenant
//   --policy=tenantA:c3,tenantB:lor    per-tenant bindings
//   --dispatch=hedge:q95               one dispatch mode for every tenant
//   --dispatch=tenantA:tied            per-tenant dispatch modes
//   --policy-switch=t0:random,30s:c3   epoch schedule; entries may name
//                                      a policy OR a dispatch mode
//                                      ("30s:hedge:q95"), optionally
//                                      tenant-qualified
//                                      ("30s:tenantA:tied")
//
// A switch replaces only the decision procedure; the accumulated
// signals (EWMAs, outstanding counts, balances) live in the
// SignalTable and survive the swap — the new policy starts warm.
// Switching the dispatch mode keeps the tenant's current policy, and
// vice versa.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ctrl/dispatch_policy.hpp"
#include "ctrl/signal_table.hpp"
#include "sim/simulator.hpp"
#include "store/types.hpp"
#include "util/rng.hpp"

namespace brb::ctrl {

/// One "[tenant:]policy" entry of a --policy spec. An empty tenant
/// applies to every tenant.
struct PolicyBinding {
  std::string tenant;
  std::string policy;  // canonical name
};

/// One "[tenant:]mode" entry of a --dispatch spec. An empty tenant
/// applies to every tenant.
struct DispatchBinding {
  std::string tenant;
  DispatchModeConfig mode;
};

/// One "TIME:[tenant:]payload" entry of a --policy-switch spec, where
/// the payload is a replica-policy name or a dispatch-mode spec.
struct PolicySwitch {
  enum class Kind : std::uint8_t { kPolicy, kMode };

  sim::Time at;
  std::string tenant;  // empty = all tenants
  Kind kind = Kind::kPolicy;
  std::string policy;       // canonical name (kind == kPolicy)
  DispatchModeConfig mode;  // kind == kMode
};

/// Parses "--policy" ("name" | "tenant:name,..." | a mix; later entries
/// win). Policy names are canonicalized (aliases resolve); unknown
/// names throw with a did-you-mean hint.
std::vector<PolicyBinding> parse_policy_spec(const std::string& spec);

/// Parses "--dispatch" ("mode" | "tenant:mode,..."; later entries win).
/// Mode heads are disambiguated from tenant names by the mode-keyword
/// set {single, hedge, tied, kofn}; unknown modes throw with a
/// did-you-mean hint.
std::vector<DispatchBinding> parse_dispatch_spec(const std::string& spec);

/// Parses "--policy-switch" ("t0:random,30s:c3,45s:tenantA:lor,
/// 60s:hedge:q95"). Times are "t0" or a positive duration with an
/// s/ms/us suffix. Each payload resolves to a policy name or a
/// dispatch-mode spec; unknown payloads throw with a did-you-mean hint
/// over the combined policy + mode catalog. Entries keep spec order;
/// callers sort by time where needed.
std::vector<PolicySwitch> parse_policy_switch_spec(const std::string& spec);

class PolicyRuntime {
 public:
  struct Config {
    /// The system profile's selector (or --selector override): the
    /// binding every tenant starts from when --policy says nothing.
    std::string default_policy = "least-outstanding";
    /// --policy / --dispatch / --policy-switch specs ("" = none).
    std::string policy_spec;
    std::string dispatch_spec;
    std::string switch_spec;
    /// Table smoothing + C3 scoring parameters shared by all clients.
    SignalTableConfig signals{};
    C3ScoreConfig c3{};
    /// Bind every client's policy credit-aware (credits admission).
    bool credit_aware = false;
    /// Tenant names in tenant-index order; empty = one anonymous
    /// tenant. Tenant-qualified spec entries must name one of these.
    std::vector<std::string> tenants;
  };

  PolicyRuntime(sim::Simulator& sim, Config config);

  /// Resolved t=0 policy name / dispatch mode for tenant `tenant`.
  const std::string& initial_policy(store::TenantId tenant) const;
  const DispatchModeConfig& initial_mode(store::TenantId tenant) const;

  /// True if some tenant starts in `mode` or a switch epoch moves to it.
  bool may_dispatch(DispatchMode mode) const;

  /// True if any binding or switch epoch can issue duplicate copies
  /// (some dispatch mode other than `single` is reachable) — gates the
  /// executor wiring (server-side admission filters) so single-mode
  /// runs pay nothing.
  bool may_dispatch_duplicates() const;

  /// Creates a client's control-plane endpoint: a SignalTable plus the
  /// tenant's bound DispatchPolicy. `rng` seeds randomized rules
  /// exactly as the pre-runtime wiring did (by value; the endpoint
  /// keeps its own copy for constructing replacement policies at
  /// switch epochs).
  DispatchEndpoint make_endpoint(store::TenantId tenant, util::Rng rng) const;

  /// Schedules the switch epochs on the simulator over `endpoints`, the
  /// run's clients in id order. Call once, after every client is
  /// built; each endpoint must stay where it is until the run ends.
  /// Without a switch spec nothing is scheduled or kept.
  void start(std::vector<DispatchEndpoint*> endpoints);

  /// Per-client rebinds actually applied (epochs past the end of the
  /// run never fire).
  std::uint64_t switches_applied() const noexcept { return switches_applied_; }
  /// Scheduled future epochs (post-t0 entries in the switch spec).
  std::size_t num_epochs() const noexcept { return epochs_.size(); }
  const Config& config() const noexcept { return config_; }

 private:
  friend class sim::Simulator;  // dispatches kPolicyEpoch

  store::TenantId tenant_index(const std::string& name) const;
  void apply_epoch(std::size_t epoch_index);

  sim::Simulator* sim_;
  Config config_;
  std::vector<ReplicaRule> initial_policy_;       // per tenant
  std::vector<DispatchModeConfig> initial_mode_;  // per tenant
  std::vector<PolicySwitch> epochs_;              // time-ordered, t > 0 only
  std::vector<DispatchEndpoint*> endpoints_;  // non-owning; kept only with epochs
  std::uint64_t switches_applied_ = 0;
  bool started_ = false;
};

}  // namespace brb::ctrl
