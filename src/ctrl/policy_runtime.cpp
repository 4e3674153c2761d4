#include "ctrl/policy_runtime.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/flags.hpp"

namespace brb::ctrl {

namespace {

enum class Payloads : std::uint8_t { kPolicy, kMode, kEither };

/// "t0" or a duration with an s/ms/us suffix, in [0, 2^63) ns.
sim::Time parse_time(std::string_view text, const std::string& flag) {
  if (text == "t0") return sim::Time::zero();
  static constexpr std::pair<std::string_view, double> kUnitSeconds[] = {
      {"ms", 1e-3}, {"us", 1e-6}, {"s", 1.0}};
  for (const auto& [suffix, seconds] : kUnitSeconds) {
    if (!text.ends_with(suffix)) continue;
    const auto value = util::parse_finite(text.substr(0, text.size() - suffix.size()));
    const auto at = value ? sim::checked_duration(*value * seconds, 1e9) : std::nullopt;
    if (!at) break;
    return sim::Time::zero() + *at;
  }
  throw std::invalid_argument(flag + ": bad time '" + std::string(text) +
                              "' (want t0 or a duration in [0, 2^63) ns like 30s / 500ms / 250us)");
}

/// A payload that is not a dispatch mode, as a canonical policy name.
/// When the flag also accepts modes, the did-you-mean hint spans both
/// catalogs.
std::string canonical_policy(const std::string& text, Payloads payloads) {
  try {
    return canonical_policy_name(text);
  } catch (const std::invalid_argument&) {
    if (payloads == Payloads::kPolicy) throw;
    std::vector<std::string> known;
    for (const ReplicaPolicyInfo& info : replica_policy_catalog()) known.push_back(info.name);
    for (const DispatchModeInfo& info : dispatch_mode_catalog()) known.push_back(info.name);
    std::string message = "unknown policy or dispatch mode '" + text + "'";
    if (const auto suggestion = util::closest_name(text, known)) {
      message += " (did you mean '" + *suggestion + "'?)";
    }
    throw std::invalid_argument(message);
  }
}

/// The one entry parser: "[TIME:][tenant:]payload", TIME required iff
/// `timed`. It is the only place tenant names are told apart from mode
/// heads.
std::vector<PolicySwitch> parse_entries(const std::string& spec, const std::string& flag,
                                        Payloads payloads, bool timed) {
  const std::string want = std::string(timed ? "TIME:" : "") + "[tenant:]" +
                           (payloads == Payloads::kPolicy ? "policy"
                            : payloads == Payloads::kMode ? "mode"
                                                          : "policy|mode");
  const auto mode_head = [payloads](std::string_view text) {
    return payloads != Payloads::kPolicy &&
           is_dispatch_mode_name(std::string(text.substr(0, text.find(':'))));
  };
  std::vector<PolicySwitch> entries;
  for (const std::string& text : util::split_list(spec)) {
    const auto malformed = [&] {
      return std::invalid_argument(flag + ": malformed entry '" + text + "' (want " + want + ")");
    };
    PolicySwitch entry;
    std::string_view payload = text;
    if (timed) {
      const std::size_t colon = payload.find(':');
      if (colon == std::string_view::npos) throw malformed();
      entry.at = parse_time(payload.substr(0, colon), flag);
      payload.remove_prefix(colon + 1);
    }
    if (const std::size_t colon = payload.find(':');
        colon != std::string_view::npos && !mode_head(payload)) {
      entry.tenant = payload.substr(0, colon);
      payload.remove_prefix(colon + 1);
      if (entry.tenant.empty()) throw malformed();
    }
    if (payload.empty()) throw malformed();
    if (payloads == Payloads::kMode || mode_head(payload)) {
      entry.kind = PolicySwitch::Kind::kMode;
      entry.mode = parse_dispatch_mode(std::string(payload));
    } else {
      entry.policy = canonical_policy(std::string(payload), payloads);
    }
    entries.push_back(std::move(entry));
  }
  if (!spec.empty() && entries.empty()) throw std::invalid_argument(flag + ": empty spec");
  return entries;
}

store::TenantId tenant_index(const std::vector<std::string>& tenants, const std::string& name) {
  if (tenants.empty()) {
    throw std::invalid_argument("policy spec names tenant '" + name +
                                "' but the scenario has no tenant mix (--tenants)");
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i] == name) return store::TenantId{static_cast<std::uint32_t>(i)};
  }
  std::string known;
  for (const std::string& tenant : tenants) {
    if (!known.empty()) known += ", ";
    known += tenant;
  }
  throw std::invalid_argument("policy spec names unknown tenant '" + name + "' (tenants: " +
                              known + ")");
}

/// Replaces the axis `entry` names and keeps the other.
void apply(const PolicySwitch& entry, ReplicaRule& rule, DispatchModeConfig& mode) {
  if (entry.kind == PolicySwitch::Kind::kPolicy) {
    rule = replica_rule(entry.policy);
  } else {
    mode = entry.mode;
  }
}

}  // namespace

std::vector<PolicyBinding> parse_policy_spec(const std::string& spec) {
  return parse_entries(spec, "--policy", Payloads::kPolicy, false);
}

std::vector<DispatchBinding> parse_dispatch_spec(const std::string& spec) {
  return parse_entries(spec, "--dispatch", Payloads::kMode, false);
}

std::vector<PolicySwitch> parse_policy_switch_spec(const std::string& spec) {
  return parse_entries(spec, "--policy-switch", Payloads::kEither, true);
}

Bindings fold_bindings(std::vector<PolicySwitch> entries, const std::string& default_policy,
                       const std::vector<std::string>& tenants, sim::Time until) {
  const std::size_t num_tenants = std::max<std::size_t>(1, tenants.size());
  Bindings bindings{std::vector<ReplicaRule>(num_tenants, replica_rule(default_policy)),
                    std::vector<DispatchModeConfig>(num_tenants), {}};
  std::stable_sort(entries.begin(), entries.end(),
                   [](const PolicySwitch& a, const PolicySwitch& b) { return a.at < b.at; });
  for (PolicySwitch& entry : entries) {
    const std::size_t first =
        entry.tenant.empty() ? 0 : tenant_index(tenants, entry.tenant).value();
    if (entry.at > until) {
      bindings.pending.push_back(std::move(entry));
      continue;
    }
    const std::size_t last = entry.tenant.empty() ? num_tenants : first + 1;
    for (std::size_t t = first; t < last; ++t) apply(entry, bindings.rule[t], bindings.mode[t]);
  }
  return bindings;
}

// ---------------------------------------------------------------------------
// PolicyRuntime

PolicyRuntime::PolicyRuntime(sim::Simulator& sim, Config config)
    : sim_(&sim), config_(std::move(config)) {
  std::vector<PolicySwitch> entries = parse_policy_spec(config_.policy_spec);
  for (const std::vector<PolicySwitch>& more : {parse_dispatch_spec(config_.dispatch_spec),
                                                parse_policy_switch_spec(config_.switch_spec)}) {
    entries.insert(entries.end(), more.begin(), more.end());
  }
  bindings_ = fold_bindings(std::move(entries), config_.default_policy, config_.tenants,
                            sim::Time::zero());
}

const std::string& PolicyRuntime::initial_policy(store::TenantId tenant) const {
  if (tenant.value() >= bindings_.rule.size()) {
    throw std::out_of_range("PolicyRuntime::initial_policy: bad tenant index");
  }
  return rule_name(bindings_.rule[tenant.value()]);
}

const DispatchModeConfig& PolicyRuntime::initial_mode(store::TenantId tenant) const {
  if (tenant.value() >= bindings_.mode.size()) {
    throw std::out_of_range("PolicyRuntime::initial_mode: bad tenant index");
  }
  return bindings_.mode[tenant.value()];
}

bool PolicyRuntime::may_dispatch(DispatchMode mode) const {
  for (const DispatchModeConfig& initial : bindings_.mode) {
    if (initial.mode == mode) return true;
  }
  for (const PolicySwitch& epoch : bindings_.pending) {
    if (epoch.kind == PolicySwitch::Kind::kMode && epoch.mode.mode == mode) return true;
  }
  return false;
}

bool PolicyRuntime::may_dispatch_duplicates() const {
  return may_dispatch(DispatchMode::kHedge) || may_dispatch(DispatchMode::kTied) ||
         may_dispatch(DispatchMode::kKofn);
}

DispatchEndpoint PolicyRuntime::make_endpoint(store::TenantId tenant, util::Rng rng) const {
  if (tenant.value() >= bindings_.rule.size()) {
    throw std::invalid_argument("PolicyRuntime::make_endpoint: tenant index out of range");
  }
  // Credits systems select jointly over replica load *and* credit
  // balances (the gate mirrors balances into the SignalTable).
  return DispatchEndpoint(config_.signals,
                          DispatchPolicy(bindings_.rule[tenant.value()],
                                         bindings_.mode[tenant.value()], config_.c3,
                                         config_.credit_aware, config_.c3.prior_service_time, rng,
                                         sim_),
                          rng, tenant);
}

void PolicyRuntime::apply_epoch(std::size_t epoch_index) {
  const PolicySwitch& epoch = bindings_.pending[epoch_index];
  for (DispatchEndpoint* endpoint : endpoints_) {
    if (!epoch.tenant.empty() && config_.tenants[endpoint->tenant().value()] != epoch.tenant) {
      continue;
    }
    // The replacement policy reads the same SignalTable the old one
    // fed from — it starts with warm estimates, not a cold cache.
    ReplicaRule rule = endpoint->policy_.rule();
    DispatchModeConfig mode = endpoint->policy_.mode();
    apply(epoch, rule, mode);
    endpoint->rebind(DispatchPolicy(rule, mode, config_.c3, config_.credit_aware,
                                    config_.c3.prior_service_time, endpoint->rng_.split(), sim_));
    ++switches_applied_;
  }
}

void PolicyRuntime::start(std::vector<DispatchEndpoint*> endpoints) {
  if (started_) throw std::logic_error("PolicyRuntime::start: called twice");
  started_ = true;
  if (bindings_.pending.empty()) return;
  endpoints_ = std::move(endpoints);
  const std::uint32_t target = sim_->attach(*this);
  for (std::size_t i = 0; i < bindings_.pending.size(); ++i) {
    sim_->post_at(bindings_.pending[i].at, {sim::EventKind::kPolicyEpoch, target, i});
  }
}

}  // namespace brb::ctrl
