#include "ctrl/policy_runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/flags.hpp"

namespace brb::ctrl {

namespace {

PolicyBinding parse_binding(const std::string& entry, const char* flag) {
  const std::size_t colon = entry.find(':');
  if (colon == std::string::npos) return {"", canonical_policy_name(entry)};
  const std::string tenant = entry.substr(0, colon);
  const std::string name = entry.substr(colon + 1);
  if (tenant.empty() || name.empty()) {
    throw std::invalid_argument(std::string(flag) + ": malformed entry '" + entry +
                                "' (want [tenant:]policy)");
  }
  return {tenant, canonical_policy_name(name)};
}

sim::Time parse_switch_time(const std::string& text) {
  if (text == "t0") return sim::Time::zero();
  double scale_to_seconds = 0.0;
  std::string number;
  if (text.size() > 2 && text.substr(text.size() - 2) == "ms") {
    scale_to_seconds = 1e-3;
    number = text.substr(0, text.size() - 2);
  } else if (text.size() > 2 && text.substr(text.size() - 2) == "us") {
    scale_to_seconds = 1e-6;
    number = text.substr(0, text.size() - 2);
  } else if (text.size() > 1 && text.back() == 's') {
    scale_to_seconds = 1.0;
    number = text.substr(0, text.size() - 1);
  } else {
    throw std::invalid_argument("--policy-switch: bad time '" + text +
                                "' (want t0 or a duration like 30s / 500ms / 250us)");
  }
  double value = 0.0;
  std::size_t consumed = 0;
  try {
    value = std::stod(number, &consumed);
  } catch (const std::exception&) {
    consumed = std::string::npos;  // force the error below
  }
  if (consumed != number.size() || value < 0.0) {
    throw std::invalid_argument("--policy-switch: bad time '" + text + "'");
  }
  return sim::Time::zero() + sim::Duration::seconds(value * scale_to_seconds);
}

/// Resolves a bare switch payload that is not a dispatch-mode spec as
/// a policy name; on failure, the did-you-mean hint spans the combined
/// policy + mode catalog (the payload grammar accepts both).
std::string canonical_policy_or_hint(const std::string& text) {
  try {
    return canonical_policy_name(text);
  } catch (const std::invalid_argument&) {
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

/// Resolves one switch payload: "c3" | "hedge:q95" | "tenantA:c3" |
/// "tenantA:tied". The mode-keyword set disambiguates mode heads from
/// tenant names.
PolicySwitch parse_switch_payload(sim::Time at, const std::string& payload) {
  PolicySwitch sw;
  sw.at = at;
  const std::size_t colon = payload.find(':');
  const std::string head = payload.substr(0, colon);

  if (is_dispatch_mode_name(head)) {  // fleet-wide mode switch
    sw.kind = PolicySwitch::Kind::kMode;
    sw.mode = parse_dispatch_mode(payload);
    return sw;
  }
  if (colon == std::string::npos) {  // fleet-wide policy switch
    sw.kind = PolicySwitch::Kind::kPolicy;
    sw.policy = canonical_policy_or_hint(payload);
    return sw;
  }

  const std::string rest = payload.substr(colon + 1);
  if (head.empty() || rest.empty()) {
    throw std::invalid_argument("--policy-switch: malformed entry payload '" + payload +
                                "' (want [tenant:]policy or [tenant:]mode)");
  }
  sw.tenant = head;
  const std::string rest_head = rest.substr(0, rest.find(':'));
  if (is_dispatch_mode_name(rest_head)) {
    sw.kind = PolicySwitch::Kind::kMode;
    sw.mode = parse_dispatch_mode(rest);
  } else {
    sw.kind = PolicySwitch::Kind::kPolicy;
    sw.policy = canonical_policy_or_hint(rest);
  }
  return sw;
}

}  // namespace

std::vector<PolicyBinding> parse_policy_spec(const std::string& spec) {
  std::vector<PolicyBinding> bindings;
  for (const std::string& entry : util::split_list(spec)) {
    bindings.push_back(parse_binding(entry, "--policy"));
  }
  if (!spec.empty() && bindings.empty()) {
    throw std::invalid_argument("--policy: empty spec");
  }
  return bindings;
}

std::vector<DispatchBinding> parse_dispatch_spec(const std::string& spec) {
  std::vector<DispatchBinding> bindings;
  for (const std::string& entry : util::split_list(spec)) {
    const std::size_t colon = entry.find(':');
    const std::string head = entry.substr(0, colon);
    if (is_dispatch_mode_name(head)) {
      bindings.push_back({"", parse_dispatch_mode(entry)});
      continue;
    }
    if (colon == std::string::npos) {
      parse_dispatch_mode(entry);  // throws with the did-you-mean hint
      continue;                    // unreachable
    }
    const std::string rest = entry.substr(colon + 1);
    if (head.empty() || rest.empty()) {
      throw std::invalid_argument("--dispatch: malformed entry '" + entry +
                                  "' (want [tenant:]mode)");
    }
    bindings.push_back({head, parse_dispatch_mode(rest)});
  }
  if (!spec.empty() && bindings.empty()) {
    throw std::invalid_argument("--dispatch: empty spec");
  }
  return bindings;
}

std::vector<PolicySwitch> parse_policy_switch_spec(const std::string& spec) {
  std::vector<PolicySwitch> switches;
  for (const std::string& entry : util::split_list(spec)) {
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= entry.size()) {
      throw std::invalid_argument("--policy-switch: malformed entry '" + entry +
                                  "' (want TIME:[tenant:]policy or TIME:[tenant:]mode)");
    }
    const sim::Time at = parse_switch_time(entry.substr(0, colon));
    switches.push_back(parse_switch_payload(at, entry.substr(colon + 1)));
  }
  if (!spec.empty() && switches.empty()) {
    throw std::invalid_argument("--policy-switch: empty spec");
  }
  return switches;
}

// ---------------------------------------------------------------------------
// PolicyRuntime

PolicyRuntime::PolicyRuntime(sim::Simulator& sim, Config config)
    : sim_(&sim), config_(std::move(config)) {
  const std::size_t num_tenants = std::max<std::size_t>(1, config_.tenants.size());
  initial_policy_.assign(num_tenants, replica_rule(config_.default_policy));
  initial_mode_.assign(num_tenants, DispatchModeConfig{});

  const auto apply_policy = [&](const std::string& tenant, const std::string& name) {
    const ReplicaRule policy = replica_rule(name);
    if (tenant.empty()) {
      std::fill(initial_policy_.begin(), initial_policy_.end(), policy);
    } else {
      initial_policy_[tenant_index(tenant).value()] = policy;
    }
  };
  const auto apply_mode = [&](const std::string& tenant, const DispatchModeConfig& mode) {
    if (tenant.empty()) {
      std::fill(initial_mode_.begin(), initial_mode_.end(), mode);
    } else {
      initial_mode_[tenant_index(tenant).value()] = mode;
    }
  };
  for (const PolicyBinding& binding : parse_policy_spec(config_.policy_spec)) {
    apply_policy(binding.tenant, binding.policy);
  }
  for (const DispatchBinding& binding : parse_dispatch_spec(config_.dispatch_spec)) {
    apply_mode(binding.tenant, binding.mode);
  }
  for (const PolicySwitch& entry : parse_policy_switch_spec(config_.switch_spec)) {
    if (entry.at == sim::Time::zero()) {
      if (entry.kind == PolicySwitch::Kind::kPolicy) {
        apply_policy(entry.tenant, entry.policy);
      } else {
        apply_mode(entry.tenant, entry.mode);
      }
    } else {
      if (!entry.tenant.empty()) tenant_index(entry.tenant);  // validate eagerly
      epochs_.push_back(entry);
    }
  }
  std::stable_sort(epochs_.begin(), epochs_.end(),
                   [](const PolicySwitch& a, const PolicySwitch& b) { return a.at < b.at; });
}

store::TenantId PolicyRuntime::tenant_index(const std::string& name) const {
  if (config_.tenants.empty()) {
    throw std::invalid_argument("policy spec names tenant '" + name +
                                "' but the scenario has no tenant mix (--tenants)");
  }
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    if (config_.tenants[i] == name) return store::TenantId{static_cast<std::uint32_t>(i)};
  }
  std::string known;
  for (const std::string& tenant : config_.tenants) {
    if (!known.empty()) known += ", ";
    known += tenant;
  }
  throw std::invalid_argument("policy spec names unknown tenant '" + name + "' (tenants: " +
                              known + ")");
}

const std::string& PolicyRuntime::initial_policy(store::TenantId tenant) const {
  if (tenant.value() >= initial_policy_.size()) {
    throw std::out_of_range("PolicyRuntime::initial_policy: bad tenant index");
  }
  return rule_name(initial_policy_[tenant.value()]);
}

const DispatchModeConfig& PolicyRuntime::initial_mode(store::TenantId tenant) const {
  if (tenant.value() >= initial_mode_.size()) {
    throw std::out_of_range("PolicyRuntime::initial_mode: bad tenant index");
  }
  return initial_mode_[tenant.value()];
}

bool PolicyRuntime::may_dispatch(DispatchMode mode) const {
  for (const DispatchModeConfig& initial : initial_mode_) {
    if (initial.mode == mode) return true;
  }
  for (const PolicySwitch& epoch : epochs_) {
    if (epoch.kind == PolicySwitch::Kind::kMode && epoch.mode.mode == mode) return true;
  }
  return false;
}

bool PolicyRuntime::may_dispatch_duplicates() const {
  return may_dispatch(DispatchMode::kHedge) || may_dispatch(DispatchMode::kTied) ||
         may_dispatch(DispatchMode::kKofn);
}

DispatchEndpoint PolicyRuntime::make_endpoint(store::TenantId tenant, util::Rng rng) const {
  if (tenant.value() >= initial_policy_.size()) {
    throw std::invalid_argument("PolicyRuntime::make_endpoint: tenant index out of range");
  }
  // Credits systems select jointly over replica load *and* credit
  // balances (the gate mirrors balances into the SignalTable).
  return DispatchEndpoint(config_.signals,
                          DispatchPolicy(initial_policy_[tenant.value()],
                                         initial_mode_[tenant.value()], config_.c3,
                                         config_.credit_aware, config_.c3.prior_service_time, rng,
                                         sim_),
                          rng, tenant);
}

void PolicyRuntime::apply_epoch(std::size_t epoch_index) {
  const PolicySwitch& epoch = epochs_[epoch_index];
  for (DispatchEndpoint* endpoint : endpoints_) {
    if (!epoch.tenant.empty() && config_.tenants[endpoint->tenant().value()] != epoch.tenant) {
      continue;
    }
    // A switch replaces one axis of the (rule, mode) pair and keeps
    // the other; the replacement policy reads the same SignalTable the
    // old one fed from — it starts with warm estimates, not a cold
    // cache.
    const DispatchPolicy& current = endpoint->policy_;
    const ReplicaRule rule =
        epoch.kind == PolicySwitch::Kind::kPolicy ? replica_rule(epoch.policy) : current.rule();
    const DispatchModeConfig mode =
        epoch.kind == PolicySwitch::Kind::kMode ? epoch.mode : current.mode();
    endpoint->rebind(DispatchPolicy(rule, mode, config_.c3, config_.credit_aware,
                                    config_.c3.prior_service_time, endpoint->rng_.split(), sim_));
    ++switches_applied_;
  }
}

void PolicyRuntime::start(std::vector<DispatchEndpoint*> endpoints) {
  if (started_) throw std::logic_error("PolicyRuntime::start: called twice");
  started_ = true;
  if (epochs_.empty()) return;
  endpoints_ = std::move(endpoints);
  const std::uint32_t target = sim_->attach(*this);
  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    sim_->post_at(epochs_[i].at, {sim::EventKind::kPolicyEpoch, target, i});
  }
}

}  // namespace brb::ctrl
