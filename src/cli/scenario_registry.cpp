#include "cli/scenario_registry.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "ctrl/dispatch_policy.hpp"
#include "ctrl/policy_runtime.hpp"
#include "ctrl/replica_policy.hpp"

namespace brb::cli {

namespace {

using core::ScenarioConfig;
using core::SystemKind;

std::vector<ExperimentCase> per_system(const ScenarioConfig& base,
                                       const std::vector<SystemKind>& systems) {
  std::vector<ExperimentCase> cases;
  cases.reserve(systems.size());
  for (const SystemKind kind : systems) {
    ScenarioConfig config = base;
    config.system = kind;
    cases.push_back({to_string(kind), std::move(config)});
  }
  return cases;
}

/// Figure 2's five systems: C3 against the BRB matrix.
const std::vector<SystemKind> kPaperSystems = {
    SystemKind::kC3,
    SystemKind::kEqualMaxCredits,
    SystemKind::kEqualMaxModel,
    SystemKind::kUnifIncrCredits,
    SystemKind::kUnifIncrModel,
};

/// Every SystemKind, baselines through ablations (the policy-matrix scenario).
const std::vector<SystemKind> kMatrixSystems = {
    SystemKind::kRandomFifo,       SystemKind::kFifoDirect,      SystemKind::kRequestSjfDirect,
    SystemKind::kC3,               SystemKind::kEqualMaxDirect,  SystemKind::kUnifIncrDirect,
    SystemKind::kEqualMaxCredits,  SystemKind::kUnifIncrCredits, SystemKind::kCumSlackCredits,
    SystemKind::kFifoModel,        SystemKind::kEqualMaxModel,   SystemKind::kUnifIncrModel,
    SystemKind::kCumSlackModel,
};

std::vector<ExperimentCase> expand_paper(const ScenarioConfig& base, const util::Flags& flags) {
  return per_system(base, systems_from_flags(flags, kPaperSystems));
}

std::vector<ExperimentCase> expand_policy_matrix(const ScenarioConfig& base,
                                                 const util::Flags& flags) {
  std::vector<ExperimentCase> cases = per_system(base, systems_from_flags(flags, kMatrixSystems));
  // Selector ablation on the direct BRB system: how much of the tail is
  // replica-selection quality? Skipped when --systems narrows the
  // matrix to an explicit set.
  if (!flags.has("systems")) {
    for (const char* selector : {"c3", "least-pending-cost", "least-outstanding", "random"}) {
      ScenarioConfig config = base;
      config.system = SystemKind::kEqualMaxDirect;
      config.selector_override = selector;
      cases.push_back({std::string("equalmax-direct/") + selector, std::move(config)});
    }
  }
  return cases;
}

std::vector<ExperimentCase> expand_load_sweep(const ScenarioConfig& base,
                                              const util::Flags& flags) {
  const std::vector<double> loads =
      doubles_from_flag(flags, "loads", {0.50, 0.60, 0.70, 0.80, 0.90});
  const auto systems = systems_from_flags(
      flags, {SystemKind::kC3, SystemKind::kEqualMaxCredits, SystemKind::kEqualMaxModel});
  std::vector<ExperimentCase> cases;
  for (const double util : loads) {
    for (const SystemKind kind : systems) {
      ScenarioConfig config = base;
      config.system = kind;
      config.utilization = util;
      std::ostringstream label;
      label << to_string(kind) << "@util=" << util;
      cases.push_back({label.str(), std::move(config)});
    }
  }
  return cases;
}

std::vector<ExperimentCase> expand_fanout_sweep(const ScenarioConfig& base,
                                                const util::Flags& flags) {
  // Fan-out ladder: degenerate fan-out 1 up to the skewed log-normal
  // the paper's workload uses.
  std::vector<std::string> specs = {
      "fixed:1",  "fixed:4", "geometric:8.6", "lognormal:8.6:1.0:512", "lognormal:8.6:2.0:512",
      "fixed:32",
  };
  if (const auto custom = flags.get("fanouts")) specs = util::split_list(*custom);
  const auto systems =
      systems_from_flags(flags, {SystemKind::kC3, SystemKind::kEqualMaxCredits});
  std::vector<ExperimentCase> cases;
  for (const std::string& spec : specs) {
    for (const SystemKind kind : systems) {
      ScenarioConfig config = base;
      config.system = kind;
      config.fanout_spec = spec;
      cases.push_back({to_string(kind) + "@fanout=" + spec, std::move(config)});
    }
  }
  return cases;
}

std::vector<ExperimentCase> expand_large_cluster(const ScenarioConfig& base,
                                                 const util::Flags& flags) {
  // Scale sweep target: two orders of magnitude past the paper's 9x18
  // cluster. The dense-ID engine keeps per-(client,server) state flat,
  // so this runs as a routine CI case rather than a hash-map stress
  // test. Explicit --servers / --cluster / --clients / --tasks flags
  // still win (a --cluster profile fixes the whole fleet shape, so it
  // must not be partially overwritten here).
  ScenarioConfig config = base;
  if (!flags.has("servers") && !flags.has("cluster")) config.cluster.num_servers = 100;
  if (!flags.has("clients")) config.num_clients = 1000;
  if (!flags.has("tasks")) config.num_tasks = 100'000;
  return per_system(config, systems_from_flags(flags, {SystemKind::kEqualMaxCredits,
                                                       SystemKind::kC3}));
}

std::vector<ExperimentCase> expand_mega_fleet(const ScenarioConfig& base,
                                              const util::Flags& flags) {
  // Million-client scale case: 10k servers x 1M clients — three orders
  // of magnitude past the paper's fleet on the client axis. The pair
  // cross-product (1e10) is far past the sparse auto threshold, so the
  // control plane runs the windowed per-client store with first-touch
  // credit pairs, and stats default to mergeable sketches so
  // per-seed artifacts stay O(sketch). Two selection policies on the
  // fixed FIFO/direct substrate probe the windowed SignalTable under
  // load; the credits case drives first-touch credits end to end. Runs
  // as a nightly job under wall/RSS budgets (check_claims.py
  // --scale-sanity), sharded over the plan layer.
  ScenarioConfig config = base;
  if (!flags.has("servers") && !flags.has("cluster")) config.cluster.num_servers = 10'000;
  if (!flags.has("clients")) config.num_clients = 1'000'000;
  if (!flags.has("tasks")) config.num_tasks = 1'000'000;
  if (config.stats_spec.empty()) config.stats_spec = "sketch";
  std::vector<ExperimentCase> cases;
  for (const char* policy : {"two-choices", "c3-noderate"}) {
    ScenarioConfig c = config;
    c.system = SystemKind::kFifoDirect;
    c.policy_spec = policy;
    cases.push_back({policy, std::move(c)});
  }
  ScenarioConfig credits = config;
  credits.system = SystemKind::kEqualMaxCredits;
  cases.push_back({"equalmax-credits", std::move(credits)});
  return cases;
}

std::vector<ExperimentCase> expand_trace_replay(const ScenarioConfig& base,
                                                const util::Flags& flags) {
  if (base.trace_path.empty()) {
    throw std::invalid_argument(
        "scenario trace-replay needs --trace=PATH (record one with "
        "brbsim --record-trace=PATH or example_trace_replay)");
  }
  return per_system(base,
                    systems_from_flags(flags, {SystemKind::kC3, SystemKind::kEqualMaxCredits}));
}

// --------------------------------------------------------------------------
// Scenario-diversity suite: the workload realism the paper's fixed setup
// leaves out (heterogeneous fleets, diurnal load, writes, tenancy, skew).

std::vector<ExperimentCase> expand_hetero_servers(const ScenarioConfig& base,
                                                  const util::Flags& flags) {
  // Mixed fleet at the paper's 9-server count: six small 4-core boxes
  // plus three big 8-core boxes at twice the per-core rate. Capacity
  // planning spreads the same 70% utilization over the mixed fleet.
  ScenarioConfig config = base;
  if (!flags.has("cluster")) {
    config.cluster = workload::ClusterSpec::parse("hetero:6x4x3500,3x8x7000");
  }
  return per_system(config,
                    systems_from_flags(flags, {SystemKind::kC3, SystemKind::kEqualMaxCredits,
                                               SystemKind::kEqualMaxModel}));
}

std::vector<ExperimentCase> expand_diurnal(const ScenarioConfig& base,
                                           const util::Flags& flags) {
  // Sinusoidal rate envelope swinging 0.5x..1.5x around the mean with
  // a 1 s period — short enough that even small CI runs cover several
  // peaks and troughs.
  ScenarioConfig config = base;
  if (!flags.has("arrivals")) config.arrival_spec = "diurnal:0.5:1.5:1";
  return per_system(config,
                    systems_from_flags(flags, {SystemKind::kC3, SystemKind::kEqualMaxCredits,
                                               SystemKind::kEqualMaxModel}));
}

std::vector<ExperimentCase> expand_write_heavy(const ScenarioConfig& base,
                                               const util::Flags& flags) {
  const std::vector<double> fractions = doubles_from_flag(flags, "writes", {0.05, 0.20});
  const auto systems =
      systems_from_flags(flags, {SystemKind::kC3, SystemKind::kEqualMaxCredits});
  std::vector<ExperimentCase> cases;
  for (const double fraction : fractions) {
    for (const SystemKind kind : systems) {
      ScenarioConfig config = base;
      config.system = kind;
      config.write_fraction = fraction;
      std::ostringstream label;
      label << to_string(kind) << "@writes=" << fraction;
      cases.push_back({label.str(), std::move(config)});
    }
  }
  return cases;
}

std::vector<ExperimentCase> expand_multi_tenant(const ScenarioConfig& base,
                                                const util::Flags& flags) {
  // Two-tenant default: a latency-sensitive foreground mixing with a
  // heavy batch tenant that also writes. Fairness (per-tenant p99
  // spread) is the scenario's headline metric.
  ScenarioConfig config = base;
  if (!flags.has("tenants")) {
    config.tenant_spec =
        "interactive,share=0.7,fanout=lognormal:2.5:1.0:64;"
        "batch,share=0.3,fanout=lognormal:24:1.5:512,write=0.1";
  }
  return per_system(config,
                    systems_from_flags(flags, {SystemKind::kC3, SystemKind::kEqualMaxCredits}));
}

std::vector<ExperimentCase> expand_replication_skew(const ScenarioConfig& base,
                                                    const util::Flags& flags) {
  // Reuses the key-distribution layer to skew load across replica
  // groups: Zipf exponent 0 (uniform control) up past 1, at a reduced
  // replication factor so hot groups have little selection freedom.
  const std::vector<double> skews = doubles_from_flag(flags, "skews", {0.0, 0.9, 1.2});
  const auto systems =
      systems_from_flags(flags, {SystemKind::kC3, SystemKind::kEqualMaxCredits});
  std::vector<ExperimentCase> cases;
  for (const double skew : skews) {
    for (const SystemKind kind : systems) {
      ScenarioConfig config = base;
      config.system = kind;
      if (!flags.has("replication")) config.replication = 2;
      if (!flags.has("keys")) {
        std::ostringstream spec;
        if (skew == 0.0) {
          spec << "uniform:100000";
        } else {
          spec << "zipf:100000:" << skew;
        }
        config.key_spec = spec.str();
      }
      std::ostringstream label;
      label << to_string(kind) << "@skew=" << skew;
      cases.push_back({label.str(), std::move(config)});
    }
  }
  return cases;
}

// --------------------------------------------------------------------------
// Control-plane scenarios: the policy runtime's bake-off and mid-run
// switching cases.

std::vector<ExperimentCase> expand_policy_shootout(const ScenarioConfig& base,
                                                   const util::Flags& flags) {
  // Selection-policy bake-off: every baseline runs on one fixed,
  // task-oblivious substrate (FIFO server queues, direct dispatch,
  // per-request selection) so replica selection is the only varying
  // mechanism. The full C3 system (ranking + cubic rate gate) rides
  // along as the literature reference.
  std::vector<std::string> names = {"random",      "round-robin",        "least-outstanding",
                                    "two-choices", "least-pending-cost", "c3-noderate"};
  if (const auto custom = flags.get("policies")) names = util::split_list(*custom);
  if (names.empty()) throw std::invalid_argument("--policies: empty list");
  std::vector<ExperimentCase> cases;
  for (const std::string& name : names) {
    ScenarioConfig config = base;
    config.system = SystemKind::kFifoDirect;
    config.policy_spec = ctrl::canonical_policy_name(name);
    cases.push_back({config.policy_spec, std::move(config)});
  }
  if (!flags.has("policies")) {
    ScenarioConfig config = base;
    config.system = SystemKind::kC3;
    cases.push_back({"c3", std::move(config)});
  }
  return cases;
}

std::vector<ExperimentCase> expand_policy_switch(const ScenarioConfig& base,
                                                 const util::Flags& flags) {
  // Mid-run switching on the shootout substrate: one switched run
  // bracketed by its static endpoints. The default epoch (1s) sits
  // inside the default workload's span; --policy-switch=... studies
  // other schedules.
  (void)flags;
  const std::string schedule = base.policy_switch_spec.empty() ? "t0:random,1s:c3-noderate"
                                                               : base.policy_switch_spec;
  // Endpoint resolution mirrors the runtime exactly: t0 entries fold
  // into the initial binding (on top of the kFifoDirect profile
  // default), positive epochs apply in time order, later entries win.
  // Tenant-qualified entries rebind only a slice of the fleet, so no
  // single static endpoint exists for them.
  std::vector<ctrl::PolicySwitch> epochs = ctrl::parse_policy_switch_spec(schedule);
  if (epochs.empty()) throw std::invalid_argument("policy-switch: empty schedule");
  for (const ctrl::PolicySwitch& epoch : epochs) {
    if (!epoch.tenant.empty()) {
      throw std::invalid_argument(
          "scenario policy-switch compares fleet-wide static endpoints; tenant-qualified "
          "schedule entries have no single endpoint (run the schedule on --scenario=" +
          std::string("multi-tenant instead)"));
    }
  }
  std::stable_sort(epochs.begin(), epochs.end(),
                   [](const ctrl::PolicySwitch& a, const ctrl::PolicySwitch& b) {
                     return a.at < b.at;
                   });
  // Each switch kind folds independently: a mode epoch leaves the
  // policy endpoint alone and vice versa, exactly as in the runtime.
  std::string start_policy = "least-outstanding";  // kFifoDirect profile default
  std::string end_policy;
  ctrl::DispatchModeConfig start_mode;  // single
  ctrl::DispatchModeConfig end_mode;
  bool end_mode_seen = false;
  for (const ctrl::PolicySwitch& epoch : epochs) {
    if (epoch.at == sim::Time::zero()) {
      if (epoch.kind == ctrl::PolicySwitch::Kind::kPolicy) {
        start_policy = epoch.policy;
      } else {
        start_mode = epoch.mode;
      }
    } else {
      if (epoch.kind == ctrl::PolicySwitch::Kind::kPolicy) {
        end_policy = epoch.policy;
      } else {
        end_mode = epoch.mode;
        end_mode_seen = true;
      }
    }
  }
  if (end_policy.empty()) end_policy = start_policy;
  if (!end_mode_seen) end_mode = start_mode;

  std::vector<ExperimentCase> cases;
  const auto add_static = [&](const std::string& policy,
                              const ctrl::DispatchModeConfig& mode) {
    std::string label = "static/" + policy;
    if (!mode.is_single()) label += "+" + mode.canonical();
    for (const ExperimentCase& existing : cases) {
      if (existing.label == label) return;  // endpoints may coincide
    }
    ScenarioConfig config = base;
    config.system = SystemKind::kFifoDirect;
    config.policy_spec = policy;
    config.dispatch_spec = mode.is_single() ? "" : mode.canonical();
    config.policy_switch_spec.clear();
    cases.push_back({std::move(label), std::move(config)});
  };
  add_static(start_policy, start_mode);
  add_static(end_policy, end_mode);

  ScenarioConfig switched = base;
  switched.system = SystemKind::kFifoDirect;
  switched.policy_switch_spec = schedule;
  cases.push_back({"switch/" + schedule, std::move(switched)});
  return cases;
}

std::vector<ExperimentCase> expand_hedging_shootout(const ScenarioConfig& base,
                                                    const util::Flags& flags) {
  // Tail-cutting bake-off: the dispatch mode is the only varying
  // mechanism — fixed FIFO/direct substrate, fixed replica policy
  // (c3-noderate, the strongest single-target picker), on the
  // large-fleet shape (100 servers x 1000 clients) where per-server
  // feedback is sparse enough that single-target selection has real
  // tails to cut. (On the paper's 9-server fleet fresh signals keep
  // queues balanced and duplicates are pure load amplification — the
  // informative regime for hedging is scale.) Two arrival envelopes:
  // steady load and the diurnal sinusoid. `single` rides along as the
  // duplicate-free reference for --hedge-sanity.
  std::vector<std::string> modes = {"single", "hedge:q98", "tied", "kofn:2"};
  if (const auto custom = flags.get("dispatches")) modes = util::split_list(*custom);
  if (modes.empty()) throw std::invalid_argument("--dispatches: empty list");

  struct Workload {
    std::string label;
    std::string arrival_spec;
  };
  const std::vector<Workload> workloads = {
      {"steady", ""},
      {"diurnal", "diurnal:0.5:1.5:1"},
  };

  std::vector<ExperimentCase> cases;
  for (const Workload& workload : workloads) {
    for (const std::string& mode_spec : modes) {
      // Parse for validation + canonical labels ("hedge" -> "hedge:q95").
      const ctrl::DispatchModeConfig mode = ctrl::parse_dispatch_mode(mode_spec);
      ScenarioConfig config = base;
      config.system = SystemKind::kFifoDirect;
      config.policy_spec = "c3-noderate";
      config.dispatch_spec = mode.is_single() ? "" : mode.canonical();
      if (!flags.has("servers") && !flags.has("cluster")) config.cluster.num_servers = 100;
      if (!flags.has("clients")) config.num_clients = 1000;
      config.arrival_spec = workload.arrival_spec;
      cases.push_back({workload.label + "/" + mode.canonical(), std::move(config)});
    }
  }
  return cases;
}

// --------------------------------------------------------------------------
// Ablation sweeps: control-loop cadence, forecast noise, replication.

std::vector<ExperimentCase> expand_credits_interval(const ScenarioConfig& base,
                                                    const util::Flags& flags) {
  // Control-loop cadence sweep, with the no-control-loop ideal model
  // as the reference case.
  const std::vector<double> intervals_ms =
      doubles_from_flag(flags, "intervals-ms", {100, 250, 500, 1000, 2000, 4000});
  std::vector<ExperimentCase> cases;
  ScenarioConfig model = base;
  model.system = SystemKind::kEqualMaxModel;
  cases.push_back({"equalmax-model", std::move(model)});
  for (const double interval : intervals_ms) {
    ScenarioConfig config = base;
    config.system = SystemKind::kEqualMaxCredits;
    config.credits.adapt_interval = sim::Duration::millis(interval);
    config.credits.measure_interval = sim::Duration::millis(std::min(100.0, interval / 2.0));
    std::ostringstream label;
    label << "equalmax-credits@adapt-ms=" << interval;
    cases.push_back({label.str(), std::move(config)});
  }
  return cases;
}

std::vector<ExperimentCase> expand_forecast_noise(const ScenarioConfig& base,
                                                  const util::Flags& flags) {
  // Forecast-quality sweep, with the forecast-independent FIFO
  // baseline as the reference case.
  const std::vector<double> sigmas =
      doubles_from_flag(flags, "noise-sigmas", {0.0, 0.25, 0.5, 1.0, 2.0});
  std::vector<ExperimentCase> cases;
  ScenarioConfig fifo = base;
  fifo.system = SystemKind::kFifoDirect;
  cases.push_back({"fifo-direct", std::move(fifo)});
  for (const double sigma : sigmas) {
    ScenarioConfig config = base;
    config.system = SystemKind::kEqualMaxCredits;
    config.cost_noise_sigma = sigma;
    std::ostringstream label;
    label << "equalmax-credits@noise=" << sigma;
    cases.push_back({label.str(), std::move(config)});
  }
  return cases;
}

std::vector<ExperimentCase> expand_replication_sweep(const ScenarioConfig& base,
                                                     const util::Flags& flags) {
  std::vector<std::uint32_t> factors = {1, 2, 3, 5, 9};
  if (const auto custom = flags.get("replications")) {
    factors.clear();
    for (const std::string& part : util::split_list(*custom)) {
      const std::optional<std::uint64_t> factor = util::parse_decimal(part);
      if (!factor || *factor < 1 || *factor > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument("--replications: not an integer in [1, 2^32-1]: " + part);
      }
      factors.push_back(static_cast<std::uint32_t>(*factor));
    }
    if (factors.empty()) throw std::invalid_argument("--replications: empty list");
  }
  const auto systems = systems_from_flags(
      flags, {SystemKind::kC3, SystemKind::kEqualMaxCredits, SystemKind::kEqualMaxModel});
  std::vector<ExperimentCase> cases;
  for (const std::uint32_t factor : factors) {
    for (const SystemKind kind : systems) {
      ScenarioConfig config = base;
      config.system = kind;
      config.replication = factor;
      std::ostringstream label;
      label << to_string(kind) << "@R=" << factor;
      cases.push_back({label.str(), std::move(config)});
    }
  }
  return cases;
}

}  // namespace

const std::vector<ScenarioSpec>& scenario_registry() {
  static const std::vector<ScenarioSpec> registry = {
      {"paper", "Figure 2: the five-system comparison at paper defaults", {"systems"}, {},
       expand_paper},
      {"load-sweep", "utilization sweep over C3 / credits / model", {"loads", "systems"},
       {{"utilization", "loads"}}, expand_load_sweep},
      {"fanout-sweep", "fan-out distribution sweep", {"fanouts", "systems"},
       {{"fanout", "fanouts"}}, expand_fanout_sweep},
      {"policy-matrix", "all 13 systems: baselines, BRB, ablations", {"systems"}, {},
       expand_policy_matrix},
      {"policy-shootout", "replica-policy bake-off on a fixed FIFO/direct substrate + full C3",
       {"policies"}, {{"policy", "policies"}, {"selector", "policies"}}, expand_policy_shootout},
      {"policy-switch", "mid-run policy switching vs its static endpoints", {},
       {{"policy", "policy-switch"}, {"selector", "policy-switch"}, {"dispatch", "policy-switch"}},
       expand_policy_switch},
      {"hedging-shootout",
       "tail-cutting bake-off: single vs hedge/tied/kofn on the large fleet, "
       "steady + diurnal arrivals",
       {"dispatches"},
       {{"dispatch", "dispatches"}, {"policy", ""}, {"selector", ""}, {"arrivals", ""},
        {"paced", ""}},
       expand_hedging_shootout},
      {"large-cluster", "100 servers x 1000 clients scale case (credits + C3)", {"systems"}, {},
       expand_large_cluster},
      {"mega-fleet",
       "10k servers x 1M clients: sparse control plane + sketch stats (nightly scale case)", {},
       {{"policy", ""}, {"selector", ""}}, expand_mega_fleet},
      {"trace-replay", "replay a recorded trace across systems", {"systems"},
       {{"tasks", "record-trace"}, {"utilization", "record-trace"}, {"fanout", "record-trace"}},
       expand_trace_replay},
      {"hetero-servers", "mixed fleet (6x4-core + 3x8-core at 2x rate) via a cluster profile",
       {"systems"}, {{"servers", "cluster"}, {"cores", "cluster"}, {"rate", "cluster"}},
       expand_hetero_servers},
      {"diurnal", "sinusoidal 0.5x..1.5x arrival envelope", {"systems"},
       {{"paced", "arrivals"}}, expand_diurnal},
      {"write-heavy", "task-level write mix; writes fan out to all replicas",
       {"writes", "systems"}, {{"write-fraction", "writes"}}, expand_write_heavy},
      {"multi-tenant", "interactive + batch tenant mix, per-tenant p99 fairness", {"systems"}, {},
       expand_multi_tenant},
      {"replication-skew", "key-popularity skew over R=2 placement", {"skews", "systems"}, {},
       expand_replication_skew},
      {"credits-interval", "credits adaptation-cadence sweep vs the ideal model",
       {"intervals-ms"},
       {{"credits-adapt-s", "intervals-ms"}, {"credits-measure-ms", "intervals-ms"}},
       expand_credits_interval},
      {"forecast-noise", "cost-forecast noise sweep vs task-oblivious FIFO", {"noise-sigmas"},
       {{"cost-noise", "noise-sigmas"}}, expand_forecast_noise},
      {"replication-sweep", "replication-factor sweep across C3/credits/model",
       {"replications", "systems"}, {{"replication", "replications"}},
       expand_replication_sweep},
  };
  return registry;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const ScenarioSpec& spec : scenario_registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const std::vector<util::FlagHelp>& expander_flags() {
  static const std::vector<util::FlagHelp> flags = {
      {"systems", "a,b,...", "the systems to compare"},
      {"loads", "U,...", "utilization per case"},
      {"fanouts", "SPEC,...", "fan-out distribution per case"},
      {"writes", "F,...", "task write fraction per case"},
      {"skews", "S,...", "Zipf key-popularity exponent per case (0 = uniform)"},
      {"replications", "R,...", "replication factor per case"},
      {"intervals-ms", "MS,...", "credits adaptation interval per case"},
      {"noise-sigmas", "S,...", "cost-forecast noise sigma per case"},
      {"policies", "NAME,...", "replica policy per case"},
      {"dispatches", "MODE,...", "dispatch mode per case"},
  };
  return flags;
}

std::vector<SystemKind> systems_from_flags(const util::Flags& flags,
                                           std::vector<SystemKind> fallback) {
  const auto value = flags.get("systems");
  if (!value) return fallback;
  std::vector<SystemKind> systems;
  for (const std::string& name : util::split_list(*value)) {
    systems.push_back(core::system_kind_from_name(name));
  }
  if (systems.empty()) throw std::invalid_argument("--systems: empty list");
  return systems;
}

std::vector<double> doubles_from_flag(const util::Flags& flags, std::string_view name,
                                      std::vector<double> fallback) {
  const auto value = flags.get(name);
  if (!value) return fallback;
  std::vector<double> out;
  for (const std::string& part : util::split_list(*value)) {
    const std::optional<double> number = util::parse_finite(part);
    if (!number) {
      throw std::invalid_argument("--" + std::string(name) + ": not a finite number: " + part);
    }
    out.push_back(*number);
  }
  if (out.empty()) throw std::invalid_argument(std::string("--") + std::string(name) +
                                               ": empty list");
  return out;
}

}  // namespace brb::cli
