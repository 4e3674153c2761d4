#include "cli/scenario_registry.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cli/driver.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "ctrl/policy_runtime.hpp"
#include "ctrl/replica_policy.hpp"

namespace brb::cli {

namespace {

using core::ScenarioConfig;
using core::SystemKind;

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

/// Applies one "--flag=value" setting through the flag's own parser.
void apply_setting(ScenarioConfig& config, const std::string& setting) {
  const std::size_t eq = setting.find('=');
  set_config_flag(config, setting.substr(2, eq - 2), setting.substr(eq + 1));
}

/// `base` with each "--flag=value" preset applied, unless the command
/// line or the environment sets that flag or one it conflicts with.
ScenarioConfig with_presets(ScenarioConfig base, const util::Flags& flags,
                            const std::vector<std::string>& presets) {
  for (const std::string& preset : presets) {
    const std::string flag = preset.substr(2, preset.find('=') - 2);
    if (!config_flag_set(flags, flag)) apply_setting(base, preset);
  }
  return base;
}

/// A swept config field: each value of the list flag (else the
/// defaults) goes through the config flag's parser, and its case
/// labels read "<system>@<key>=<parsed value>".
struct Axis {
  std::string list;      // expander flag, e.g. "loads"
  std::string flag;      // config flag it sweeps, e.g. "utilization"
  std::string key;       // label key, e.g. "util"
  std::string defaults;  // comma list
};

/// A reference case outside the grid, with "--flag=value" settings
/// that always apply.
struct Fixed {
  std::string label;
  SystemKind system;
  std::vector<std::string> sets;
};

/// A scenario as data: presets on the base config, then one case per
/// (axis value, system), framed by fixed reference cases.
struct Row {
  std::string name{};
  std::string summary{};
  std::vector<std::string> presets{};  // "--flag=value"
  std::vector<SystemKind> systems{};   // the grid's default systems (none = no grid)
  std::optional<Axis> axis{};
  std::vector<Overwrite> overwrites{};  // besides the axis's config flag
  std::vector<Fixed> before{};          // reference cases ahead of the grid
  std::vector<Fixed> after{};           // ablations after it, dropped under --systems
  bool sweeps_systems = true;           // reads --systems in place of `systems`
  std::string needs{};  // "flag=ARG (hint)": a config flag every case needs
};

std::vector<ExperimentCase> expand_grid(const Row& row, const ScenarioConfig& base,
                                        const util::Flags& flags) {
  if (!row.needs.empty() && !flags.get(row.needs.substr(0, row.needs.find('=')))) {
    throw std::invalid_argument("scenario " + row.name + " needs --" + row.needs);
  }
  const ScenarioConfig preset = with_presets(base, flags, row.presets);
  std::vector<ExperimentCase> cases;
  const auto add_fixed = [&](const std::vector<Fixed>& fixed) {
    for (const Fixed& reference : fixed) {
      ScenarioConfig config = preset;
      config.system = reference.system;
      for (const std::string& setting : reference.sets) apply_setting(config, setting);
      cases.push_back({reference.label, std::move(config)});
    }
  };
  add_fixed(row.before);
  const bool systems_given = row.sweeps_systems && flags.get("systems").has_value();
  const std::vector<SystemKind> systems =
      row.sweeps_systems ? systems_from_flags(flags, row.systems) : row.systems;
  std::vector<std::string> values = {""};  // one unswept value without an axis
  if (row.axis) {
    values = util::split_list(flags.get(row.axis->list).value_or(row.axis->defaults));
    if (values.empty()) throw std::invalid_argument("--" + row.axis->list + ": empty list");
  }
  for (const std::string& value : values) {
    ScenarioConfig config = preset;
    std::string suffix;
    if (row.axis) {
      try {
        suffix = "@" + row.axis->key + "=" + set_config_flag(config, row.axis->flag, value);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("--" + row.axis->list + ": " + e.what());
      }
    }
    for (const SystemKind kind : systems) {
      cases.push_back({to_string(kind) + suffix, config});
      cases.back().config.system = kind;
    }
  }
  if (!systems_given) add_fixed(row.after);
  return cases;
}

/// The registry entry of a grid row: its reads and the axis's
/// overwrite are derived from the row.
ScenarioSpec grid(Row row) {
  ScenarioSpec spec{row.name, row.summary, {}, row.overwrites, {}};
  if (row.axis) {
    spec.reads.push_back(row.axis->list);
    spec.overwrites.insert(spec.overwrites.begin(), {row.axis->flag, row.axis->list});
  }
  if (row.sweeps_systems) spec.reads.emplace_back("systems");
  spec.expand = [row = std::move(row)](const ScenarioConfig& base, const util::Flags& flags) {
    return expand_grid(row, base, flags);
  };
  return spec;
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

const std::vector<SystemKind> kC3Credits = {SystemKind::kC3, SystemKind::kEqualMaxCredits};
const std::vector<SystemKind> kC3CreditsModel = {SystemKind::kC3, SystemKind::kEqualMaxCredits,
                                                 SystemKind::kEqualMaxModel};

// --------------------------------------------------------------------------
// Code-built scenarios: each varies something a single config flag
// cannot (a value that builds a key spec, canonical policy labels,
// endpoints derived from a schedule, two dimensions, one value setting
// two fields).

std::vector<ExperimentCase> expand_replication_skew(const ScenarioConfig& base,
                                                    const util::Flags& flags) {
  // Reuses the key-distribution layer to skew load across replica
  // groups: Zipf exponent 0 (uniform control) up past 1, at a reduced
  // replication factor so hot groups have little selection freedom.
  const ScenarioConfig preset = with_presets(base, flags, {"--replication=2"});
  const auto systems = systems_from_flags(flags, kC3Credits);
  std::vector<ExperimentCase> cases;
  for (const double skew : doubles_from_flag(flags, "skews", {0.0, 0.9, 1.2})) {
    std::ostringstream spec;
    if (skew == 0.0) {
      spec << "uniform:100000";
    } else {
      spec << "zipf:100000:" << skew;
    }
    for (const SystemKind kind : systems) {
      ScenarioConfig config = preset;
      config.system = kind;
      config.key_spec = spec.str();
      std::ostringstream label;
      label << to_string(kind) << "@skew=" << skew;
      cases.push_back({label.str(), std::move(config)});
    }
  }
  return cases;
}

std::vector<ExperimentCase> expand_policy_shootout(const ScenarioConfig& base,
                                                   const util::Flags& flags) {
  // Selection-policy bake-off: every baseline runs on one fixed,
  // task-oblivious substrate (FIFO server queues, direct dispatch,
  // per-request selection) so replica selection is the only varying
  // mechanism. The full C3 system (ranking + cubic rate gate) rides
  // along as the literature reference.
  std::vector<std::string> names = {"random",      "round-robin",        "least-outstanding",
                                    "two-choices", "least-pending-cost", "c3-noderate"};
  const auto custom = flags.get("policies");
  if (custom) names = util::split_list(*custom);
  if (names.empty()) throw std::invalid_argument("--policies: empty list");
  std::vector<ExperimentCase> cases;
  for (const std::string& name : names) {
    ScenarioConfig config = base;
    config.system = SystemKind::kFifoDirect;
    config.policy_spec = ctrl::canonical_policy_name(name);
    cases.push_back({config.policy_spec, std::move(config)});
  }
  if (!custom) {
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

  const ScenarioConfig preset = with_presets(base, flags, {"--servers=100", "--clients=1000"});
  std::vector<ExperimentCase> cases;
  for (const Workload& workload : workloads) {
    for (const std::string& mode_spec : modes) {
      // Parse for validation + canonical labels ("hedge" -> "hedge:q95").
      const ctrl::DispatchModeConfig mode = ctrl::parse_dispatch_mode(mode_spec);
      ScenarioConfig config = preset;
      config.system = SystemKind::kFifoDirect;
      config.policy_spec = "c3-noderate";
      config.dispatch_spec = mode.is_single() ? "" : mode.canonical();
      config.arrival_spec = workload.arrival_spec;
      cases.push_back({workload.label + "/" + mode.canonical(), std::move(config)});
    }
  }
  return cases;
}

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

}  // namespace

const std::vector<ScenarioSpec>& scenario_registry() {
  using S = SystemKind;
  static const std::vector<ScenarioSpec> registry = {
      grid({.name = "paper", .summary = "Figure 2: the five-system comparison at paper defaults",
            .systems = kPaperSystems}),
      grid({.name = "load-sweep", .summary = "utilization sweep over C3 / credits / model",
            .systems = kC3CreditsModel,
            .axis = Axis{"loads", "utilization", "util", "0.5,0.6,0.7,0.8,0.9"}}),
      // Fan-out ladder: degenerate fan-out 1 up to the skewed log-normal
      // the paper's workload uses.
      grid({.name = "fanout-sweep", .summary = "fan-out distribution sweep", .systems = kC3Credits,
            .axis = Axis{"fanouts", "fanout", "fanout",
                         "fixed:1,fixed:4,geometric:8.6,lognormal:8.6:1.0:512,"
                         "lognormal:8.6:2.0:512,fixed:32"}}),
      // Selector ablation on the direct BRB system: how much of the tail
      // is replica-selection quality?
      grid({.name = "policy-matrix", .summary = "all 13 systems: baselines, BRB, ablations",
            .systems = kMatrixSystems,
            .after = {{"equalmax-direct/c3", S::kEqualMaxDirect, {"--selector=c3"}},
                      {"equalmax-direct/least-pending-cost", S::kEqualMaxDirect,
                       {"--selector=least-pending-cost"}},
                      {"equalmax-direct/least-outstanding", S::kEqualMaxDirect,
                       {"--selector=least-outstanding"}},
                      {"equalmax-direct/random", S::kEqualMaxDirect, {"--selector=random"}}}}),
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
      // Two orders of magnitude past the paper's 9x18 cluster; the
      // dense-ID engine keeps per-(client,server) state flat, so this is
      // a routine CI case.
      grid({.name = "large-cluster",
            .summary = "100 servers x 1000 clients scale case (credits + C3)",
            .presets = {"--servers=100", "--clients=1000", "--tasks=100000"},
            .systems = {S::kEqualMaxCredits, S::kC3}}),
      // 10k servers x 1M clients: the pair cross-product (1e10) is far
      // past the sparse auto threshold, so the control plane runs the
      // windowed per-client store with first-touch credit pairs, and
      // stats default to mergeable sketches so per-seed artifacts stay
      // O(sketch). Two selection policies on the fixed FIFO/direct
      // substrate probe the windowed SignalTable under load; the credits
      // case drives first-touch credits end to end. A nightly job under
      // wall/RSS budgets (check_claims.py --scale-sanity), sharded over
      // the plan layer.
      grid({.name = "mega-fleet",
            .summary = "10k servers x 1M clients: sparse control plane + sketch stats "
                       "(nightly scale case)",
            .presets = {"--servers=10000", "--clients=1000000", "--tasks=1000000",
                        "--stats=sketch"},
            .overwrites = {{"policy", ""}, {"selector", ""}},
            .before = {{"two-choices", S::kFifoDirect, {"--policy=two-choices"}},
                       {"c3-noderate", S::kFifoDirect, {"--policy=c3-noderate"}},
                       {"equalmax-credits", S::kEqualMaxCredits, {}}},
            .sweeps_systems = false}),
      grid({.name = "trace-replay", .summary = "replay a recorded trace across systems",
            .systems = kC3Credits,
            .overwrites = {{"tasks", "record-trace"},
                           {"utilization", "record-trace"},
                           {"fanout", "record-trace"}},
            .needs = "trace=PATH (record one with brbsim --record-trace=PATH or "
                     "example_trace_replay)"}),
      // The scenario-diversity suite: the workload realism the paper's
      // fixed setup leaves out. A mixed fleet at the paper's 9-server
      // count: six 4-core boxes plus three 8-core boxes at twice the
      // per-core rate, planned to the same 70% utilization.
      grid({.name = "hetero-servers",
            .summary = "mixed fleet (6x4-core + 3x8-core at 2x rate) via a cluster profile",
            .presets = {"--cluster=hetero:6x4x3500,3x8x7000"}, .systems = kC3CreditsModel,
            .overwrites = {{"servers", "cluster"}, {"cores", "cluster"}, {"rate", "cluster"}}}),
      // A 1 s period: even small CI runs cover several peaks and troughs.
      grid({.name = "diurnal", .summary = "sinusoidal 0.5x..1.5x arrival envelope",
            .presets = {"--arrivals=diurnal:0.5:1.5:1"}, .systems = kC3CreditsModel,
            .overwrites = {{"paced", "arrivals"}}}),
      grid({.name = "write-heavy",
            .summary = "task-level write mix; writes fan out to all replicas",
            .systems = kC3Credits, .axis = Axis{"writes", "write-fraction", "writes", "0.05,0.2"}}),
      // A latency-sensitive foreground mixing with a heavy batch tenant
      // that also writes; per-tenant p99 spread is the headline metric.
      grid({.name = "multi-tenant",
            .summary = "interactive + batch tenant mix, per-tenant p99 fairness",
            .presets = {"--tenants=interactive,share=0.7,fanout=lognormal:2.5:1.0:64;"
                        "batch,share=0.3,fanout=lognormal:24:1.5:512,write=0.1"},
            .systems = kC3Credits}),
      {"replication-skew", "key-popularity skew over R=2 placement", {"skews", "systems"},
       {{"keys", "skews"}}, expand_replication_skew},
      {"credits-interval", "credits adaptation-cadence sweep vs the ideal model",
       {"intervals-ms"},
       {{"credits-adapt-s", "intervals-ms"}, {"credits-measure-ms", "intervals-ms"}},
       expand_credits_interval},
      // Forecast quality, against the forecast-independent FIFO baseline.
      grid({.name = "forecast-noise",
            .summary = "cost-forecast noise sweep vs task-oblivious FIFO",
            .systems = {S::kEqualMaxCredits},
            .axis = Axis{"noise-sigmas", "cost-noise", "noise", "0,0.25,0.5,1,2"},
            .before = {{"fifo-direct", S::kFifoDirect, {}}}, .sweeps_systems = false}),
      grid({.name = "replication-sweep",
            .summary = "replication-factor sweep across C3/credits/model",
            .systems = kC3CreditsModel,
            .axis = Axis{"replications", "replication", "R", "1,2,3,5,9"}}),
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

}  // namespace brb::cli
