#include "cli/driver.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

#ifdef __unix__
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/run_builder.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "ctrl/replica_policy.hpp"
#include "stats/artifact.hpp"
#include "stats/table.hpp"
#include "workload/arrival.hpp"
#include "workload/capacity.hpp"
#include "workload/fanout_dist.hpp"
#include "workload/key_dist.hpp"
#include "workload/size_dist.hpp"
#include "workload/trace.hpp"

namespace brb::cli {

namespace {

using core::RunResult;
using core::ScenarioConfig;

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  return os;
}

void write_artifact(const std::string& path, const stats::Json& doc) {
  auto os = open_or_throw(path);
  doc.dump(os);
  os << "\n";
  if (!os) throw std::runtime_error("write failed: " + path);
}

using Cfg = ScenarioConfig;
using Cluster = workload::ClusterSpec;
using Credits = core::CreditsConfig;
using C3 = policy::C3Config;
using Rate = policy::CubicRateConfig;

/// The config field at a member-pointer path: `at<&Cfg::credits,
/// &Credits::recovery_step>` is `config.credits.recovery_step`.
template <auto... Path>
auto& at(Cfg& config) {
  return (config .* ... .* Path);
}

const ConfigFlag* find_config_flag(std::string_view name) {
  for (const ConfigFlag& row : config_flags()) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

/// Builds the workload spec that a --keys, --fanout, --sizes or
/// --arrivals value names, so a bad one fails at flag parsing (under
/// --plan too) rather than mid-run. Other string rows pass through.
void build_workload_spec(std::string_view name, const std::string& spec) {
  if (name == "keys") {
    workload::make_key_distribution(spec);
  } else if (name == "fanout") {
    workload::make_fanout_distribution(spec);
  } else if (name == "sizes") {
    workload::make_size_distribution(spec);
  } else if (name == "arrivals") {
    workload::make_arrival_process(spec, 1.0);
  }
}

/// Strict parse of the row's flag (command line, else environment)
/// into its field. A workload spec is built once here; its error
/// names the flag.
void parse_into(const util::Flags& flags, const ConfigFlag& row, ScenarioConfig& config) {
  const std::string flag = "flag --" + std::string(row.name);
  const auto naming_flag = [&flag](const auto& build) {
    try {
      build();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(flag + ": " + e.what());
    }
  };
  std::visit(
      [&](auto field) {
        using T = std::remove_reference_t<decltype(field(config))>;
        if constexpr (std::is_same_v<T, bool>) {
          field(config) = flags.get_bool(row.name, false);
        } else if constexpr (std::is_integral_v<T>) {
          const std::uint64_t value = flags.get_uint(row.name, 0);
          if (value > std::numeric_limits<T>::max()) {
            throw std::invalid_argument(flag + ": must be <= " +
                                        std::to_string(std::numeric_limits<T>::max()));
          }
          if (row.positive && value == 0) throw std::invalid_argument(flag + ": must be > 0");
          field(config) = static_cast<T>(value);
        } else if constexpr (std::is_same_v<T, std::string>) {
          field(config) = flags.get_string(row.name, "");
          if (field(config).empty()) throw std::invalid_argument(flag + ": empty value");
          naming_flag([&] { build_workload_spec(row.name, field(config)); });
        } else if constexpr (std::is_same_v<T, Cluster>) {
          naming_flag([&] { field(config) = Cluster::parse(flags.get_string(row.name, "")); });
        } else {
          const double value = flags.get_double(row.name, 0.0);
          if (value < 0.0) throw std::invalid_argument(flag + ": must be >= 0");
          if constexpr (std::is_same_v<T, double>) {
            field(config) = value;
          } else {
            const auto duration = sim::checked_duration(value, row.unit_ns);
            if (!duration) throw std::invalid_argument(flag + ": too large");
            field(config) = *duration;
          }
        }
      },
      row.field);
}

/// The row's field as its artifact value. The accessors are shared with
/// `parse_into` and so take a mutable config; this one only reads.
stats::Json field_json(const ConfigFlag& row, const ScenarioConfig& config) {
  auto& readable = const_cast<ScenarioConfig&>(config);
  return std::visit(
      [&](auto field) -> stats::Json {
        const auto& value = field(readable);
        using T = std::remove_cvref_t<decltype(value)>;
        if constexpr (std::is_same_v<T, sim::Duration>) {
          return static_cast<double>(value.count_nanos()) / row.unit_ns;
        } else if constexpr (std::is_same_v<T, Cluster>) {
          return value.describe();
        } else {
          return value;
        }
      },
      row.field);
}

/// Writes every echoed row's value into `j`: the config block in table
/// order, or a case block (rows with a case slot) in slot order.
void echo_config(stats::Json& j, const ScenarioConfig& config, bool case_block) {
  std::vector<const ConfigFlag*> rows;
  for (const ConfigFlag& row : config_flags()) {
    if (!row.json.empty() && (!case_block || row.case_slot > 0)) rows.push_back(&row);
  }
  if (case_block) {
    std::sort(rows.begin(), rows.end(), [](const ConfigFlag* a, const ConfigFlag* b) {
      return a->case_slot < b->case_slot;
    });
  }
  for (const ConfigFlag* row : rows) {
    stats::Json value = field_json(*row, config);
    if (row->when_set && (value.is_bool() ? !value.as_bool() : value.as_string().empty())) {
      continue;
    }
    j[std::string(row->json)] = std::move(value);
  }
}

}  // namespace

const std::vector<ConfigFlag>& config_flags() {
  // Artifact keys and case slots are pinned by existing artifacts: the
  // credits, C3 and rate knobs are not echoed, and the control-plane
  // bindings appear only when set.
  static const std::vector<ConfigFlag> table = {
      {.heading = "cluster / workload (paper defaults otherwise)", .name = "servers", .arg = "N",
       .help = "servers in the fleet", .field = &at<&Cfg::cluster, &Cluster::num_servers>,
       .json = "servers", .recorded = true},
      {.name = "cores", .arg = "N", .help = "cores per server",
       .field = &at<&Cfg::cluster, &Cluster::cores_per_server>, .json = "cores_per_server",
       .recorded = true},
      {.name = "rate", .arg = "X", .help = "requests/s each core serves",
       .field = &at<&Cfg::cluster, &Cluster::service_rate_per_core>,
       .json = "service_rate_per_core", .recorded = true},
      {.name = "cluster", .arg = "PROFILE", .help = "fleet profile, e.g. hetero:6x4x3500,3x8x7000",
       .field = &at<&Cfg::cluster>, .json = "cluster", .case_slot = 4,
       .conflicts = "servers,cores,rate", .recorded = true},
      {.name = "replication", .arg = "R", .help = "replicas per key",
       .field = &at<&Cfg::replication>, .json = "replication", .case_slot = 6, .positive = true},
      {.name = "clients", .arg = "N", .help = "client processes", .field = &at<&Cfg::num_clients>,
       .json = "clients", .recorded = true},
      {.name = "tasks", .arg = "N", .help = "tasks per run (60000; 500000 at paper scale)",
       .field = &at<&Cfg::num_tasks>, .json = "tasks", .case_slot = 3, .recorded = true},
      {.name = "utilization", .arg = "U", .help = "offered load as a fraction of capacity",
       .field = &at<&Cfg::utilization>, .json = "utilization", .case_slot = 1, .recorded = true},
      {.name = "trace", .arg = "PATH", .help = "replay this trace file (trace-replay input)",
       .field = &at<&Cfg::trace_path>, .json = "trace"},
      {.name = "fanout", .arg = "SPEC",
       .help = "fixed:K | geometric:MEAN | lognormal:MEAN:SIGMA:CAP",
       .field = &at<&Cfg::fanout_spec>, .json = "fanout", .case_slot = 2, .recorded = true},
      {.name = "sizes", .arg = "SPEC", .help = "value-size distribution",
       .field = &at<&Cfg::size_spec>, .json = "sizes", .recorded = true},
      {.name = "keys", .arg = "SPEC", .help = "key popularity: zipf:KEYS:EXP | uniform:KEYS",
       .field = &at<&Cfg::key_spec>, .json = "keys", .case_slot = 5, .recorded = true},
      {.name = "paced", .help = "evenly paced arrivals instead of Poisson",
       .field = &at<&Cfg::paced_arrivals>, .json = "paced_arrivals", .recorded = true},
      {.name = "arrivals", .arg = "SPEC",
       .help = "diurnal:LOW:HIGH:PERIOD_S | steps:M1,..:PERIOD_S", .field = &at<&Cfg::arrival_spec>,
       .json = "arrivals", .case_slot = 7, .recorded = true},
      {.name = "write-fraction", .arg = "F",
       .help = "task-level writes, fanned out to all replicas", .field = &at<&Cfg::write_fraction>,
       .json = "write_fraction", .case_slot = 8, .recorded = true},
      {.name = "tenants", .arg = "MIX",
       .help = "NAME[,share=W][,fanout=SPEC][,keys=SPEC][,write=F];..",
       .field = &at<&Cfg::tenant_spec>, .json = "tenants", .case_slot = 9, .recorded = true},

      {.heading = "timing / measurement", .name = "net-latency-us", .arg = "US",
       .help = "one-way network latency", .field = &at<&Cfg::net_latency>, .unit_ns = 1e3,
       .json = "net_latency_us"},
      {.name = "net-jitter-us", .arg = "US", .help = "network latency jitter",
       .field = &at<&Cfg::net_jitter>, .unit_ns = 1e3, .json = "net_jitter_us"},
      {.name = "service-base-us", .arg = "US", .help = "fixed per-request service overhead",
       .field = &at<&Cfg::service_base>, .unit_ns = 1e3, .json = "service_base_us"},
      {.name = "service-noise", .arg = "SIGMA", .help = "log-normal service-time noise",
       .field = &at<&Cfg::service_noise_sigma>, .json = "service_noise_sigma"},
      {.name = "cost-noise", .arg = "SIGMA", .help = "log-normal cost-forecast noise",
       .field = &at<&Cfg::cost_noise_sigma>, .json = "cost_noise_sigma"},
      {.name = "warmup", .arg = "F", .help = "leading fraction of tasks left out of the statistics",
       .field = &at<&Cfg::warmup_fraction>, .json = "warmup_fraction"},
      {.name = "keep-raw", .help = "keep raw latency samples",
       .field = &at<&Cfg::keep_raw_latencies>, .json = "keep_raw", .when_set = true},

      {.heading = "system under test / control plane", .name = "seed", .arg = "N",
       .help = "seed of a recorded trace (scenario runs take the seed list)",
       .field = &at<&Cfg::seed>, .recorded = true, .runs_instead = "seed-list"},
      {.name = "selector", .arg = "NAME", .help = "legacy alias for a fleet-wide policy binding",
       .field = &at<&Cfg::selector_override>, .json = "selector_override", .conflicts = "policy"},
      {.name = "policy", .arg = "SPEC", .help = "replica policy: NAME, or tenantA:c3,tenantB:lor",
       .field = &at<&Cfg::policy_spec>, .json = "policy", .when_set = true, .case_slot = 10},
      {.name = "policy-switch", .arg = "SCHEDULE",
       .help = "mid-run switching: t0:random,30s:c3 (per tenant 30s:tenantA:c3; dispatch "
               "modes 30s:hedge:q95)",
       .field = &at<&Cfg::policy_switch_spec>, .json = "policy_switch", .when_set = true,
       .case_slot = 11},
      {.name = "dispatch", .arg = "SPEC",
       .help = "dispatch mode: MODE, or tenantA:tied,tenantB:kofn:2",
       .field = &at<&Cfg::dispatch_spec>, .json = "dispatch", .when_set = true, .case_slot = 12},
      {.name = "admission", .arg = "NAME",
       .help = "direct | cubic-rate | credits (else the system's)",
       .field = &at<&Cfg::admission_override>, .json = "admission", .when_set = true,
       .case_slot = 13},
      {.name = "signal-store", .arg = "LAYOUT",
       .help = "auto | dense | sparse[:CAP] (an LRU window of CAP servers per client, default "
               "128; auto is sparse, with first-touch credits, past 2^24 client x server pairs)",
       .field = &at<&Cfg::signal_store>, .json = "signal_store", .when_set = true, .case_slot = 14},
      {.name = "stats", .arg = "KIND",
       .help = "exact | sketch (sketch adds mergeable quantile sketches, 1% relative error)",
       .field = &at<&Cfg::stats_spec>, .json = "stats", .when_set = true, .case_slot = 15},

      {.heading = "credits controller", .name = "credits-adapt-s", .arg = "S",
       .help = "re-allocation interval", .field = &at<&Cfg::credits, &Credits::adapt_interval>,
       .unit_ns = 1e9},
      {.name = "credits-measure-ms", .arg = "MS", .help = "client demand-report interval",
       .field = &at<&Cfg::credits, &Credits::measure_interval>, .unit_ns = 1e6},
      {.name = "credits-monitor-ms", .arg = "MS", .help = "congestion monitor interval",
       .field = &at<&Cfg::credits, &Credits::monitor_interval>, .unit_ns = 1e6},
      {.name = "credits-congestion-factor", .arg = "X",
       .help = "queue length, in multiples of cores, that signals congestion",
       .field = &at<&Cfg::credits, &Credits::congestion_queue_factor>},
      {.name = "credits-backoff", .arg = "X", .help = "capacity factor applied on congestion",
       .field = &at<&Cfg::credits, &Credits::congestion_backoff>},
      {.name = "credits-recovery", .arg = "X", .help = "capacity recovered per calm interval",
       .field = &at<&Cfg::credits, &Credits::recovery_step>},
      {.name = "credits-min-capacity", .arg = "X", .help = "floor on the congestion factor",
       .field = &at<&Cfg::credits, &Credits::min_capacity_factor>},
      {.name = "credits-ewma", .arg = "A", .help = "EWMA weight of the newest demand report",
       .field = &at<&Cfg::credits, &Credits::demand_ewma_alpha>},
      {.name = "credits-min-share", .arg = "F",
       .help = "capacity fraction granted as an equal floor",
       .field = &at<&Cfg::credits, &Credits::min_share_fraction>},
      {.name = "credits-carryover", .arg = "X", .help = "unused balance carried over, in grants",
       .field = &at<&Cfg::credits, &Credits::carryover_cap_factor>},

      {.heading = "C3 comparator", .name = "c3-ewma", .arg = "A",
       .help = "EWMA weight of the newest sample", .field = &at<&Cfg::c3, &C3::ewma_alpha>},
      {.name = "c3-exponent", .arg = "B", .help = "queue-size penalty exponent",
       .field = &at<&Cfg::c3, &C3::queue_exponent>},
      {.name = "rate-initial", .arg = "X", .help = "initial per-server rate cap (0 = fair share)",
       .field = &at<&Cfg::rate, &Rate::initial_rate>},
      {.name = "rate-beta", .arg = "X", .help = "multiplicative decrease on congestion",
       .field = &at<&Cfg::rate, &Rate::beta>},
      {.name = "rate-scaling", .arg = "X", .help = "cubic growth coefficient",
       .field = &at<&Cfg::rate, &Rate::scaling>},
      {.name = "rate-burst", .arg = "N", .help = "token bucket depth, in requests",
       .field = &at<&Cfg::rate, &Rate::burst>},
      {.name = "rate-window-ms", .arg = "MS", .help = "rate measurement window",
       .field = &at<&Cfg::rate, &Rate::window>, .unit_ns = 1e6},
  };
  return table;
}

const std::vector<util::FlagHelp>& run_control_flags() {
  static const std::vector<util::FlagHelp> flags = {
      {"scenario", "NAME", "the scenario to run (default paper)"},
      {"seeds", "N", "run seeds 1..N (default 3; 6 at paper scale)"},
      {"seed-list", "1,5,9", "explicit seed list (wins over the seed count)"},
      {"serial", "", "run one (case, seed) unit at a time"},
      {"threads", "N",
       "workers over (case, seed) units (0 = one per planned seed); identical results for any N"},
      {"paper", "", "full paper scale (500k tasks, 6 seeds)"},
      {"json", "PATH", "write the JSON artifact"},
      {"csv", "PATH", "write the CSV artifact"},
      {"quiet", "", "suppress the console table"},
      {"plan", "", "list every (case, seed) unit and exit"},
      {"shard", "i/N", "run only shard i of N (deterministic hash partition)"},
      {"spawn", "K", "fork K worker processes over the plan and merge in-process"},
      {"record-trace", "PATH", "write the workload to PATH as a trace and exit"},
      {"list-scenarios", "", "print the scenario catalog"},
      {"list", "", "same as list-scenarios"},
      {"help", "", "print this help"},
  };
  return flags;
}

namespace {

bool contains(const std::vector<std::string>& names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

const Overwrite* find_overwrite(const ScenarioSpec& scenario, std::string_view flag) {
  for (const Overwrite& overwrite : scenario.overwrites) {
    if (overwrite.flag == flag) return &overwrite;
  }
  return nullptr;
}

/// Why `scenario` would not honour the known, non-run-control flag
/// `name`; "" when it reads it.
std::string ignored_by(const ScenarioSpec& scenario, const std::string& name) {
  const std::string prefix = "scenario '" + scenario.name + "' does not read --" + name + "; ";
  if (const Overwrite* overwrite = find_overwrite(scenario, name)) {
    return prefix + (overwrite->instead.empty() ? "pick another --scenario"
                                                : "use --" + overwrite->instead);
  }
  if (const ConfigFlag* row = find_config_flag(name)) {
    return row->runs_instead.empty() ? "" : prefix + "use --" + std::string(row->runs_instead);
  }
  if (contains(scenario.reads, name)) return "";
  // An expander flag of other scenarios: point at the config flag those
  // scenarios sweep in its place, when this scenario keeps that one.
  std::string base;
  std::string readers;
  for (const ScenarioSpec& other : scenario_registry()) {
    if (contains(other.reads, name)) readers += (readers.empty() ? "" : ", ") + other.name;
    for (const Overwrite& overwrite : other.overwrites) {
      if (base.empty() && overwrite.instead == name &&
          find_overwrite(scenario, overwrite.flag) == nullptr) {
        base = "use --" + overwrite.flag + ", or ";
      }
    }
  }
  return prefix + base + "pick a --scenario that does: " + readers;
}

}  // namespace

void validate_flags(const util::Flags& flags) {
  std::vector<std::string> run_control;
  for (const util::FlagHelp& flag : run_control_flags()) run_control.emplace_back(flag.name);
  std::vector<std::string> known = run_control;
  for (const ConfigFlag& row : config_flags()) known.emplace_back(row.name);
  for (const util::FlagHelp& flag : expander_flags()) known.emplace_back(flag.name);
  const std::vector<std::string> given = flags.cli_names();
  for (const std::string& name : given) {
    if (contains(known, name)) continue;
    std::string message = "unknown flag --" + name;
    if (const auto suggestion = util::closest_name(name, known)) {
      message += " (did you mean --" + *suggestion + "?)";
    }
    message += "; see brbsim --help";
    throw std::invalid_argument(message);
  }
  if (flags.get_bool("help", false) || flags.get_bool("list", false) ||
      flags.get_bool("list-scenarios", false)) {
    return;
  }
  if (flags.get("record-trace")) {
    for (const std::string& name : given) {
      const ConfigFlag* row = find_config_flag(name);
      if (name == "record-trace" || name == "paper" || (row != nullptr && row->recorded)) continue;
      throw std::invalid_argument("--record-trace does not read --" + name +
                                  "; it reads --seed, --paper and the cluster / workload flags");
    }
    return;
  }
  // An unknown scenario is reported by the driver, with its own hint.
  const ScenarioSpec* scenario = find_scenario(flags.get_string("scenario", "paper"));
  if (scenario == nullptr) return;
  for (const std::string& name : given) {
    if (contains(run_control, name)) continue;
    if (const std::string reason = ignored_by(*scenario, name); !reason.empty()) {
      throw std::invalid_argument(reason);
    }
  }
}

ScenarioConfig config_from_flags(const util::Flags& flags) {
  ScenarioConfig config;  // paper defaults, but 60k tasks below full paper scale
  if (!flags.get_bool("paper", false)) config.num_tasks = 60'000;
  for (const ConfigFlag& row : config_flags()) {
    if (!flags.get(row.name)) continue;
    for (const std::string& other : util::split_list(row.conflicts)) {
      if (flags.get(other)) {
        throw std::invalid_argument("--" + std::string(row.name) + " conflicts with --" + other);
      }
    }
    parse_into(flags, row, config);
  }
  // A scenario preset may still resize the fleet (large-cluster's 100
  // servers), so the replication factor meets the fleet only in each
  // expanded case (build_sweep_plan).
  ScenarioConfig unsized = config;
  unsized.replication = 1;
  core::validate(unsized);
  return config;
}

std::string set_config_flag(ScenarioConfig& config, std::string_view name,
                            const std::string& value) {
  const ConfigFlag* row = find_config_flag(name);
  if (row == nullptr) throw std::logic_error("no config flag --" + std::string(name));
  const std::string arg = "--" + std::string(name) + "=" + value;
  const char* argv[] = {"brbsim", arg.c_str()};
  parse_into(util::Flags(2, argv), *row, config);
  std::ostringstream text;
  std::visit(
      [&](auto field) {
        const auto& parsed = field(config);
        using T = std::remove_cvref_t<decltype(parsed)>;
        if constexpr (std::is_same_v<T, sim::Duration>) {
          text << static_cast<double>(parsed.count_nanos()) / row->unit_ns;
        } else if constexpr (std::is_same_v<T, Cluster>) {
          text << parsed.describe();
        } else {
          text << parsed;
        }
      },
      row->field);
  return text.str();
}

bool config_flag_set(const util::Flags& flags, std::string_view name) {
  for (const ConfigFlag& row : config_flags()) {
    for (const std::string& other : util::split_list(row.conflicts)) {
      if ((row.name == name && flags.get(other)) || (other == name && flags.get(row.name))) {
        return true;
      }
    }
  }
  return flags.get(name).has_value();
}

std::vector<std::uint64_t> seeds_from_flags(const util::Flags& flags,
                                            std::uint64_t default_count) {
  if (const auto list = flags.get("seed-list")) {
    std::vector<std::uint64_t> seeds;
    for (const std::string& part : util::split_list(*list)) {
      const std::optional<std::uint64_t> seed = util::parse_decimal(part);
      if (!seed) throw std::invalid_argument("--seed-list: not a seed: " + part);
      seeds.push_back(*seed);
    }
    if (seeds.empty()) throw std::invalid_argument("--seed-list: empty list");
    // A repeated seed is the same simulation twice: pointless in an
    // aggregate and ambiguous for the sharded (case, seed) unit grid.
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      for (std::size_t j = i + 1; j < seeds.size(); ++j) {
        if (seeds[i] == seeds[j]) {
          throw std::invalid_argument("--seed-list: duplicate seed " +
                                      std::to_string(seeds[i]));
        }
      }
    }
    return seeds;
  }
  const std::uint64_t count = flags.get_uint("seeds", default_count);
  if (count == 0) throw std::invalid_argument("--seeds: must be >= 1");
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < count; ++s) seeds.push_back(s + 1);
  return seeds;
}

void record_trace(const ScenarioConfig& base, const std::string& path) {
  // The v1 trace format carries arrival/fan-out/size only, so write
  // and tenant structure cannot round-trip through a recording.
  if (base.write_fraction > 0.0 || !base.tenant_spec.empty()) {
    throw std::invalid_argument(
        "--record-trace conflicts with --write-fraction/--tenants (traces are read-only, "
        "single-tenant)");
  }
  // Recording keeps its own stream derivation (dataset, then tasks,
  // straight from the seed), so recorded traces do not change with the
  // runner's stream layout. Arrival times are baked into the
  // trace, so a diurnal recording replays with its envelope intact.
  util::Rng rng(base.seed);
  const util::Rng dataset_rng = rng.split();
  core::Workload stream(base, dataset_rng, rng.split());
  const auto tasks = stream.generator.generate(base.num_tasks);
  workload::TraceWriter::write_file(path, tasks);
}

namespace {

/// One per-seed row. Deterministic fields only: wall-clock time lives
/// in the artifact's trailing "timing" object, so rows (and the whole
/// document above "timing") are byte-identical across thread counts,
/// shard counts, and machines.
stats::Json run_json(const RunResult& run) {
  const core::LatencySummary latency = core::summarize_tasks(run);
  stats::Json j = stats::Json::object();
  j["seed"] = run.seed;
  j["p50_ms"] = latency.p50_ms;
  j["p95_ms"] = latency.p95_ms;
  j["p99_ms"] = latency.p99_ms;
  j["mean_ms"] = latency.mean_ms;
  j["tasks_completed"] = run.tasks_completed;
  j["tasks_measured"] = run.tasks_measured;
  j["requests_completed"] = run.requests_completed;
  j["write_requests"] = run.write_requests_acked;
  if (!run.tenants.empty()) {
    stats::Json tenants = stats::Json::array();
    for (const core::TenantResult& tenant : run.tenants) {
      stats::Json t = stats::Json::object();
      t["name"] = tenant.name;
      t["tasks_completed"] = tenant.tasks_completed;
      t["tasks_measured"] = tenant.tasks_measured;
      if (tenant.tasks_measured > 0) {
        t["p50_ms"] = tenant.task_latency.percentile(50).as_millis();
        t["p95_ms"] = tenant.task_latency.percentile(95).as_millis();
        t["p99_ms"] = tenant.task_latency.percentile(99).as_millis();
        t["mean_ms"] = tenant.task_latency.mean().as_millis();
      }
      tenants.push_back(std::move(t));
    }
    j["tenants"] = std::move(tenants);
    j["tenant_p99_ratio"] = run.tenant_p99_ratio;
  }
  j["mean_utilization"] = run.mean_utilization;
  j["network_messages"] = run.network_messages;
  j["network_bytes"] = run.network_bytes;
  j["congestion_signals"] = run.congestion_signals;
  j["controller_adaptations"] = run.controller_adaptations;
  // Mid-run policy switching only (absent = static binding), so
  // legacy rows keep their exact key set.
  if (run.policy_switches > 0) j["policy_switches"] = run.policy_switches;
  // Tail-cutting executor metrics: present only when the dispatch
  // plumbing was in play, so legacy rows keep their exact key set.
  if (run.dispatch_metrics) {
    j["duplicate_work_fraction"] = run.duplicate_work_fraction;
    j["hedges_issued"] = run.hedges_issued;
    j["hedges_won"] = run.hedges_won;
    j["hedges_cancelled"] = run.hedges_cancelled;
    // Only fresh=-configured hedging can skip, so legacy dispatch rows
    // (no fresh= spec, counter always zero) keep their exact key set.
    if (run.hedges_skipped_fresh > 0) j["hedges_skipped_fresh"] = run.hedges_skipped_fresh;
    j["duplicates_sent"] = run.duplicates_sent;
    j["duplicates_cancelled"] = run.duplicates_cancelled;
    j["duplicates_served"] = run.duplicates_served;
  }
  j["credit_hold_events"] = run.credit_hold_events;
  j["credit_hold_time_s"] = run.credit_hold_time.as_seconds();
  j["gate_held_requests"] = run.gate_held_requests;
  j["sim_seconds"] = run.sim_duration.as_seconds();
  j["events_processed"] = run.events_processed;
  // Sparse-store telemetry: present only on --signal-store=sparse runs,
  // so dense rows keep their exact key set.
  if (run.sparse_signal_store) {
    j["sparse_signal_store"] = true;
    j["signal_entries_live"] = run.signal_entries_live;
    j["signal_evictions"] = run.signal_evictions;
  }
  // Mergeable quantile sketch (--stats=sketch only): the O(sketch)
  // artifact replacement for raw samples. `brbsim merge` re-pools
  // these per-seed sketches exactly.
  if (const stats::QuantileSketch* sketch = run.task_latency.sketch();
      sketch != nullptr && !sketch->empty()) {
    j["task_latency_sketch"] = stats::sketch_block_json(*sketch);
  }
  return j;
}

}  // namespace

stats::Json execute_shard(const SweepPlan& plan, const ShardSpec* shard, std::size_t threads,
                          const std::function<void(const ExperimentCase&)>& progress) {
  const std::vector<const SweepUnit*> units = plan.shard_units(shard ? *shard : ShardSpec{});
  // Unit-indexed slots, each written only by the worker that claimed
  // the unit; a case's progress fires when its last owned unit ends.
  std::vector<stats::Json> rows(units.size());
  std::vector<double> walls(units.size());
  std::vector<std::exception_ptr> errors(units.size());
  std::vector<std::size_t> left(plan.cases.size());
  for (const SweepUnit* unit : units) ++left[unit->case_index];
  std::atomic<std::size_t> next{0};
  std::mutex progress_mutex;
  // brblint:allow(BRB-R01): disjoint unit-indexed slots (rows[i], walls[i], errors[i]) pre-sized above; `left` under the mutex; read after the join
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < units.size();) {
      const ExperimentCase& experiment = plan.cases[units[i]->case_index];
      try {
        ScenarioConfig config = experiment.config;
        config.seed = units[i]->seed;
        const RunResult run = core::run_scenario(config);
        rows[i] = run_json(run);
        walls[i] = run.wall_seconds;
      } catch (...) {
        // Units are claimed in plan order, so every unit before this
        // one is already claimed and the first failure is the same
        // for any worker count; claim nothing more.
        errors[i] = std::current_exception();
        next.store(units.size());
        return;
      }
      const std::lock_guard<std::mutex> lock(progress_mutex);
      if (--left[units[i]->case_index] == 0 && progress) progress(experiment);
    }
  };
  const std::size_t workers = std::min(units.size(), threads == 0 ? plan.seeds.size() : threads);
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& worker : pool) worker.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  stats::Json root = stats::Json::object();
  root["tool"] = "brbsim";
  root["format"] = stats::kArtifactFormat;
  root["scenario"] = plan.scenario;
  if (shard != nullptr) root["shard"] = shard->describe();
  stats::Json config = stats::Json::object();
  echo_config(config, plan.base, /*case_block=*/false);
  root["config"] = std::move(config);
  stats::Json seed_array = stats::Json::array();
  for (const std::uint64_t s : plan.seeds) seed_array.push_back(s);
  root["seeds"] = std::move(seed_array);

  double total_wall_seconds = 0.0;
  stats::Json timing_cases = stats::Json::array();
  stats::Json cases = stats::Json::array();
  std::size_t u = 0;  // units are case-major
  for (std::uint32_t case_index = 0; case_index < plan.cases.size(); ++case_index) {
    const ExperimentCase& experiment = plan.cases[case_index];
    stats::Json c = stats::Json::object();
    c["label"] = experiment.label;
    c["system"] = to_string(experiment.config.system);
    // Per-case copies of every dimension a scenario expander may sweep,
    // so each case stays self-describing even when it diverges from
    // the base config block above.
    echo_config(c, experiment.config, /*case_block=*/true);
    stats::Json runs = stats::Json::array();
    stats::Json case_walls = stats::Json::array();
    for (; u < units.size() && units[u]->case_index == case_index; ++u) {
      runs.push_back(std::move(rows[u]));
      case_walls.push_back(walls[u]);
      total_wall_seconds += walls[u];
    }
    stats::set_case_runs(c, std::move(runs));
    cases.push_back(std::move(c));
    stats::Json timing_case = stats::Json::object();
    timing_case["label"] = experiment.label;
    timing_case["wall_seconds"] = std::move(case_walls);
    timing_cases.push_back(std::move(timing_case));
  }
  root["cases"] = std::move(cases);

  // Wall-clock time is the one legitimately nondeterministic
  // measurement; it is quarantined as the LAST top-level key so
  // artifact diffs and shard-merge identity checks drop exactly one
  // subtree instead of excluding fields all over the document.
  stats::Json timing = stats::Json::object();
  timing["total_wall_seconds"] = total_wall_seconds;
#ifdef __unix__
  // Peak RSS of this process (the shard worker, under --spawn): the
  // number the mega-fleet nightly budget gates. Like wall time it is
  // machine-dependent, hence quarantined here in the timing subtree.
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    timing["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
#endif
  timing["cases"] = std::move(timing_cases);
  root["timing"] = std::move(timing);
  return root;
}

void print_case_table(std::ostream& os, const stats::Json& artifact) {
  stats::Table table({"case", "p50 ms", "p95 ms", "p99 ms", "mean ms", "sd(p99)"});
  for (const stats::Json& item : artifact.at("cases").items()) {
    if (item.at("runs").size() == 0) continue;  // not executed by this shard
    const stats::Json& latency = item.at("task_latency_ms");
    table.add_row({item.at("label").as_string(),
                   stats::fmt_double(latency.at("p50_ms").at("mean").as_double(), 3),
                   stats::fmt_double(latency.at("p95_ms").at("mean").as_double(), 3),
                   stats::fmt_double(latency.at("p99_ms").at("mean").as_double(), 3),
                   stats::fmt_double(latency.at("mean_ms").at("mean").as_double(), 3),
                   stats::fmt_double(latency.at("p99_ms").at("stddev").as_double(), 3)});
  }
  table.print(os);
}

bool print_paper_claims(std::ostream& os, const stats::Json& artifact) {
  if (artifact.at("scenario").as_string() != "paper") return false;
  const auto percentiles = [&](const char* label) -> const stats::Json* {
    for (const stats::Json& item : artifact.at("cases").items()) {
      if (item.at("label").as_string() == label && item.at("runs").size() > 0) {
        return &item.at("task_latency_ms");
      }
    }
    return nullptr;
  };
  const stats::Json* c3 = percentiles("c3");
  const stats::Json* em_credits = percentiles("equalmax-credits");
  const stats::Json* em_model = percentiles("equalmax-model");
  const stats::Json* ui_credits = percentiles("unifincr-credits");
  const stats::Json* ui_model = percentiles("unifincr-model");
  if (!c3 || !em_credits || !em_model || !ui_credits || !ui_model) return false;
  const auto mean = [](const stats::Json& latency, const char* key) {
    return latency.at(key).at("mean").as_double();
  };

  const double gap_em = mean(*em_credits, "p99_ms") / mean(*em_model, "p99_ms") - 1.0;
  const double gap_ui = mean(*ui_credits, "p99_ms") / mean(*ui_model, "p99_ms") - 1.0;
  os << "\nClaim A (paper: credits within 38% of model at p99)\n";
  os << "  EqualMax: credits/model p99 gap = " << stats::fmt_double(gap_em * 100, 1) << "%\n";
  os << "  UnifIncr: credits/model p99 gap = " << stats::fmt_double(gap_ui * 100, 1) << "%\n";

  os << "\nClaim B (paper: BRB vs C3 up to 3x at median/p95, up to 2x at p99)\n";
  const auto speedup = [&](const stats::Json& brb_latency, const char* name) {
    os << "  C3 / " << name << ":  median "
       << stats::fmt_ratio(mean(*c3, "p50_ms") / mean(brb_latency, "p50_ms")) << "  p95 "
       << stats::fmt_ratio(mean(*c3, "p95_ms") / mean(brb_latency, "p95_ms")) << "  p99 "
       << stats::fmt_ratio(mean(*c3, "p99_ms") / mean(brb_latency, "p99_ms")) << "\n";
  };
  speedup(*em_credits, "EqualMax-Credits");
  speedup(*ui_credits, "UnifIncr-Credits");
  speedup(*em_model, "EqualMax-Model  ");
  speedup(*ui_model, "UnifIncr-Model  ");
  return true;
}

/// Registry entries sorted by name (the registry itself keeps
/// expansion-group order; every user-facing listing sorts).
std::vector<const ScenarioSpec*> sorted_scenarios() {
  std::vector<const ScenarioSpec*> specs;
  for (const ScenarioSpec& spec : scenario_registry()) specs.push_back(&spec);
  std::sort(specs.begin(), specs.end(),
            [](const ScenarioSpec* a, const ScenarioSpec* b) { return a->name < b->name; });
  return specs;
}

namespace {

using Columns = std::vector<std::pair<std::string, std::string>>;

/// Prints two aligned columns, indented by two spaces.
void print_columns(std::ostream& os, const Columns& rows) {
  std::size_t width = 0;
  for (const auto& [left, right] : rows) width = std::max(width, left.size());
  for (const auto& [left, right] : rows) {
    os << "  " << left << std::string(width - left.size() + 2, ' ') << right << "\n";
  }
}

std::string usage_flag(std::string_view name, std::string_view arg) {
  std::string text = "--";
  text.append(name);
  if (!arg.empty()) text.append("=").append(arg);
  return text;
}

}  // namespace

void print_scenario_list(std::ostream& os) {
  Columns rows;
  for (const ScenarioSpec* spec : sorted_scenarios()) {
    std::string summary = spec->summary;
    for (std::size_t i = 0; i < spec->reads.size(); ++i) {
      summary += (i == 0 ? " (--" : ", --") + spec->reads[i];
    }
    rows.emplace_back(spec->name, summary + (spec->reads.empty() ? "" : ")"));
  }
  print_columns(os, rows);
}

void print_usage(std::ostream& os) {
  os << "brbsim — unified BRB experiment driver\n\n"
        "usage: brbsim [--scenario=NAME] [flags...] [--json=PATH] [--csv=PATH]\n"
        "       brbsim --scenario=NAME --plan [--shard=i/N | --spawn=K]\n"
        "       brbsim --scenario=NAME --shard=i/N --json=shard_i.json\n"
        "       brbsim merge OUT.json SHARD.json... [--csv=PATH]\n"
        "       brbsim --record-trace=PATH [cluster / workload flags] [--seed=N]\n\n"
        "A flag that is unknown, repeated or malformed, or that the chosen scenario\n"
        "does not read, is an error. `brbsim merge` reassembles shard artifacts\n"
        "byte-identically to an unsharded run (timing aside).\n\n"
        "scenarios (and the sweep flags each reads):\n";
  print_scenario_list(os);
  Columns rows;
  for (const util::FlagHelp& flag : run_control_flags()) {
    rows.emplace_back(usage_flag(flag.name, flag.arg), flag.help);
  }
  os << "\nrun control:\n";
  for (const ConfigFlag& row : config_flags()) {
    if (!row.heading.empty()) {
      print_columns(os, rows);
      rows.clear();
      os << "\n" << row.heading << ":\n";
    }
    rows.emplace_back(usage_flag(row.name, row.arg),
                      std::string(row.help) + (row.recorded ? " [record-trace]" : ""));
  }
  print_columns(os, rows);
  rows.clear();
  os << "\nscenario sweeps (read only by the scenarios that list them above):\n";
  for (const util::FlagHelp& flag : expander_flags()) {
    rows.emplace_back(usage_flag(flag.name, flag.arg), flag.help);
  }
  print_columns(os, rows);
  rows.clear();
  os << "\nreplica policies:\n";
  for (const ctrl::ReplicaPolicyInfo& info : ctrl::replica_policy_catalog()) {
    std::string title = info.name;
    for (const std::string& alias : info.aliases) title += " | " + alias;
    rows.emplace_back(title, info.summary);
  }
  print_columns(os, rows);
  rows.clear();
  os << "\ndispatch modes:\n";
  for (const ctrl::DispatchModeInfo& info : ctrl::dispatch_mode_catalog()) {
    rows.emplace_back(info.grammar, info.summary);
  }
  print_columns(os, rows);
  os << "\nEvery flag also reads a BRB_<NAME> environment default (e.g. BRB_PAPER=1,\n"
        "BRB_TASKS=10000). This help is generated from the driver's flag tables.\n";
}

namespace {

/// Emits the finished artifact: console readout, JSON (to `json_path`,
/// if set), CSV. Shared by the in-process, sharded, spawn-merge and
/// `brbsim merge` paths so all four produce the same bytes for the same
/// document.
void emit_outputs(const stats::Json& doc, const std::optional<std::string>& json_path,
                  const util::Flags& flags, bool quiet) {
  if (!quiet) {
    print_case_table(std::cout, doc);
    print_paper_claims(std::cout, doc);  // prints only for the paper scenario
  }
  if (json_path) {
    write_artifact(*json_path, doc);
    if (!quiet) std::cout << "wrote " << *json_path << "\n";
  }
  if (const auto csv_path = flags.get("csv")) {
    auto os = open_or_throw(*csv_path);
    stats::artifact_csv(os, doc);
    if (!quiet) std::cout << "wrote " << *csv_path << "\n";
  }
}

/// `brbsim merge OUT.json SHARD.json...` — layer 3.
int run_merge(const util::Flags& flags) {
  for (const std::string& name : flags.cli_names()) {
    if (name != "csv" && name != "quiet") {
      throw std::invalid_argument("brbsim merge accepts only --csv/--quiet, not --" + name);
    }
  }
  const std::vector<std::string>& args = flags.positional();
  if (args.size() < 3) {
    std::cerr << "usage: brbsim merge OUT.json SHARD.json... [--csv=PATH] [--quiet]\n";
    return 2;
  }
  const std::string& out_path = args[1];
  std::vector<stats::Json> shards;
  shards.reserve(args.size() - 2);
  for (std::size_t i = 2; i < args.size(); ++i) {
    shards.push_back(stats::read_artifact_file(args[i]));
  }
  const stats::Json merged = stats::merge_artifacts(shards);
  const bool quiet = flags.get_bool("quiet", false);
  if (!quiet) {
    std::size_t units = 0;
    for (const stats::Json& item : merged.at("cases").items()) units += item.at("runs").size();
    std::cout << "# brbsim merge: " << shards.size() << " shards, " << units << " units -> "
              << out_path << "\n";
  }
  emit_outputs(merged, out_path, flags, quiet);
  return 0;
}

/// `--spawn=K`: fork K shard workers over the plan, collect their
/// artifacts, and merge in-process. The cross-machine equivalent is
/// running `--shard=i/N` on each machine and `brbsim merge` once.
int run_spawn(const SweepPlan& plan, std::uint32_t spawn_count, std::size_t threads,
              const util::Flags& flags, bool quiet) {
#ifndef __unix__
  (void)plan;
  (void)spawn_count;
  (void)threads;
  (void)flags;
  (void)quiet;
  throw std::runtime_error("--spawn needs a POSIX host; use --shard=i/N plus brbsim merge");
#else
  const std::string stem = flags.get_string("json", "brbsim-" + plan.scenario + ".json");
  const auto shard_path = [&](std::uint32_t index) {
    return stem + ".shard" + std::to_string(index) + "of" + std::to_string(spawn_count);
  };
  std::vector<pid_t> workers;
  workers.reserve(spawn_count);
  for (std::uint32_t index = 1; index <= spawn_count; ++index) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "brbsim: fork failed for shard " << index << "/" << spawn_count << "\n";
      for (const pid_t child : workers) waitpid(child, nullptr, 0);
      return 1;
    }
    if (pid == 0) {
      // Worker: execute one shard, write its artifact, and exit
      // without running parent-owned static destructors.
      int code = 0;
      try {
        ShardSpec shard;
        shard.index = index;
        shard.count = spawn_count;
        write_artifact(shard_path(index), execute_shard(plan, &shard, threads));
      } catch (const std::exception& e) {
        std::cerr << "brbsim[shard " << index << "/" << spawn_count << "]: " << e.what() << "\n";
        code = 1;
      }
      std::_Exit(code);
    }
    workers.push_back(pid);
  }

  bool failed = false;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    int status = 0;
    if (waitpid(workers[i], &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::cerr << "brbsim: shard worker " << (i + 1) << "/" << spawn_count << " failed\n";
      failed = true;
    }
  }
  if (failed) return 1;  // shard artifacts are left behind for inspection

  std::vector<stats::Json> shards;
  shards.reserve(spawn_count);
  for (std::uint32_t index = 1; index <= spawn_count; ++index) {
    shards.push_back(stats::read_artifact_file(shard_path(index)));
  }
  const stats::Json merged = stats::merge_artifacts(shards);
  for (std::uint32_t index = 1; index <= spawn_count; ++index) {
    std::remove(shard_path(index).c_str());
  }
  emit_outputs(merged, flags.get("json"), flags, quiet);
  return 0;
#endif
}

}  // namespace

int run_brbsim(int argc, const char* const* argv) {
  try {
    const util::Flags flags(argc, argv);
    if (!flags.positional().empty() && flags.positional().front() == "merge") {
      return run_merge(flags);
    }
    if (!flags.positional().empty()) {
      // Fail fast like unknown flags do: a typo'd `brbsim mergee ...`
      // must not silently run the full default sweep instead.
      throw std::invalid_argument("unexpected argument '" + flags.positional().front() +
                                  "' (the only subcommand is `brbsim merge OUT IN...`)");
    }
    validate_flags(flags);
    if (flags.get_bool("help", false)) {
      print_usage(std::cout);
      return 0;
    }
    if (flags.get_bool("list", false) || flags.get_bool("list-scenarios", false)) {
      print_scenario_list(std::cout);
      return 0;
    }

    const ScenarioConfig base = config_from_flags(flags);

    if (const auto trace_out = flags.get("record-trace")) {
      record_trace(base, *trace_out);
      std::cout << "recorded " << base.num_tasks << " tasks to " << *trace_out << "\n";
      return 0;
    }

    const std::string scenario_name = flags.get_string("scenario", "paper");
    if (find_scenario(scenario_name) == nullptr) {
      // Same did-you-mean treatment unknown flags get: a typo'd
      // scenario name should point at the nearest real one.
      std::vector<std::string> names;
      for (const ScenarioSpec& spec : scenario_registry()) names.push_back(spec.name);
      std::cerr << "brbsim: unknown scenario '" << scenario_name << "'";
      if (const auto suggestion = util::closest_name(scenario_name, names)) {
        std::cerr << " (did you mean '" << *suggestion << "'?)";
      }
      std::cerr << "; see brbsim --list-scenarios\n";
      return 2;
    }

    const bool paper = flags.get_bool("paper", false);
    const std::vector<std::uint64_t> seeds = seeds_from_flags(flags, paper ? 6 : 3);
    const bool serial = flags.get_bool("serial", false);
    if (serial && flags.has("threads")) {
      throw std::invalid_argument("--serial and --threads conflict; use --threads=1");
    }
    // Workers over the (case, seed) units: 0 = one per planned seed.
    // Any count produces identical artifacts (units are independent
    // simulations). An explicit --serial always wins — including over
    // a BRB_THREADS environment default.
    const std::size_t threads = serial ? 1 : flags.get_uint("threads", 0);
    const bool quiet = flags.get_bool("quiet", false);

    // --- layer 1: plan ---
    const SweepPlan plan = build_sweep_plan(scenario_name, base, seeds, flags);
    if (plan.cases.empty()) {
      std::cerr << "brbsim: scenario '" << scenario_name << "' expanded to no cases\n";
      return 2;
    }

    std::optional<ShardSpec> shard;
    if (const auto spec = flags.get("shard")) shard = ShardSpec::parse(*spec);
    // get() (not has()) so the BRB_SPAWN environment default works
    // like every other flag's.
    const bool spawn_requested = flags.get("spawn").has_value();
    const std::uint64_t spawn = spawn_requested ? flags.get_uint("spawn", 0) : 0;
    if (spawn_requested) {
      if (shard) throw std::invalid_argument("--spawn and --shard conflict; pick one");
      if (spawn == 0 || spawn > 4096) {
        throw std::invalid_argument("--spawn: need 1 <= K <= 4096");
      }
    }

    if (flags.get_bool("plan", false)) {
      const auto shard_count =
          shard ? shard->count : static_cast<std::uint32_t>(spawn > 1 ? spawn : 1);
      if (const auto json_path = flags.get("json")) {
        write_artifact(*json_path, plan_json(plan, shard_count));
        if (!quiet) std::cout << "wrote " << *json_path << "\n";
      }
      print_plan(std::cout, plan, shard_count,
                 shard ? std::optional<std::uint32_t>(shard->index) : std::nullopt);
      return 0;
    }

    // A replayed trace, not --tasks, sets how many tasks each run has.
    const std::size_t tasks_each =
        quiet || base.trace_path.empty()
            ? base.num_tasks
            : workload::TraceReader::read_file(base.trace_path).size();
    if (spawn_requested) {
      if (!quiet) {
        std::cout << "# brbsim scenario=" << scenario_name << ": " << plan.cases.size()
                  << " cases x " << seeds.size() << " seeds, " << tasks_each
                  << " tasks each, " << spawn << " worker processes\n";
      }
      return run_spawn(plan, static_cast<std::uint32_t>(spawn), threads, flags, quiet);
    }

    // --- layer 2: execute (this process's shard, or everything) ---
    if (!quiet) {
      std::cout << "# brbsim scenario=" << scenario_name << ": " << plan.cases.size()
                << " cases x " << seeds.size() << " seeds, " << tasks_each << " tasks each";
      if (shard) {
        std::cout << ", shard " << shard->describe() << " (" << plan.shard_units(*shard).size()
                  << " of " << plan.units.size() << " units)";
      }
      std::cout << "\n";
    }
    const auto progress = [&](const ExperimentCase& experiment) {
      if (!quiet) std::cerr << "[brbsim] finished " << experiment.label << "\n";
    };
    const stats::Json doc = execute_shard(plan, shard ? &*shard : nullptr, threads, progress);
    emit_outputs(doc, flags.get("json"), flags, quiet);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "brbsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace brb::cli
