#include "cli/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>

#ifdef __unix__
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "ctrl/dispatch_policy.hpp"
#include "ctrl/replica_policy.hpp"
#include "stats/artifact.hpp"
#include "stats/table.hpp"
#include "workload/arrival.hpp"
#include "workload/capacity.hpp"
#include "workload/fanout_dist.hpp"
#include "workload/key_dist.hpp"
#include "workload/size_dist.hpp"
#include "workload/task_gen.hpp"
#include "workload/trace.hpp"

namespace brb::cli {

namespace {

using core::AggregateResult;
using core::RunResult;
using core::ScenarioConfig;

sim::Duration micros_flag(const util::Flags& flags, std::string_view name,
                          sim::Duration fallback) {
  return sim::Duration::micros(flags.get_double(name, fallback.as_micros()));
}

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

/// Every flag the driver or any registered scenario reads. Unknown
/// `--flags` used to be silently ignored (a typo'd `--task=...` ran
/// the full default workload); now they fail fast with a hint.
const std::vector<std::string>& known_flags() {
  static const std::vector<std::string> flags = {
      // run control
      "help", "list", "list-scenarios", "scenario", "paper", "seeds", "seed-list", "serial",
      "threads", "quiet", "json", "csv", "record-trace",
      // sharded sweeps (plan / execute / merge)
      "plan", "shard", "spawn",
      // cluster / workload
      "servers", "cores", "rate", "cluster", "replication", "clients", "tasks", "utilization",
      "trace", "fanout", "sizes", "keys", "paced", "arrivals", "write-fraction", "tenants",
      // timing / measurement
      "net-latency-us", "net-jitter-us", "service-base-us", "service-noise", "cost-noise",
      "warmup", "keep-raw",
      // system under test / control plane
      "system", "seed", "selector", "systems", "policy", "policy-switch", "admission",
      "dispatch", "signal-store", "stats",
      // scenario expanders
      "loads", "fanouts", "writes", "skews", "replications", "intervals-ms", "noise-sigmas",
      "policies", "dispatches",
      // credits controller
      "credits-adapt-s", "credits-measure-ms", "credits-monitor-ms", "credits-congestion-factor",
      "credits-backoff", "credits-recovery", "credits-min-capacity", "credits-ewma",
      "credits-min-share", "credits-carryover",
      // C3 comparator
      "c3-ewma", "c3-exponent", "rate-initial", "rate-beta", "rate-scaling", "rate-burst",
      "rate-window-ms",
  };
  return flags;
}

}  // namespace

void validate_flags(const util::Flags& flags) {
  const std::vector<std::string>& known = known_flags();
  for (const std::string& name : flags.cli_names()) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string message = "unknown flag --" + name;
    if (const auto suggestion = util::closest_name(name, known)) {
      message += " (did you mean --" + *suggestion + "?)";
    }
    message += "; see brbsim --help";
    throw std::invalid_argument(message);
  }
}

ScenarioConfig config_from_flags(const util::Flags& flags) {
  ScenarioConfig config;  // paper defaults
  const bool paper = flags.get_bool("paper", false);

  // --- cluster ---
  if (const auto cluster = flags.get("cluster")) {
    if (flags.has("servers") || flags.has("cores") || flags.has("rate")) {
      throw std::invalid_argument(
          "--cluster conflicts with --servers/--cores/--rate; the profile fixes all three");
    }
    config.cluster = workload::ClusterSpec::parse(*cluster);
  } else {
    config.cluster.num_servers =
        static_cast<std::uint32_t>(flags.get_uint("servers", config.cluster.num_servers));
    config.cluster.cores_per_server =
        static_cast<std::uint32_t>(flags.get_uint("cores", config.cluster.cores_per_server));
    config.cluster.service_rate_per_core =
        flags.get_double("rate", config.cluster.service_rate_per_core);
  }
  config.replication = static_cast<std::uint32_t>(flags.get_uint("replication", config.replication));
  config.num_clients = static_cast<std::uint32_t>(flags.get_uint("clients", config.num_clients));

  // --- workload ---
  config.num_tasks = flags.get_uint("tasks", paper ? 500'000 : 60'000);
  config.utilization = flags.get_double("utilization", config.utilization);
  config.trace_path = flags.get_string("trace", config.trace_path);
  config.fanout_spec = flags.get_string("fanout", config.fanout_spec);
  config.size_spec = flags.get_string("sizes", config.size_spec);
  config.key_spec = flags.get_string("keys", config.key_spec);
  config.paced_arrivals = flags.get_bool("paced", config.paced_arrivals);
  config.arrival_spec = flags.get_string("arrivals", config.arrival_spec);
  config.write_fraction = flags.get_double("write-fraction", config.write_fraction);
  config.tenant_spec = flags.get_string("tenants", config.tenant_spec);
  if (config.paced_arrivals && !config.arrival_spec.empty()) {
    throw std::invalid_argument("--paced conflicts with --arrivals; pick one arrival shape");
  }
  if (!config.trace_path.empty()) {
    // Replay fixes arrival times, request mix and issuing clients.
    if (!config.arrival_spec.empty()) {
      throw std::invalid_argument("--trace conflicts with --arrivals (times come from the trace)");
    }
    if (config.write_fraction > 0.0) {
      throw std::invalid_argument("--trace conflicts with --write-fraction (traces are read-only)");
    }
    if (!config.tenant_spec.empty()) {
      throw std::invalid_argument("--trace conflicts with --tenants (traces are single-tenant)");
    }
  }

  // --- timing ---
  config.net_latency = micros_flag(flags, "net-latency-us", config.net_latency);
  config.net_jitter = micros_flag(flags, "net-jitter-us", config.net_jitter);
  config.service_base = micros_flag(flags, "service-base-us", config.service_base);
  config.service_noise_sigma = flags.get_double("service-noise", config.service_noise_sigma);
  config.cost_noise_sigma = flags.get_double("cost-noise", config.cost_noise_sigma);

  // --- measurement ---
  config.warmup_fraction = flags.get_double("warmup", config.warmup_fraction);
  config.keep_raw_latencies = flags.get_bool("keep-raw", config.keep_raw_latencies);

  // --- system under test ---
  config.system = core::system_kind_from_name(
      flags.get_string("system", to_string(config.system)));
  config.seed = flags.get_uint("seed", config.seed);
  config.selector_override = flags.get_string("selector", config.selector_override);

  // --- control plane ---
  config.policy_spec = flags.get_string("policy", config.policy_spec);
  config.policy_switch_spec = flags.get_string("policy-switch", config.policy_switch_spec);
  config.dispatch_spec = flags.get_string("dispatch", config.dispatch_spec);
  config.admission_override = flags.get_string("admission", config.admission_override);
  config.signal_store = flags.get_string("signal-store", config.signal_store);
  config.stats_spec = flags.get_string("stats", config.stats_spec);
  if (!config.selector_override.empty() && !config.policy_spec.empty()) {
    throw std::invalid_argument(
        "--selector and --policy conflict (--policy is the superset: use --policy=NAME)");
  }

  // --- credits controller ---
  config.credits.adapt_interval = sim::Duration::seconds(
      flags.get_double("credits-adapt-s", config.credits.adapt_interval.as_seconds()));
  config.credits.measure_interval = sim::Duration::millis(flags.get_double(
      "credits-measure-ms", config.credits.measure_interval.as_millis()));
  config.credits.monitor_interval = sim::Duration::millis(flags.get_double(
      "credits-monitor-ms", config.credits.monitor_interval.as_millis()));
  config.credits.congestion_queue_factor =
      flags.get_double("credits-congestion-factor", config.credits.congestion_queue_factor);
  config.credits.congestion_backoff =
      flags.get_double("credits-backoff", config.credits.congestion_backoff);
  config.credits.recovery_step =
      flags.get_double("credits-recovery", config.credits.recovery_step);
  config.credits.min_capacity_factor =
      flags.get_double("credits-min-capacity", config.credits.min_capacity_factor);
  config.credits.demand_ewma_alpha =
      flags.get_double("credits-ewma", config.credits.demand_ewma_alpha);
  config.credits.min_share_fraction =
      flags.get_double("credits-min-share", config.credits.min_share_fraction);
  config.credits.carryover_cap_factor =
      flags.get_double("credits-carryover", config.credits.carryover_cap_factor);

  // --- C3 comparator ---
  config.c3.ewma_alpha = flags.get_double("c3-ewma", config.c3.ewma_alpha);
  config.c3.queue_exponent = flags.get_double("c3-exponent", config.c3.queue_exponent);
  config.rate.initial_rate = flags.get_double("rate-initial", config.rate.initial_rate);
  config.rate.beta = flags.get_double("rate-beta", config.rate.beta);
  config.rate.scaling = flags.get_double("rate-scaling", config.rate.scaling);
  config.rate.burst = flags.get_double("rate-burst", config.rate.burst);
  config.rate.window =
      sim::Duration::millis(flags.get_double("rate-window-ms", config.rate.window.as_millis()));

  return config;
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
  util::Rng rng(base.seed);
  const auto sizes = workload::make_size_distribution(base.size_spec);
  const auto keys = workload::make_key_distribution(base.key_spec);
  const auto fanout = workload::make_fanout_distribution(base.fanout_spec);
  workload::Dataset dataset(keys->num_keys(), *sizes, rng.split());
  workload::TaskGenerator::Config gen_config;
  gen_config.num_clients = base.num_clients;
  const workload::CapacityPlanner planner(base.cluster);
  const double task_rate = planner.task_rate_for_utilization(base.utilization, fanout->mean());
  // Arrival times are baked into the trace, so a diurnal recording
  // replays with its envelope intact.
  workload::TaskGenerator generator(
      gen_config, dataset, *keys, *fanout,
      workload::make_arrival_process(base.paced_arrivals ? "paced" : base.arrival_spec,
                                     task_rate),
      rng.split());
  const auto tasks = generator.generate(base.num_tasks);
  workload::TraceWriter::write_file(path, tasks);
}

std::vector<CaseResult> execute_shard(
    const SweepPlan& plan, const ShardSpec& shard, core::RunSeedsOptions options,
    const std::function<void(const ExperimentCase&, std::size_t runs)>& progress) {
  // Group this shard's units back into per-case seed lists (plan order
  // on both axes), so the thread-pool `run_seeds` path is unchanged.
  std::vector<std::vector<std::uint64_t>> seeds_by_case(plan.cases.size());
  for (const SweepUnit* unit : plan.shard_units(shard)) {
    seeds_by_case[unit->case_index].push_back(unit->seed);
  }
  std::vector<CaseResult> results;
  results.reserve(plan.cases.size());
  for (std::size_t i = 0; i < plan.cases.size(); ++i) {
    const ExperimentCase& experiment = plan.cases[i];
    AggregateResult aggregate =
        seeds_by_case[i].empty()
            ? core::aggregate_runs(experiment.config.system, {})
            : core::run_seeds(experiment.config, seeds_by_case[i], options);
    if (progress) progress(experiment, seeds_by_case[i].size());
    results.push_back({experiment, std::move(aggregate)});
  }
  return results;
}

namespace {

stats::Json config_json(const ScenarioConfig& config) {
  stats::Json j = stats::Json::object();
  j["servers"] = config.cluster.num_servers;
  j["cores_per_server"] = config.cluster.cores_per_server;
  j["service_rate_per_core"] = config.cluster.service_rate_per_core;
  j["cluster"] = config.cluster.describe();
  j["replication"] = config.replication;
  j["clients"] = config.num_clients;
  j["tasks"] = config.num_tasks;
  j["utilization"] = config.utilization;
  j["trace"] = config.trace_path;
  j["fanout"] = config.fanout_spec;
  j["sizes"] = config.size_spec;
  j["keys"] = config.key_spec;
  j["paced_arrivals"] = config.paced_arrivals;
  j["arrivals"] = config.arrival_spec;
  j["write_fraction"] = config.write_fraction;
  j["tenants"] = config.tenant_spec;
  j["net_latency_us"] = config.net_latency.as_micros();
  j["net_jitter_us"] = config.net_jitter.as_micros();
  j["service_base_us"] = config.service_base.as_micros();
  j["service_noise_sigma"] = config.service_noise_sigma;
  j["cost_noise_sigma"] = config.cost_noise_sigma;
  j["warmup_fraction"] = config.warmup_fraction;
  j["selector_override"] = config.selector_override;
  // Control-plane bindings appear only when set: legacy artifacts stay
  // byte-identical to their pre-control-plane form.
  if (!config.policy_spec.empty()) j["policy"] = config.policy_spec;
  if (!config.policy_switch_spec.empty()) j["policy_switch"] = config.policy_switch_spec;
  if (!config.dispatch_spec.empty()) j["dispatch"] = config.dispatch_spec;
  if (!config.admission_override.empty()) j["admission"] = config.admission_override;
  if (!config.signal_store.empty()) j["signal_store"] = config.signal_store;
  if (!config.stats_spec.empty()) j["stats"] = config.stats_spec;
  return j;
}

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

stats::Json report_json(const std::string& scenario, const ScenarioConfig& base,
                        const std::vector<std::uint64_t>& seeds,
                        const std::vector<CaseResult>& results, const ShardSpec* shard) {
  stats::Json root = stats::Json::object();
  root["tool"] = "brbsim";
  root["format"] = stats::kArtifactFormat;
  root["scenario"] = scenario;
  if (shard != nullptr) root["shard"] = shard->describe();
  root["config"] = config_json(base);
  stats::Json seed_array = stats::Json::array();
  for (const std::uint64_t s : seeds) seed_array.push_back(s);
  root["seeds"] = std::move(seed_array);

  double total_wall_seconds = 0.0;
  stats::Json timing_cases = stats::Json::array();
  stats::Json cases = stats::Json::array();
  for (const CaseResult& result : results) {
    stats::Json c = stats::Json::object();
    c["label"] = result.spec.label;
    c["system"] = to_string(result.spec.config.system);
    c["utilization"] = result.spec.config.utilization;
    c["fanout"] = result.spec.config.fanout_spec;
    // Per-case copies of every dimension a scenario expander may sweep,
    // so each case stays self-describing even when it diverges from
    // the base config block above.
    c["tasks"] = result.spec.config.num_tasks;
    c["cluster"] = result.spec.config.cluster.describe();
    c["keys"] = result.spec.config.key_spec;
    c["replication"] = result.spec.config.replication;
    c["arrivals"] = result.spec.config.arrival_spec;
    c["write_fraction"] = result.spec.config.write_fraction;
    c["tenants"] = result.spec.config.tenant_spec;
    // Control-plane dimensions (policy-shootout / policy-switch sweep
    // them per case); conditional so legacy cases keep their key set.
    if (!result.spec.config.policy_spec.empty()) {
      c["policy"] = result.spec.config.policy_spec;
    }
    if (!result.spec.config.policy_switch_spec.empty()) {
      c["policy_switch"] = result.spec.config.policy_switch_spec;
    }
    if (!result.spec.config.dispatch_spec.empty()) {
      c["dispatch"] = result.spec.config.dispatch_spec;
    }
    if (!result.spec.config.admission_override.empty()) {
      c["admission"] = result.spec.config.admission_override;
    }
    if (!result.spec.config.signal_store.empty()) {
      c["signal_store"] = result.spec.config.signal_store;
    }
    if (!result.spec.config.stats_spec.empty()) {
      c["stats"] = result.spec.config.stats_spec;
    }
    stats::Json latency = stats::Json::object();
    latency["p50_ms"] = stats::summary_json(result.aggregate.p50_ms);
    latency["p95_ms"] = stats::summary_json(result.aggregate.p95_ms);
    latency["p99_ms"] = stats::summary_json(result.aggregate.p99_ms);
    latency["mean_ms"] = stats::summary_json(result.aggregate.mean_ms);
    c["task_latency_ms"] = std::move(latency);
    stats::Json runs = stats::Json::array();
    stats::Json walls = stats::Json::array();
    for (const RunResult& run : result.aggregate.runs) {
      runs.push_back(run_json(run));
      walls.push_back(run.wall_seconds);
      total_wall_seconds += run.wall_seconds;
    }
    c["runs"] = std::move(runs);
    // Case-level pooled sketch (--stats=sketch only), merged across
    // seeds. Emitted after "runs" so `brbsim merge` — which rebuilds
    // this block from the per-seed sketches — lands it in the same
    // position whether or not shard #1 executed any seed of the case.
    std::unique_ptr<stats::QuantileSketch> pooled_sketch;
    for (const RunResult& run : result.aggregate.runs) {
      const stats::QuantileSketch* sketch = run.task_latency.sketch();
      if (sketch == nullptr || sketch->empty()) continue;
      if (pooled_sketch == nullptr) {
        pooled_sketch = std::make_unique<stats::QuantileSketch>(*sketch);
      } else {
        pooled_sketch->merge(*sketch);
      }
    }
    if (pooled_sketch != nullptr) {
      c["task_latency_sketch"] = stats::sketch_block_json(*pooled_sketch);
    }
    cases.push_back(std::move(c));
    stats::Json timing_case = stats::Json::object();
    timing_case["label"] = result.spec.label;
    timing_case["wall_seconds"] = std::move(walls);
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

void print_scenario_list(std::ostream& os) {
  std::size_t width = 0;
  for (const ScenarioSpec* spec : sorted_scenarios()) {
    width = std::max(width, spec->name.size());
  }
  for (const ScenarioSpec* spec : sorted_scenarios()) {
    os << "  " << spec->name << std::string(width - spec->name.size() + 2, ' ')
       << spec->summary << "\n";
  }
}

void print_usage(std::ostream& os) {
  os << "brbsim — unified BRB experiment driver\n\n"
        "usage: brbsim [--scenario=NAME] [overrides...] [--json=PATH] [--csv=PATH]\n"
        "       brbsim --scenario=NAME --plan [--shard=i/N | --spawn=K]\n"
        "       brbsim --scenario=NAME --shard=i/N --json=shard_i.json\n"
        "       brbsim --scenario=NAME --spawn=K --json=PATH\n"
        "       brbsim merge OUT.json SHARD.json... [--csv=PATH]\n"
        "       brbsim --record-trace=PATH [workload overrides...]\n"
        "       brbsim --list-scenarios\n\n"
        "scenarios:\n";
  print_scenario_list(os);
  os << "\nrun control:\n"
        "  --seeds=N             run seeds 1..N (default 3; 6 with --paper)\n"
        "  --seed-list=1,5,9     explicit seed list (wins over --seeds)\n"
        "  --serial              disable the per-seed worker threads\n"
        "  --threads=N           cap seed workers (0 = one per seed); results are\n"
        "                        identical for any N (timing aside)\n"
        "  --paper               full paper scale (500k tasks, 6 seeds)\n"
        "  --json=PATH  --csv=PATH  machine-readable artifacts\n"
        "  --quiet               suppress the console table\n"
        "\nsharded sweeps (plan / execute / merge):\n"
        "  --plan                list every (case, seed) unit and exit\n"
        "  --shard=i/N           run only shard i of N (deterministic hash partition);\n"
        "                        merge the N artifacts with `brbsim merge`\n"
        "  --spawn=K             fork K worker processes over the plan and merge\n"
        "                        their artifacts in-process (single machine)\n"
        "  brbsim merge OUT IN...  reassemble shard artifacts; the merged JSON/CSV\n"
        "                        is byte-identical to an unsharded run (timing aside)\n"
        "\ncluster / workload overrides (paper defaults otherwise):\n"
        "  --servers --cores --rate --replication --clients --tasks\n"
        "  --cluster=hetero:6x4x3500,3x8x7000 (heterogeneous fleet profile)\n"
        "  --utilization --fanout=SPEC --sizes=SPEC --keys=SPEC --paced\n"
        "  --arrivals=diurnal:LOW:HIGH:PERIOD_S | steps:M1,M2,..:PERIOD_S\n"
        "  --write-fraction=F (task-level writes; fan out to all replicas)\n"
        "  --tenants=\"NAME[,share=W][,fanout=SPEC][,keys=SPEC][,write=F];...\"\n"
        "  --trace=PATH (trace-replay input)\n"
        "\ntiming / measurement:\n"
        "  --net-latency-us --net-jitter-us --service-base-us\n"
        "  --service-noise --cost-noise --warmup --keep-raw\n"
        "\ncontrol plane (replica + admission policies):\n"
        "  --policy=NAME                 bind one replica policy for every tenant\n"
        "  --policy=tenantA:c3,tenantB:lor   per-tenant bindings (later entries win)\n"
        "  --policy-switch=t0:random,30s:c3  epoch-scheduled mid-run switching\n"
        "                                (times: t0 | <n>s | <n>ms | <n>us;\n"
        "                                per-tenant epochs via 30s:tenantA:c3;\n"
        "                                payloads may be dispatch modes: 30s:hedge:q95)\n"
        "  --dispatch=MODE               dispatch plan mode for every tenant\n"
        "  --dispatch=tenantA:tied,tenantB:kofn:2  per-tenant dispatch modes\n"
        "  --admission=direct|cubic-rate|credits   override the admission policy\n"
        "  --selector=NAME               legacy alias for --policy=NAME\n"
        "  --signal-store=auto|dense|sparse[:CAP]  signal table layout\n"
        "                                (dense = one entry per server; sparse =\n"
        "                                an LRU window of CAP servers per client,\n"
        "                                default 128; auto = sparse past 2^24\n"
        "                                clients x servers pairs. Past that size,\n"
        "                                sparse also makes credit pairs first-touch)\n"
        "  --stats=exact|sketch          sketch adds mergeable DDSketch quantile\n"
        "                                sketches to artifacts (1% relative error;\n"
        "                                merge stays byte-identical for any shard\n"
        "                                count)\n"
        "  replica policies:\n";
  const auto policy_title = [](const ctrl::ReplicaPolicyInfo& info) {
    std::string title = info.name;
    for (const std::string& alias : info.aliases) title += " | " + alias;
    return title;
  };
  std::size_t policy_width = 0;
  for (const ctrl::ReplicaPolicyInfo& info : ctrl::replica_policy_catalog()) {
    policy_width = std::max(policy_width, policy_title(info).size());
  }
  for (const ctrl::ReplicaPolicyInfo& info : ctrl::replica_policy_catalog()) {
    const std::string title = policy_title(info);
    os << "    " << title << std::string(policy_width - title.size() + 2, ' ') << info.summary
       << "\n";
  }
  os << "  dispatch modes:\n";
  std::size_t mode_width = 0;
  for (const ctrl::DispatchModeInfo& info : ctrl::dispatch_mode_catalog()) {
    mode_width = std::max(mode_width, info.grammar.size());
  }
  for (const ctrl::DispatchModeInfo& info : ctrl::dispatch_mode_catalog()) {
    os << "    " << info.grammar << std::string(mode_width - info.grammar.size() + 2, ' ')
       << info.summary << "\n";
  }
  os << "\npolicy knobs:\n"
        "  --system --systems=a,b,c (scenario system set)\n"
        "  --loads=0.5,0.7 (load-sweep)  --fanouts=spec,... (fanout-sweep)\n"
        "  --writes=0.05,0.2 (write-heavy)  --skews=0,0.9,1.2 (replication-skew)\n"
        "  --replications=1,2,3 (replication-sweep)\n"
        "  --intervals-ms=100,1000 (credits-interval)  --noise-sigmas=0,0.5 (forecast-noise)\n"
        "  --policies=random,c3-noderate (policy-shootout case list)\n"
        "  --dispatches=single,hedge:q98,tied,kofn:2 (hedging-shootout mode list)\n"
        "  --credits-{adapt-s,measure-ms,monitor-ms,congestion-factor,backoff,\n"
        "             recovery,min-capacity,ewma,min-share,carryover}\n"
        "  --c3-{ewma,exponent}  --rate-{initial,beta,scaling,burst,window-ms}\n"
        "\nEvery flag also reads a BRB_<NAME> environment default\n"
        "(e.g. BRB_PAPER=1, BRB_TASKS=10000).\n";
}

namespace {

/// Emits the finished artifact: console readout, JSON, CSV. Shared by
/// the in-process, sharded, and spawn-merge paths so all three produce
/// the same bytes for the same document.
void emit_outputs(const stats::Json& doc, const util::Flags& flags, bool quiet) {
  if (!quiet) {
    print_case_table(std::cout, doc);
    print_paper_claims(std::cout, doc);  // prints only for the paper scenario
  }
  if (const auto json_path = flags.get("json")) {
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
    print_case_table(std::cout, merged);
    print_paper_claims(std::cout, merged);
  }
  write_artifact(out_path, merged);
  if (const auto csv_path = flags.get("csv")) {
    auto os = open_or_throw(*csv_path);
    stats::artifact_csv(os, merged);
    if (!quiet) std::cout << "wrote " << *csv_path << "\n";
  }
  return 0;
}

/// `--spawn=K`: fork K shard workers over the plan, collect their
/// artifacts, and merge in-process. The cross-machine equivalent is
/// running `--shard=i/N` on each machine and `brbsim merge` once.
int run_spawn(const SweepPlan& plan, std::uint32_t spawn_count, core::RunSeedsOptions options,
              const util::Flags& flags, bool quiet) {
#ifndef __unix__
  (void)plan;
  (void)spawn_count;
  (void)options;
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
        const std::vector<CaseResult> results = execute_shard(plan, shard, options);
        write_artifact(shard_path(index),
                       report_json(plan.scenario, plan.base, plan.seeds, results, &shard));
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
  emit_outputs(merged, flags, quiet);
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
    // Worker-thread cap: 0 = one thread per seed. Any value produces
    // identical artifacts (seeds are independent simulations). An
    // explicit --serial always wins — including over a BRB_THREADS
    // environment default.
    core::RunSeedsOptions run_options;
    run_options.max_threads = serial ? 1 : flags.get_uint("threads", 0);
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

    if (spawn_requested) {
      if (!quiet) {
        std::cout << "# brbsim scenario=" << scenario_name << ": " << plan.cases.size()
                  << " cases x " << seeds.size() << " seeds, " << base.num_tasks
                  << " tasks each, " << spawn << " worker processes\n";
      }
      return run_spawn(plan, static_cast<std::uint32_t>(spawn), run_options, flags, quiet);
    }

    // --- layer 2: execute (this process's shard; 1/1 = everything) ---
    const ShardSpec effective = shard.value_or(ShardSpec{});
    if (!quiet) {
      std::cout << "# brbsim scenario=" << scenario_name << ": " << plan.cases.size()
                << " cases x " << seeds.size() << " seeds, " << base.num_tasks
                << " tasks each";
      if (shard) {
        std::cout << ", shard " << shard->describe() << " (" << plan.shard_units(*shard).size()
                  << " of " << plan.units.size() << " units)";
      }
      std::cout << "\n";
    }
    const auto progress = [&](const ExperimentCase& experiment, std::size_t runs) {
      if (!quiet && runs > 0) std::cerr << "[brbsim] finished " << experiment.label << "\n";
    };
    const std::vector<CaseResult> results =
        execute_shard(plan, effective, run_options, progress);

    const stats::Json doc = report_json(scenario_name, base, seeds, results,
                                        shard ? &effective : nullptr);
    emit_outputs(doc, flags, quiet);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "brbsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace brb::cli
