// Scenario configuration and the experiment runner.
//
// `ScenarioConfig` defaults to the paper's evaluation setup (§2.2):
// 18 clients, 9 servers with 4 cores at 3500 req/s each, 50 us one-way
// network latency, ~500 k tasks with mean fan-out 8.6, Atikoglu-Pareto
// value sizes, Poisson arrivals at 70% of system capacity, repeated
// over seeds. `run_scenario` builds the whole system for one
// (system, seed) pair, runs it to completion, and returns latency
// distributions plus internal counters.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/credits.hpp"
#include "core/system_kind.hpp"
#include "policy/c3.hpp"
#include "sim/time.hpp"
#include "stats/latency_recorder.hpp"
#include "workload/capacity.hpp"
#include "workload/task.hpp"

namespace brb::core {

/// Each field with a `brbsim` flag is set by exactly one row of the
/// driver's flag table (`cli::config_flags()`, listed by `brbsim
/// --help`); cross-field checks live in `validate` below.
struct ScenarioConfig {
  // --- cluster (paper defaults) ---
  /// 9 servers x 4 cores x 3500 req/s by default; heterogeneous fleets
  /// via ClusterSpec::parse("hetero:6x4x3500,3x8x7000").
  workload::ClusterSpec cluster{};
  std::uint32_t replication = 3;
  std::uint32_t num_clients = 18;

  // --- workload ---
  /// The paper's 500k; the driver defaults to 60k below paper scale.
  std::uint64_t num_tasks = 500'000;
  double utilization = 0.70;
  /// Replay a recorded trace instead of generating tasks: either a
  /// trace file path or an in-memory task list (takes precedence).
  /// Arrival times, fan-outs and value sizes then come from the trace;
  /// num_tasks/utilization/fanout_spec/size_spec/key_spec are ignored.
  /// Replayed tasks are numbered by arrival position: a trace's own
  /// task ids are not read.
  std::string trace_path;
  const std::vector<workload::TaskSpec>* tasks_override = nullptr;
  /// Mean 8.6 (the SoundCloud trace's published mean). Sigma 2.0 gives
  /// the playlist-like skew (median ~1-2 requests, p99 ~150) that the
  /// paper's intro motivates; with it, the measured BRB-vs-C3 factors
  /// land on the paper's reported 2-3x (see EXPERIMENTS.md).
  std::string fanout_spec = "lognormal:8.6:2.0:512";
  std::string size_spec = "gpareto";
  std::string key_spec = "zipf:100000:0.9";
  bool paced_arrivals = false;  // Poisson by default
  /// Time-varying arrival envelope ("" = stationary Poisson/paced):
  /// "diurnal:LOW:HIGH:PERIOD_S" or "steps:M1,M2,...:PERIOD_S"
  /// (workload::make_arrival_process). Mutually exclusive with
  /// paced_arrivals and trace replay.
  std::string arrival_spec;
  /// Task-level write probability: a write task fans each request out
  /// to every replica of its key and resizes the stored value there.
  /// Mutually exclusive with trace replay.
  double write_fraction = 0.0;
  /// Multi-tenant mix ("" = single tenant): tenants separated by ';',
  /// each NAME[,share=W][,fanout=SPEC][,keys=SPEC][,write=F]
  /// (workload::parse_tenant_mixes). Clients are partitioned into
  /// per-tenant blocks; RunResult then carries per-tenant latency.
  std::string tenant_spec;

  // --- timing ---
  sim::Duration net_latency = sim::Duration::micros(50);
  sim::Duration net_jitter = sim::Duration::zero();
  /// Fixed per-request overhead inside the service time. The paper
  /// specifies only the mean rate (3500 req/s per core) with work
  /// driven by value size, i.e. purely size-proportional service.
  sim::Duration service_base = sim::Duration::zero();
  /// log-normal sigma of service-time noise (0 = deterministic in size).
  double service_noise_sigma = 0.0;
  /// log-normal sigma of the client's cost-forecast noise.
  double cost_noise_sigma = 0.0;

  // --- measurement ---
  /// Leading fraction of tasks, by arrival, excluded from latency
  /// statistics.
  double warmup_fraction = 0.05;
  bool keep_raw_latencies = false;

  // --- system under test ---
  /// Set per case by each scenario (no flag: `--systems` picks them).
  SystemKind system = SystemKind::kEqualMaxCredits;
  /// Set per (case, seed) unit by the driver's `execute_shard` from the
  /// seed list; only the driver's trace recording reads the `--seed`
  /// flag.
  std::uint64_t seed = 1;
  CreditsConfig credits{};
  policy::C3Config c3{};
  policy::CubicRateConfig rate{};
  /// Override the replica selector ("" = system default). Accepts any
  /// registered replica policy name or alias (ctrl/replica_policy.hpp);
  /// equivalent to a tenant-less `policy_spec` binding.
  std::string selector_override;
  /// Replica-policy bindings for the control-plane runtime ("" = the
  /// system default / selector_override): "NAME" binds every tenant,
  /// "tenantA:c3,tenantB:lor" binds per tenant (later entries win).
  std::string policy_spec;
  /// Epoch-scheduled mid-run policy switching:
  /// "t0:random,30s:c3[,45s:tenantA:lor]". Epoch payloads may also be
  /// dispatch modes ("30s:hedge:q95"). Signals (EWMAs, outstanding
  /// counts, balances) live in the per-client SignalTable and survive
  /// each switch.
  std::string policy_switch_spec;
  /// Dispatch-mode bindings ("" = single-target dispatch everywhere):
  /// "hedge:q95" binds every tenant, "tenantA:tied,tenantB:kofn:2"
  /// binds per tenant. Modes: single | hedge[:qNN] | tied | kofn[:K]
  /// (ctrl::parse_dispatch_spec). Duplicate-issuing modes are
  /// incompatible with global-queue (model) systems.
  std::string dispatch_spec;
  /// Override the admission policy ("" = system default: "credits" for
  /// credits systems, "cubic-rate" for C3, "direct" otherwise). The
  /// credits controller/monitor machinery follows the effective
  /// admission policy, not the system kind.
  std::string admission_override;
  /// Layout of each client's SignalTable: "" / "auto" (sparse iff the
  /// clients x servers cross-product exceeds 2^24 pairs), "dense"
  /// (server-indexed: one entry per server up to the highest touched),
  /// or "sparse[:CAP]" (windowed: at most CAP unpinned live entries per
  /// client, CAP a decimal in 1..2^32-1, default 128). Past the auto
  /// threshold a sparse store also makes every credit pair first-touch
  /// instead of pinned; below it, every credit pair stays pinned, so
  /// sparse and dense runs are decision-identical whenever CAP covers
  /// the fleet.
  std::string signal_store;
  /// Latency statistics: "" / "exact" (histogram + optional raw
  /// samples, the legacy artifacts) or "sketch" (additionally record
  /// into mergeable DDSketch-style quantile sketches whose serialized
  /// form replaces per-seed raw samples in artifacts).
  std::string stats_spec;

  /// Optional observer invoked on every task completion (including
  /// warmup tasks), after the built-in recording. Useful for custom
  /// breakdowns (e.g. latency by fan-out bucket).
  std::function<void(const workload::TaskSpec&, sim::Duration)> on_task_complete;
};

/// Per-tenant slice of one run (multi-tenant scenarios only).
struct TenantResult {
  std::string name;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_measured = 0;
  stats::LatencyRecorder task_latency{false};  // measured tasks only
};

struct RunResult {
  SystemKind system{};
  std::uint64_t seed = 0;

  stats::LatencyRecorder task_latency;     // measured tasks only
  stats::LatencyRecorder request_latency;  // measured tasks only

  /// One entry per tenant when the scenario declares a tenant mix;
  /// empty otherwise. `tenant_p99_ratio` is max/min task p99 across
  /// tenants with measured tasks (1.0 = perfectly fair, 0 = n/a).
  std::vector<TenantResult> tenants;
  double tenant_p99_ratio = 0.0;

  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_measured = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t write_requests_sent = 0;   // replica copies of writes
  std::uint64_t write_requests_acked = 0;  // must equal sent at teardown

  std::vector<double> server_utilization;  // busy fraction per server
  double mean_utilization = 0.0;
  std::uint64_t network_messages = 0;
  std::uint64_t network_bytes = 0;
  std::uint64_t congestion_signals = 0;
  std::uint64_t controller_adaptations = 0;
  std::uint64_t gate_held_requests = 0;  // held at end of run (should be 0)
  std::uint64_t credit_hold_events = 0;  // requests ever held for credits
  sim::Duration credit_hold_time = sim::Duration::zero();  // cumulative
  /// Per-client policy rebinds applied by the runtime (mid-run
  /// switching only; 0 for static bindings).
  std::uint64_t policy_switches = 0;

  /// Signal-table telemetry (windowed layout only; all zero/false on
  /// the server-indexed layout so legacy artifacts are untouched).
  bool sparse_signal_store = false;
  std::uint64_t signal_entries_live = 0;  // summed over clients at teardown
  std::uint64_t signal_evictions = 0;     // window evictions over the run

  /// Tail-cutting executor counters (all zero in single-target runs).
  /// `dispatch_metrics` marks runs where the dispatch plumbing was in
  /// play (a --dispatch spec or a mode-switching epoch) so reports can
  /// gate the extra columns without disturbing legacy artifacts.
  bool dispatch_metrics = false;
  std::uint64_t hedges_issued = 0;     // backup copies actually fired
  std::uint64_t hedges_won = 0;        // logical completed by a backup
  std::uint64_t hedges_cancelled = 0;  // timers cancelled pre-fire
  /// Hedge plans degraded to single because the primary's feedback was
  /// fresher than the fresh= age threshold (signal-aware skip).
  std::uint64_t hedges_skipped_fresh = 0;
  std::uint64_t duplicates_sent = 0;   // extra copies beyond `needed`
  std::uint64_t duplicates_cancelled = 0;  // rejected before service
  std::uint64_t duplicates_served = 0;     // absorbed full service
  /// duplicates_served / responses received: the fraction of server
  /// work wasted on copies that lost their race (0 = no tail-cutting
  /// waste).
  double duplicate_work_fraction = 0.0;

  sim::Duration sim_duration = sim::Duration::zero();
  std::uint64_t events_processed = 0;
  double wall_seconds = 0.0;

  RunResult() : task_latency(false), request_latency(false) {}
};

/// The config's cross-field and range checks (client and task counts,
/// a non-empty fleet, a replication factor in [1, servers], utilization,
/// warmup and write fractions, arrival-shape and trace conflicts).
/// Throws std::invalid_argument. run_scenario, the driver's flag
/// parsing and its sweep plan call it, so each check is written once.
void validate(const ScenarioConfig& config);

/// Builds, runs and tears down one full system instance: validate,
/// resolve, build the fleet, run, collect (core/run_builder.hpp).
/// Throws std::runtime_error if the run fails to complete every task.
RunResult run_scenario(const ScenarioConfig& config);

/// Percentiles of one run in milliseconds.
struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};
LatencySummary summarize_tasks(const RunResult& result);

}  // namespace brb::core
