#include "core/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/arrival_pump.hpp"
#include "core/run_builder.hpp"
#include "ctrl/admission.hpp"
#include "util/flags.hpp"
#include "workload/trace.hpp"

namespace brb::core {

namespace {

/// An explicit --signal-store layout: the windowed (sparse) table and
/// its per-client cap, or the server-indexed (dense) one.
struct SignalStoreLayout {
  bool sparse = false;
  std::uint32_t cap = 128;
};

/// Parses auto|dense|sparse[:CAP]; nullopt for auto (empty or "auto"),
/// whose layout follows the fleet size.
std::optional<SignalStoreLayout> parse_signal_store(const std::string& spec) {
  const auto bad_spec = [] {
    return std::invalid_argument("run_scenario: signal store must be auto|dense|sparse[:CAP]");
  };
  if (spec.empty() || spec == "auto") return std::nullopt;
  if (spec == "dense") return SignalStoreLayout{};
  if (spec == "sparse") return SignalStoreLayout{.sparse = true};
  if (!spec.starts_with("sparse:")) throw bad_spec();
  const std::optional<std::uint64_t> cap = util::parse_decimal(spec.substr(7));
  if (!cap || *cap == 0 || *cap > std::numeric_limits<std::uint32_t>::max()) throw bad_spec();
  return SignalStoreLayout{.sparse = true, .cap = static_cast<std::uint32_t>(*cap)};
}

/// Runs `parse` over a non-empty `spec`, naming `field` in its error.
template <typename Parse>
void check_spec(std::string_view field, const std::string& spec, Parse parse) {
  if (spec.empty()) return;
  try {
    parse(spec);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("config: " + std::string(field) + ": " + e.what());
  }
}

}  // namespace

void validate(const ScenarioConfig& config) {
  if (config.num_clients == 0) throw std::invalid_argument("config: no clients");
  const workload::ClusterSpec& fleet = config.cluster;
  if (!(fleet.num_servers > 0 && fleet.cores_per_server > 0 && fleet.service_rate_per_core > 0.0)) {
    throw std::invalid_argument("config: empty fleet (no servers, cores or service rate)");
  }
  if (config.replication < 1 || config.replication > fleet.num_servers) {
    throw std::invalid_argument("config: replication factor outside [1, servers]");
  }
  if (config.num_tasks == 0 && config.tasks_override == nullptr && config.trace_path.empty()) {
    throw std::invalid_argument("config: no tasks");
  }
  // Each range check is written so that NaN fails it.
  if (!(config.utilization > 0.0 && config.utilization < 1.5)) {
    throw std::invalid_argument("config: utilization out of range (0, 1.5)");
  }
  if (!(config.warmup_fraction >= 0.0 && config.warmup_fraction < 1.0)) {
    throw std::invalid_argument("config: warmup fraction out of [0,1)");
  }
  if (!(config.write_fraction >= 0.0 && config.write_fraction <= 1.0)) {
    throw std::invalid_argument("config: write fraction outside [0, 1]");
  }
  if (config.paced_arrivals && !config.arrival_spec.empty()) {
    throw std::invalid_argument("config: paced arrivals conflict with an arrival spec; pick one");
  }
  // Trace replay fixes arrival times, request mix and issuing clients,
  // so the generator-side knobs below contradict it.
  const bool replaying = config.tasks_override != nullptr || !config.trace_path.empty();
  if (replaying && !config.arrival_spec.empty()) {
    throw std::invalid_argument(
        "config: trace replay conflicts with an arrival spec (times come from the trace)");
  }
  if (replaying && config.write_fraction > 0.0) {
    throw std::invalid_argument("config: trace replay conflicts with write traffic");
  }
  if (replaying && !config.tenant_spec.empty()) {
    throw std::invalid_argument("config: trace replay conflicts with a tenant mix");
  }
  // The specs' grammar, checked here so that --plan rejects what a run
  // would.
  check_spec("tenants", config.tenant_spec, workload::parse_tenant_mixes);
  check_spec("policy", config.policy_spec, ctrl::parse_policy_spec);
  check_spec("dispatch", config.dispatch_spec, ctrl::parse_dispatch_spec);
  check_spec("policy-switch", config.policy_switch_spec, ctrl::parse_policy_switch_spec);
  check_spec("admission", config.admission_override, ctrl::canonical_admission_name);
  parse_signal_store(config.signal_store);
  if (!config.stats_spec.empty() && config.stats_spec != "exact" && config.stats_spec != "sketch") {
    throw std::invalid_argument("config: stats must be exact|sketch");
  }
}

namespace {

/// Tasks per second that offer `config.utilization` of the fleet's
/// capacity. A task's expected server work is its mean fan-out times
/// the write amplification: each write request executes on every
/// replica, so a write-bearing workload at the same task rate offers
/// (1 + wf * (R - 1)) times the requests. Folding both into the rate
/// keeps `utilization` meaning actual offered load / capacity for every
/// scenario (the read-only single-tenant path reduces to the paper's
/// original arithmetic).
double planned_task_rate(const ScenarioConfig& config, const workload::FanoutDistribution& fanout) {
  const double write_copies = static_cast<double>(config.replication - 1);
  double requests_per_task;
  if (!config.tenant_spec.empty()) {
    // Per-tenant expectation, then share-weighted: fan-out and write
    // fraction are correlated across tenants (the heavy tenant is
    // often also the writing one), so the amplification must be
    // applied inside each tenant's term, not to the pooled means.
    const std::vector<workload::TenantMix> mixes = workload::parse_tenant_mixes(config.tenant_spec);
    double total_share = 0.0;
    for (const workload::TenantMix& mix : mixes) total_share += mix.share;
    requests_per_task = 0.0;
    for (const workload::TenantMix& mix : mixes) {
      const double mean_fanout = mix.fanout ? mix.fanout->mean() : fanout.mean();
      const double write_fraction =
          mix.write_fraction >= 0.0 ? mix.write_fraction : config.write_fraction;
      requests_per_task +=
          mix.share / total_share * mean_fanout * (1.0 + write_fraction * write_copies);
    }
  } else if (config.write_fraction > 0.0) {
    requests_per_task = fanout.mean() * (1.0 + config.write_fraction * write_copies);
  } else {
    requests_per_task = fanout.mean();
  }
  return workload::CapacityPlanner(config.cluster)
      .task_rate_for_utilization(config.utilization, requests_per_task);
}

/// Step 2's output: the task stream, the counts the run step needs and
/// the fleet's spec.
struct Resolved {
  std::unique_ptr<Workload> workload;     // null when replaying
  std::vector<workload::TaskSpec> replay;  // arrival order; empty when generating
  std::uint64_t total_tasks = 0;
  std::uint64_t warmup_tasks = 0;
  double task_rate = 0.0;
  bool sparse_store = false;
  bool sketch_stats = false;
  FleetSpec fleet;
};

/// Step 2: the workload, placement, service models, rate plan,
/// control-plane names and gate parameters of one run.
Resolved resolve(const ScenarioConfig& config, util::Rng dataset_rng, util::Rng workload_rng) {
  Resolved plan;
  FleetSpec& fleet = plan.fleet;
  const SystemProfile& profile = system_profile(config.system);
  const std::uint32_t num_servers = config.cluster.num_servers;
  const std::uint32_t num_clients = config.num_clients;

  // --- signal-store resolution ---
  // "auto" flips the signal table to its windowed layout once the
  // clients x servers cross-product would make server-indexed entries a
  // memory problem. The threshold (2^24 pairs = over a GB of entries
  // fleet-wide) keeps every nightly scenario short of mega-fleet on the
  // server-indexed layout.
  constexpr std::uint64_t kAutoSparsePairs = 1ull << 24;
  const std::uint64_t pairs = static_cast<std::uint64_t>(num_clients) * num_servers;
  const std::optional<SignalStoreLayout> layout = parse_signal_store(config.signal_store);
  plan.sparse_store = layout ? layout->sparse : pairs > kAutoSparsePairs;
  // Credit pairs are all pinned (per-server bootstrap balances, every
  // pair reported, granted and on the controller's books from the
  // start) unless the sparse store is in use past the auto threshold,
  // where per-fleet bootstrap state is the thing being avoided. There
  // every pair is first-touch: it opens on first offer and the
  // controller forgets it once its demand decays away. Below the
  // threshold, an explicit sparse store keeps every pair pinned: the
  // windowed SignalTable alone is decision-identical whenever the cap
  // covers the fleet.
  const bool pin_credit_pairs = !(plan.sparse_store && pairs > kAutoSparsePairs);

  // --- latency statistics resolution ---
  plan.sketch_stats = config.stats_spec == "sketch";

  // --- workload: a replayed trace (a file or an in-memory list) or a
  // generated stream. Replayed tasks are numbered by arrival position,
  // so warm-up leaves out the first arrivals and ids are unique per
  // run whatever ids the trace carries. ---
  const bool replaying = config.tasks_override != nullptr || !config.trace_path.empty();
  if (config.tasks_override != nullptr) {
    plan.replay = *config.tasks_override;
  } else if (replaying) {
    plan.replay = workload::TraceReader::read_file(config.trace_path);
  }
  if (replaying && plan.replay.empty()) throw std::invalid_argument("run_scenario: empty trace");
  std::stable_sort(plan.replay.begin(), plan.replay.end(),
                   [](const workload::TaskSpec& a, const workload::TaskSpec& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < plan.replay.size(); ++i) plan.replay[i].id = i;

  // The service model is calibrated against the workload's mean value
  // size (trace replay uses the trace's own empirical mean).
  double mean_size;
  if (replaying) {
    double acc = 0.0;
    std::uint64_t count = 0;
    for (const workload::TaskSpec& task : plan.replay) {
      for (const workload::RequestSpec& request : task.requests) {
        acc += request.size_hint;
        ++count;
      }
    }
    if (count == 0) throw std::invalid_argument("run_scenario: trace has no requests");
    mean_size = std::max(1.0, acc / static_cast<double>(count));
    plan.total_tasks = plan.replay.size();
    plan.task_rate = static_cast<double>(plan.replay.size()) /
                     std::max(1e-3, plan.replay.back().arrival.as_seconds());
    fleet.replay = plan.replay;
  } else {
    plan.workload = std::make_unique<Workload>(config, dataset_rng, workload_rng);
    mean_size = plan.workload->sizes->mean();
    plan.total_tasks = config.num_tasks;
    plan.task_rate = plan.workload->task_rate;
    fleet.dataset_sizes = plan.workload->dataset.sizes();
  }
  plan.warmup_tasks =
      static_cast<std::uint64_t>(config.warmup_fraction * static_cast<double>(plan.total_tasks));

  // --- placement and service models ---
  fleet.cluster = config.cluster;
  fleet.num_clients = num_clients;
  fleet.placement = store::RingPartitioner(num_servers, config.replication);
  fleet.network.one_way_latency = config.net_latency;
  fleet.network.jitter_max = config.net_jitter;
  // The clients' forecast model runs at the fleet-mean per-core rate;
  // in a heterogeneous fleet each server additionally gets its own
  // model at its class rate. The homogeneous branch keeps the original
  // single-rate arithmetic so legacy runs stay bit-identical.
  const workload::CapacityPlanner planner(config.cluster);
  const bool hetero = config.cluster.heterogeneous();
  const double forecast_rate =
      hetero ? planner.system_capacity_rps() / static_cast<double>(config.cluster.total_cores())
             : config.cluster.service_rate_per_core;
  fleet.forecast = server::SizeLinearServiceModel::calibrate(
      forecast_rate, mean_size, config.service_base, config.service_noise_sigma);
  for (std::uint32_t s = 0; hetero && s < num_servers; ++s) {
    fleet.server_models.push_back(server::SizeLinearServiceModel::calibrate(
        config.cluster.rate_of(s), mean_size, config.service_base, config.service_noise_sigma));
  }

  // --- control plane: system profile, overrides and tenants ---
  fleet.discipline = profile.discipline;
  fleet.global_queue = uses_global_queue(config.system);
  fleet.priority_policy = profile.priority_policy;
  fleet.select_per_subtask = profile.select_per_subtask;
  fleet.cost_noise_sigma = config.cost_noise_sigma;
  fleet.admission = ctrl::canonical_admission_name(
      config.admission_override.empty() ? std::string(profile.admission)
                                        : config.admission_override);
  // The credits controller/monitor machinery follows the *effective*
  // admission policy: `--admission=direct` on a credits system runs
  // its priorities ungated, `--admission=credits` on a direct system
  // adds the full credit loop.
  const bool credits_admission = fleet.admission == "credits";
  ctrl::PolicyRuntime::Config& runtime = fleet.runtime;
  runtime.default_policy =
      config.selector_override.empty() ? std::string(profile.selector) : config.selector_override;
  runtime.policy_spec = config.policy_spec;
  runtime.dispatch_spec = config.dispatch_spec;
  runtime.switch_spec = config.policy_switch_spec;
  runtime.signals.ewma_alpha = config.c3.ewma_alpha;
  runtime.signals.sparse = plan.sparse_store;
  runtime.signals.sparse_cap = layout ? layout->cap : SignalStoreLayout{}.cap;
  runtime.c3.queue_exponent = config.c3.queue_exponent;
  runtime.c3.num_clients = num_clients;
  runtime.c3.prior_service_time = config.c3.prior_service_time;
  runtime.credit_aware = credits_admission;
  // Tenant-indexed policy binding: client blocks are the same
  // share-proportional partition the task generator uses.
  if (plan.workload != nullptr) {
    const workload::TaskGenerator& generator = plan.workload->generator;
    for (std::size_t t = 0; t < generator.num_tenants(); ++t) {
      runtime.tenants.push_back(generator.tenant(t).name);
      if (t == 0) fleet.tenant_blocks.push_back(generator.tenant_clients(t).first);
      fleet.tenant_blocks.push_back(generator.tenant_clients(t).second);
    }
  }

  // --- gate parameters shared by every client ---
  // Mean per-server capacity seeds the C3 rate limiter; the credits
  // machinery uses true per-server capacities (they differ in a
  // heterogeneous fleet). The homogeneous expression is unchanged.
  const double per_server_capacity =
      hetero ? planner.system_capacity_rps() / static_cast<double>(num_servers)
             : static_cast<double>(config.cluster.cores_per_server) *
                   config.cluster.service_rate_per_core;
  fleet.credits = config.credits;
  fleet.rate = config.rate;
  if (credits_admission) {
    const double interval_sec = config.credits.adapt_interval.as_seconds();
    // Bootstrap: an equal share of each server's capacity per interval.
    if (pin_credit_pairs) {
      fleet.pinned_credits.reserve(num_servers);
      for (std::uint32_t s = 0; s < num_servers; ++s) {
        fleet.pinned_credits.emplace_back(
            s, config.cluster.capacity_of(s) * interval_sec / static_cast<double>(num_clients));
      }
    }
    // First-touch pairs open with an equal share of the *mean* server
    // capacity (heterogeneous fleets get the exact per-server share
    // with their first grant, one interval later).
    fleet.first_touch_credit =
        per_server_capacity * interval_sec / static_cast<double>(num_clients);
  } else if (fleet.admission == "cubic-rate" && fleet.rate.initial_rate <= 0.0) {
    fleet.rate.initial_rate = per_server_capacity / static_cast<double>(num_clients);
    // A fair share below the rate floor (large client fleets) lowers
    // the floor with it; an explicit initial rate keeps the check.
    fleet.rate.min_rate = std::min(fleet.rate.min_rate, fleet.rate.initial_rate);
  }
  return plan;
}

/// Step 4: completion accounting, arrivals, the watchdog and the
/// policy-switch epochs, then the simulation itself.
RunResult run(const ScenarioConfig& config, Resolved& plan, Fleet& fleet) {
  // kofn multiplies *every* logical request n-fold — unlike hedge
  // (conditional on the deadline) or tied (losers cancel at dequeue,
  // cheaply). At high utilization that amplification alone can push
  // offered load past capacity and the run collapses. Warn once per
  // process; the run still proceeds (hedging-shootout deliberately
  // probes this regime).
  if (fleet.runtime.may_dispatch(ctrl::DispatchMode::kKofn) && config.utilization >= 0.6) {
    static std::once_flag kofn_warned;
    std::call_once(kofn_warned, [&config] {
      std::cerr << "[WARN] [scenario] kofn dispatch at utilization " << config.utilization
                << " >= 0.6: n-fold load amplification may exceed fleet capacity "
                   "(see README, tail-cutting regimes)\n";
    });
  }

  RunResult result;
  result.system = config.system;
  result.seed = config.seed;
  result.task_latency = stats::LatencyRecorder(config.keep_raw_latencies);
  result.request_latency = stats::LatencyRecorder(config.keep_raw_latencies);
  // Only the task sketch reaches artifacts; the request recorder keeps
  // its histogram-only footprint even in sketch runs.
  if (plan.sketch_stats) result.task_latency.enable_sketch();
  const std::vector<std::string>& tenants = plan.fleet.runtime.tenants;
  result.tenants.resize(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) result.tenants[t].name = tenants[t];

  // --- completion accounting (one hook set for the fleet) ---
  client::AppClient::Hooks hooks;
  hooks.on_task_complete = [&result, &fleet, &config, total_tasks = plan.total_tasks,
                            warmup_tasks = plan.warmup_tasks](const workload::TaskSpec& task,
                                                              sim::Duration latency) {
    ++result.tasks_completed;
    const bool measured = task.id >= warmup_tasks;
    if (measured) {
      result.task_latency.record(latency);
      ++result.tasks_measured;
    }
    if (!result.tenants.empty()) {
      TenantResult& tenant = result.tenants[task.tenant.value()];
      ++tenant.tasks_completed;
      if (measured) {
        tenant.task_latency.record(latency);
        ++tenant.tasks_measured;
      }
    }
    if (config.on_task_complete) config.on_task_complete(task, latency);
    if (result.tasks_completed == total_tasks) fleet.sim.stop();
  };
  hooks.on_request_complete = [&result](sim::Duration latency) {
    result.request_latency.record(latency);
    ++result.requests_completed;
  };
  for (const auto& client : fleet.clients) client->set_hooks(&hooks);

  // Arrivals (core/arrival_pump.hpp).
  ArrivalPump arrivals(fleet.sim, fleet.clients);
  if (plan.workload == nullptr) {
    arrivals.replay(plan.replay);
  } else {
    arrivals.generate(plan.workload->generator, plan.total_tasks);
  }

  // Watchdog: generous bound on total simulated time; a healthy run
  // stops at task completion long before this fires.
  const double expected_span_sec = static_cast<double>(plan.total_tasks) / plan.task_rate;
  fleet.sim.post_at(sim::Time::seconds(expected_span_sec * 3.0 + 120.0), {sim::EventKind::kStop});

  // Arm the policy-switch epochs (no-op for static bindings).
  std::vector<ctrl::DispatchEndpoint*> endpoints;
  endpoints.reserve(fleet.clients.size());
  for (const auto& client : fleet.clients) endpoints.push_back(&client->endpoint());
  fleet.runtime.start(std::move(endpoints));

  fleet.sim.run();
  result.tasks_submitted = arrivals.posted();
  return result;
}

/// Step 5: teardown checks and the fleet's counters into `result`.
void collect(const ScenarioConfig& config, const Resolved& plan, const Fleet& fleet,
             RunResult& result) {
  if (result.tasks_completed != plan.total_tasks) {
    throw std::runtime_error(
        "run_scenario: simulation stalled: completed " + std::to_string(result.tasks_completed) +
        " of " + std::to_string(plan.total_tasks) + " tasks (system " + to_string(config.system) +
        ", seed " + std::to_string(config.seed) + ")");
  }

  result.sim_duration = fleet.sim.now() - sim::Time::zero();
  result.events_processed = fleet.sim.events_processed();
  if (plan.sparse_store) {
    result.sparse_signal_store = true;
    for (const auto& client : fleet.clients) {
      const ctrl::SignalTable& signals = client->endpoint().signals();
      result.signal_entries_live += signals.size();
      result.signal_evictions += signals.evictions();
    }
  }
  result.network_messages = fleet.network.stats().messages_sent;
  result.network_bytes = fleet.network.stats().bytes_sent;
  result.policy_switches = fleet.runtime.switches_applied();

  result.server_utilization.reserve(fleet.servers.size());
  double util_acc = 0.0;
  const double span_sec = result.sim_duration.as_seconds();
  for (const auto& s : fleet.servers) {
    const double busy = s->stats().busy_time.as_seconds() /
                        (span_sec * static_cast<double>(s->config().cores));
    result.server_utilization.push_back(busy);
    util_acc += busy;
  }
  result.mean_utilization = util_acc / static_cast<double>(fleet.servers.size());

  if (fleet.controller) {
    result.congestion_signals = fleet.controller->stats().congestion_signals;
    result.controller_adaptations = fleet.controller->stats().adaptations;
    for (const auto& client : fleet.clients) {
      result.credit_hold_events += client->gate().hold_events();
      result.credit_hold_time += client->gate().total_hold_time();
    }
  }
  std::uint64_t held = 0;
  for (const auto& client : fleet.clients) {
    held = std::max<std::uint64_t>(held, client->gate().held());
    result.write_requests_sent += client->stats().writes_sent;
    result.write_requests_acked += client->stats().writes_acked;
    result.hedges_issued += client->stats().hedges_issued;
    result.hedges_won += client->stats().hedges_won;
    result.hedges_cancelled += client->stats().hedges_cancelled;
    result.hedges_skipped_fresh += client->stats().hedges_skipped_fresh;
    result.duplicates_sent += client->stats().duplicates_sent;
    result.duplicates_cancelled += client->stats().duplicates_cancelled;
    result.duplicates_served += client->stats().duplicates_served;
  }
  result.gate_held_requests = held;
  result.dispatch_metrics =
      !config.dispatch_spec.empty() || fleet.runtime.may_dispatch_duplicates();
  // Wasted-work headline: of all full read services performed, the
  // fraction that went to copies whose logical request was already
  // complete. Denominator = counted responses + absorbed duplicates.
  const std::uint64_t full_services = result.requests_completed + result.duplicates_served;
  if (full_services > 0) {
    result.duplicate_work_fraction =
        static_cast<double>(result.duplicates_served) / static_cast<double>(full_services);
  }
  if (result.write_requests_acked != result.write_requests_sent) {
    throw std::runtime_error("run_scenario: write replica copies lost: acked " +
                             std::to_string(result.write_requests_acked) + " of " +
                             std::to_string(result.write_requests_sent));
  }

  // Fairness headline for multi-tenant runs: spread of task p99 across
  // tenants (max/min; 1.0 = perfectly even).
  if (result.tenants.size() >= 2) {
    double min_p99 = 0.0;
    double max_p99 = 0.0;
    bool any = false;
    for (const TenantResult& tenant : result.tenants) {
      if (tenant.tasks_measured == 0) continue;
      const double p99 = tenant.task_latency.percentile(99).as_millis();
      if (!any || p99 < min_p99) min_p99 = p99;
      if (!any || p99 > max_p99) max_p99 = p99;
      any = true;
    }
    if (any && min_p99 > 0.0) result.tenant_p99_ratio = max_p99 / min_p99;
  }
}

}  // namespace

Workload::Workload(const ScenarioConfig& config, util::Rng dataset_rng, util::Rng workload_rng)
    : sizes(workload::make_size_distribution(config.size_spec)),
      keys(workload::make_key_distribution(config.key_spec)),
      fanout(workload::make_fanout_distribution(config.fanout_spec)),
      dataset(keys->num_keys(), *sizes, dataset_rng),
      task_rate(planned_task_rate(config, *fanout)),
      generator({.num_clients = config.num_clients}, dataset, *keys, *fanout,
                workload::make_arrival_process(
                    config.paced_arrivals ? "paced" : config.arrival_spec, task_rate),
                workload_rng) {
  generator.set_write_traffic(config.write_fraction, sizes.get());
  if (!config.tenant_spec.empty()) {
    generator.set_tenants(workload::parse_tenant_mixes(config.tenant_spec));
  }
}

Fleet::Fleet(const FleetSpec& spec, util::Rng network_rng, util::Rng& streams)
    : num_servers(spec.cluster.num_servers),
      network(sim, spec.network, network_rng),
      runtime(sim, spec.runtime),
      priority_policy(policy::make_priority_policy(spec.priority_policy)) {
  const std::uint32_t num_clients = spec.num_clients;
  // Node ids: servers, then clients, then the controller, then the queue.
  const net::NodeId controller_node = num_servers + num_clients;

  // --- servers, their storage and their queues ---
  servers.reserve(num_servers);
  for (std::uint32_t s = 0; s < num_servers; ++s) {
    server::BackendServer::Config server_config;
    server_config.id = s;
    server_config.cores = spec.cluster.cores_of(s);
    servers.push_back(std::make_unique<server::BackendServer>(
        sim, server_config, spec.server_models.empty() ? spec.forecast : spec.server_models[s],
        streams.split()));
  }
  if (!spec.replay.empty()) {
    for (const workload::TaskSpec& task : spec.replay) {
      for (const workload::RequestSpec& request : task.requests) {
        for (const store::ServerId s : spec.placement.replicas_for_key(request.key)) {
          servers[s]->storage().put_meta(request.key, std::max(1u, request.size_hint));
        }
      }
    }
  } else {
    for (const auto& s : servers) s->storage().attach_base(spec.dataset_sizes);
  }
  std::vector<server::BackendServer*> raw_servers;
  raw_servers.reserve(num_servers);
  for (const auto& s : servers) raw_servers.push_back(s.get());
  if (spec.global_queue) {
    global_queue = std::make_unique<server::GlobalQueueModel>(spec.placement, spec.discipline);
    global_queue->attach_servers(raw_servers);
  } else {
    for (const auto& s : servers) s->use_private_queue(server::make_discipline(spec.discipline));
  }

  // Duplicate-issuing dispatch modes cancel losers at the server's
  // dequeue point; the shared global queue has no per-server dequeue to
  // intercept, so the combination is rejected rather than silently
  // serving every copy.
  const bool tail_cutting = runtime.may_dispatch_duplicates();
  if (tail_cutting && spec.global_queue) {
    throw std::invalid_argument(
        "run_scenario: dispatch modes that issue duplicates (hedge/tied/kofn) are incompatible "
        "with global-queue model systems");
  }

  // --- clients: the gate by admission name; the client mirrors a
  // credits gate's balances into its SignalTable ---
  const bool credits_admission = spec.admission == "credits";
  const auto make_gate = [&] {
    if (credits_admission) {
      return client::DispatchGate(sim, num_servers, spec.credits, spec.pinned_credits,
                                  spec.first_touch_credit);
    }
    if (spec.admission == "cubic-rate") return client::DispatchGate(sim, num_servers, spec.rate);
    return client::DispatchGate();
  };
  clients.reserve(num_clients);
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    client::AppClient::Config client_config;
    client_config.id = c;
    client_config.cost_noise_sigma = spec.cost_noise_sigma;
    client_config.select_per_subtask = spec.select_per_subtask;
    std::uint32_t block = 0;  // the client's tenant
    while (block + 2 < spec.tenant_blocks.size() && c >= spec.tenant_blocks[block + 1]) ++block;
    // One stream per client, and one split of it for the policy.
    util::Rng client_rng = streams.split();
    ctrl::DispatchEndpoint endpoint =
        runtime.make_endpoint(store::TenantId{block}, client_rng.split());
    clients.push_back(std::make_unique<client::AppClient>(
        sim, client_config, spec.placement, spec.forecast, std::move(endpoint), *priority_policy,
        make_gate(), client_rng, book));
  }

  // Tail-cutting executor: loser copies are finalized at the server's
  // dequeue point by asking the issuing client whether the copy is
  // still live. Installed only when some mode can issue duplicates, so
  // single-target runs keep an empty (never-called) filter slot.
  if (tail_cutting) {
    for (const auto& s : servers) {
      s->set_service_filter([&clients = clients](const store::ReadRequest& request) {
        return clients[request.client]->admit_service(request);
      });
    }
  }

  // --- transport: one send function for the fleet; the request's
  // client field names the sending node. Every message is a snapshot
  // in the simulator's pool. ---
  if (spec.global_queue) {
    const std::uint32_t queue_target = sim.attach(*global_queue);
    network_send = [&network = network, num_servers = num_servers,
                    queue_node = controller_node + 1,
                    queue_target](const client::OutboundRequest& out) {
      net::Message& message = network.send_message(
          num_servers + out.request.client, queue_node, store::request_wire_bytes(out.request),
          sim::EventKind::kQueueSubmit, queue_target);
      message.request = out.request;
      message.group = out.group;
      message.server = out.server;
    };
  } else {
    network_send = [&network = network, num_servers = num_servers,
                    &servers = servers](const client::OutboundRequest& out) {
      network
          .send_message(num_servers + out.request.client, out.server,
                        store::request_wire_bytes(out.request), sim::EventKind::kRequestDelivery,
                        servers[out.server]->target())
          .request = out.request;
    };
  }
  for (const auto& client : clients) client->set_network_send(&network_send);
  for (std::uint32_t s = 0; s < num_servers; ++s) {
    servers[s]->set_response_handler(
        [this, s](const store::ReadResponse& response) { respond(s, response); });
  }

  // --- credits wiring: demand reports up, grants down, congestion
  // signals from the servers' queue watches ---
  if (!credits_admission) return;
  std::vector<double> capacities(num_servers);
  for (std::uint32_t s = 0; s < num_servers; ++s) capacities[s] = spec.cluster.capacity_of(s);
  std::vector<store::ServerId> pinned_servers;
  for (const auto& [server, balance] : spec.pinned_credits) pinned_servers.push_back(server);
  controller = std::make_unique<CreditsController>(sim, num_clients, std::move(capacities),
                                                   spec.credits, pinned_servers);
  const std::uint32_t controller_target = controller->target();
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    client::DispatchGate& gate = clients[c]->gate();
    gate.set_report([this, c, controller_node](const CreditList& rates) {
      net::Message& message =
          network.send_message(num_servers + c, controller_node, 64,
                               sim::EventKind::kDemandReport, controller->target());
      message.client = c;
      message.credits.assign(rates.begin(), rates.end());
    });
    gate.start();
  }
  controller->set_grant_sender(
      [this, controller_node](store::ClientId client, const CreditList& credits) {
        network
            .send_message(controller_node, num_servers + client, 64, sim::EventKind::kGrant,
                          clients[client]->gate().target())
            .credits.assign(credits.begin(), credits.end());
      });
  controller->start();
  monitor = std::make_unique<CongestionMonitor>(
      sim, std::move(raw_servers), spec.credits,
      [&network = network, controller_node, controller_target](store::ServerId server,
                                                                std::uint32_t queue_length) {
        network.send(server, controller_node, 64,
                     {sim::EventKind::kCongestionSignal, controller_target,
                      (std::uint64_t{server} << 32) | queue_length});
      });
  monitor->start();
}

void Fleet::respond(store::ServerId s, const store::ReadResponse& response) {
  network
      .send_message(s, num_servers + response.client,
                    store::kResponseHeaderBytes + response.value_size,
                    sim::EventKind::kResponseDelivery, clients[response.client]->target())
      .response = response;
}

RunResult run_scenario(const ScenarioConfig& config) {
  // Wall-clock instrumentation feeds only RunResult::wall_seconds,
  // which artifacts quarantine in the identity-excluded "timing"
  // subtree; simulated behavior never reads it.
  const auto wall_start = std::chrono::steady_clock::now();  // brblint:allow(BRB-D02): wall timing only, excluded from artifact identity

  validate(config);
  // One independent RNG stream per concern: the network, the dataset,
  // the workload, then one per server and one per client.
  util::Rng streams(config.seed);
  const util::Rng network_rng = streams.split();
  const util::Rng dataset_rng = streams.split();
  const util::Rng workload_rng = streams.split();
  Resolved plan = resolve(config, dataset_rng, workload_rng);
  Fleet fleet(plan.fleet, network_rng, streams);
  RunResult result = run(config, plan, fleet);
  collect(config, plan, fleet, result);

  // brblint:allow(BRB-D02): wall timing only, excluded from artifact identity
  result.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

LatencySummary summarize_tasks(const RunResult& result) {
  LatencySummary summary;
  summary.p50_ms = result.task_latency.percentile(50).as_millis();
  summary.p95_ms = result.task_latency.percentile(95).as_millis();
  summary.p99_ms = result.task_latency.percentile(99).as_millis();
  summary.mean_ms = result.task_latency.mean().as_millis();
  return summary;
}

}  // namespace brb::core
