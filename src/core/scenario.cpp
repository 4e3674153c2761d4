#include "core/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "client/app_client.hpp"
#include "core/arrival_pump.hpp"
#include "core/global_queue.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/policy_runtime.hpp"
#include "net/network.hpp"
#include "policy/priority_policy.hpp"
#include "server/backend_server.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/task_gen.hpp"
#include "workload/trace.hpp"

namespace brb::core {

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
}

RunResult run_scenario(const ScenarioConfig& config) {
  // Wall-clock instrumentation feeds only RunResult::wall_seconds,
  // which artifacts quarantine in the identity-excluded "timing"
  // subtree; simulated behavior never reads it.
  const auto wall_start = std::chrono::steady_clock::now();  // brblint:allow(BRB-D02): wall timing only, excluded from artifact identity

  validate(config);

  const SystemProfile& profile = system_profile(config.system);
  const std::uint32_t num_servers = config.cluster.num_servers;
  const std::uint32_t num_clients = config.num_clients;

  // --- signal-store resolution ---
  // "auto" flips the signal table to its windowed layout once the
  // clients x servers cross-product would make server-indexed entries a
  // memory problem. The threshold (2^24 pairs = over a GB of entries
  // fleet-wide) keeps every nightly scenario short of mega-fleet on the
  // server-indexed layout.
  bool sparse_store = false;
  bool pin_credit_pairs = true;
  std::uint32_t sparse_cap = 128;
  {
    constexpr std::uint64_t kAutoSparsePairs = 1ull << 24;
    const std::uint64_t pairs = static_cast<std::uint64_t>(num_clients) * num_servers;
    const std::string& spec = config.signal_store;
    const auto bad_spec = [] {
      return std::invalid_argument("run_scenario: signal store must be auto|dense|sparse[:CAP]");
    };
    if (spec.empty() || spec == "auto") {
      sparse_store = pairs > kAutoSparsePairs;
    } else if (spec == "dense") {
      sparse_store = false;
    } else if (spec == "sparse") {
      sparse_store = true;
    } else if (spec.starts_with("sparse:")) {
      sparse_store = true;
      const std::optional<std::uint64_t> cap = util::parse_decimal(spec.substr(7));
      if (!cap || *cap == 0 || *cap > std::numeric_limits<std::uint32_t>::max()) throw bad_spec();
      sparse_cap = static_cast<std::uint32_t>(*cap);
    } else {
      throw bad_spec();
    }
    // Credit pairs are all pinned (per-server bootstrap balances, every
    // pair reported, granted and on the controller's books from the
    // start) unless the sparse store is in use past the auto threshold,
    // where per-fleet bootstrap state is the thing being avoided. There
    // every pair is first-touch: it opens on first offer and the
    // controller forgets it once its demand decays away. Below the
    // threshold, an explicit sparse store keeps every pair pinned: the
    // windowed SignalTable alone is decision-identical whenever the cap
    // covers the fleet.
    pin_credit_pairs = !(sparse_store && pairs > kAutoSparsePairs);
  }

  // --- latency statistics resolution ---
  const bool sketch_stats = config.stats_spec == "sketch";
  if (!config.stats_spec.empty() && config.stats_spec != "exact" && !sketch_stats) {
    throw std::invalid_argument("run_scenario: stats must be exact|sketch");
  }

  // Trace replay: tasks come from a file or an in-memory list.
  std::vector<workload::TaskSpec> trace_storage;
  const std::vector<workload::TaskSpec>* replay = config.tasks_override;
  if (replay == nullptr && !config.trace_path.empty()) {
    trace_storage = workload::TraceReader::read_file(config.trace_path);
    std::sort(trace_storage.begin(), trace_storage.end(),
              [](const workload::TaskSpec& a, const workload::TaskSpec& b) {
                return a.arrival < b.arrival;
              });
    replay = &trace_storage;
  }
  if (replay != nullptr && replay->empty()) {
    throw std::invalid_argument("run_scenario: empty trace");
  }
  const std::uint64_t total_tasks = replay ? replay->size() : config.num_tasks;

  // --- RNG streams: one independent stream per concern. ---
  util::Rng master(config.seed);
  util::Rng rng_network = master.split();
  util::Rng rng_dataset = master.split();
  util::Rng rng_workload = master.split();
  std::vector<util::Rng> rng_servers;
  rng_servers.reserve(num_servers);
  for (std::uint32_t s = 0; s < num_servers; ++s) rng_servers.push_back(master.split());
  std::vector<util::Rng> rng_clients;
  rng_clients.reserve(num_clients);
  for (std::uint32_t c = 0; c < num_clients; ++c) rng_clients.push_back(master.split());

  // --- substrate ---
  sim::Simulator sim;
  net::Network::Config net_config;
  net_config.one_way_latency = config.net_latency;
  net_config.jitter_max = config.net_jitter;
  net::Network network(sim, net_config, rng_network);

  store::RingPartitioner partitioner(num_servers, config.replication);

  const auto size_dist = workload::make_size_distribution(config.size_spec);
  const auto key_dist = workload::make_key_distribution(config.key_spec);
  const auto fanout_dist = workload::make_fanout_distribution(config.fanout_spec);
  workload::Dataset dataset(key_dist->num_keys(), *size_dist, rng_dataset);

  // Calibrate the service model against the workload's mean value size
  // (trace replay uses the trace's own empirical mean).
  double mean_size = size_dist->mean();
  if (replay != nullptr) {
    double acc = 0.0;
    std::uint64_t count = 0;
    for (const workload::TaskSpec& task : *replay) {
      for (const workload::RequestSpec& request : task.requests) {
        acc += request.size_hint;
        ++count;
      }
    }
    if (count == 0) throw std::invalid_argument("run_scenario: trace has no requests");
    mean_size = std::max(1.0, acc / static_cast<double>(count));
  }

  // --- tenants (parsed before capacity planning: their fan-out and
  // write overrides change the offered load per task). ---
  std::vector<workload::TenantMix> tenant_mixes;
  if (!config.tenant_spec.empty()) {
    tenant_mixes = workload::parse_tenant_mixes(config.tenant_spec);
  }

  // --- arrival rate from capacity planning (never hard-coded). ---
  // A task's expected server work is its mean fan-out times the write
  // amplification: each write request executes on every replica, so a
  // write-bearing workload at the same task rate offers
  // (1 + wf * (R - 1)) times the requests. Folding both into the rate
  // keeps `utilization` meaning actual offered load / capacity for
  // every scenario (the read-only single-tenant path reduces to the
  // paper's original arithmetic).
  workload::CapacityPlanner planner(config.cluster);
  const double write_copies = static_cast<double>(config.replication - 1);
  double requests_per_task;
  if (!tenant_mixes.empty()) {
    // Per-tenant expectation, then share-weighted: fan-out and write
    // fraction are correlated across tenants (the heavy tenant is
    // often also the writing one), so the amplification must be
    // applied inside each tenant's term, not to the pooled means.
    double total_share = 0.0;
    for (const workload::TenantMix& mix : tenant_mixes) total_share += mix.share;
    requests_per_task = 0.0;
    for (const workload::TenantMix& mix : tenant_mixes) {
      const double fanout = mix.fanout ? mix.fanout->mean() : fanout_dist->mean();
      const double write_fraction =
          mix.write_fraction >= 0.0 ? mix.write_fraction : config.write_fraction;
      requests_per_task +=
          mix.share / total_share * fanout * (1.0 + write_fraction * write_copies);
    }
  } else if (config.write_fraction > 0.0) {
    requests_per_task = fanout_dist->mean() * (1.0 + config.write_fraction * write_copies);
  } else {
    requests_per_task = fanout_dist->mean();
  }
  const double task_rate =
      replay ? static_cast<double>(replay->size()) /
                   std::max(1e-3, replay->back().arrival.as_seconds())
             : planner.task_rate_for_utilization(config.utilization, requests_per_task);

  // The clients' forecast model runs at the fleet-mean per-core rate;
  // in a heterogeneous fleet each server additionally gets its own
  // model at its class rate. The homogeneous branch keeps the original
  // single-rate arithmetic so legacy runs stay bit-identical.
  const double forecast_rate =
      config.cluster.heterogeneous()
          ? planner.system_capacity_rps() / static_cast<double>(config.cluster.total_cores())
          : config.cluster.service_rate_per_core;
  const server::SizeLinearServiceModel service_model = server::SizeLinearServiceModel::calibrate(
      forecast_rate, mean_size, config.service_base, config.service_noise_sigma);
  std::vector<server::SizeLinearServiceModel> per_server_models;
  if (config.cluster.heterogeneous()) {
    per_server_models.reserve(num_servers);
    for (std::uint32_t s = 0; s < num_servers; ++s) {
      per_server_models.push_back(server::SizeLinearServiceModel::calibrate(
          config.cluster.rate_of(s), mean_size, config.service_base,
          config.service_noise_sigma));
    }
  }
  const auto server_model = [&](std::uint32_t s) -> const server::ServiceTimeModel& {
    return per_server_models.empty() ? service_model : per_server_models[s];
  };

  // --- node ids: servers, then clients, then controller, then queue. ---
  const net::NodeId controller_node = num_servers + num_clients;
  const net::NodeId global_queue_node = controller_node + 1;

  // --- servers ---
  std::vector<std::unique_ptr<server::BackendServer>> servers;
  servers.reserve(num_servers);
  for (std::uint32_t s = 0; s < num_servers; ++s) {
    server::BackendServer::Config server_config;
    server_config.id = s;
    server_config.cores = config.cluster.cores_of(s);
    servers.push_back(std::make_unique<server::BackendServer>(sim, server_config, server_model(s),
                                                              rng_servers[s]));
  }
  // Populate every replica (value sizes drive work). Generated runs
  // share the dataset's size array as every replica's base; the
  // dataset is declared before the servers, so it outlives them.
  if (replay != nullptr) {
    for (const workload::TaskSpec& task : *replay) {
      for (const workload::RequestSpec& request : task.requests) {
        for (const store::ServerId s : partitioner.replicas_for_key(request.key)) {
          servers[s]->storage().put_meta(request.key, std::max(1u, request.size_hint));
        }
      }
    }
  } else {
    for (const auto& s : servers) s->storage().attach_base(dataset.sizes());
  }

  // --- work sources ---
  std::unique_ptr<GlobalQueueModel> global_queue;
  if (uses_global_queue(config.system)) {
    global_queue = std::make_unique<GlobalQueueModel>(partitioner, profile.discipline);
    std::vector<server::BackendServer*> raw;
    raw.reserve(servers.size());
    for (const auto& s : servers) raw.push_back(s.get());
    global_queue->attach_servers(std::move(raw));
  } else {
    for (const auto& s : servers) {
      s->use_private_queue(server::make_discipline(profile.discipline));
    }
  }

  // --- result & hooks ---
  RunResult result;
  result.system = config.system;
  result.seed = config.seed;
  result.task_latency = stats::LatencyRecorder(config.keep_raw_latencies);
  result.request_latency = stats::LatencyRecorder(config.keep_raw_latencies);
  // Only the task sketch reaches artifacts; the request recorder keeps
  // its histogram-only footprint even in sketch runs.
  if (sketch_stats) result.task_latency.enable_sketch();
  const std::uint64_t warmup_tasks =
      static_cast<std::uint64_t>(config.warmup_fraction * static_cast<double>(total_tasks));

  // --- control plane: policy runtime + admission registry ---
  const std::string selector_name =
      config.selector_override.empty() ? std::string(profile.selector) : config.selector_override;
  const auto priority_policy = policy::make_priority_policy(std::string(profile.priority_policy));
  const std::string admission_name = ctrl::canonical_admission_name(
      config.admission_override.empty() ? std::string(profile.admission)
                                        : config.admission_override);
  // The credits controller/monitor machinery follows the *effective*
  // admission policy: `--admission=direct` on a credits system runs
  // its priorities ungated, `--admission=credits` on a direct system
  // adds the full credit loop.
  const bool credits_admission = admission_name == "credits";

  // Tenant-indexed policy binding: client blocks are the same
  // share-proportional partition the task generator uses.
  std::vector<std::string> tenant_names;
  std::vector<std::uint32_t> tenant_blocks;
  if (!tenant_mixes.empty()) {
    tenant_names.reserve(tenant_mixes.size());
    for (const workload::TenantMix& mix : tenant_mixes) tenant_names.push_back(mix.name);
    tenant_blocks = workload::tenant_client_blocks(tenant_mixes, num_clients);
  }
  const auto tenant_of_client = [&](store::ClientId c) -> store::TenantId {
    if (tenant_blocks.empty()) return store::TenantId{0};
    std::uint32_t t = 0;
    while (t + 1 < tenant_blocks.size() - 1 && c >= tenant_blocks[t + 1]) ++t;
    return store::TenantId{t};
  };

  ctrl::PolicyRuntime::Config runtime_config;
  runtime_config.default_policy = selector_name;
  runtime_config.policy_spec = config.policy_spec;
  runtime_config.dispatch_spec = config.dispatch_spec;
  runtime_config.switch_spec = config.policy_switch_spec;
  runtime_config.signals.ewma_alpha = config.c3.ewma_alpha;
  runtime_config.signals.sparse = sparse_store;
  runtime_config.signals.sparse_cap = sparse_cap;
  runtime_config.c3.queue_exponent = config.c3.queue_exponent;
  runtime_config.c3.num_clients = num_clients;
  runtime_config.c3.prior_service_time = config.c3.prior_service_time;
  runtime_config.credit_aware = credits_admission;
  runtime_config.tenants = tenant_names;
  ctrl::PolicyRuntime runtime(sim, std::move(runtime_config));
  // Duplicate-issuing dispatch modes cancel losers at the server's
  // dequeue point; the shared global queue has no per-server dequeue to
  // intercept, so the combination is rejected rather than silently
  // serving every copy.
  const bool tail_cutting = runtime.may_dispatch_duplicates();
  if (tail_cutting && uses_global_queue(config.system)) {
    throw std::invalid_argument(
        "run_scenario: dispatch modes that issue duplicates (hedge/tied/kofn) are incompatible "
        "with global-queue model systems");
  }
  // kofn multiplies *every* logical request n-fold — unlike hedge
  // (conditional on the deadline) or tied (losers cancel at dequeue,
  // cheaply). At high utilization that amplification alone can push
  // offered load past capacity and the run collapses. Warn once per
  // process; the run still proceeds (hedging-shootout deliberately
  // probes this regime).
  if (runtime.may_dispatch(ctrl::DispatchMode::kKofn) && config.utilization >= 0.6) {
    static std::once_flag kofn_warned;
    std::call_once(kofn_warned, [&config] {
      std::cerr << "[WARN] [scenario] kofn dispatch at utilization " << config.utilization
                << " >= 0.6: n-fold load amplification may exceed fleet capacity "
                   "(see README, tail-cutting regimes)\n";
    });
  }

  // Credits machinery (wired iff the credits admission policy is in
  // effect).
  std::unique_ptr<CreditsController> controller;
  std::unique_ptr<CongestionMonitor> monitor;

  // Mean per-server capacity seeds the C3 rate limiter; the credits
  // machinery below uses true per-server capacities (they differ in a
  // heterogeneous fleet). The homogeneous expression is unchanged.
  const double per_server_capacity =
      config.cluster.heterogeneous()
          ? planner.system_capacity_rps() / static_cast<double>(num_servers)
          : static_cast<double>(config.cluster.cores_per_server) *
                config.cluster.service_rate_per_core;

  // Gate parameters shared by every client.
  CreditList pinned_credits;
  double first_touch_credit = 0.0;
  policy::CubicRateConfig rate = config.rate;
  if (credits_admission) {
    const double interval_sec = config.credits.adapt_interval.as_seconds();
    // Bootstrap: an equal share of each server's capacity per interval.
    if (pin_credit_pairs) {
      pinned_credits.reserve(num_servers);
      for (std::uint32_t s = 0; s < num_servers; ++s) {
        pinned_credits.emplace_back(
            s, config.cluster.capacity_of(s) * interval_sec / static_cast<double>(num_clients));
      }
    }
    // First-touch pairs open with an equal share of the *mean* server
    // capacity (heterogeneous fleets get the exact per-server share
    // with their first grant, one interval later).
    first_touch_credit = per_server_capacity * interval_sec / static_cast<double>(num_clients);
  } else if (admission_name == "cubic-rate" && rate.initial_rate <= 0.0) {
    rate.initial_rate = per_server_capacity / static_cast<double>(num_clients);
    // A fair share below the rate floor (large client fleets) lowers
    // the floor with it; an explicit initial rate keeps the check.
    rate.min_rate = std::min(rate.min_rate, rate.initial_rate);
  }

  // The gate by admission name; the client mirrors a credits gate's
  // balances into its SignalTable.
  const auto make_gate = [&] {
    if (credits_admission) {
      return client::DispatchGate(sim, num_servers, config.credits, pinned_credits,
                                  first_touch_credit);
    }
    if (admission_name == "cubic-rate") return client::DispatchGate(sim, num_servers, rate);
    return client::DispatchGate();
  };

  // One request book for the whole fleet (this run's thread only).
  client::RequestBook request_book;
  std::vector<std::unique_ptr<client::AppClient>> clients;
  clients.reserve(num_clients);
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    client::AppClient::Config client_config;
    client_config.id = c;
    client_config.cost_noise_sigma = config.cost_noise_sigma;
    client_config.select_per_subtask = profile.select_per_subtask;

    // Sequence the split explicitly: argument evaluation order is
    // unspecified and both expressions touch rng_clients[c]. One split
    // per client for the policy stream, exactly as before the runtime.
    util::Rng selector_rng = rng_clients[c].split();
    ctrl::DispatchEndpoint endpoint = runtime.make_endpoint(tenant_of_client(c), selector_rng);
    clients.push_back(std::make_unique<client::AppClient>(
        sim, client_config, partitioner, service_model, std::move(endpoint), *priority_policy,
        make_gate(), rng_clients[c], request_book));
  }
  // Every stream has been handed to its client.
  std::vector<util::Rng>().swap(rng_clients);

  // Tail-cutting executor: loser copies are finalized at the server's
  // dequeue point by asking the issuing client whether the copy is
  // still live. Installed only when some mode can issue duplicates, so
  // single-target runs keep an empty (never-called) filter slot.
  if (tail_cutting) {
    for (std::uint32_t s = 0; s < num_servers; ++s) {
      servers[s]->set_service_filter([&clients](const store::ReadRequest& request) {
        return clients[request.client]->admit_service(request);
      });
    }
  }

  // --- transport wiring: one send function for the fleet; the
  // request's client field names the sending node. Every message is a
  // snapshot in the simulator's pool. ---
  client::AppClient::NetworkSendFn network_send;
  if (uses_global_queue(config.system)) {
    const std::uint32_t queue_target = sim.attach(*global_queue);
    network_send = [&network, num_servers, global_queue_node,
                    queue_target](const client::OutboundRequest& out) {
      net::Message& message =
          network.send_message(num_servers + out.request.client, global_queue_node,
                               store::request_wire_bytes(out.request),
                               sim::EventKind::kQueueSubmit, queue_target);
      message.request = out.request;
      message.group = out.group;
      message.server = out.server;
    };
  } else {
    network_send = [&network, num_servers, &servers](const client::OutboundRequest& out) {
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
        [&network, &clients, s, num_servers](const store::ReadResponse& response) {
          network
              .send_message(s, num_servers + response.client,
                            store::kResponseHeaderBytes + response.value_size,
                            sim::EventKind::kResponseDelivery, clients[response.client]->target())
              .response = response;
        });
  }

  // --- credits wiring ---
  // One demand-report route for the fleet; each gate's report function
  // captures only it and the client id, so it is held inline.
  const auto send_report = [&network, &controller, num_servers, controller_node](
                               store::ClientId c, const CreditList& rates) {
    net::Message& message = network.send_message(num_servers + c, controller_node, 64,
                                                 sim::EventKind::kDemandReport,
                                                 controller->target());
    message.client = c;
    message.credits.assign(rates.begin(), rates.end());
  };
  if (credits_admission) {
    std::vector<double> capacities(num_servers);
    for (std::uint32_t s = 0; s < num_servers; ++s) {
      capacities[s] = config.cluster.capacity_of(s);
    }
    std::vector<store::ServerId> pinned_servers;
    for (const auto& [server, balance] : pinned_credits) pinned_servers.push_back(server);
    controller = std::make_unique<CreditsController>(sim, num_clients, std::move(capacities),
                                                     config.credits, pinned_servers);
    const std::uint32_t controller_target = controller->target();
    for (std::uint32_t c = 0; c < num_clients; ++c) {
      client::DispatchGate& gate = clients[c]->gate();
      gate.set_report([&send_report, c](const CreditList& rates) { send_report(c, rates); });
      gate.start();
    }
    controller->set_grant_sender([&network, controller_node, num_servers, &clients](
                                     store::ClientId client, const CreditList& credits) {
      network
          .send_message(controller_node, num_servers + client, 64, sim::EventKind::kGrant,
                        clients[client]->gate().target())
          .credits.assign(credits.begin(), credits.end());
    });
    controller->start();

    std::vector<server::BackendServer*> raw;
    raw.reserve(servers.size());
    for (const auto& s : servers) raw.push_back(s.get());
    monitor = std::make_unique<CongestionMonitor>(
        sim, std::move(raw), config.credits,
        [&network, controller_node, controller_target](store::ServerId server,
                                                       std::uint32_t queue_length) {
          network.send(server, controller_node, 64,
                       {sim::EventKind::kCongestionSignal, controller_target,
                        (std::uint64_t{server} << 32) | queue_length});
        });
    monitor->start();
  }

  // --- per-tenant result slots (mixes parsed above, pre-planning) ---
  result.tenants.resize(tenant_mixes.size());
  for (std::size_t t = 0; t < tenant_mixes.size(); ++t) {
    result.tenants[t].name = tenant_mixes[t].name;
  }

  // --- completion accounting (one hook set for the fleet) ---
  std::uint64_t completed = 0;
  client::AppClient::Hooks hooks;
  hooks.on_task_complete = [&result, &completed, &sim, &config, total_tasks, warmup_tasks](
                               const workload::TaskSpec& task, sim::Duration latency) {
    ++completed;
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
    if (completed == total_tasks) sim.stop();
  };
  hooks.on_request_complete = [&result](sim::Duration latency) {
    result.request_latency.record(latency);
    ++result.requests_completed;
  };
  for (const auto& client : clients) client->set_hooks(&hooks);

  // --- workload ---
  workload::TaskGenerator::Config gen_config;
  gen_config.num_clients = num_clients;
  workload::TaskGenerator generator(
      gen_config, dataset, *key_dist, *fanout_dist,
      workload::make_arrival_process(config.paced_arrivals ? "paced" : config.arrival_spec,
                                     task_rate),
      rng_workload);
  generator.set_write_traffic(config.write_fraction, size_dist.get());
  if (!tenant_mixes.empty()) generator.set_tenants(std::move(tenant_mixes));

  // Arrivals (core/arrival_pump.hpp).
  ArrivalPump arrivals(sim, clients);
  if (replay != nullptr) {
    arrivals.replay(*replay);
  } else {
    arrivals.generate(generator, total_tasks);
  }

  // Watchdog: generous bound on total simulated time; a healthy run
  // stops at task completion long before this fires.
  const double expected_span_sec = static_cast<double>(total_tasks) / task_rate;
  const sim::Time deadline = sim::Time::seconds(expected_span_sec * 3.0 + 120.0);
  sim.post_at(deadline, {sim::EventKind::kStop});

  // Arm the policy-switch epochs (no-op for static bindings).
  std::vector<ctrl::DispatchEndpoint*> endpoints;
  endpoints.reserve(num_clients);
  for (const auto& client : clients) endpoints.push_back(&client->endpoint());
  runtime.start(std::move(endpoints));

  sim.run();
  result.tasks_submitted = arrivals.posted();

  // --- teardown checks & result assembly ---
  if (result.tasks_completed != total_tasks) {
    throw std::runtime_error(
        "run_scenario: simulation stalled: completed " + std::to_string(result.tasks_completed) +
        " of " + std::to_string(total_tasks) + " tasks (system " + to_string(config.system) +
        ", seed " + std::to_string(config.seed) + ")");
  }

  result.sim_duration = sim.now() - sim::Time::zero();
  result.events_processed = sim.events_processed();
  if (sparse_store) {
    result.sparse_signal_store = true;
    for (const auto& client : clients) {
      const ctrl::SignalTable& signals = client->endpoint().signals();
      result.signal_entries_live += signals.size();
      result.signal_evictions += signals.evictions();
    }
  }
  result.network_messages = network.stats().messages_sent;
  result.network_bytes = network.stats().bytes_sent;
  result.policy_switches = runtime.switches_applied();

  result.server_utilization.reserve(num_servers);
  double util_acc = 0.0;
  const double span_sec = result.sim_duration.as_seconds();
  for (const auto& s : servers) {
    const double busy = s->stats().busy_time.as_seconds() /
                        (span_sec * static_cast<double>(s->config().cores));
    result.server_utilization.push_back(busy);
    util_acc += busy;
  }
  result.mean_utilization = util_acc / static_cast<double>(num_servers);

  if (controller) {
    result.congestion_signals = controller->stats().congestion_signals;
    result.controller_adaptations = controller->stats().adaptations;
    for (const auto& client : clients) {
      result.credit_hold_events += client->gate().hold_events();
      result.credit_hold_time += client->gate().total_hold_time();
    }
  }
  std::uint64_t held = 0;
  for (const auto& client : clients) {
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
  result.dispatch_metrics = !config.dispatch_spec.empty() || tail_cutting;
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
