#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "ctrl/admission.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "ctrl/policy_runtime.hpp"
#include "ctrl/signal_table.hpp"
#include "policy/priority_policy.hpp"
#include "server/backend_server.hpp"
#include "server/queue_discipline.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "stats/latency_recorder.hpp"
#include "store/partitioner.hpp"
#include "store/storage_engine.hpp"
#include "util/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/capacity.hpp"
#include "workload/fanout_dist.hpp"
#include "workload/key_dist.hpp"
#include "workload/size_dist.hpp"
#include "workload/task_gen.hpp"

namespace brb::perf {

std::size_t Tracer::add(std::string name, Clock::time_point start, Clock::time_point end,
                        std::size_t parent, std::string id) {
  spans_.push_back({std::move(name), start, end, parent, std::move(id)});
  return spans_.size() - 1;
}

stats::Json Tracer::to_chrome_json() const {
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  stats::Json events = stats::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    stats::Json event = stats::Json::object();
    event["name"] = span.name;
    event["cat"] = "brb_perf";
    event["ph"] = "X";
    event["ts"] = micros(span.start);
    event["dur"] = micros(span.end) - micros(span.start);
    event["pid"] = 1;
    event["tid"] = 1;
    stats::Json args = stats::Json::object();
    args["span"] = i;
    args["parent"] = span.parent == kNoParent ? stats::Json() : stats::Json(span.parent);
    args["id"] = span.id;
    event["args"] = std::move(args);
    events.push_back(std::move(event));
  }
  stats::Json doc = stats::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

namespace {

/// The per-system defaults of `run_scenario` (core/scenario.cpp) for
/// the systems the benchmark workloads run. core keeps them private, so
/// this is a copy; the replays need them to build the same policies.
/// Any other system is refused rather than guessed.
struct SystemDefaults {
  std::string selector;
  std::string priority_policy;
  bool select_per_subtask = false;
};

SystemDefaults defaults_for(core::SystemKind kind) {
  SystemDefaults defaults;
  switch (kind) {
    case core::SystemKind::kC3:
      defaults = {"c3", "fifo", false};
      break;
    case core::SystemKind::kEqualMaxCredits:
      defaults = {"least-pending-cost", "equalmax", true};
      break;
    case core::SystemKind::kFifoDirect:
      defaults = {"least-outstanding", "fifo", false};
      break;
    default:
      throw std::invalid_argument("layer replay: no defaults recorded for system " +
                                  core::to_string(kind));
  }
  // Cross-check the copy against what core does publish: a system gets
  // a task-aware priority policy exactly when core calls it task-aware.
  if ((defaults.priority_policy != "fifo") != core::is_task_aware(kind)) {
    throw std::logic_error("layer replay: recorded priority policy " + defaults.priority_policy +
                           " disagrees with core::is_task_aware for " + core::to_string(kind));
  }
  return defaults;
}

/// The run's task stream, materialized once (structure of arrays), plus
/// each request's replica group and forecast cost.
struct Stream {
  std::vector<store::ClientId> client;
  std::vector<std::uint32_t> begin{0};  // per-task offsets into `requests`
  std::vector<workload::RequestSpec> requests;
  std::vector<store::GroupId> group;
  std::vector<sim::Duration> cost;

  std::size_t tasks() const noexcept { return client.size(); }
};

/// Everything the replays share about one run.
struct Inputs {
  const core::ScenarioConfig& config;
  const core::RunResult& run;
  SystemDefaults defaults;
  store::RingPartitioner partitioner;
  server::SizeLinearServiceModel service_model;
  double mean_size = 0.0;
  /// Requests in flight on average (Little's law: mean request latency
  /// x requests / simulated duration), at least 1.
  std::uint64_t in_flight = 1;
  Stream stream;
};

/// Self-rescheduling event chains on a private Simulator: `chains`
/// concurrent chains fire `events` events in total, with exponential
/// gaps of the given mean.
class ChainReplay {
 public:
  ChainReplay(std::uint64_t events, std::uint64_t chains, double mean_gap_ns, std::uint64_t seed)
      : remaining_(events), chains_(std::min(chains, events)) {
    util::Rng rng(seed);
    gaps_.resize(kGapTable);
    for (sim::Duration& gap : gaps_) {
      gap = sim::Duration::nanos(
          std::max<std::int64_t>(1, std::llround(rng.exponential(std::max(1.0, mean_gap_ns)))));
    }
  }

  /// Runs every chain to completion; returns the host seconds taken.
  double run() {
    const auto start = Clock::now();
    for (std::uint64_t c = 0; c < chains_; ++c) schedule();
    sim_.run();
    return seconds_between(start, Clock::now());
  }
  std::uint64_t events() const noexcept { return sim_.events_processed(); }

 private:
  static constexpr std::size_t kGapTable = 4096;

  struct Fire {
    ChainReplay* replay;
    void operator()() const { replay->schedule(); }
  };

  void schedule() {
    if (remaining_ == 0) return;
    --remaining_;
    sim_.schedule_after(gaps_[cursor_++ & (kGapTable - 1)], Fire{this});
  }

  sim::Simulator sim_;
  std::vector<sim::Duration> gaps_;
  std::size_t cursor_ = 0;
  std::uint64_t remaining_;
  std::uint64_t chains_;
};

/// workload: the run's exact task stream from TaskGenerator::fill_block
/// in the run's 256-task blocks. Returns the generation time only.
double generate_stream(const core::ScenarioConfig& config, const workload::Dataset& dataset,
                       const workload::KeyDistribution& keys,
                       const workload::FanoutDistribution& fanout,
                       const workload::SizeDistribution& sizes, util::Rng rng, Stream& stream) {
  // Capacity planning exactly as run_scenario does it (no tenants).
  const double write_copies = static_cast<double>(config.replication - 1);
  const double requests_per_task = fanout.mean() * (1.0 + config.write_fraction * write_copies);
  const double task_rate = workload::CapacityPlanner(config.cluster)
                               .task_rate_for_utilization(config.utilization, requests_per_task);
  std::unique_ptr<workload::ArrivalProcess> arrivals;
  if (!config.arrival_spec.empty()) {
    arrivals = workload::make_arrival_process(config.arrival_spec, task_rate);
  } else if (config.paced_arrivals) {
    arrivals = std::make_unique<workload::PacedArrivals>(task_rate);
  } else {
    arrivals = std::make_unique<workload::PoissonArrivals>(task_rate);
  }
  workload::TaskGenerator::Config gen_config;
  gen_config.num_clients = config.num_clients;
  workload::TaskGenerator generator(gen_config, dataset, keys, fanout, std::move(arrivals), rng);
  generator.set_write_traffic(config.write_fraction, &sizes);

  constexpr std::size_t kBlock = 256;
  workload::TaskBlock block;
  double seconds = 0.0;
  while (generator.tasks_generated() < config.num_tasks) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlock, config.num_tasks - generator.tasks_generated()));
    const auto start = Clock::now();
    generator.fill_block(block, n);
    seconds += seconds_between(start, Clock::now());
    for (std::size_t i = 0; i < block.size(); ++i) {
      const workload::TaskView task = block.view(i);
      stream.client.push_back(task.client);
      stream.requests.insert(stream.requests.end(), task.requests, task.requests + task.fanout);
      stream.begin.push_back(static_cast<std::uint32_t>(stream.requests.size()));
    }
  }
  return seconds;
}

/// sim: chains at the run's concurrency firing the run's event count,
/// the gap mean reproducing its event rate in simulated time.
double replay_sim(const Inputs& in, std::uint64_t& events) {
  const double span_ns = static_cast<double>(in.run.sim_duration.count_nanos());
  const double mean_gap_ns =
      in.run.events_processed > 0
          ? span_ns * static_cast<double>(in.in_flight) /
                static_cast<double>(in.run.events_processed)
          : 1.0;
  ChainReplay chains(in.run.events_processed, in.in_flight, mean_gap_ns, in.config.seed);
  const double seconds = chains.run();
  events = chains.events();
  return seconds;
}

/// ctrl: one dispatch stack + SignalTable per client planning every
/// request, with responses returned through a FIFO delay line as deep as
/// the run's in-flight count.
double replay_ctrl(const Inputs& in) {
  const core::ScenarioConfig& config = in.config;
  const Stream& stream = in.stream;
  std::string policy_name = config.selector_override.empty() ? in.defaults.selector
                                                             : config.selector_override;
  if (!config.policy_spec.empty()) {
    const std::vector<ctrl::PolicyBinding> bindings = ctrl::parse_policy_spec(config.policy_spec);
    if (bindings.size() != 1 || !bindings.front().tenant.empty()) {
      throw std::invalid_argument("layer replay: per-tenant policy bindings are not modelled");
    }
    policy_name = bindings.front().policy;
  }
  ctrl::DispatchModeConfig mode;
  if (!config.dispatch_spec.empty()) {
    const std::vector<ctrl::DispatchBinding> bindings =
        ctrl::parse_dispatch_spec(config.dispatch_spec);
    if (bindings.size() != 1 || !bindings.front().tenant.empty()) {
      throw std::invalid_argument("layer replay: per-tenant dispatch bindings are not modelled");
    }
    mode = bindings.front().mode;
  }
  const bool credit_aware =
      config.admission_override.empty()
          ? core::uses_credits(config.system)
          : ctrl::canonical_admission_name(config.admission_override) == "credits";

  ctrl::SignalTableConfig table_config;
  table_config.ewma_alpha = config.c3.ewma_alpha;
  table_config.sparse = in.run.sparse_signal_store;
  if (config.signal_store.rfind("sparse:", 0) == 0) {
    table_config.sparse_cap = static_cast<std::uint32_t>(std::stoul(config.signal_store.substr(7)));
  }
  ctrl::C3ScoreConfig score;
  score.queue_exponent = config.c3.queue_exponent;
  score.num_clients = config.num_clients;
  score.prior_service_time = config.c3.prior_service_time;

  util::Rng policy_rng(config.seed);
  std::vector<ctrl::SignalTable> tables;
  std::vector<std::unique_ptr<ctrl::DispatchPolicy>> policies;
  tables.reserve(config.num_clients);
  policies.reserve(config.num_clients);
  for (std::uint32_t c = 0; c < config.num_clients; ++c) {
    tables.emplace_back(table_config);
    policies.push_back(ctrl::make_dispatch_policy(policy_name, mode, score, credit_aware,
                                                  score.prior_service_time, policy_rng.split()));
    if (credit_aware) {
      // Funded everywhere, as a gate mirrors a healthy balance.
      for (std::uint32_t s = 0; s < config.cluster.num_servers; ++s) {
        tables[c].set_credit_balance(s, 1e18);
      }
    }
  }

  struct Pending {
    store::ClientId client = 0;
    std::array<store::ServerId, ctrl::DispatchPlan::kMaxTargets> targets{};
    std::uint8_t copies = 0;
    sim::Duration cost;
  };
  std::vector<Pending> line(static_cast<std::size_t>(in.in_flight));
  std::size_t line_head = 0;
  std::size_t line_size = 0;
  const sim::Duration round_trip = config.net_latency * 2.0;
  const auto retire = [&](const Pending& p) {
    store::ServerFeedback feedback;
    feedback.queue_length = 1;
    feedback.service_rate =
        1e9 / static_cast<double>(std::max<std::int64_t>(1, p.cost.count_nanos()));
    feedback.service_time = p.cost;
    tables[p.client].on_response(p.targets[0], feedback, p.cost + round_trip, p.cost);
    for (std::uint8_t k = 1; k < p.copies; ++k) tables[p.client].on_cancel(p.targets[k], p.cost);
  };
  const auto send = [&](store::ClientId client, const ctrl::DispatchPlan& plan,
                        sim::Duration cost) {
    Pending p;
    p.client = client;
    p.targets = plan.targets;
    p.copies = plan.mode == ctrl::DispatchMode::kTied || plan.mode == ctrl::DispatchMode::kKofn
                   ? plan.num_targets
                   : 1;
    p.cost = cost;
    for (std::uint8_t k = 0; k < p.copies; ++k) tables[client].on_send(p.targets[k], cost);
    if (line_size == line.size()) {
      retire(line[line_head]);
      line[line_head] = p;
      line_head = (line_head + 1) % line.size();
    } else {
      line[(line_head + line_size++) % line.size()] = p;
    }
  };

  std::vector<std::pair<store::GroupId, std::int64_t>> group_costs;
  std::vector<std::pair<store::GroupId, ctrl::DispatchPlan>> chosen;
  const auto start = Clock::now();
  for (std::size_t t = 0; t < stream.tasks(); ++t) {
    const store::ClientId client = stream.client[t];
    ctrl::DispatchPolicy& policy = *policies[client];
    const ctrl::SignalTable& table = tables[client];
    const std::uint32_t lo = stream.begin[t];
    const std::uint32_t hi = stream.begin[t + 1];
    if (stream.requests[lo].is_write) {
      for (std::uint32_t r = lo; r < hi; ++r) {
        for (const store::ServerId replica : in.partitioner.replicas_of(stream.group[r])) {
          send(client, ctrl::DispatchPlan::single(replica), stream.cost[r]);
        }
      }
    } else if (in.defaults.select_per_subtask) {
      group_costs.clear();
      for (std::uint32_t r = lo; r < hi; ++r) {
        group_costs.emplace_back(stream.group[r], stream.cost[r].count_nanos());
      }
      policy::collapse_group_costs(group_costs);
      chosen.clear();
      for (const auto& [group, cost] : group_costs) {
        chosen.emplace_back(group, policy.plan(table, in.partitioner.replicas_of(group),
                                               sim::Duration::nanos(cost)));
      }
      for (std::uint32_t r = lo; r < hi; ++r) {
        const auto it = std::lower_bound(
            chosen.begin(), chosen.end(), stream.group[r],
            [](const auto& entry, store::GroupId group) { return entry.first < group; });
        send(client, it->second, stream.cost[r]);
      }
    } else {
      for (std::uint32_t r = lo; r < hi; ++r) {
        send(client, policy.plan(table, in.partitioner.replicas_of(stream.group[r]), stream.cost[r]),
             stream.cost[r]);
      }
    }
  }
  for (; line_size > 0; --line_size) {
    retire(line[line_head]);
    line_head = (line_head + 1) % line.size();
  }
  return seconds_between(start, Clock::now());
}

/// policy: compute_bottleneck + PriorityPolicy::assign for every task,
/// timed per 256-task block (plan construction untimed). Fills each
/// request's priority for the server replay.
double replay_policy(const Inputs& in, std::vector<store::Priority>& priority) {
  const Stream& stream = in.stream;
  const auto priority_policy = policy::make_priority_policy(in.defaults.priority_policy);
  constexpr std::size_t kBlock = 256;
  std::vector<policy::TaskPlan> plans(kBlock);
  priority.assign(stream.requests.size(), 0.0);
  double seconds = 0.0;
  for (std::size_t first = 0; first < stream.tasks(); first += kBlock) {
    const std::size_t n = std::min(kBlock, stream.tasks() - first);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t t = first + i;
      policy::TaskPlan& plan = plans[i];
      plan.task_id = t;
      plan.requests.clear();
      for (std::uint32_t r = stream.begin[t]; r < stream.begin[t + 1]; ++r) {
        policy::PlannedRequest planned;
        planned.key = stream.requests[r].key;
        planned.size_hint = stream.requests[r].size_hint;
        planned.group = stream.group[r];
        planned.server = in.partitioner.replicas_of(stream.group[r]).front();
        planned.is_write = stream.requests[r].is_write;
        planned.expected_cost = stream.cost[r];
        plan.requests.push_back(planned);
      }
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      policy::compute_bottleneck(plans[i]);
      priority_policy->assign(plans[i]);
    }
    seconds += seconds_between(start, Clock::now());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t lo = stream.begin[first + i];
      for (std::size_t k = 0; k < plans[i].requests.size(); ++k) {
        priority[lo + k] = plans[i].requests[k].priority;
      }
    }
  }
  return seconds;
}

/// server: one BackendServer in a closed loop over every wire request
/// (writes once per replica), with the run's core count, calibrated
/// service model and queue discipline. The loop fires one completion
/// event per request; the sim replay already accounts for engine time,
/// so the engine's share — measured by chains at the loop's own
/// concurrency and gap — is taken out.
double replay_server(const Inputs& in, const workload::Dataset& dataset,
                     const std::vector<store::Priority>& priority) {
  const core::ScenarioConfig& config = in.config;
  const Stream& stream = in.stream;
  sim::Simulator sim;
  server::BackendServer::Config server_config;
  server_config.cores = config.cluster.cores_per_server;
  server::BackendServer server(sim, server_config, in.service_model, util::Rng(config.seed));
  server.use_private_queue(
      server::make_discipline(core::is_task_aware(config.system) ? "priority" : "fifo"));
  for (std::uint64_t key = 0; key < dataset.num_keys(); ++key) {
    server.storage().put_meta(key, dataset.size_of(key));
  }
  const std::uint64_t window = std::max<std::uint64_t>(
      server_config.cores + 1, in.in_flight / config.cluster.num_servers);

  std::size_t request = 0;
  std::uint32_t copy = 0;
  std::size_t task = 0;
  std::uint64_t issued = 0;
  const auto next = [&]() -> store::ReadRequest {
    const workload::RequestSpec& spec = stream.requests[request];
    while (stream.begin[task + 1] <= request) ++task;
    store::ReadRequest read;
    read.request_id = issued++;
    read.task_id = task;
    read.key = spec.key;
    read.priority = priority[request];
    read.expected_cost = stream.cost[request];
    read.sent_at = sim.now();
    read.is_write = spec.is_write;
    read.write_size = spec.is_write ? spec.size_hint : 0;
    if (!spec.is_write || ++copy == config.replication) {
      copy = 0;
      ++request;
    }
    return read;
  };
  server.set_response_handler([&](const store::ReadResponse&) {
    if (request < stream.requests.size()) server.receive(next());
  });
  const auto start = Clock::now();
  for (std::uint64_t w = 0; w < window && request < stream.requests.size(); ++w) {
    server.receive(next());
  }
  sim.run();
  const double loop_s = seconds_between(start, Clock::now());

  const double mean_service_ns =
      static_cast<double>(
          in.service_model.expected(static_cast<std::uint32_t>(std::llround(in.mean_size)))
              .count_nanos()) /
      static_cast<double>(server_config.cores);
  ChainReplay engine(sim.events_processed(), window,
                     mean_service_ns * static_cast<double>(window), config.seed);
  return std::max(0.0, loop_s - engine.run());
}

/// stats: LatencyRecorder::record at the run's task and request counts,
/// with the sketch if the run kept one; samples are exponential around
/// the run's mean latencies.
double replay_stats(const Inputs& in, std::uint64_t& records) {
  const core::RunResult& run = in.run;
  stats::LatencyRecorder task_recorder(false);
  if (run.task_latency.sketch() != nullptr) task_recorder.enable_sketch();
  stats::LatencyRecorder request_recorder(false);
  constexpr std::size_t kSamples = 4096;
  const auto mean_ns = [](const stats::LatencyRecorder& recorder) {
    return recorder.count() > 0 ? static_cast<double>(recorder.mean().count_nanos()) : 1e6;
  };
  util::Rng rng(in.config.seed);
  std::vector<sim::Duration> task_samples(kSamples);
  std::vector<sim::Duration> request_samples(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    task_samples[i] = sim::Duration::nanos(std::llround(rng.exponential(mean_ns(run.task_latency))));
    request_samples[i] =
        sim::Duration::nanos(std::llround(rng.exponential(mean_ns(run.request_latency))));
  }
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < run.tasks_measured; ++i) {
    task_recorder.record(task_samples[i & (kSamples - 1)]);
  }
  for (std::uint64_t i = 0; i < run.requests_completed; ++i) {
    request_recorder.record(request_samples[i & (kSamples - 1)]);
  }
  const double seconds = seconds_between(start, Clock::now());
  records = task_recorder.count() + request_recorder.count();
  return seconds;
}

}  // namespace

LayerReplay replay_layers(const core::ScenarioConfig& config, const core::RunResult& run,
                          Tracer& tracer, std::size_t parent, const std::string& id) {
  if (config.tasks_override != nullptr || !config.trace_path.empty() ||
      !config.tenant_spec.empty() || core::uses_global_queue(config.system) ||
      config.cluster.heterogeneous()) {
    throw std::invalid_argument(
        "layer replay: trace replay, tenant mixes, global-queue systems and heterogeneous "
        "fleets are not modelled");
  }
  // Records a span around `body`; the metric is the seconds `body`
  // itself reports (its timed region only).
  const auto span = [&](const char* name, auto&& body) {
    const auto start = Clock::now();
    const double seconds = body();
    tracer.add(name, start, Clock::now(), parent, id);
    return seconds;
  };
  LayerReplay out;

  // Inputs drawn exactly as run_scenario draws them.
  util::Rng master(config.seed);
  (void)master.split();  // network stream
  const util::Rng rng_dataset = master.split();
  const util::Rng rng_workload = master.split();
  const auto sizes = workload::make_size_distribution(config.size_spec);
  const auto keys = workload::make_key_distribution(config.key_spec);
  const auto fanout = workload::make_fanout_distribution(config.fanout_spec);
  std::unique_ptr<workload::Dataset> dataset;
  out.dataset_s = span("replay.workload.dataset", [&] {
    const auto start = Clock::now();
    dataset = std::make_unique<workload::Dataset>(keys->num_keys(), *sizes, rng_dataset);
    return seconds_between(start, Clock::now());
  });

  Inputs in{config,
            run,
            defaults_for(config.system),
            store::RingPartitioner(config.cluster.num_servers, config.replication),
            server::SizeLinearServiceModel::calibrate(config.cluster.service_rate_per_core,
                                                      sizes->mean(), config.service_base,
                                                      config.service_noise_sigma),
            sizes->mean(),
            1,
            {}};
  out.populate_s = span("replay.store.populate", [&] {
    std::vector<store::StorageEngine> engines(config.cluster.num_servers);
    const auto start = Clock::now();
    for (std::uint64_t key = 0; key < dataset->num_keys(); ++key) {
      for (const store::ServerId s : in.partitioner.replicas_for_key(key)) {
        engines[s].put_meta(key, dataset->size_of(key));
      }
    }
    return seconds_between(start, Clock::now());
  });
  out.workload_s = span("replay.workload.generate", [&] {
    return generate_stream(config, *dataset, *keys, *fanout, *sizes, rng_workload, in.stream);
  });

  Stream& stream = in.stream;
  out.tasks = stream.tasks();
  out.requests = stream.requests.size();
  stream.group.resize(stream.requests.size());
  stream.cost.resize(stream.requests.size());
  for (std::size_t r = 0; r < stream.requests.size(); ++r) {
    stream.group[r] = in.partitioner.group_of(stream.requests[r].key);
    stream.cost[r] = in.service_model.expected(stream.requests[r].size_hint);
    out.wire_requests += stream.requests[r].is_write ? config.replication : 1;
  }
  const double span_s = run.sim_duration.as_seconds();
  if (span_s > 0.0 && run.request_latency.count() > 0) {
    const double mean_latency_s = run.request_latency.mean().as_seconds();
    in.in_flight = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               mean_latency_s * static_cast<double>(run.requests_completed) / span_s)));
  }

  out.sim_s = span("replay.sim", [&] { return replay_sim(in, out.events); });
  out.ctrl_s = span("replay.ctrl", [&] { return replay_ctrl(in); });
  std::vector<store::Priority> priority;
  out.policy_s = span("replay.policy", [&] { return replay_policy(in, priority); });
  out.server_s = span("replay.server", [&] { return replay_server(in, *dataset, priority); });
  out.stats_s = span("replay.stats", [&] { return replay_stats(in, out.records); });
  return out;
}

}  // namespace brb::perf
