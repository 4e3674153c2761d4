// The run builder: the parts `run_scenario` is composed of that other
// runs reuse.
//
// run_scenario (core/scenario.cpp) is validate -> resolve -> build
// fleet -> run -> collect. Resolve turns a config into a `Workload`
// (the generated task stream) and a `FleetSpec` (everything the fleet
// is built from); a `Fleet` is the built system. The Figure 1
// walkthrough fills its own FleetSpec and builds the same Fleet; trace
// recording and the examples draw their task stream from a Workload.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "client/app_client.hpp"
#include "core/credits.hpp"
#include "core/scenario.hpp"
#include "ctrl/policy_runtime.hpp"
#include "net/network.hpp"
#include "policy/priority_policy.hpp"
#include "server/backend_server.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "util/rng.hpp"
#include "workload/task_gen.hpp"

namespace brb::core {

/// A generated task stream: the config's key, fan-out and size
/// distributions, the dataset of value sizes (drawn from `dataset_rng`)
/// and the generator (drawing from `workload_rng`) at the task rate
/// that offers `config.utilization` of the fleet's capacity, write
/// copies and tenant mix included. The generator holds references into
/// this object, so it is built in place and never moved.
struct Workload {
  Workload(const ScenarioConfig& config, util::Rng dataset_rng, util::Rng workload_rng);
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  std::unique_ptr<workload::SizeDistribution> sizes;
  std::unique_ptr<workload::KeyDistribution> keys;
  std::unique_ptr<workload::FanoutDistribution> fanout;
  workload::Dataset dataset;
  double task_rate;
  workload::TaskGenerator generator;
};

/// What a fleet is built from: resolve's output for a scenario run, or
/// a hand-made run's own choices.
struct FleetSpec {
  workload::ClusterSpec cluster{};  // servers, cores, credits capacities
  std::uint32_t num_clients = 0;
  store::RingPartitioner placement{1, 1};
  net::Network::Config network{};
  /// The clients' cost forecast, and each server's service model (empty
  /// = the forecast model on every server).
  server::SizeLinearServiceModel forecast{sim::Duration::zero(), 1.0};
  std::vector<server::SizeLinearServiceModel> server_models;
  std::string discipline = "fifo";  // per server, or of the one global queue
  bool global_queue = false;
  std::string priority_policy = "fifo";
  bool select_per_subtask = true;
  double cost_noise_sigma = 0.0;
  ctrl::PolicyRuntime::Config runtime{};
  /// Tenant t's clients are [blocks[t], blocks[t+1]); empty = one tenant.
  std::vector<std::uint32_t> tenant_blocks;
  /// "direct", "credits" (gates with these bootstrap balances, plus the
  /// controller and congestion monitor) or "cubic-rate" (`rate`).
  std::string admission = "direct";
  CreditsConfig credits{};
  CreditList pinned_credits;
  double first_touch_credit = 0.0;
  policy::CubicRateConfig rate{};
  /// Storage: every replica reads `dataset_sizes` as its base and stores
  /// each `replay` request's key at its size hint. Both must outlive
  /// the fleet.
  std::span<const std::uint32_t> dataset_sizes;
  std::span<const workload::TaskSpec> replay;
};

/// A built fleet on its own simulator: servers with their queues and
/// storage, clients on one request book with their endpoints and gates,
/// the transport between them and, under credits admission, the
/// controller and congestion monitor (already started). `spec` must
/// outlive the fleet. `network_rng` drives the network; `streams`
/// gives one split per server, then one per client. Nothing else runs
/// until arrivals are posted on `sim`.
struct Fleet {
  Fleet(const FleetSpec& spec, util::Rng network_rng, util::Rng& streams);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The response route: ships server `s`'s response to its client.
  /// Every server's handler calls it; a run that watches responses
  /// installs its own handler and forwards here.
  void respond(store::ServerId s, const store::ReadResponse& response);

  const std::uint32_t num_servers;
  sim::Simulator sim;
  net::Network network;
  std::vector<std::unique_ptr<server::BackendServer>> servers;
  std::unique_ptr<server::GlobalQueueModel> global_queue;
  ctrl::PolicyRuntime runtime;
  std::unique_ptr<policy::PriorityPolicy> priority_policy;
  client::RequestBook book;
  std::vector<std::unique_ptr<client::AppClient>> clients;
  client::AppClient::NetworkSendFn network_send;
  std::unique_ptr<CreditsController> controller;
  std::unique_ptr<CongestionMonitor> monitor;
};

}  // namespace brb::core
