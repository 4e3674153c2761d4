#include "core/fig1.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "client/app_client.hpp"
#include "core/arrival_pump.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "net/network.hpp"
#include "policy/priority_policy.hpp"
#include "server/backend_server.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "store/partitioner.hpp"
#include "util/rng.hpp"
#include "workload/task.hpp"

namespace brb::core {

namespace {

// Keys: A=0, B=1, C=2, D=3, E=4, warm-up F=5.
constexpr store::KeyId kA = 0, kB = 1, kC = 2, kD = 3, kE = 4, kF = 5;

/// Fixed placement matching the figure: replication factor 1,
/// group g == server g. A,E,F -> S1(0); B,C -> S2(1); D -> S3(2).
class Fig1Partitioner final : public store::Partitioner {
 public:
  Fig1Partitioner() : groups_{{0}, {1}, {2}} {}

  store::GroupId group_of(store::KeyId key) const override {
    switch (key) {
      case kA:
      case kE:
      case kF:
        return 0;
      case kB:
      case kC:
        return 1;
      case kD:
        return 2;
      default:
        throw std::out_of_range("Fig1Partitioner: unknown key");
    }
  }
  const std::vector<store::ServerId>& replicas_of(store::GroupId group) const override {
    return groups_.at(group);
  }
  std::uint32_t num_groups() const noexcept override { return 3; }
  std::uint32_t num_servers() const noexcept override { return 3; }
  std::uint32_t replication_factor() const noexcept override { return 1; }

 private:
  std::vector<std::vector<store::ServerId>> groups_;
};

}  // namespace

Fig1Result run_fig1(const std::string& policy_name) {
  // One "unit" = 1 ms of service; the warm-up request takes 0.1 unit.
  constexpr std::uint32_t kUnitBytes = 1000;
  constexpr std::uint32_t kWarmupBytes = 100;
  const sim::Duration unit = sim::Duration::millis(1.0);

  sim::Simulator sim;
  util::Rng rng(1);
  net::Network::Config net_config;
  net_config.one_way_latency = sim::Duration::micros(10);
  net::Network network(sim, net_config, rng.split());

  Fig1Partitioner partitioner;
  // 1 us per byte, no base cost and no noise: exactly unit-cost requests.
  const server::SizeLinearServiceModel service_model(sim::Duration::zero(), 1000.0, 0.0);

  const auto priority_policy = policy::make_priority_policy(policy_name);

  std::vector<std::unique_ptr<server::BackendServer>> servers;
  for (std::uint32_t s = 0; s < 3; ++s) {
    server::BackendServer::Config config;
    config.id = s;
    config.cores = 1;
    servers.push_back(
        std::make_unique<server::BackendServer>(sim, config, service_model, rng.split()));
    // Priority queues reveal the policy; with FifoPolicy all priorities
    // equal the task arrival time, which degrades to FIFO order.
    servers.back()->use_private_queue(server::make_discipline("priority"));
  }
  for (const store::KeyId key : {kA, kB, kC, kD, kE}) {
    servers[partitioner.group_of(key)]->storage().put_meta(key, kUnitBytes);
  }
  servers[0]->storage().put_meta(kF, kWarmupBytes);

  Fig1Result result;
  std::map<store::TaskId, double> completions;

  client::RequestBook request_book;
  std::vector<std::unique_ptr<client::AppClient>> clients;
  for (std::uint32_t c = 0; c < 2; ++c) {
    client::AppClient::Config config;
    config.id = c;
    util::Rng client_rng = rng.split();
    ctrl::DispatchEndpoint endpoint(
        ctrl::SignalTableConfig{},
        ctrl::DispatchPolicy(ctrl::ReplicaRule::kFirst, {}, {}, false,
                             ctrl::C3ScoreConfig{}.prior_service_time, client_rng),
        client_rng, store::TenantId{0});
    clients.push_back(std::make_unique<client::AppClient>(
        sim, config, partitioner, service_model, std::move(endpoint), *priority_policy,
        client::DispatchGate(), client_rng, request_book));
  }

  const auto key_name = [](store::KeyId key) {
    switch (key) {
      case kA:
        return "A";
      case kB:
        return "B";
      case kC:
        return "C";
      case kD:
        return "D";
      case kE:
        return "E";
      default:
        return "?";
    }
  };

  // Clients are nodes 3 and 4, after the three servers.
  const client::AppClient::NetworkSendFn network_send =
      [&network, &servers](const client::OutboundRequest& out) {
        network
            .send_message(3 + out.request.client, out.server, store::kRequestWireBytes,
                          sim::EventKind::kRequestDelivery, servers[out.server]->target())
            .request = out.request;
      };
  client::AppClient::Hooks hooks;
  hooks.on_task_complete = [&completions, &sim, unit](const workload::TaskSpec& task,
                                                      sim::Duration) {
    completions[task.id] = sim.now().as_millis() / unit.as_millis();
  };
  for (const auto& client : clients) {
    client->set_network_send(&network_send);
    client->set_hooks(&hooks);
  }
  for (std::uint32_t s = 0; s < 3; ++s) {
    servers[s]->set_response_handler([&, s](const store::ReadResponse& response) {
      if (response.key != kF) {
        const double end = sim.now().as_millis();
        const double start = end - response.feedback.service_time.as_millis();
        result.schedule.push_back(Fig1Entry{key_name(response.key), "S" + std::to_string(s + 1),
                                            start, end});
      }
      network
          .send_message(s, 3 + response.client, store::kResponseHeaderBytes,
                        sim::EventKind::kResponseDelivery, clients[response.client]->target())
          .response = response;
    });
  }

  // Warm-up task occupies S1 so that A and E are both queued when the
  // first scheduling decision happens.
  workload::TaskSpec warmup;
  warmup.id = 0;
  warmup.client = 0;
  warmup.requests = {workload::RequestSpec{kF, kWarmupBytes}};
  workload::TaskSpec t1;
  t1.id = 1;
  t1.client = 0;
  t1.requests = {workload::RequestSpec{kA, kUnitBytes}, workload::RequestSpec{kB, kUnitBytes},
                 workload::RequestSpec{kC, kUnitBytes}};
  workload::TaskSpec t2;
  t2.id = 2;
  t2.client = 1;
  t2.requests = {workload::RequestSpec{kD, kUnitBytes}, workload::RequestSpec{kE, kUnitBytes}};

  const std::vector<workload::TaskSpec> tasks = {warmup, t1, t2};
  ArrivalPump arrivals(sim, clients);
  arrivals.replay(tasks);
  sim.run();

  if (completions.size() != 3) throw std::logic_error("run_fig1: not all tasks completed");
  result.t1_completion_units = completions[1];
  result.t2_completion_units = completions[2];
  std::sort(result.schedule.begin(), result.schedule.end(),
            [](const Fig1Entry& a, const Fig1Entry& b) { return a.end_units < b.end_units; });
  return result;
}

void print_fig1_report(std::ostream& os) {
  os << "# Figure 1: task-oblivious vs task-aware scheduling\n";
  os << "# T1=[A,B,C], T2=[D,E]; S1={A,E}, S2={B,C}, S3={D}; unit-cost requests\n";
  os << "# (0.1-unit warm-up on S1 so both A and E are queued at decision time)\n\n";

  for (const char* policy : {"fifo", "equalmax", "unifincr"}) {
    const Fig1Result result = run_fig1(policy);
    os << "policy: " << policy << "\n";
    stats::Table table({"request", "server", "start", "end"});
    for (const Fig1Entry& entry : result.schedule) {
      table.add_row({entry.key, entry.server, stats::fmt_double(entry.start_units, 2),
                     stats::fmt_double(entry.end_units, 2)});
    }
    table.print(os);
    os << "T1 completes at " << stats::fmt_double(result.t1_completion_units, 2)
       << " units, T2 completes at " << stats::fmt_double(result.t2_completion_units, 2)
       << " units\n\n";
  }

  const Fig1Result fifo = run_fig1("fifo");
  const Fig1Result equalmax = run_fig1("equalmax");
  const Fig1Result unifincr = run_fig1("unifincr");
  os << "summary: T2 completion  fifo=" << stats::fmt_double(fifo.t2_completion_units, 2)
     << "  equalmax=" << stats::fmt_double(equalmax.t2_completion_units, 2)
     << "  unifincr=" << stats::fmt_double(unifincr.t2_completion_units, 2) << "\n";
  os << "paper:   T2 ends at 2 units (oblivious) vs 1 unit (optimal); T1 unaffected\n";
}

}  // namespace brb::core
