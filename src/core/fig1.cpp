#include "core/fig1.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/arrival_pump.hpp"
#include "core/run_builder.hpp"
#include "stats/table.hpp"

namespace brb::core {

namespace {

/// The figure's keys, with the task each belongs to (0 = the warm-up).
/// Their ids are chosen so that RingPartitioner(3, 1) places them as
/// the figure does: A, E and the warm-up key on S1, B and C on S2, D
/// on S3.
struct Fig1Key {
  store::KeyId id;
  const char* name;
  store::TaskId task;
};
constexpr std::array<Fig1Key, 6> kKeys = {
    {{3, "A", 1}, {0, "B", 1}, {2, "C", 1}, {1, "D", 2}, {7, "E", 2}, {11, "F", 0}}};

}  // namespace

Fig1Result run_fig1(const std::string& policy_name) {
  // One "unit" = 1 ms of service; the warm-up request takes 0.1 unit.
  constexpr std::uint32_t kUnitBytes = 1000;
  constexpr std::uint32_t kWarmupBytes = 100;

  // Three tasks at t = 0, in this order: the warm-up occupies S1 so
  // that A and E are both queued when the first scheduling decision
  // happens; T1 from client 0, T2 from client 1.
  std::vector<workload::TaskSpec> tasks(3);
  for (const Fig1Key& key : kKeys) {
    tasks[key.task].id = key.task;
    tasks[key.task].requests.push_back({key.id, key.task == 0 ? kWarmupBytes : kUnitBytes});
  }
  tasks[2].client = 1;

  FleetSpec spec;
  spec.cluster.num_servers = 3;
  spec.cluster.cores_per_server = 1;
  spec.num_clients = 2;
  spec.placement = store::RingPartitioner(3, 1);
  spec.network.one_way_latency = sim::Duration::micros(10);
  // 1 us per byte, no base cost and no noise: exactly unit-cost requests.
  spec.forecast = server::SizeLinearServiceModel(sim::Duration::zero(), 1000.0, 0.0);
  // Priority queues reveal the policy; with the fifo rule all priorities
  // equal the task arrival time, which degrades to FIFO order.
  spec.discipline = "priority";
  spec.priority_policy = policy_name;
  spec.runtime.default_policy = "first";
  spec.replay = tasks;  // stores every key at its request's size
  util::Rng streams(1);
  const util::Rng network_rng = streams.split();
  Fleet fleet(spec, network_rng, streams);

  // Watch each response on the fleet's route back: its schedule entry,
  // and when it reaches its client (a task completes with its last).
  Fig1Result result;
  std::array<double, 3> completions{};
  std::size_t responses = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    fleet.servers[s]->set_response_handler([&, s](const store::ReadResponse& response) {
      const sim::Time end = fleet.sim.now();
      const Fig1Key& key = *std::find_if(kKeys.begin(), kKeys.end(), [&](const Fig1Key& k) {
        return k.id == response.key;
      });
      if (key.task != 0) {
        // "S" + to_string(s + 1) trips GCC 12's false -Wrestrict (bug 105329).
        result.schedule.push_back(Fig1Entry{key.name, std::string{'S', static_cast<char>('1' + s)},
                                            (end - response.feedback.service_time).as_millis(),
                                            end.as_millis()});
      }
      completions[key.task] =
          std::max(completions[key.task], (end + spec.network.one_way_latency).as_millis());
      ++responses;
      fleet.respond(s, response);
    });
  }

  ArrivalPump arrivals(fleet.sim, fleet.clients);
  arrivals.replay(tasks);
  fleet.sim.run();

  if (responses != kKeys.size()) throw std::logic_error("run_fig1: not all requests completed");
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

  std::ostringstream summary;
  summary << "summary: T2 completion";
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
    summary << "  " << policy << "=" << stats::fmt_double(result.t2_completion_units, 2);
  }
  os << summary.str() << "\n";
  os << "paper:   T2 ends at 2 units (oblivious) vs 1 unit (optimal); T1 unaffected\n";
}

}  // namespace brb::core
