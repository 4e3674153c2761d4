// Task arrivals: feeds a run's tasks to its clients as simulated events.
//
// Trace replay (and the Figure 1 walkthrough) posts every task up front
// at its arrival time; arrival order is arbitrary but times are fixed.
// A generated workload pumps lazily in pregenerated blocks: the
// generator fills a TaskBlock of up to `kBlock` tasks at once
// (slab-backed requests), and each arrival event submits its task
// straight from the block and posts the next. Exactly one generated
// arrival is outstanding, and the block is refilled only after its
// last task is consumed, so event order is that of a
// one-task-at-a-time pump.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "client/app_client.hpp"
#include "sim/simulator.hpp"
#include "workload/task.hpp"
#include "workload/task_gen.hpp"

namespace brb::core {

class ArrivalPump {
 public:
  using Clients = std::vector<std::unique_ptr<client::AppClient>>;

  ArrivalPump(sim::Simulator& sim, const Clients& clients)
      : sim_(&sim), clients_(&clients), target_(sim.attach(*this)) {}
  ArrivalPump(const ArrivalPump&) = delete;
  ArrivalPump& operator=(const ArrivalPump&) = delete;

  /// Posts every task of `tasks` (which must outlive the run) at its
  /// arrival; a task goes to client `task.client % clients`.
  void replay(const std::vector<workload::TaskSpec>& tasks) {
    replay_ = &tasks;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      ++posted_;
      sim_->post_at(tasks[i].arrival, {sim::EventKind::kReplayArrival, target_, i});
    }
  }

  /// Pumps `total` tasks from `generator`, which must outlive the run.
  void generate(workload::TaskGenerator& generator, std::uint64_t total) {
    generator_ = &generator;
    total_ = total;
    post_next();
  }

  /// Arrivals posted so far.
  std::uint64_t posted() const noexcept { return posted_; }

 private:
  friend class sim::Simulator;  // dispatches kArrival and kReplayArrival

  static constexpr std::size_t kBlock = 256;

  void post_next() {
    if (next_ == block_.size()) {
      const std::uint64_t remaining = total_ - generator_->tasks_generated();
      if (remaining == 0) return;
      generator_->fill_block(block_, static_cast<std::size_t>(std::min<std::uint64_t>(
                                         kBlock, remaining)));
      next_ = 0;
    }
    ++posted_;
    sim_->post_at(block_.view(next_).arrival, {sim::EventKind::kArrival, target_, 0});
  }
  void on_arrival() {
    const workload::TaskView task = block_.view(next_++);
    (*clients_)[task.client]->submit(task);
    post_next();
  }
  void on_replay(std::uint64_t index) {
    const workload::TaskSpec& task = (*replay_)[index];
    (*clients_)[task.client % clients_->size()]->submit(task);
  }

  sim::Simulator* sim_;
  const Clients* clients_;
  std::uint32_t target_;
  const std::vector<workload::TaskSpec>* replay_ = nullptr;
  workload::TaskGenerator* generator_ = nullptr;
  std::uint64_t total_ = 0;
  workload::TaskBlock block_;
  std::size_t next_ = 0;
  std::uint64_t posted_ = 0;
};

}  // namespace brb::core
