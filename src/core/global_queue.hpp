// The paper's ideal "model" realization (§2.2).
//
// "Servers utilize a work-pulling mechanism to fetch requests from a
// single global priority-based queue shared by all clients. However,
// such a model is unrealizable since it assumes perfect knowledge of
// global state."
//
// We realize the thought experiment inside the simulator: one logical
// priority queue, partitioned internally by replica group because a
// server may only serve keys it replicates. An idle server instantly
// pulls the highest-priority request among the groups it belongs to;
// ties break on global submission order, making the whole structure
// behave exactly like a single shared priority queue restricted by
// data placement. Coordination is free (that is the point of the
// ideal); the client<->store network latency is still paid.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "server/backend_server.hpp"
#include "server/queue_discipline.hpp"
#include "store/partitioner.hpp"
#include "store/types.hpp"

namespace brb::core {

class GlobalQueueModel final : public server::WorkSource {
 public:
  /// `discipline` names the per-group queue order — "priority" for
  /// BRB-model, "fifo" for the task-oblivious ideal ablation.
  GlobalQueueModel(const store::RingPartitioner& partitioner, std::string_view discipline);

  /// Registers the serving fleet; must cover every ServerId the
  /// partitioner references.
  void attach_servers(std::vector<server::BackendServer*> servers);

  /// A request reaches the (logically centralized) queue. Stamps the
  /// global submission sequence and immediately offers work to an idle
  /// replica if one exists.
  void submit(server::QueuedRead read, store::GroupId group);

  /// A request bound to one specific server (a write: every replica
  /// must execute its own copy, so the work cannot float freely within
  /// the group). Pinned requests compete with group-queue work by the
  /// same (priority, submission order) total order.
  void submit_pinned(server::QueuedRead read, store::ServerId server);

  // WorkSource interface (invoked by idle servers work-pulling).
  std::optional<server::QueuedRead> next_for(store::ServerId server) override;
  std::size_t backlog(store::ServerId server) const override;

  /// Total queued requests across all groups.
  std::size_t total_backlog() const noexcept { return total_queued_; }

 private:
  const store::RingPartitioner* partitioner_;
  /// An empty queue of the configured discipline, copied per queue.
  const server::QueueDiscipline empty_queue_;
  std::vector<server::QueueDiscipline> group_queues_;
  /// pinned_queues_[s] = server-bound requests (writes); created at the
  /// first pinned submit so read-only runs pay nothing.
  std::vector<server::QueueDiscipline> pinned_queues_;
  /// groups_of_[s] = replica groups server s participates in.
  std::vector<std::vector<store::GroupId>> groups_of_;
  std::vector<server::BackendServer*> servers_;
  std::uint64_t next_submit_seq_ = 0;
  std::size_t total_queued_ = 0;
};

}  // namespace brb::core
