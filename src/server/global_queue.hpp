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
#include <optional>
#include <string_view>
#include <vector>

#include "server/queue_discipline.hpp"
#include "store/partitioner.hpp"
#include "store/types.hpp"

namespace brb::server {

class BackendServer;

class GlobalQueueModel {
 public:
  /// `discipline` names the per-group queue order — "priority" for
  /// BRB-model, "fifo" for the task-oblivious ideal ablation.
  GlobalQueueModel(const store::RingPartitioner& partitioner, std::string_view discipline);

  /// Registers the serving fleet; must cover every ServerId the
  /// partitioner references.
  void attach_servers(std::vector<BackendServer*> servers);

  /// A request reaches the (logically centralized) queue. Stamps the
  /// global submission sequence and immediately offers work to an idle
  /// replica if one exists.
  void submit(QueuedRead read, store::GroupId group);

  /// A request bound to one specific server (a write: every replica
  /// must execute its own copy, so the work cannot float freely within
  /// the group). Pinned requests compete with group-queue work by the
  /// same (priority, submission order) total order.
  void submit_pinned(QueuedRead read, store::ServerId server);

  /// Next request `server` may serve, if any (an idle core's
  /// work-pull).
  std::optional<QueuedRead> next_for(store::ServerId server);

  /// Requests currently waiting that `server` could serve.
  std::size_t backlog(store::ServerId server) const;

  /// Total queued requests across all groups.
  std::size_t total_backlog() const noexcept { return total_queued_; }

 private:
  const store::RingPartitioner* partitioner_;
  /// An empty queue of the configured discipline, copied per queue.
  const QueueDiscipline empty_queue_;
  std::vector<QueueDiscipline> group_queues_;
  /// pinned_queues_[s] = server-bound requests (writes); created at the
  /// first pinned submit so read-only runs pay nothing.
  std::vector<QueueDiscipline> pinned_queues_;
  /// groups_of_[s] = replica groups server s participates in.
  std::vector<std::vector<store::GroupId>> groups_of_;
  std::vector<BackendServer*> servers_;
  std::uint64_t next_submit_seq_ = 0;
  std::size_t total_queued_ = 0;
};

}  // namespace brb::server
