#include "server/global_queue.hpp"

#include <stdexcept>

#include "server/backend_server.hpp"

namespace brb::server {

GlobalQueueModel::GlobalQueueModel(const store::RingPartitioner& partitioner,
                                   std::string_view discipline)
    : partitioner_(&partitioner),
      empty_queue_(make_discipline(discipline)),
      group_queues_(partitioner_->num_groups(), empty_queue_) {
  const std::uint32_t num_groups = partitioner_->num_groups();

  groups_of_.resize(partitioner_->num_servers());
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    for (const store::ServerId s : partitioner_->replicas_of(g)) {
      if (s >= groups_of_.size()) {
        throw std::invalid_argument("GlobalQueueModel: server id outside cluster");
      }
      groups_of_[s].push_back(g);
    }
  }
}

void GlobalQueueModel::attach_servers(std::vector<BackendServer*> servers) {
  servers_ = std::move(servers);
  for (BackendServer* server : servers_) {
    if (server == nullptr) throw std::invalid_argument("GlobalQueueModel: null server");
    server->set_global_queue(*this);
  }
}

void GlobalQueueModel::submit(QueuedRead read, store::GroupId group) {
  if (group >= group_queues_.size()) {
    throw std::out_of_range("GlobalQueueModel::submit: bad group");
  }
  read.submit_seq = next_submit_seq_++;
  push(group_queues_[group], std::move(read));
  ++total_queued_;

  // Work-pull: wake an idle replica of this group (the queue "knows"
  // global state — that is what makes the model ideal/unrealizable).
  for (const store::ServerId s : partitioner_->replicas_of(group)) {
    if (s < servers_.size() && servers_[s]->idle_cores() > 0) {
      servers_[s]->pump();
      break;
    }
  }
}

void GlobalQueueModel::submit_pinned(QueuedRead read, store::ServerId server) {
  if (server >= groups_of_.size()) {
    throw std::out_of_range("GlobalQueueModel::submit_pinned: bad server");
  }
  if (pinned_queues_.empty()) pinned_queues_.assign(groups_of_.size(), empty_queue_);
  read.submit_seq = next_submit_seq_++;
  push(pinned_queues_[server], std::move(read));
  ++total_queued_;
  if (server < servers_.size() && servers_[server]->idle_cores() > 0) {
    servers_[server]->pump();
  }
}

std::optional<QueuedRead> GlobalQueueModel::next_for(store::ServerId server) {
  if (server >= groups_of_.size()) return std::nullopt;
  QueueDiscipline* best_queue = nullptr;
  QueueHead best_head{};
  const auto consider = [&](QueueDiscipline& queue) {
    const auto head = peek(queue);
    if (!head) return;
    const bool wins = best_queue == nullptr || head->priority < best_head.priority ||
                      (head->priority == best_head.priority &&
                       head->submit_seq < best_head.submit_seq);
    if (wins) {
      best_queue = &queue;
      best_head = *head;
    }
  };
  for (const store::GroupId g : groups_of_[server]) consider(group_queues_[g]);
  if (server < pinned_queues_.size()) consider(pinned_queues_[server]);
  if (best_queue == nullptr) return std::nullopt;
  auto read = pop(*best_queue);
  if (read) --total_queued_;
  return read;
}

std::size_t GlobalQueueModel::backlog(store::ServerId server) const {
  if (server >= groups_of_.size()) return 0;
  std::size_t total = 0;
  for (const store::GroupId g : groups_of_[server]) total += size(group_queues_[g]);
  if (server < pinned_queues_.size()) total += size(pinned_queues_[server]);
  return total;
}

}  // namespace brb::server
