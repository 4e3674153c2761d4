#include "store/partitioner.hpp"

namespace brb::store {

RingPartitioner::RingPartitioner(std::uint32_t num_servers, std::uint32_t replication_factor)
    : num_servers_(num_servers), replication_(replication_factor) {
  if (num_servers_ == 0) throw std::invalid_argument("RingPartitioner: no servers");
  if (replication_ == 0 || replication_ > num_servers_) {
    throw std::invalid_argument("RingPartitioner: replication factor must be in [1, |S|]");
  }
  groups_.resize(num_servers_);
  for (std::uint32_t g = 0; g < num_servers_; ++g) {
    groups_[g].reserve(replication_);
    for (std::uint32_t r = 0; r < replication_; ++r) {
      groups_[g].push_back((g + r) % num_servers_);
    }
  }
}

GroupId RingPartitioner::group_of(KeyId key) const {
  return static_cast<GroupId>(hash_key(key) % num_servers_);
}

const std::vector<ServerId>& RingPartitioner::replicas_of(GroupId group) const {
  if (group >= groups_.size()) throw std::out_of_range("RingPartitioner: bad group");
  return groups_[group];
}

}  // namespace brb::store
