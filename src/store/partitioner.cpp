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

}  // namespace brb::store
