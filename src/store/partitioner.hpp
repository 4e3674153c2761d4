// Key partitioning and replica placement.
//
// The paper's system model: a set S of "flexible" servers where every
// server belongs to R replica groups; a replica group is the set of
// servers holding one data partition. We implement the Cassandra-style
// ring placement that induces exactly this structure (group g is served
// by servers g, g+1, ..., g+R-1 mod |S|). The membership is fixed for a
// run: no scenario adds or removes servers.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "store/types.hpp"

namespace brb::store {

/// Deterministic 64-bit key hash (SplitMix64 finalizer) behind key
/// placement, so it is stable across runs and platforms.
/// Inline: sits inside the Zipf key-scramble on the workload hot path.
inline std::uint64_t hash_key(KeyId key) noexcept {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Ring placement, the one placement type: one group per server;
/// group g -> servers {g, g+1, ..., g+R-1 mod S}; key -> group via hash
/// mod S. This is the paper's "flexible servers" model (each server
/// participates in R groups) in its simplest deterministic form.
class RingPartitioner {
 public:
  RingPartitioner(std::uint32_t num_servers, std::uint32_t replication_factor);

  GroupId group_of(KeyId key) const noexcept {
    return static_cast<GroupId>(hash_key(key) % num_servers_);
  }
  const std::vector<ServerId>& replicas_of(GroupId group) const {
    if (group >= groups_.size()) throw std::out_of_range("RingPartitioner: bad group");
    return groups_[group];
  }
  /// Replica set for a key (convenience).
  const std::vector<ServerId>& replicas_for_key(KeyId key) const {
    return replicas_of(group_of(key));
  }
  std::uint32_t num_groups() const noexcept { return num_servers_; }
  std::uint32_t num_servers() const noexcept { return num_servers_; }
  std::uint32_t replication_factor() const noexcept { return replication_; }

 private:
  std::uint32_t num_servers_;
  std::uint32_t replication_;
  std::vector<std::vector<ServerId>> groups_;
};

}  // namespace brb::store
