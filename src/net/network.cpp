#include "net/network.hpp"

#include <stdexcept>

namespace brb::net {

Network::Network(sim::Simulator& sim, Config config, util::Rng rng)
    : sim_(&sim), config_(config), rng_(rng) {
  if (config_.one_way_latency.is_negative() || config_.jitter_max.is_negative()) {
    throw std::invalid_argument("Network: negative latency");
  }
}

sim::Time Network::reserve_delivery_slot(NodeId from, NodeId to) {
  sim::Duration delay = config_.one_way_latency;
  // Constant delay: departures at nondecreasing times arrive in order
  // by construction, so the FIFO clamp could never fire.
  if (config_.jitter_max <= sim::Duration::zero()) return sim_->now() + delay;
  delay += config_.jitter_max * rng_.uniform();
  sim::Time deliver_at = sim_->now() + delay;
  sim::Time& last = last_delivery_[(static_cast<std::uint64_t>(from) << 32) | to];
  if (deliver_at < last) deliver_at = last;  // keep the pair FIFO
  last = deliver_at;
  return deliver_at;
}

}  // namespace brb::net
