#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace brb::net {

namespace {

constexpr std::uint64_t override_key(NodeId from, NodeId to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

Network::Network(sim::Simulator& sim, Config config, util::Rng rng)
    : sim_(&sim), config_(config), rng_(rng) {
  if (config_.one_way_latency.is_negative() || config_.jitter_max.is_negative()) {
    throw std::invalid_argument("Network: negative latency");
  }
  sparse_horizon_ = config_.num_nodes > kDenseHorizonLimit;
}

void Network::ensure_node(NodeId node) {
  if (node < stride_) return;
  // The first horizon use allocates the table at the configured node
  // count; the zero-jitter, no-override path never gets here, so it
  // never pays the num_nodes^2 table. Without a configured count,
  // geometric growth keeps amortized cost low as ids appear one by one
  // (tests).
  std::size_t new_stride = stride_ == 0 && node < config_.num_nodes
                               ? config_.num_nodes
                               : std::max<std::size_t>(stride_ * 2, 16);
  while (new_stride <= node) new_stride *= 2;
  std::vector<sim::Time> grown(new_stride * new_stride, sim::Time::zero());
  for (std::size_t from = 0; from < stride_; ++from) {
    std::copy_n(last_delivery_.begin() + static_cast<std::ptrdiff_t>(from * stride_), stride_,
                grown.begin() + static_cast<std::ptrdiff_t>(from * new_stride));
  }
  last_delivery_ = std::move(grown);
  stride_ = new_stride;
}

sim::Duration Network::latency(NodeId from, NodeId to) const {
  if (!pair_latency_override_.empty()) {
    if (const auto it = pair_latency_override_.find(override_key(from, to));
        it != pair_latency_override_.end()) {
      return it->second;
    }
  }
  return config_.one_way_latency;
}

void Network::set_pair_latency(NodeId from, NodeId to, sim::Duration latency) {
  if (latency.is_negative()) throw std::invalid_argument("Network: negative latency");
  pair_latency_override_[override_key(from, to)] = latency;
}

sim::Time Network::reserve_delivery_slot(NodeId from, NodeId to) {
  sim::Duration delay = latency(from, to);
  if (config_.jitter_max > sim::Duration::zero()) {
    delay += config_.jitter_max * rng_.uniform();
  }
  sim::Time deliver_at = sim_->now() + delay;
  // Constant per-pair delay: departures at nondecreasing times arrive
  // in order by construction, so the FIFO clamp could never fire.
  // (Mid-run set_pair_latency can lower a pair's delay, so any
  // override re-enables the horizon.)
  if (config_.jitter_max <= sim::Duration::zero() && pair_latency_override_.empty()) {
    return deliver_at;
  }
  if (sparse_horizon_) {
    sim::Time& last = sparse_last_delivery_[override_key(from, to)];
    if (deliver_at < last) deliver_at = last;  // keep the pair FIFO
    last = deliver_at;
    return deliver_at;
  }
  ensure_node(std::max(from, to));
  sim::Time& last = last_delivery_[pair_index(from, to)];
  if (deliver_at < last) deliver_at = last;  // keep the pair FIFO
  last = deliver_at;
  return deliver_at;
}

}  // namespace brb::net
