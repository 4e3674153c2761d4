// Message-level network model.
//
// The paper's simulation assumes a fixed one-way latency (50 us) between
// application servers and the backend tier. `Network` models point-to-
// point delivery with a base latency plus optional jitter, posting an
// event record at the receiver after that delay. A message with a body
// (a request, a response, a credits report or grant) is a snapshot in
// the simulator's message pool (net/message.hpp), and the event's
// payload is its slot. Delivery is reliable and per-pair FIFO (jitter
// can reorder across pairs, matching a datacenter fabric with per-flow
// ordering).
//
// The per-pair FIFO horizon is only needed when jitter can reorder a
// pair: with a constant delay, successive sends depart at
// nondecreasing times and arrive in order automatically, so the
// zero-jitter path keeps no per-pair state at all. Under jitter, one
// lookup-only map keyed by the ordered pair holds the horizon of each
// pair that actually communicates — at a million clients a dense
// pair table would be terabytes.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/node_id.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace brb::net {

/// Cumulative traffic counters, exposed for tests and reports.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
};

class Network {
 public:
  struct Config {
    /// Base one-way propagation + switching delay.
    sim::Duration one_way_latency = sim::Duration::micros(50);
    /// Uniform jitter added on top: U[0, jitter_max].
    sim::Duration jitter_max = sim::Duration::zero();
  };

  Network(sim::Simulator& sim, Config config, util::Rng rng);

  /// Posts `event` at the receiver after the one-way delay. `bytes` is
  /// accounted in stats only (the model is latency-bound, as in the
  /// paper; bandwidth is not a simulated resource).
  void send(NodeId from, NodeId to, std::uint32_t bytes, sim::Event event) {
    ++stats_.messages_sent;
    stats_.bytes_sent += bytes;
    sim_->post_at(reserve_delivery_slot(from, to), event);
  }

  /// Sends a pooled message of `kind` to the actor `target`; the
  /// caller fills the returned message before the event can fire.
  Message& send_message(NodeId from, NodeId to, std::uint32_t bytes, sim::EventKind kind,
                        std::uint32_t target) {
    const std::uint32_t slot = sim_->messages().alloc();
    send(from, to, bytes, {kind, target, slot});
    return sim_->messages()[slot];
  }

  const NetworkStats& stats() const noexcept { return stats_; }
  const Config& config() const noexcept { return config_; }

 private:
  /// Per-ordered-pair FIFO guarantee: the next delivery on a pair never
  /// precedes the previous one even with jitter.
  sim::Time reserve_delivery_slot(NodeId from, NodeId to);

  sim::Simulator* sim_;
  Config config_;
  util::Rng rng_;
  NetworkStats stats_;
  /// FIFO horizon per ordered pair, keyed `(from << 32) | to`; empty
  /// without jitter. Lookup-only (operator[] by packed pair key) —
  /// never iterated, so hash order cannot reach delivery order or
  /// artifacts.
  std::unordered_map<std::uint64_t, sim::Time> last_delivery_;  // brblint:allow(BRB-D01): lookup-only, never iterated
};

}  // namespace brb::net
