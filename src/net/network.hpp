// Message-level network model.
//
// The paper's simulation assumes a fixed one-way latency (50 us) between
// application servers and the backend tier. `Network` models point-to-
// point delivery with a base latency plus optional jitter, delivering a
// typed closure at the receiver after that delay. Delivery is reliable
// and per-pair FIFO (jitter can reorder across pairs, matching a
// datacenter fabric with per-flow ordering).
//
// Per-pair state (FIFO delivery horizon) lives in a dense NodeId x
// NodeId table — ids are small dense integers assigned by the cluster
// wiring, so a flat array replaces the per-send hash lookup that
// dominated large-cluster runs. The table is allocated at its first
// use, not at construction. Per-pair latency overrides (used only
// by tests and heterogeneous-latency ablations) stay in a sparse map
// that the common path skips entirely.
//
// Scale: the horizon is only *needed* when jitter can reorder a pair —
// with a constant per-pair delay, successive sends depart at
// nondecreasing times and arrive in order automatically. The zero-
// jitter/no-override path therefore skips horizon bookkeeping entirely
// (bit-identical: the clamp could never fire), and topologies beyond
// kDenseHorizonLimit nodes store what horizon they do need in a sparse
// map instead of the O(nodes^2) table — at a million clients the dense
// table would be terabytes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

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
  /// Largest `num_nodes` for which the FIFO horizon uses the dense
  /// pair table; beyond it (mega-fleet topologies) a sparse map holds
  /// only the pairs actually communicating under jitter.
  static constexpr std::uint32_t kDenseHorizonLimit = 4096;

  struct Config {
    /// Base one-way propagation + switching delay.
    sim::Duration one_way_latency = sim::Duration::micros(50);
    /// Uniform jitter added on top: U[0, jitter_max].
    sim::Duration jitter_max = sim::Duration::zero();
    /// Number of endpoints, when known upfront (servers + clients +
    /// controller + global queue). Sizes the dense pair table once, at
    /// its first use; 0 lets it grow on demand as node ids appear.
    std::uint32_t num_nodes = 0;
  };

  Network(sim::Simulator& sim, Config config, util::Rng rng);

  /// Delivers `on_deliver` at the receiver after the one-way delay.
  /// `bytes` is accounted in stats only (the model is latency-bound, as
  /// in the paper; bandwidth is not a simulated resource). Any
  /// callable; the closure lands directly in the event queue.
  template <typename F>
  void send(NodeId from, NodeId to, std::uint32_t bytes, F&& on_deliver) {
    ++stats_.messages_sent;
    stats_.bytes_sent += bytes;
    const sim::Time deliver_at = reserve_delivery_slot(from, to);
    sim_->schedule_at(deliver_at, std::forward<F>(on_deliver));
  }

  /// Overrides the latency for one ordered pair (used in tests and in
  /// heterogeneous-topology ablations).
  void set_pair_latency(NodeId from, NodeId to, sim::Duration latency);

  sim::Duration latency(NodeId from, NodeId to) const;

  const NetworkStats& stats() const noexcept { return stats_; }
  const Config& config() const noexcept { return config_; }

 private:
  /// Per-ordered-pair FIFO guarantee: the next delivery on a pair never
  /// precedes the previous one even with jitter.
  sim::Time reserve_delivery_slot(NodeId from, NodeId to);

  /// Allocates or grows the dense table so ids up to `node` are
  /// addressable.
  void ensure_node(NodeId node);

  std::size_t pair_index(NodeId from, NodeId to) const noexcept {
    return static_cast<std::size_t>(from) * stride_ + to;
  }

  sim::Simulator* sim_;
  Config config_;
  util::Rng rng_;
  NetworkStats stats_;
  /// Dense FIFO horizon per ordered pair, `stride_` x `stride_`; empty
  /// (stride 0) until the first send that needs a horizon.
  std::vector<sim::Time> last_delivery_;
  std::size_t stride_ = 0;
  /// Sparse-horizon mode (num_nodes > kDenseHorizonLimit): per-pair
  /// horizons materialize on demand. Lookup-only (operator[] by packed
  /// pair key) — never iterated, so hash order cannot reach delivery
  /// order or artifacts.
  bool sparse_horizon_ = false;
  std::unordered_map<std::uint64_t, sim::Time> sparse_last_delivery_;  // brblint:allow(BRB-D01): lookup-only, never iterated
  /// Sparse latency overrides; empty in every homogeneous run.
  /// Lookup-only (find/insert by packed pair key) — never iterated, so
  /// hash order cannot reach delivery order or artifacts.
  std::unordered_map<std::uint64_t, sim::Duration> pair_latency_override_;  // brblint:allow(BRB-D01): lookup-only, never iterated
};

}  // namespace brb::net
