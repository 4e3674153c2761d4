// Sparse backing store for the SignalTable — million-client scale.
//
// The dense SignalTable allocates every column out to the highest
// ServerId a client has touched: exact and fast at paper scale, but
// O(clients x servers) across a fleet — a 10k-server x 1M-client run
// would spend ~6.6 TB on columns alone. The sparse store keeps only
// the pairs a client has actually touched:
//
//   * layout: the live entries sit back to back in one dense vector
//     (80 bytes each), found through a separate power-of-two index of
//     4-byte slots holding entry position + 1 (0 = empty) —
//     multiply-shift hash on the ServerId, linear probing, at most 1/2
//     load, backward-shift deletion (no tombstones). Both start empty
//     and grow with the entries a client actually holds, so a client
//     that only ever contacts a handful of replicas pays a few hundred
//     bytes, not a fixed slot table and not ~1 MB of dense columns.
//     Removing an entry moves the last one into its place and
//     re-points that entry's index slot;
//   * a *soft* per-client entry cap with LRU eviction: writes stamp a
//     deterministic tick, inserts over the cap evict the
//     least-recently-written entry that holds no live state
//     (in-flight accounting and credit balances pin an entry — a
//     gate's balance must never silently vanish). When every entry is
//     pinned the table grows past the cap instead of corrupting state;
//   * hierarchical per-server-group aggregation as the fallback: an
//     evicted entry folds its response-path EWMAs into its group's
//     running means (group = server / group_size), and reads of a
//     never-held pair in a group with history answer with the group
//     aggregate (seen, EWMAs = group means, counters zero). New
//     entries in such a group seed their EWMAs from the aggregate, so
//     an evicted-then-recontacted server starts from the group prior
//     rather than from scratch.
//
// Determinism: ticks are a simple write counter, unique per entry, so
// the eviction victim (the minimum tick among unpinned entries) and
// therefore every group fold are pure functions of the operation
// history — entry positions and index layout never reach a decision.
// When the cap exceeds the fleet size nothing is ever evicted and every
// read and EWMA fold is bit-identical to the dense store (the
// differential test in tests/control_plane_test.cpp pins this).
//
// Feedback is applied immediately rather than staged: the dense
// store's column-wise flush applies per-server samples in arrival
// order with the same seed-then-blend arithmetic, so immediate
// application produces bit-identical values — and the sparse store's
// entries are struct-of-fields anyway, so there is no column sweep to
// batch for.
#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/signal_table.hpp"
#include "sim/time.hpp"
#include "store/types.hpp"

namespace brb::ctrl {

class SparseSignalTable {
 public:
  SparseSignalTable(double ewma_alpha, std::uint32_t entry_cap, std::uint32_t group_size);

  void on_send(store::ServerId server, sim::Duration expected_cost);
  void on_response(store::ServerId server, const store::ServerFeedback& feedback,
                   sim::Duration rtt, sim::Duration expected_cost, sim::Time at);
  void on_cancel(store::ServerId server, sim::Duration expected_cost);
  void set_credit_balance(store::ServerId server, double balance);

  /// Row snapshot. A pair not in the table answers with its group
  /// aggregate when one exists (seen, EWMAs = group means, all
  /// counters and mirrors zero), else the neutral zero state.
  SignalTable::Signals of(store::ServerId server) const;

  std::uint32_t outstanding(store::ServerId server) const;
  sim::Duration pending_cost(store::ServerId server) const;
  bool seen(store::ServerId server) const;
  double ewma_response_ns(store::ServerId server) const;
  double ewma_queue(store::ServerId server) const;
  double ewma_service_time_ns(store::ServerId server) const;
  double credit_balance(store::ServerId server) const;
  std::int64_t last_feedback_ns(store::ServerId server) const;

  /// Live (non-evicted) entries.
  std::size_t live_entries() const noexcept { return entries_.size(); }
  /// Entries evicted into group aggregates over the store's lifetime.
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Entry {
    store::ServerId server = 0;
    std::uint32_t outstanding = 0;
    std::uint32_t last_queue_length = 0;
    std::uint8_t seen = 0;
    std::uint64_t lru_tick = 0;
    std::int64_t pending_cost_ns = 0;
    std::int64_t last_feedback_ns = -1;
    double ewma_response_ns = 0.0;
    double ewma_queue = 0.0;
    double ewma_service_ns = 0.0;
    double credit_balance = 0.0;
    double last_service_rate = 0.0;
  };
  static_assert(sizeof(Entry) == 80);

  /// Running means of the response-path EWMAs folded out of evicted
  /// entries — the group's collective memory of servers the window no
  /// longer tracks individually.
  struct GroupAggregate {
    std::uint64_t folds = 0;
    double mean_response_ns = 0.0;
    double mean_queue = 0.0;
    double mean_service_ns = 0.0;
  };

  /// Home index slot of `server`. Requires a non-empty index.
  std::size_t home(store::ServerId server) const noexcept;
  /// Index slot holding `server`, or the empty slot ending its probe
  /// run. Requires a non-empty index; the load cap keeps a slot free.
  std::size_t probe(store::ServerId server) const noexcept;
  const Entry* find(store::ServerId server) const;
  /// Finds or creates the entry (seeding from the group aggregate),
  /// evicting the LRU unpinned entry when the soft cap is reached.
  Entry& touch(store::ServerId server);
  void grow_index();
  void evict_one();
  /// Removes the entry at `position`: backward-shift deletes its index
  /// slot, then moves the last entry into the gap.
  void remove_entry(std::size_t position);
  const GroupAggregate* group_of(store::ServerId server) const;

  double ewma_alpha_;
  std::uint32_t entry_cap_;
  std::uint32_t group_size_;
  /// Live entries, in no particular order (never iterated to produce
  /// output; eviction picks by unique tick).
  std::vector<Entry> entries_;
  /// Open-addressed index: entry position + 1, 0 = empty. Capacity 0
  /// or a power of two, at most 1/2 full.
  std::vector<std::uint32_t> index_;
  int shift_ = 64;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  /// Indexed by group id; empty until the first eviction.
  std::vector<GroupAggregate> groups_;
};

}  // namespace brb::ctrl
