// The unified per-(client,server) signal table — layer 1 of the
// control plane.
//
// The paper's feedback loop (per-replica signals driving replica
// selection and admission) used to be smeared across four components,
// each scraping its own copy of the observables: the C3 selector kept
// EWMAs, the least-outstanding/least-pending selectors kept counters,
// and the credit gate kept balances.
// The SignalTable centralizes all of them in one store per client,
// updated from a single feedback path (the client's on-send /
// on-response hooks plus the credit gate's balance mirror). Policies
// (ctrl/replica_policy.hpp) become pure readers — which is what makes
// them swappable mid-run: a policy switch binds a new decision
// procedure to the *same* accumulated signals.
//
// Layout: one vector of 64-byte entries (one cache line), each holding
// every signal of one server, and every feedback call is applied to its
// entry at once (the first response seeds the EWMAs, later ones blend
// through `util::ewma_update`). Only the lookup has two layouts:
//
//   * server-indexed (the default): entry position == ServerId. The
//     table grows on first contact out to the highest server touched,
//     and servers it never touched read as the neutral zero state.
//     Exact and O(1), but every client pays O(num_servers), which is
//     O(clients x servers) across a fleet — a 10k-server x 1M-client
//     run would spend ~0.64 TB on entries alone.
//   * windowed (`SignalTableConfig::sparse`, million-client scale): only
//     the pairs a client has touched, back to back, found through a
//     power-of-two index of 4-byte slots holding entry position + 1
//     (0 = empty) — multiply-shift hash on the ServerId, linear
//     probing, at most 1/2 load, backward-shift deletion (no
//     tombstones). Both vectors start empty and grow with use. Removing
//     an entry moves the last one into its place and re-points that
//     entry's index slot. On top of the index:
//       - a *soft* per-client entry cap with LRU eviction: writes stamp
//         a deterministic tick, inserts over the cap evict the
//         least-recently-written entry that holds no live state
//         (in-flight accounting and credit balances pin an entry — a
//         gate's balance must never silently vanish). When every entry
//         is pinned the table grows past the cap instead of corrupting
//         state;
//       - per-server-group aggregation as the fallback: an evicted
//         entry folds its response-path EWMAs into its group's running
//         means (group = server / group_size), and reads of a pair the
//         window does not hold, in a group with history, answer with
//         the group aggregate (seen, EWMAs = group means, counters
//         zero). New entries in such a group seed their EWMAs from the
//         aggregate, so an evicted-then-recontacted server starts from
//         the group prior rather than from scratch.
//
// Determinism: ticks are a simple write counter, unique per entry (32
// bits; on wrap the live entries are renumbered by rank, which keeps
// their order), so the eviction victim (the minimum tick among unpinned
// entries) and therefore every group fold are pure functions of the
// operation history — entry positions and index layout never reach a
// decision.
// When the cap exceeds the fleet size nothing is ever evicted and every
// read is bit-identical across the two layouts (the differential tests
// in tests/control_plane_test.cpp pin this), so selection policies
// cannot tell them apart.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "store/types.hpp"

namespace brb::ctrl {

struct SignalTableConfig {
  /// Weight of the newest sample in the response-path EWMAs (0..1].
  /// This is C3's `ewma_alpha`; the table smooths identically for
  /// every policy so estimates survive a mid-run policy switch.
  double ewma_alpha = 0.5;
  /// Use the windowed layout instead of the server-indexed one
  /// (million-client scale). Default off: server-indexed remains the
  /// byte-identical paper path.
  bool sparse = false;
  /// Windowed only: soft cap on tracked (client,server) pairs. Entries
  /// holding live state (in-flight, credit balances) never evict, so the
  /// table may exceed the cap rather than corrupt accounting.
  std::uint32_t sparse_cap = 128;
  /// Windowed only: servers per aggregation group (the eviction
  /// fallback granularity).
  std::uint32_t sparse_group_size = 32;
};

/// One client's view of every server it has contacted.
class SignalTable {
 public:
  explicit SignalTable(SignalTableConfig config = {});

  /// A request was bound to `server` (counted at *offer* time, before
  /// any gate hold, so throttled replicas keep accumulating believed
  /// load — the invariant the old selector-side accounting relied on).
  void on_send(store::ServerId server, sim::Duration expected_cost);

  /// A response arrived: releases the in-flight accounting, records the
  /// raw feedback and folds the EWMAs. `at` stamps the feedback's
  /// arrival on the simulated clock (freshness signal); callers without
  /// a clock may omit it — the entry then reads as "stale forever",
  /// which disables freshness-gated behaviors.
  void on_response(store::ServerId server, const store::ServerFeedback& feedback,
                   sim::Duration rtt, sim::Duration expected_cost,
                   sim::Time at = sim::Time::zero());

  /// A request bound to `server` was cancelled before service (hedge
  /// loser dropped at the gate or rejected at dequeue): releases the
  /// in-flight accounting its on_send charged. No EWMA fold —
  /// cancelled copies produce no feedback.
  void on_cancel(store::ServerId server, sim::Duration expected_cost);

  /// Admission mirror (called by the credit gate whenever a balance
  /// changes, so selection policies can read balances without reaching
  /// into gate internals).
  void set_credit_balance(store::ServerId server, double balance);

  // Single-signal reads. A pair the table does not hold answers with
  // its group aggregate when one exists (seen, EWMAs = group means,
  // all counters and mirrors zero), else the neutral zero state
  // (unseen, EWMAs and counters zero, last feedback -1).
  /// Requests bound for this server that have not yet responded.
  std::uint32_t outstanding(store::ServerId server) const {
    const Entry* e = find(server);
    return e != nullptr ? e->outstanding : 0;
  }
  /// Forecast work in flight (summed expected costs).
  sim::Duration pending_cost(store::ServerId server) const {
    const Entry* e = find(server);
    return sim::Duration::nanos(e != nullptr ? e->pending_cost_ns : 0);
  }
  /// At least one response has been observed from this server.
  bool seen(store::ServerId server) const {
    const Entry* e = find(server);
    return e != nullptr ? e->seen != 0 : group_of(server) != nullptr;
  }
  /// EWMA of measured response time (request RTT), nanoseconds.
  double ewma_response_ns(store::ServerId server) const {
    if (const Entry* e = find(server)) return e->ewma_response_ns;
    const GroupAggregate* agg = group_of(server);
    return agg != nullptr ? agg->mean_response_ns : 0.0;
  }
  /// EWMA of the server-reported queue length.
  double ewma_queue(store::ServerId server) const {
    if (const Entry* e = find(server)) return e->ewma_queue;
    const GroupAggregate* agg = group_of(server);
    return agg != nullptr ? agg->mean_queue : 0.0;
  }
  /// EWMA of the server-reported per-request service time, ns.
  double ewma_service_time_ns(store::ServerId server) const {
    if (const Entry* e = find(server)) return e->ewma_service_ns;
    const GroupAggregate* agg = group_of(server);
    return agg != nullptr ? agg->mean_service_ns : 0.0;
  }
  /// Current credit balance (credits systems; 0 otherwise).
  double credit_balance(store::ServerId server) const {
    const Entry* e = find(server);
    return e != nullptr ? e->credit_balance : 0.0;
  }
  /// Simulated nanoseconds of the last response fold; -1 when this
  /// server has never produced feedback (or the pair was evicted) —
  /// the freshness signal hedge suppression reads.
  std::int64_t last_feedback_ns(store::ServerId server) const {
    const Entry* e = find(server);
    return e != nullptr ? e->last_feedback_ns : -1;
  }

  /// Server-indexed: servers contacted so far (growth high-water mark).
  /// Windowed: live (non-evicted) entries.
  std::size_t size() const noexcept { return entries_.size(); }
  /// Entries evicted into group aggregates (always 0 server-indexed).
  std::uint64_t evictions() const noexcept { return evictions_; }
  const SignalTableConfig& config() const noexcept { return config_; }

 private:
  friend class SignalTableTestPeer;

  /// One cache line: every signal of one server.
  struct Entry {
    store::ServerId server = 0;  // windowed only
    std::uint32_t outstanding = 0;
    std::uint32_t lru_tick = 0;  // windowed only
    std::uint8_t seen = 0;
    std::int64_t pending_cost_ns = 0;
    std::int64_t last_feedback_ns = -1;
    double ewma_response_ns = 0.0;
    double ewma_queue = 0.0;
    double ewma_service_ns = 0.0;
    double credit_balance = 0.0;
  };
  static_assert(sizeof(Entry) == 64);

  /// Running means of the response-path EWMAs folded out of evicted
  /// entries — the group's collective memory of servers the window no
  /// longer tracks individually.
  struct GroupAggregate {
    std::uint64_t folds = 0;
    double mean_response_ns = 0.0;
    double mean_queue = 0.0;
    double mean_service_ns = 0.0;
  };

  const Entry* find(store::ServerId server) const {
    if (!config_.sparse) return server < entries_.size() ? &entries_[server] : nullptr;
    return find_windowed(server);
  }
  const GroupAggregate* group_of(store::ServerId server) const {
    if (groups_.empty()) return nullptr;  // nothing evicted yet
    const std::size_t group = server / config_.sparse_group_size;
    return group < groups_.size() && groups_[group].folds != 0 ? &groups_[group] : nullptr;
  }
  /// Finds or creates the entry.
  Entry& touch(store::ServerId server);

  // --- windowed index ---
  /// touch() for the windowed layout: stamps the LRU tick, and a new
  /// entry may evict the LRU unpinned one and seeds from its group
  /// aggregate.
  Entry& touch_windowed(store::ServerId server);
  /// Home index slot of `server`. Requires a non-empty index.
  std::size_t home(store::ServerId server) const noexcept;
  /// Index slot holding `server`, or the empty slot ending its probe
  /// run. Requires a non-empty index; the load cap keeps a slot free.
  std::size_t probe(store::ServerId server) const noexcept;
  const Entry* find_windowed(store::ServerId server) const;
  /// The next LRU tick. When the 32-bit counter is spent, the live
  /// entries are renumbered 1..n by tick rank first: eviction compares
  /// ticks only, so ranks pick the same victims.
  std::uint32_t next_tick();
  void grow_index();
  void evict_one();
  /// Removes the entry at `position`: backward-shift deletes its index
  /// slot, then moves the last entry into the gap.
  void remove_entry(std::size_t position);

  SignalTableConfig config_;
  /// Server-indexed: position == ServerId. Windowed: the live entries,
  /// in no particular order (never iterated to produce output;
  /// eviction picks by unique tick).
  std::vector<Entry> entries_;
  /// Windowed open-addressed index: entry position + 1, 0 = empty.
  /// Capacity 0 or a power of two, at most 1/2 full.
  std::vector<std::uint32_t> index_;
  int shift_ = 64;
  std::uint32_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  /// Indexed by group id; empty until the first eviction.
  std::vector<GroupAggregate> groups_;
};

}  // namespace brb::ctrl
