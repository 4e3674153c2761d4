// The unified per-(client,server) signal table — layer 1 of the
// control plane.
//
// The paper's feedback loop (per-replica signals driving replica
// selection and admission) used to be smeared across four components,
// each scraping its own copy of the observables: the C3 selector kept
// EWMAs, the least-outstanding/least-pending selectors kept counters,
// and the credit gate kept balances.
// The SignalTable centralizes all of them in one flat dense-ID store
// per client, updated from a single feedback path (the client's
// on-send / on-response hooks plus the credit gate's balance mirror).
// Policies (ctrl/replica_policy.hpp) become pure readers — which is
// what makes them swappable mid-run: a policy switch binds a new
// decision procedure to the *same* accumulated signals.
//
// Layout: structure-of-arrays. Each signal lives in its own dense
// column indexed by ServerId, and response feedback is *staged* into a
// batch rather than applied immediately: `on_response()` only appends
// the raw sample, and the accumulated batch is folded in column-wise
// (all response EWMAs, then all queue EWMAs, ...) at the next read or
// send. Bursts of responses between selections — the common shape
// under gated admission — thus update each column in one contiguous
// sweep instead of striding across per-pair structs. The flush applies
// samples in arrival order per column with the exact original
// arithmetic (seed-first-sample, then `util::ewma_update`), so every
// observable value is bit-identical to immediate application.
// At fleet scale the dense columns are the scaling blocker: every
// client paying O(num_servers) memory is O(clients x servers) across
// the run. `SignalTableConfig::sparse` switches the backing store to a
// SparseSignalTable (ctrl/sparse_signal_table.hpp): touched pairs
// only, LRU-windowed to a per-client cap, per-server-group aggregates
// as the fallback for evicted/never-touched pairs. Every reader below
// reads through unchanged, so selection policies cannot tell the
// stores apart — and with a cap above the fleet size the sparse store
// is bit-identical to the dense one (nothing ever evicts).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "store/types.hpp"
#include "util/ewma.hpp"

namespace brb::ctrl {

class SparseSignalTable;

struct SignalTableConfig {
  /// Weight of the newest sample in the response-path EWMAs (0..1].
  /// This is C3's `ewma_alpha`; the table smooths identically for
  /// every policy so estimates survive a mid-run policy switch.
  double ewma_alpha = 0.5;
  /// Back the table with the sparse windowed store instead of dense
  /// columns (million-client scale). Default off: dense remains the
  /// byte-identical paper path.
  bool sparse = false;
  /// Sparse only: soft cap on tracked (client,server) pairs. Entries
  /// holding live state (in-flight, credit balances) never evict, so the
  /// table may exceed the cap rather than corrupt accounting.
  std::uint32_t sparse_cap = 128;
  /// Sparse only: servers per aggregation group (the eviction
  /// fallback granularity).
  std::uint32_t sparse_group_size = 32;
};

/// One client's view of every server, indexed densely by ServerId.
/// Grows on first contact; unseen servers read as the neutral zero
/// state (exactly the behavior the per-selector tables had).
class SignalTable {
 public:
  /// Materialized snapshot of one server's signals (row view over the
  /// columns; taken at call time, does not track later updates).
  struct Signals {
    // --- response-path estimates (seeded by the first response) ---
    /// EWMA of measured response time (request RTT), nanoseconds.
    double ewma_response_ns = 0.0;
    /// EWMA of the server-reported queue length.
    double ewma_queue = 0.0;
    /// EWMA of the server-reported per-request service time, ns.
    double ewma_service_time_ns = 0.0;
    /// At least one response has been observed from this server.
    bool seen = false;

    // --- in-flight accounting (updated at offer / response) ---
    /// Requests bound for this server that have not yet responded.
    std::uint32_t outstanding = 0;
    /// Forecast work in flight (summed expected costs), nanoseconds.
    std::int64_t pending_cost_ns = 0;

    // --- admission-side state (mirrored by the credit gate) ---
    /// Current credit balance (credits systems; 0 otherwise).
    double credit_balance = 0.0;

    // --- raw last feedback (un-smoothed) ---
    std::uint32_t last_queue_length = 0;
    double last_service_rate = 0.0;
    /// Simulated time of the last response fold (-1: never) — the
    /// freshness signal hedge suppression reads.
    std::int64_t last_feedback_ns = -1;
  };

  explicit SignalTable(SignalTableConfig config = {});
  ~SignalTable();
  SignalTable(SignalTable&&) noexcept;
  SignalTable& operator=(SignalTable&&) noexcept;

  /// A request was bound to `server` (counted at *offer* time, before
  /// any gate hold, so throttled replicas keep accumulating believed
  /// load — the invariant the old selector-side accounting relied on).
  /// Flushes any staged feedback first: sends and responses touch the
  /// same in-flight columns and must apply in call order.
  void on_send(store::ServerId server, sim::Duration expected_cost);

  /// A response arrived: stages the sample into the feedback batch.
  /// The in-flight release and EWMA folds happen column-wise at the
  /// next flush point (any read, or the next on_send). `at` stamps the
  /// feedback's arrival on the simulated clock (freshness signal);
  /// callers without a clock may omit it — the column then reads as
  /// "stale forever", which disables freshness-gated behaviors.
  void on_response(store::ServerId server, const store::ServerFeedback& feedback,
                   sim::Duration rtt, sim::Duration expected_cost,
                   sim::Time at = sim::Time::zero());

  /// A request bound to `server` was cancelled before service (hedge
  /// loser dropped at the gate or rejected at dequeue): releases the
  /// in-flight accounting its on_send charged. No EWMA fold and no
  /// response count — cancelled copies produce no feedback.
  void on_cancel(store::ServerId server, sim::Duration expected_cost);

  /// Admission mirror (called by the credit gate whenever a balance
  /// changes, so selection policies can read balances without reaching
  /// into gate internals). The column is never staged, so mirror writes
  /// need no flush and stay correctly ordered relative to batched
  /// feedback.
  void set_credit_balance(store::ServerId server, double balance);

  /// Row snapshot; servers beyond the table read as the zero state.
  Signals of(store::ServerId server) const;

  // --- column reads (each flushes staged feedback first; the sparse
  // branch is out of line so the dense hot path stays inline) ---
  std::uint32_t outstanding(store::ServerId server) const {
    if (sparse_) return sparse_outstanding(server);
    flush();
    return server < outstanding_.size() ? outstanding_[server] : 0;
  }
  sim::Duration pending_cost(store::ServerId server) const {
    if (sparse_) return sparse_pending_cost(server);
    flush();
    return sim::Duration::nanos(server < pending_cost_ns_.size() ? pending_cost_ns_[server] : 0);
  }
  bool seen(store::ServerId server) const {
    if (sparse_) return sparse_seen(server);
    flush();
    return server < seen_.size() && seen_[server] != 0;
  }
  double ewma_response_ns(store::ServerId server) const {
    if (sparse_) return sparse_ewma_response_ns(server);
    flush();
    return server < ewma_response_ns_.size() ? ewma_response_ns_[server] : 0.0;
  }
  double ewma_queue(store::ServerId server) const {
    if (sparse_) return sparse_ewma_queue(server);
    flush();
    return server < ewma_queue_.size() ? ewma_queue_[server] : 0.0;
  }
  double ewma_service_time_ns(store::ServerId server) const {
    if (sparse_) return sparse_ewma_service_time_ns(server);
    flush();
    return server < ewma_service_ns_.size() ? ewma_service_ns_[server] : 0.0;
  }
  /// Simulated nanoseconds of the last response fold; -1 when this
  /// server has never produced feedback (or the pair was evicted).
  std::int64_t last_feedback_ns(store::ServerId server) const {
    if (sparse_) return sparse_last_feedback_ns(server);
    flush();
    return server < last_feedback_ns_.size() ? last_feedback_ns_[server] : -1;
  }

  // --- mirror column (never staged; no flush required) ---
  double credit_balance(store::ServerId server) const {
    if (sparse_) return sparse_credit_balance(server);
    return server < credit_balance_.size() ? credit_balance_[server] : 0.0;
  }

  /// Dense: servers contacted so far (table growth high-water mark).
  /// Sparse: live (windowed, non-evicted) entries.
  std::size_t size() const noexcept;
  /// Sparse backing store, nullptr in dense mode (observability).
  const SparseSignalTable* sparse_store() const noexcept { return sparse_.get(); }
  const SignalTableConfig& config() const noexcept { return config_; }

  /// Cumulative update counts (observability + bench).
  std::uint64_t sends_recorded() const noexcept { return sends_; }
  std::uint64_t responses_recorded() const noexcept { return responses_; }
  std::uint64_t cancels_recorded() const noexcept { return cancels_; }

  /// Staged-but-unapplied feedback samples (observability + bench).
  std::size_t staged_feedback() const noexcept { return staged_.size(); }

  /// Applies the staged feedback batch column-wise. Reads do this
  /// lazily; exposed for benches that want to time the fold itself.
  void flush() const {
    if (!staged_.empty()) flush_staged();
  }

 private:
  /// One raw response sample, as staged by on_response(). The expected
  /// service time is precomputed here so the flush's EWMA pass is a
  /// pure column sweep.
  struct StagedFeedback {
    store::ServerId server = 0;
    std::uint32_t queue_length = 0;
    double rtt_ns = 0.0;
    double service_ns = 0.0;
    double service_rate = 0.0;
    std::int64_t expected_cost_ns = 0;
    std::int64_t at_ns = 0;
  };

  void grow(store::ServerId server) const;
  void flush_staged() const;

  // Out-of-line sparse delegates (SparseSignalTable is incomplete
  // here; the dense readers above must stay header-inline).
  std::uint32_t sparse_outstanding(store::ServerId server) const;
  sim::Duration sparse_pending_cost(store::ServerId server) const;
  bool sparse_seen(store::ServerId server) const;
  double sparse_ewma_response_ns(store::ServerId server) const;
  double sparse_ewma_queue(store::ServerId server) const;
  double sparse_ewma_service_time_ns(store::ServerId server) const;
  double sparse_credit_balance(store::ServerId server) const;
  std::int64_t sparse_last_feedback_ns(store::ServerId server) const;

  SignalTableConfig config_;

  // Columns (mutable: flushing from const readers is not an observable
  // state change). All share columns_size_.
  mutable std::size_t columns_size_ = 0;
  mutable std::vector<double> ewma_response_ns_;
  mutable std::vector<double> ewma_queue_;
  mutable std::vector<double> ewma_service_ns_;
  mutable std::vector<std::uint8_t> seen_;
  mutable std::vector<std::uint32_t> outstanding_;
  mutable std::vector<std::int64_t> pending_cost_ns_;
  mutable std::vector<double> credit_balance_;
  mutable std::vector<std::uint32_t> last_queue_length_;
  mutable std::vector<double> last_service_rate_;
  mutable std::vector<std::int64_t> last_feedback_ns_;

  mutable std::vector<StagedFeedback> staged_;
  mutable std::vector<std::uint8_t> seed_scratch_;  // per-entry first-contact flags

  /// Non-null iff config_.sparse: the windowed backing store every
  /// call above delegates to.
  std::unique_ptr<SparseSignalTable> sparse_;

  std::uint64_t sends_ = 0;
  std::uint64_t responses_ = 0;
  std::uint64_t cancels_ = 0;
};

}  // namespace brb::ctrl
