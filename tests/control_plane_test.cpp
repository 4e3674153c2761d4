// Control-plane tests: the unified SignalTable, the replica/admission
// policy registries, the PolicyRuntime (per-tenant binding + mid-run
// switching), and the golden-artifact equivalence suite asserting that
// the runtime path reproduces the legacy wiring byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/sweep_plan.hpp"
#include "client/dispatch_gate.hpp"
#include "core/scenario.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "ctrl/policy_runtime.hpp"
#include "ctrl/replica_policy.hpp"
#include "ctrl/signal_table.hpp"
#include "sim/simulator.hpp"
#include "stats/artifact.hpp"
#include "util/ewma.hpp"
#include "util/rng.hpp"

namespace brb {

namespace ctrl {
/// Test access to a SignalTable's LRU counter, so a short history can
/// cross the 32-bit wrap.
class SignalTableTestPeer {
 public:
  static void set_tick(SignalTable& table, std::uint32_t tick) { table.tick_ = tick; }
  static std::uint32_t tick(const SignalTable& table) { return table.tick_; }
};
}  // namespace ctrl

namespace {

using sim::Duration;
using sim::Time;

store::ServerFeedback feedback(std::uint32_t queue, double rate) {
  store::ServerFeedback f;
  f.queue_length = queue;
  f.service_rate = rate;
  f.service_time = Duration::micros(300);
  return f;
}

/// One server's signals, as a policy sees them.
struct Signals {
  double ewma_response_ns = 0.0;
  double ewma_queue = 0.0;
  double ewma_service_time_ns = 0.0;
  bool seen = false;
  std::uint32_t outstanding = 0;
  std::int64_t pending_cost_ns = 0;
  double credit_balance = 0.0;
  std::int64_t last_feedback_ns = -1;
};

/// Reads one server's row through the single-signal getters policies use.
Signals row_of(const ctrl::SignalTable& table, store::ServerId server) {
  Signals s;
  s.ewma_response_ns = table.ewma_response_ns(server);
  s.ewma_queue = table.ewma_queue(server);
  s.ewma_service_time_ns = table.ewma_service_time_ns(server);
  s.seen = table.seen(server);
  s.outstanding = table.outstanding(server);
  s.pending_cost_ns = table.pending_cost(server).count_nanos();
  s.credit_balance = table.credit_balance(server);
  s.last_feedback_ns = table.last_feedback_ns(server);
  return s;
}

// ---------------------------------------------------------------------------
// SignalTable

TEST(SignalTable, TracksOutstandingAndPendingCost) {
  ctrl::SignalTable table;
  table.on_send(3, Duration::micros(500));
  table.on_send(3, Duration::micros(200));
  table.on_send(5, Duration::micros(100));
  EXPECT_EQ(table.outstanding(3), 2u);
  EXPECT_EQ(table.pending_cost(3), Duration::micros(700));
  EXPECT_EQ(table.outstanding(5), 1u);

  table.on_response(3, feedback(2, 14'000), Duration::micros(400), Duration::micros(500));
  EXPECT_EQ(table.outstanding(3), 1u);
  EXPECT_EQ(table.pending_cost(3), Duration::micros(200));

  // Duplicate releases clamp instead of underflowing.
  table.on_response(3, feedback(2, 14'000), Duration::micros(400), Duration::micros(500));
  table.on_response(3, feedback(2, 14'000), Duration::micros(400), Duration::micros(500));
  EXPECT_EQ(table.outstanding(3), 0u);
  EXPECT_EQ(table.pending_cost(3), Duration::zero());
}

TEST(SignalTable, EwmaSeedsThenBlends) {
  ctrl::SignalTable table(ctrl::SignalTableConfig{0.5});
  table.on_response(1, feedback(4, 10'000), Duration::micros(1000), Duration::zero());
  const Signals seeded = row_of(table, 1);
  EXPECT_TRUE(seeded.seen);
  EXPECT_DOUBLE_EQ(seeded.ewma_response_ns, 1'000'000.0);
  EXPECT_DOUBLE_EQ(seeded.ewma_queue, 4.0);
  EXPECT_DOUBLE_EQ(seeded.ewma_service_time_ns, 1e9 / 10'000.0);

  table.on_response(1, feedback(8, 10'000), Duration::micros(2000), Duration::zero());
  const Signals blended = row_of(table, 1);
  EXPECT_DOUBLE_EQ(blended.ewma_response_ns,
                   util::ewma_update(1'000'000.0, 0.5, 2'000'000.0));
  EXPECT_DOUBLE_EQ(blended.ewma_queue, util::ewma_update(4.0, 0.5, 8.0));
}

TEST(SignalTable, UnseenServersReadAsZero) {
  ctrl::SignalTable table;
  EXPECT_EQ(table.outstanding(42), 0u);
  EXPECT_EQ(table.pending_cost(42), Duration::zero());
  EXPECT_FALSE(row_of(table, 42).seen);
  EXPECT_EQ(table.size(), 0u);
}

TEST(SignalTable, AdmissionMirrors) {
  ctrl::SignalTable table;
  table.set_credit_balance(2, 7.5);
  EXPECT_DOUBLE_EQ(table.credit_balance(2), 7.5);
}

TEST(SignalTable, RejectsBadAlpha) {
  EXPECT_THROW(ctrl::SignalTable(ctrl::SignalTableConfig{0.0}), std::invalid_argument);
  EXPECT_THROW(ctrl::SignalTable(ctrl::SignalTableConfig{1.5}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SignalTable's windowed layout — the million-client store

ctrl::SignalTable windowed_table(double ewma_alpha, std::uint32_t cap, std::uint32_t group_size) {
  ctrl::SignalTableConfig config;
  config.ewma_alpha = ewma_alpha;
  config.sparse = true;
  config.sparse_cap = cap;
  config.sparse_group_size = group_size;
  return ctrl::SignalTable(config);
}

TEST(SparseSignalTable, BitIdenticalToDenseWhenCapCoversFleet) {
  // The differential the two layouts promise (see
  // ctrl/signal_table.hpp): with a cap above the fleet size the
  // windowed layout never evicts, and every observable must match the
  // server-indexed one bit for bit under an arbitrary interleaved op
  // history.
  ctrl::SignalTable dense;
  ctrl::SignalTableConfig sparse_config;
  sparse_config.sparse = true;
  sparse_config.sparse_cap = 64;  // fleet is 16 servers
  sparse_config.sparse_group_size = 4;
  ctrl::SignalTable sparse(sparse_config);

  util::Rng history(41);
  const std::uint32_t fleet = 16;
  for (int round = 0; round < 2000; ++round) {
    const store::ServerId server = history.uniform_u64_below(fleet);
    const Duration cost = Duration::micros(100 + 10 * (round % 11));
    switch (history.uniform_u64_below(4)) {
      case 0:
        dense.on_send(server, cost);
        sparse.on_send(server, cost);
        break;
      case 1: {
        const store::ServerFeedback fb =
            feedback(round % 7, 5'000.0 + 250.0 * static_cast<double>(round % 5));
        const Duration rtt = Duration::micros(200 + 30 * (round % 13));
        const Time at = Time::nanos(round * 1000);
        dense.on_response(server, fb, rtt, cost, at);
        sparse.on_response(server, fb, rtt, cost, at);
        break;
      }
      case 2:
        dense.on_cancel(server, cost);
        sparse.on_cancel(server, cost);
        break;
      default:
        dense.set_credit_balance(server, static_cast<double>(round % 9));
        sparse.set_credit_balance(server, static_cast<double>(round % 9));
        break;
    }
    const store::ServerId probe = history.uniform_u64_below(fleet + 2);  // also unseen
    const Signals d = row_of(dense, probe);
    const Signals s = row_of(sparse, probe);
    ASSERT_EQ(d.seen, s.seen) << "round " << round;
    ASSERT_EQ(d.outstanding, s.outstanding) << "round " << round;
    ASSERT_EQ(d.pending_cost_ns, s.pending_cost_ns) << "round " << round;
    ASSERT_EQ(d.ewma_response_ns, s.ewma_response_ns) << "round " << round;
    ASSERT_EQ(d.ewma_queue, s.ewma_queue) << "round " << round;
    ASSERT_EQ(d.ewma_service_time_ns, s.ewma_service_time_ns) << "round " << round;
    ASSERT_EQ(d.credit_balance, s.credit_balance) << "round " << round;
    ASSERT_EQ(d.last_feedback_ns, s.last_feedback_ns) << "round " << round;
  }
  ASSERT_TRUE(sparse.config().sparse);
  EXPECT_EQ(sparse.evictions(), 0u);
}

TEST(SparseSignalTable, EvictsLruIntoGroupAggregate) {
  // Cap 4, groups of 4: touching servers 0..7 in order evicts 0..3
  // (the LRU window keeps the last four), and their response EWMAs
  // fold into group 0's running means — the fallback answer for any
  // server of that group the window no longer tracks.
  ctrl::SignalTable table = windowed_table(/*ewma_alpha=*/0.5, /*cap=*/4, /*group_size=*/4);
  double folded_sum = 0.0;
  for (store::ServerId s = 0; s < 8; ++s) {
    const Duration cost = Duration::micros(100);
    table.on_send(s, cost);
    const Duration rtt = Duration::micros(100 * (s + 1));
    table.on_response(s, feedback(2, 10'000.0), rtt, cost,
                      Time::nanos(static_cast<std::int64_t>(s) * 100));
    if (s < 4) folded_sum += static_cast<double>(rtt.count_nanos());
  }
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.evictions(), 4u);

  // Live entries answer exactly.
  EXPECT_TRUE(table.seen(7));
  EXPECT_DOUBLE_EQ(table.ewma_response_ns(7), 800'000.0);

  // An evicted pair answers with its group aggregate: seen, EWMAs =
  // group means, counters and mirrors zero, freshness stale.
  const Signals evicted = row_of(table, 0);
  EXPECT_TRUE(evicted.seen);
  EXPECT_DOUBLE_EQ(evicted.ewma_response_ns, folded_sum / 4.0);
  EXPECT_EQ(evicted.outstanding, 0u);
  EXPECT_DOUBLE_EQ(evicted.credit_balance, 0.0);
  EXPECT_EQ(evicted.last_feedback_ns, -1);

  // A never-touched server in a group with no history stays zero.
  EXPECT_FALSE(row_of(table, 11).seen);
}

TEST(SparseSignalStore, ScenarioDecisionsIdenticalToDense) {
  // Satellite differential for --signal-store: below the auto-sparse
  // threshold an explicit sparse store (cap covering the fleet) must
  // reproduce the dense run's decision stream bit for bit — including
  // credits systems, which keep the exact dense credits path there.
  for (const core::SystemKind kind :
       {core::SystemKind::kC3, core::SystemKind::kFifoDirect,
        core::SystemKind::kEqualMaxCredits}) {
    core::ScenarioConfig config;
    config.system = kind;
    config.seed = 5;
    config.num_tasks = 3000;
    config.key_spec = "zipf:20000:0.9";
    config.signal_store = "dense";
    const core::RunResult dense = core::run_scenario(config);
    config.signal_store = "sparse:64";  // fleet is 9 servers
    const core::RunResult sparse = core::run_scenario(config);

    EXPECT_FALSE(dense.sparse_signal_store);
    EXPECT_TRUE(sparse.sparse_signal_store) << core::to_string(kind);
    EXPECT_EQ(sparse.signal_evictions, 0u) << core::to_string(kind);
    EXPECT_GT(sparse.signal_entries_live, 0u) << core::to_string(kind);

    EXPECT_EQ(dense.task_latency.percentile(50).count_nanos(),
              sparse.task_latency.percentile(50).count_nanos())
        << core::to_string(kind);
    EXPECT_EQ(dense.task_latency.percentile(99).count_nanos(),
              sparse.task_latency.percentile(99).count_nanos())
        << core::to_string(kind);
    EXPECT_EQ(dense.events_processed, sparse.events_processed) << core::to_string(kind);
    EXPECT_EQ(dense.network_messages, sparse.network_messages) << core::to_string(kind);
    EXPECT_EQ(dense.requests_completed, sparse.requests_completed) << core::to_string(kind);
    EXPECT_EQ(dense.credit_hold_events, sparse.credit_hold_events) << core::to_string(kind);
  }
}

TEST(SparseSignalStore, CubicRateRunsEvict) {
  // Only in-flight requests and credit balances pin a sparse entry, so
  // the LRU window applies to C3's rate-gated clients exactly as to an
  // ungated system.
  for (const core::SystemKind kind : {core::SystemKind::kC3, core::SystemKind::kFifoDirect}) {
    core::ScenarioConfig config;
    config.system = kind;
    config.num_tasks = 3000;
    config.signal_store = "sparse:4";  // fleet is 9 servers
    const core::RunResult run = core::run_scenario(config);
    EXPECT_TRUE(run.sparse_signal_store) << core::to_string(kind);
    EXPECT_GT(run.signal_evictions, 0u) << core::to_string(kind);
  }
}

TEST(SparseSignalTable, PinnedEntriesSurviveTheCap) {
  // In-flight accounting and gate mirrors pin an entry: rather than
  // corrupt balances, the soft cap grows past its limit.
  ctrl::SignalTable table = windowed_table(/*ewma_alpha=*/0.5, /*cap=*/2, /*group_size=*/4);
  table.on_send(0, Duration::micros(100));    // pinned: in-flight
  table.set_credit_balance(1, 3.0);           // pinned: gate mirror
  table.on_send(2, Duration::micros(100));    // pinned: in-flight
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.evictions(), 0u);
  EXPECT_EQ(table.outstanding(0), 1u);
  EXPECT_DOUBLE_EQ(table.credit_balance(1), 3.0);

  // Releasing the in-flight copy unpins: the next insert evicts it.
  table.on_cancel(0, Duration::micros(100));
  table.on_send(3, Duration::micros(100));
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.outstanding(0), 0u);
}

/// Brute-force reference for the differential fuzz below: the earlier
/// single-array store — slots holding the entries themselves, found by
/// linear probing, evicting by a scan over the slots, with a 64-bit LRU
/// counter that never wraps.
class SlotTableReference {
 public:
  SlotTableReference(double ewma_alpha, std::uint32_t entry_cap, std::uint32_t group_size)
      : ewma_alpha_(ewma_alpha), entry_cap_(entry_cap), group_size_(group_size), slots_(8) {}

  void on_send(store::ServerId server, Duration expected_cost) {
    Entry& e = touch(server);
    ++e.outstanding;
    e.pending_cost_ns += expected_cost.count_nanos();
  }
  void on_response(store::ServerId server, const store::ServerFeedback& feedback, Duration rtt,
                   Duration expected_cost, Time at) {
    Entry& e = touch(server);
    if (e.outstanding > 0) --e.outstanding;
    e.pending_cost_ns = std::max<std::int64_t>(0, e.pending_cost_ns - expected_cost.count_nanos());
    e.last_feedback_ns = at.count_nanos();
    const double rtt_ns = static_cast<double>(rtt.count_nanos());
    const double queue = static_cast<double>(feedback.queue_length);
    const double service_ns = feedback.service_rate > 0
                                  ? 1e9 / feedback.service_rate
                                  : static_cast<double>(feedback.service_time.count_nanos());
    if (e.seen == 0) {
      e.seen = 1;
      e.ewma_response_ns = rtt_ns;
      e.ewma_queue = queue;
      e.ewma_service_ns = service_ns;
    } else {
      e.ewma_response_ns = util::ewma_update(e.ewma_response_ns, ewma_alpha_, rtt_ns);
      e.ewma_queue = util::ewma_update(e.ewma_queue, ewma_alpha_, queue);
      e.ewma_service_ns = util::ewma_update(e.ewma_service_ns, ewma_alpha_, service_ns);
    }
  }
  void on_cancel(store::ServerId server, Duration expected_cost) {
    Entry& e = touch(server);
    if (e.outstanding > 0) --e.outstanding;
    e.pending_cost_ns = std::max<std::int64_t>(0, e.pending_cost_ns - expected_cost.count_nanos());
  }
  void set_credit_balance(store::ServerId server, double balance) {
    touch(server).credit_balance = balance;
  }

  Signals of(store::ServerId server) const {
    Signals s;
    if (const Entry* e = find(server)) {
      s.ewma_response_ns = e->ewma_response_ns;
      s.ewma_queue = e->ewma_queue;
      s.ewma_service_time_ns = e->ewma_service_ns;
      s.seen = e->seen != 0;
      s.outstanding = e->outstanding;
      s.pending_cost_ns = e->pending_cost_ns;
      s.credit_balance = e->credit_balance;
      s.last_feedback_ns = e->last_feedback_ns;
    } else if (const Group* g = group_of(server)) {
      s.seen = true;
      s.ewma_response_ns = g->mean_response_ns;
      s.ewma_queue = g->mean_queue;
      s.ewma_service_time_ns = g->mean_service_ns;
    }
    return s;
  }
  std::size_t live_entries() const { return live_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    store::ServerId server = 0;
    bool occupied = false;
    std::uint8_t seen = 0;
    std::uint32_t outstanding = 0;
    std::uint64_t lru_tick = 0;
    std::int64_t pending_cost_ns = 0;
    std::int64_t last_feedback_ns = -1;
    double ewma_response_ns = 0.0;
    double ewma_queue = 0.0;
    double ewma_service_ns = 0.0;
    double credit_balance = 0.0;
  };
  struct Group {
    std::uint64_t folds = 0;
    double mean_response_ns = 0.0;
    double mean_queue = 0.0;
    double mean_service_ns = 0.0;
  };

  std::size_t slot_of(store::ServerId server) const {
    const std::uint64_t h = static_cast<std::uint64_t>(server) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> 32) & (slots_.size() - 1);
  }
  /// Slot holding `server`, or the empty slot ending its probe run.
  std::size_t probe(store::ServerId server) const {
    std::size_t i = slot_of(server);
    while (slots_[i].occupied && slots_[i].server != server) i = (i + 1) & (slots_.size() - 1);
    return i;
  }
  const Entry* find(store::ServerId server) const {
    const Entry& e = slots_[probe(server)];
    return e.occupied ? &e : nullptr;
  }
  const Group* group_of(store::ServerId server) const {
    const std::size_t group = server / group_size_;
    return group < groups_.size() && groups_[group].folds != 0 ? &groups_[group] : nullptr;
  }
  void place(const Entry& e) { slots_[probe(e.server)] = e; }
  void evict_one() {
    std::size_t victim = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Entry& e = slots_[i];
      if (!e.occupied || e.outstanding > 0 || e.pending_cost_ns > 0 || e.credit_balance != 0.0) {
        continue;
      }
      if (victim == slots_.size() || e.lru_tick < slots_[victim].lru_tick) victim = i;
    }
    if (victim == slots_.size()) return;
    const Entry& e = slots_[victim];
    if (e.seen != 0) {
      const std::size_t group = e.server / group_size_;
      if (group >= groups_.size()) groups_.resize(group + 1);
      Group& agg = groups_[group];
      ++agg.folds;
      const double n = static_cast<double>(agg.folds);
      agg.mean_response_ns += (e.ewma_response_ns - agg.mean_response_ns) / n;
      agg.mean_queue += (e.ewma_queue - agg.mean_queue) / n;
      agg.mean_service_ns += (e.ewma_service_ns - agg.mean_service_ns) / n;
    }
    ++evictions_;
    // Remove and re-place the rest of the probe run (no tombstones).
    const std::size_t mask = slots_.size() - 1;
    slots_[victim].occupied = false;
    for (std::size_t next = (victim + 1) & mask; slots_[next].occupied; next = (next + 1) & mask) {
      const Entry moved = slots_[next];
      slots_[next].occupied = false;
      place(moved);
    }
    --live_;
  }
  Entry& touch(store::ServerId server) {
    if (Entry& e = slots_[probe(server)]; e.occupied) {
      e.lru_tick = ++tick_;
      return e;
    }
    if (live_ >= entry_cap_) evict_one();
    if ((live_ + 1) * 2 > slots_.size()) {
      std::vector<Entry> old(slots_.size() * 2);
      old.swap(slots_);
      for (const Entry& e : old) {
        if (e.occupied) place(e);
      }
    }
    Entry fresh;
    fresh.server = server;
    fresh.occupied = true;
    fresh.lru_tick = ++tick_;
    if (const Group* agg = group_of(server)) {
      fresh.seen = 1;
      fresh.ewma_response_ns = agg->mean_response_ns;
      fresh.ewma_queue = agg->mean_queue;
      fresh.ewma_service_ns = agg->mean_service_ns;
    }
    Entry& e = slots_[probe(server)];
    e = fresh;
    ++live_;
    return e;
  }

  double ewma_alpha_;
  std::uint32_t entry_cap_;
  std::uint32_t group_size_;
  std::vector<Entry> slots_;
  std::size_t live_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  std::vector<Group> groups_;
};

/// What one fuzz history exercised.
struct FuzzCoverage {
  std::size_t max_size = 0;
  std::uint64_t group_answers = 0;
};

/// Drives `table` and `ref` through the seeded random history
/// `history_seed` over a 40-server fleet, and after every operation
/// checks every reader for every server (tracked, folded into
/// a group, or never seen) against the reference, bit for bit.
/// `compare_size` also checks size() against the reference's live
/// entries; server-indexed, size() is the growth high-water mark.
void fuzz_against_reference(ctrl::SignalTable& table, SlotTableReference& ref,
                            std::uint64_t history_seed, bool compare_size,
                            FuzzCoverage& coverage) {
  constexpr std::uint32_t kFleet = 40;
  constexpr int kRounds = 3000;
  util::Rng rng(history_seed);
  for (int round = 0; round < kRounds; ++round) {
    const auto server = static_cast<store::ServerId>(rng.uniform_u64_below(kFleet));
    const Duration cost = Duration::micros(static_cast<std::int64_t>(50 + 10 * (round % 7)));
    switch (rng.uniform_u64_below(5)) {
      case 0:
      case 1:
        table.on_send(server, cost);
        ref.on_send(server, cost);
        break;
      case 2: {
        const store::ServerFeedback fb = feedback(static_cast<std::uint32_t>(round % 9),
                                                  round % 5 == 0 ? 0.0 : 4'000.0 + round);
        const Duration rtt = Duration::micros(static_cast<std::int64_t>(100 + round % 97));
        const Time at = Time::nanos(static_cast<std::int64_t>(round) * 1000);
        table.on_response(server, fb, rtt, cost, at);
        ref.on_response(server, fb, rtt, cost, at);
        break;
      }
      case 3:
        table.on_cancel(server, cost);
        ref.on_cancel(server, cost);
        break;
      default: {
        // Zero balances unpin the entry again.
        const double balance = round % 3 == 0 ? 0.0 : static_cast<double>(round % 11);
        table.set_credit_balance(server, balance);
        ref.set_credit_balance(server, balance);
        break;
      }
    }
    if (compare_size) {
      ASSERT_EQ(table.size(), ref.live_entries())
          << "history " << history_seed << " round " << round;
    }
    ASSERT_EQ(table.evictions(), ref.evictions())
        << "history " << history_seed << " round " << round;
    coverage.max_size = std::max(coverage.max_size, table.size());
    for (store::ServerId s = 0; s < kFleet + 4; ++s) {
      const Signals want = ref.of(s);
      const Signals got = row_of(table, s);
      const auto where = [&] {
        return ::testing::Message() << "history " << history_seed << " round " << round
                                    << " server " << s;
      };
      ASSERT_EQ(got.seen, want.seen) << where();
      ASSERT_EQ(got.outstanding, want.outstanding) << where();
      ASSERT_EQ(got.pending_cost_ns, want.pending_cost_ns) << where();
      ASSERT_EQ(got.ewma_response_ns, want.ewma_response_ns) << where();
      ASSERT_EQ(got.ewma_queue, want.ewma_queue) << where();
      ASSERT_EQ(got.ewma_service_time_ns, want.ewma_service_time_ns) << where();
      ASSERT_EQ(got.credit_balance, want.credit_balance) << where();
      ASSERT_EQ(got.last_feedback_ns, want.last_feedback_ns) << where();
      if (want.seen && want.last_feedback_ns < 0 && want.outstanding == 0) ++coverage.group_answers;
    }
  }
}

TEST(SparseSignalTableFuzz, MatchesSlotTableReferenceOnEveryRead) {
  // Seeded random histories over a 40-server fleet in groups of 4.
  // Cap 1 forces pinned growth past the cap on nearly every send, cap
  // 4 evicts constantly, cap 16 mixes both.
  for (const std::uint32_t cap : {1u, 4u, 16u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      ctrl::SignalTable table = windowed_table(/*ewma_alpha=*/0.3, cap, /*group_size=*/4);
      SlotTableReference ref(/*ewma_alpha=*/0.3, cap, /*group_size=*/4);
      FuzzCoverage coverage;
      fuzz_against_reference(table, ref, seed * 100 + cap, /*compare_size=*/true, coverage);
      if (HasFatalFailure()) return;
      // The history really exercised eviction, pinned growth and folds.
      EXPECT_GT(table.evictions(), 0u) << "cap " << cap;
      EXPECT_GT(coverage.max_size, static_cast<std::size_t>(cap)) << "cap " << cap;
      EXPECT_GT(coverage.group_answers, 0u) << "cap " << cap;
    }
  }
}

TEST(SparseSignalTable, LruTickWrapKeepsEvictionOrder) {
  // Servers 0, 1, 2 fill a cap-3 window and 0 is touched again, so the
  // LRU order (1, 2, 0) differs from the entry order (0, 1, 2). With
  // the 32-bit counter spent, touching 2 renumbers the ticks by rank;
  // inserting 3 must then evict 1, as the reference's 64-bit counter
  // does.
  ctrl::SignalTable table = windowed_table(/*ewma_alpha=*/0.5, /*cap=*/3, /*group_size=*/4);
  SlotTableReference ref(/*ewma_alpha=*/0.5, /*entry_cap=*/3, /*group_size=*/4);
  const auto respond = [&](store::ServerId s) {
    const Duration rtt = Duration::micros(100 * (s + 1));
    table.on_response(s, feedback(1, 10'000.0), rtt, Duration::zero(), Time::nanos(7));
    ref.on_response(s, feedback(1, 10'000.0), rtt, Duration::zero(), Time::nanos(7));
  };
  for (const store::ServerId s : {0u, 1u, 2u, 0u}) respond(s);
  ctrl::SignalTableTestPeer::set_tick(table, std::numeric_limits<std::uint32_t>::max());
  respond(2);
  respond(3);

  // Renumbered 1..3, then 2 took 4 and the new entry for 3 took 5.
  EXPECT_EQ(ctrl::SignalTableTestPeer::tick(table), 5u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.last_feedback_ns(1), -1);  // evicted into its group
  for (store::ServerId s = 0; s < 8; ++s) {
    const Signals want = ref.of(s);
    const Signals got = row_of(table, s);
    EXPECT_EQ(got.seen, want.seen) << "server " << s;
    EXPECT_EQ(got.ewma_response_ns, want.ewma_response_ns) << "server " << s;
    EXPECT_EQ(got.last_feedback_ns, want.last_feedback_ns) << "server " << s;
  }
}

TEST(SignalTableFuzz, ServerIndexedMatchesSlotTableReferenceOnEveryRead) {
  // The same nine histories against the server-indexed layout, with a
  // reference cap above the fleet so the reference never evicts either.
  for (const std::uint32_t cap : {1u, 4u, 16u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      ctrl::SignalTable table(ctrl::SignalTableConfig{/*ewma_alpha=*/0.3});
      SlotTableReference ref(/*ewma_alpha=*/0.3, /*entry_cap=*/64, /*group_size=*/4);
      FuzzCoverage coverage;
      fuzz_against_reference(table, ref, seed * 100 + cap, /*compare_size=*/false, coverage);
      if (HasFatalFailure()) return;
      EXPECT_EQ(table.evictions(), 0u);
      EXPECT_EQ(table.size(), 40u);  // high-water mark: every server was touched
    }
  }
}

// ---------------------------------------------------------------------------
// Replica-policy registry

TEST(ReplicaPolicyRegistry, CanonicalNamesAndAliases) {
  EXPECT_EQ(ctrl::canonical_policy_name("lor"), "least-outstanding");
  EXPECT_EQ(ctrl::canonical_policy_name("rr"), "round-robin");
  EXPECT_EQ(ctrl::canonical_policy_name("2c"), "two-choices");
  EXPECT_EQ(ctrl::canonical_policy_name("p2c"), "two-choices");
  EXPECT_EQ(ctrl::canonical_policy_name("lpc"), "least-pending-cost");
  EXPECT_EQ(ctrl::canonical_policy_name("c3"), "c3");
  EXPECT_EQ(ctrl::canonical_policy_name("c3-noderate"), "c3-noderate");
}

TEST(ReplicaPolicyRegistry, UnknownNameSuggests) {
  try {
    ctrl::canonical_policy_name("two-choice");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("two-choices"), std::string::npos);
  }
}

/// A single-mode dispatch policy over replica rule `name`.
std::unique_ptr<ctrl::DispatchPolicy> single_mode(const std::string& name, std::uint64_t seed) {
  return ctrl::make_dispatch_policy(name, {}, {}, false, Duration::millis(1), util::Rng(seed));
}

TEST(ReplicaPolicyRegistry, EveryCatalogNameConstructs) {
  for (const ctrl::ReplicaPolicyInfo& info : ctrl::replica_policy_catalog()) {
    const auto policy = single_mode(info.name, 1);
    ASSERT_NE(policy, nullptr) << info.name;
    EXPECT_EQ(policy->name(), info.name);
    for (const std::string& alias : info.aliases) {
      EXPECT_EQ(single_mode(alias, 1)->name(), info.name) << alias;
    }
  }
}

TEST(TwoChoicesPolicy, PrefersLessLoadedOfItsPair) {
  ctrl::SignalTable table;
  const auto policy = single_mode("two-choices", 7);
  // Server 0 is heavily loaded; with two replicas both are always
  // sampled, so the choice must always be server 1.
  for (int i = 0; i < 5; ++i) table.on_send(0, Duration::micros(100));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy->plan(table, {0, 1}, Duration::zero()).primary(), 1u);
  }
  // Singleton replica sets short-circuit.
  EXPECT_EQ(policy->plan(table, {0}, Duration::zero()).primary(), 0u);
}

TEST(TwoChoicesPolicy, SamplesBothReplicasOverTime) {
  ctrl::SignalTable table;  // all-equal loads: tie-break = lower id of the pair
  const auto policy = single_mode("two-choices", 11);
  int picked[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    ++picked[policy->plan(table, {0, 1, 2}, Duration::zero()).primary()];
  }
  // Lower ids win ties, but every server must appear as a pair minimum
  // sometimes; server 2 only wins when the pair is {2} alone — never —
  // so expect a strong but not total skew.
  EXPECT_GT(picked[0], picked[1]);
  EXPECT_EQ(picked[2], 0);
  EXPECT_GT(picked[1], 0);
}

// ---------------------------------------------------------------------------
// Admission registry

TEST(AdmissionRegistry, NamesAndErrors) {
  EXPECT_EQ(ctrl::canonical_admission_name("direct"), "direct");
  EXPECT_EQ(ctrl::canonical_admission_name("credits"), "credits");
  try {
    ctrl::canonical_admission_name("cubicrate");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cubic-rate"), std::string::npos);
  }
  // Each catalog name has its gate, and a token gate needs a fleet.
  sim::Simulator sim;
  const core::CreditsConfig credits;
  policy::CubicRateConfig rate;
  rate.initial_rate = 1000.0;
  using client::DispatchGate;
  EXPECT_EQ(DispatchGate().name(), "direct");
  EXPECT_EQ(DispatchGate(sim, 3, credits, {}).name(), "credits");
  EXPECT_EQ(DispatchGate(sim, 3, rate).name(), "cubic-rate");
  EXPECT_THROW(DispatchGate(sim, 0, credits, {}), std::invalid_argument);
  EXPECT_THROW(DispatchGate(sim, 0, rate), std::invalid_argument);
}

TEST(AdmissionRegistry, CubicRateLeavesSignalsUntouched) {
  // The rate gate keeps its tokens and caps to itself: even with a
  // table attached it writes no signal-table entry, so it pins nothing
  // in a sparse store.
  sim::Simulator sim;
  ctrl::SignalTable signals;
  policy::CubicRateConfig rate;
  rate.initial_rate = 1000.0;
  client::DispatchGate gate(sim, 3, rate);
  gate.attach_signals(&signals);
  gate.set_transmit([](client::OutboundRequest&) {});
  client::OutboundRequest out;
  out.server = 2;
  gate.offer(out);
  gate.on_response(1, store::ServerFeedback{});
  EXPECT_EQ(gate.slots(), 2u);
  EXPECT_EQ(signals.size(), 0u);
}

TEST(PolicySwitchScenario, EndpointsFollowRuntimeResolution) {
  // Time-unsorted schedule with no t0 entry: the start endpoint is the
  // substrate's profile default and the end endpoint is the
  // time-sorted last epoch — exactly what the runtime executes.
  const util::Flags flags;
  core::ScenarioConfig base;
  base.policy_switch_spec = "2s:c3-noderate,1s:lor";
  const cli::SweepPlan plan = cli::build_sweep_plan("policy-switch", base, {1}, flags);
  ASSERT_EQ(plan.cases.size(), 3u);
  EXPECT_EQ(plan.cases[0].label, "static/least-outstanding");
  EXPECT_EQ(plan.cases[1].label, "static/c3-noderate");
  EXPECT_EQ(plan.cases[2].label, "switch/2s:c3-noderate,1s:lor");
}

TEST(PolicyScenarios, RejectConflictingPolicyFlags) {
  // Both scenarios overwrite a base policy binding in every case, so
  // flag validation rejects it before anything is planned.
  for (const char* scenario : {"--scenario=policy-shootout", "--scenario=policy-switch"}) {
    const char* argv[] = {"brbsim", scenario, "--policy=random"};
    EXPECT_THROW(cli::validate_flags(util::Flags(3, argv)), std::invalid_argument) << scenario;
  }
  const util::Flags flags;
  core::ScenarioConfig tenant_epoch;
  tenant_epoch.policy_switch_spec = "1s:ghost:c3";
  EXPECT_THROW(cli::build_sweep_plan("policy-switch", tenant_epoch, {1}, flags),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Spec parsing

TEST(PolicySpecParsing, SingleAndPerTenant) {
  const auto single = ctrl::parse_policy_spec("c3");
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].tenant, "");
  EXPECT_EQ(single[0].policy, "c3");

  const auto mixed = ctrl::parse_policy_spec("lpc,tenantA:c3,tenantB:lor");
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_EQ(mixed[0].policy, "least-pending-cost");
  EXPECT_EQ(mixed[1].tenant, "tenantA");
  EXPECT_EQ(mixed[1].policy, "c3");
  EXPECT_EQ(mixed[2].tenant, "tenantB");
  EXPECT_EQ(mixed[2].policy, "least-outstanding");

  EXPECT_TRUE(ctrl::parse_policy_spec("").empty());
  EXPECT_THROW(ctrl::parse_policy_spec("tenantA:"), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_policy_spec("nope"), std::invalid_argument);
}

TEST(PolicySwitchParsing, TimesAndBindings) {
  const auto switches = ctrl::parse_policy_switch_spec("t0:random,30s:c3,500ms:tenantA:lor");
  ASSERT_EQ(switches.size(), 3u);
  EXPECT_EQ(switches[0].at, Time::zero());
  EXPECT_EQ(switches[0].policy, "random");
  EXPECT_EQ(switches[1].at, Time::seconds(30.0));
  EXPECT_EQ(switches[1].policy, "c3");
  EXPECT_EQ(switches[2].at, Time::millis(500.0));
  EXPECT_EQ(switches[2].tenant, "tenantA");
  EXPECT_EQ(switches[2].policy, "least-outstanding");

  EXPECT_THROW(ctrl::parse_policy_switch_spec("random"), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_policy_switch_spec("30:random"), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_policy_switch_spec("-3s:random"), std::invalid_argument);
  EXPECT_THROW(ctrl::parse_policy_switch_spec("xs:random"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PolicyRuntime

TEST(PolicyRuntime, ResolvesInitialBindings) {
  sim::Simulator sim;
  ctrl::PolicyRuntime::Config config;
  config.default_policy = "lpc";
  config.policy_spec = "tenantB:lor";
  config.switch_spec = "t0:tenantA:c3";
  config.tenants = {"tenantA", "tenantB"};
  ctrl::PolicyRuntime runtime(sim, config);
  EXPECT_EQ(runtime.initial_policy(store::TenantId{0}), "c3");
  EXPECT_EQ(runtime.initial_policy(store::TenantId{1}), "least-outstanding");
  EXPECT_EQ(runtime.num_epochs(), 0u);
}

TEST(PolicyRuntime, RejectsUnknownTenant) {
  sim::Simulator sim;
  ctrl::PolicyRuntime::Config config;
  config.policy_spec = "ghost:c3";
  config.tenants = {"tenantA"};
  EXPECT_THROW(ctrl::PolicyRuntime(sim, config), std::invalid_argument);

  ctrl::PolicyRuntime::Config no_tenants;
  no_tenants.policy_spec = "ghost:c3";
  EXPECT_THROW(ctrl::PolicyRuntime(sim, no_tenants), std::invalid_argument);
}

TEST(PolicyRuntime, SwitchesAtEpochAndKeepsSignals) {
  sim::Simulator sim;
  ctrl::PolicyRuntime::Config config;
  config.default_policy = "round-robin";
  config.switch_spec = "2s:least-outstanding";
  ctrl::PolicyRuntime runtime(sim, config);
  ASSERT_EQ(runtime.num_epochs(), 1u);

  ctrl::DispatchEndpoint selector = runtime.make_endpoint(store::TenantId{0}, util::Rng(3));
  EXPECT_EQ(selector.name(), "round-robin");
  selector.on_send(7, Duration::micros(100));
  runtime.start({&selector});

  sim.schedule_at(Time::seconds(3.0), [&sim] { sim.stop(); });
  sim.run();

  EXPECT_EQ(selector.name(), "least-outstanding");
  EXPECT_EQ(runtime.switches_applied(), 1u);
  // The accumulated signals survived the swap.
  EXPECT_EQ(selector.signals().outstanding(7), 1u);
}

TEST(PolicyRuntime, TenantScopedSwitchTouchesOnlyThatTenant) {
  sim::Simulator sim;
  ctrl::PolicyRuntime::Config config;
  config.default_policy = "round-robin";
  config.switch_spec = "1s:batch:random";
  config.tenants = {"interactive", "batch"};
  ctrl::PolicyRuntime runtime(sim, config);
  ctrl::DispatchEndpoint fg = runtime.make_endpoint(store::TenantId{0}, util::Rng(1));
  ctrl::DispatchEndpoint bg = runtime.make_endpoint(store::TenantId{1}, util::Rng(2));
  runtime.start({&fg, &bg});
  sim.schedule_at(Time::seconds(2.0), [&sim] { sim.stop(); });
  sim.run();
  EXPECT_EQ(fg.name(), "round-robin");
  EXPECT_EQ(bg.name(), "random");
  EXPECT_EQ(runtime.switches_applied(), 1u);
}

// ---------------------------------------------------------------------------
// Golden-artifact equivalence: the legacy wiring (profile defaults,
// selector_override) and the explicit policy runtime path must produce
// byte-identical artifacts modulo the config block naming the binding
// and the wall-clock "timing" subtree.

core::ScenarioConfig small_config(core::SystemKind system) {
  core::ScenarioConfig config;
  config.system = system;
  config.num_tasks = 1500;
  config.seed = 1;
  return config;
}

/// The deterministic payload of an artifact: the "cases" subtree
/// serialized without indentation. "timing" sits outside it; the
/// config block and the per-case "policy"/"policy_switch"/"admission"
/// descriptors legitimately *name* the explicit binding, so they are
/// stripped — everything measured must match byte-for-byte.
std::string cases_fingerprint(stats::Json doc) {
  stats::Json& cases = doc["cases"];
  for (std::size_t i = 0; i < cases.size(); ++i) {
    cases.at(i).erase("policy");
    cases.at(i).erase("policy_switch");
    cases.at(i).erase("admission");
  }
  return doc.at("cases").dump_string(-1);
}

std::string artifact_csv_string(const stats::Json& doc) {
  std::ostringstream os;
  stats::artifact_csv(os, doc);
  return os.str();
}

/// The serial artifact of one hand-made case over `seeds`.
stats::Json run_case(const core::ScenarioConfig& config, const std::vector<std::uint64_t>& seeds,
                     const std::string& label) {
  return cli::execute_shard(cli::plan_cases("golden", config, {{label, config}}, seeds), nullptr,
                            1);
}

TEST(GoldenEquivalence, ExplicitPolicyMatchesProfileDefault) {
  // kEqualMaxCredits's profile default is least-pending-cost wrapped
  // credit-aware; binding the same policy explicitly through the
  // runtime must not move a byte.
  const std::vector<std::uint64_t> seeds = {1, 2};
  const core::ScenarioConfig legacy = small_config(core::SystemKind::kEqualMaxCredits);
  core::ScenarioConfig bound = legacy;
  bound.policy_spec = "least-pending-cost";

  const stats::Json legacy_doc = run_case(legacy, seeds, "equalmax-credits");
  const stats::Json bound_doc = run_case(bound, seeds, "equalmax-credits");
  EXPECT_EQ(cases_fingerprint(legacy_doc), cases_fingerprint(bound_doc));
  EXPECT_EQ(artifact_csv_string(legacy_doc), artifact_csv_string(bound_doc));
}

TEST(GoldenEquivalence, PaperSystemsMatchUnderExplicitBinding) {
  // Each paper system against its profile selector bound explicitly.
  const std::vector<std::uint64_t> seeds = {1};
  const struct {
    core::SystemKind system;
    const char* selector;
  } cases[] = {
      {core::SystemKind::kC3, "c3"},
      {core::SystemKind::kEqualMaxModel, "first"},
      {core::SystemKind::kUnifIncrCredits, "least-pending-cost"},
  };
  for (const auto& entry : cases) {
    const core::ScenarioConfig legacy = small_config(entry.system);
    core::ScenarioConfig bound = legacy;
    bound.policy_spec = entry.selector;
    EXPECT_EQ(cases_fingerprint(run_case(legacy, seeds, to_string(entry.system))),
              cases_fingerprint(run_case(bound, seeds, to_string(entry.system))))
        << to_string(entry.system);
  }
}

TEST(GoldenEquivalence, MultiTenantPerTenantBindingMatchesDefault) {
  const std::vector<std::uint64_t> seeds = {1};
  core::ScenarioConfig legacy = small_config(core::SystemKind::kEqualMaxCredits);
  legacy.tenant_spec =
      "interactive,share=0.7,fanout=lognormal:2.5:1.0:64;"
      "batch,share=0.3,fanout=lognormal:24:1.5:512,write=0.1";
  core::ScenarioConfig bound = legacy;
  bound.policy_spec = "interactive:least-pending-cost,batch:least-pending-cost";

  EXPECT_EQ(cases_fingerprint(run_case(legacy, seeds, "multi-tenant")),
            cases_fingerprint(run_case(bound, seeds, "multi-tenant")));
}

TEST(GoldenEquivalence, LargeClusterScaledDownMatches) {
  const std::vector<std::uint64_t> seeds = {1};
  core::ScenarioConfig legacy = small_config(core::SystemKind::kEqualMaxCredits);
  legacy.cluster.num_servers = 20;
  legacy.num_clients = 50;
  core::ScenarioConfig bound = legacy;
  bound.policy_spec = "lpc";  // alias resolves to the profile default

  EXPECT_EQ(cases_fingerprint(run_case(legacy, seeds, "large")),
            cases_fingerprint(run_case(bound, seeds, "large")));
}

TEST(GoldenEquivalence, SwitchBeyondEndOfRunIsInert) {
  const std::vector<std::uint64_t> seeds = {1};
  const core::ScenarioConfig legacy = small_config(core::SystemKind::kFifoDirect);
  core::ScenarioConfig switched = legacy;
  switched.policy_switch_spec = "t0:least-outstanding,3600s:random";

  EXPECT_EQ(cases_fingerprint(run_case(legacy, seeds, "fifo-direct")),
            cases_fingerprint(run_case(switched, seeds, "fifo-direct")));
}

TEST(ControlPlane, MidRunSwitchCompletesAndCounts) {
  core::ScenarioConfig config = small_config(core::SystemKind::kFifoDirect);
  config.num_tasks = 4000;
  // The default workload runs ~0.4s at this size; switch at 100ms.
  config.policy_switch_spec = "t0:random,100ms:least-outstanding";
  const core::RunResult result = core::run_scenario(config);
  EXPECT_EQ(result.tasks_completed, config.num_tasks);
  EXPECT_EQ(result.policy_switches, config.num_clients);
  EXPECT_EQ(result.gate_held_requests, 0u);
}

TEST(ControlPlane, AdmissionOverrideMatchesEquivalentSystem) {
  // equalmax-credits with --admission=direct runs the same control
  // plane as equalmax-direct: identical latency distributions.
  core::ScenarioConfig credits_off = small_config(core::SystemKind::kEqualMaxCredits);
  credits_off.admission_override = "direct";
  core::ScenarioConfig direct = small_config(core::SystemKind::kEqualMaxDirect);

  const core::RunResult a = core::run_scenario(credits_off);
  const core::RunResult b = core::run_scenario(direct);
  EXPECT_EQ(a.task_latency.percentile(99), b.task_latency.percentile(99));
  EXPECT_EQ(a.task_latency.mean(), b.task_latency.mean());
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.congestion_signals, 0u);  // no credits machinery wired
}

}  // namespace
}  // namespace brb
