#include "ctrl/signal_table.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/ewma.hpp"

namespace brb::ctrl {

namespace {
constexpr std::size_t kInitialIndexSlots = 8;  // power of two
constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ULL;
}  // namespace

SignalTable::SignalTable(SignalTableConfig config) : config_(config) {
  util::validate_ewma_alpha(config_.ewma_alpha, "SignalTable");
  if (config_.sparse && config_.sparse_cap == 0) {
    throw std::invalid_argument("SignalTable: entry cap must be > 0");
  }
  if (config_.sparse && config_.sparse_group_size == 0) {
    throw std::invalid_argument("SignalTable: group size must be > 0");
  }
}

void SignalTable::on_send(store::ServerId server, sim::Duration expected_cost) {
  Entry& e = touch(server);
  ++e.outstanding;
  e.pending_cost_ns += expected_cost.count_nanos();
}

void SignalTable::on_response(store::ServerId server, const store::ServerFeedback& feedback,
                              sim::Duration rtt, sim::Duration expected_cost, sim::Time at) {
  Entry& e = touch(server);
  // The underflow guards match the old per-selector counters: a
  // duplicate response must not underflow either account.
  if (e.outstanding > 0) --e.outstanding;
  e.pending_cost_ns -= expected_cost.count_nanos();
  if (e.pending_cost_ns < 0) e.pending_cost_ns = 0;
  e.last_feedback_ns = at.count_nanos();

  const double rtt_ns = static_cast<double>(rtt.count_nanos());
  const double queue = static_cast<double>(feedback.queue_length);
  // Server-wide rate mu (req/s) -> expected per-request service time.
  const double service_ns = feedback.service_rate > 0
                                ? 1e9 / feedback.service_rate
                                : static_cast<double>(feedback.service_time.count_nanos());
  const double a = config_.ewma_alpha;
  if (e.seen == 0) {
    e.seen = 1;
    e.ewma_response_ns = rtt_ns;
    e.ewma_queue = queue;
    e.ewma_service_ns = service_ns;
  } else {
    e.ewma_response_ns = util::ewma_update(e.ewma_response_ns, a, rtt_ns);
    e.ewma_queue = util::ewma_update(e.ewma_queue, a, queue);
    e.ewma_service_ns = util::ewma_update(e.ewma_service_ns, a, service_ns);
  }
}

void SignalTable::on_cancel(store::ServerId server, sim::Duration expected_cost) {
  Entry& e = touch(server);
  // Release the accounting the copy's on_send charged, with the same
  // underflow guards as the response-side release. No EWMA fold: a
  // cancelled copy produced no feedback, and folding one in would
  // corrupt C3's estimates with phantom samples.
  if (e.outstanding > 0) --e.outstanding;
  e.pending_cost_ns -= expected_cost.count_nanos();
  if (e.pending_cost_ns < 0) e.pending_cost_ns = 0;
}

void SignalTable::set_credit_balance(store::ServerId server, double balance) {
  touch(server).credit_balance = balance;
}

SignalTable::Entry& SignalTable::touch(store::ServerId server) {
  if (config_.sparse) return touch_windowed(server);
  if (server >= entries_.size()) entries_.resize(static_cast<std::size_t>(server) + 1);
  return entries_[server];
}

SignalTable::Entry& SignalTable::touch_windowed(store::ServerId server) {
  if (!index_.empty()) {
    const std::uint32_t position_plus1 = index_[probe(server)];
    if (position_plus1 != 0) {
      const std::uint32_t tick = next_tick();
      Entry& e = entries_[position_plus1 - 1];
      e.lru_tick = tick;
      return e;
    }
  }

  if (entries_.size() >= config_.sparse_cap) evict_one();
  if ((entries_.size() + 1) * 2 > index_.size()) grow_index();
  // Probe after eviction and growth: both may have moved the hole.
  index_[probe(server)] = static_cast<std::uint32_t>(entries_.size() + 1);

  const std::uint32_t tick = next_tick();
  Entry& e = entries_.emplace_back();
  e.server = server;
  e.lru_tick = tick;
  if (const GroupAggregate* agg = group_of(server)) {
    // Seed from the group prior: an evicted-then-recontacted server
    // resumes from its group's collective memory, and the first real
    // response blends into (rather than replaces) it.
    e.seen = 1;
    e.ewma_response_ns = agg->mean_response_ns;
    e.ewma_queue = agg->mean_queue;
    e.ewma_service_ns = agg->mean_service_ns;
  }
  return e;
}

std::size_t SignalTable::home(store::ServerId server) const noexcept {
  // Multiply-shift on the dense id: the top bits of a Fibonacci hash.
  return static_cast<std::size_t>((static_cast<std::uint64_t>(server) * kHashMultiplier) >>
                                  shift_);
}

std::size_t SignalTable::probe(store::ServerId server) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = home(server);
  while (index_[slot] != 0 && entries_[index_[slot] - 1].server != server) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

const SignalTable::Entry* SignalTable::find_windowed(store::ServerId server) const {
  if (index_.empty()) return nullptr;
  const std::uint32_t position_plus1 = index_[probe(server)];
  return position_plus1 != 0 ? &entries_[position_plus1 - 1] : nullptr;
}

std::uint32_t SignalTable::next_tick() {
  if (tick_ == std::numeric_limits<std::uint32_t>::max()) {
    std::vector<std::uint32_t> by_tick(entries_.size());
    std::iota(by_tick.begin(), by_tick.end(), 0u);
    std::sort(by_tick.begin(), by_tick.end(), [this](std::uint32_t a, std::uint32_t b) {
      return entries_[a].lru_tick < entries_[b].lru_tick;
    });
    tick_ = 0;
    for (const std::uint32_t position : by_tick) entries_[position].lru_tick = ++tick_;
  }
  return ++tick_;
}

void SignalTable::grow_index() {
  index_.assign(std::max(kInitialIndexSlots, index_.size() * 2), 0);
  shift_ = 64 - std::countr_zero(index_.size());
  for (std::size_t position = 0; position < entries_.size(); ++position) {
    index_[probe(entries_[position].server)] = static_cast<std::uint32_t>(position + 1);
  }
}

void SignalTable::remove_entry(std::size_t position) {
  // Backward-shift deletion: walk the probe run after the hole and pull
  // back every slot whose home does not lie cyclically in (hole, slot],
  // so linear probing never needs tombstones.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = probe(entries_[position].server);
  for (std::size_t next = (hole + 1) & mask; index_[next] != 0; next = (next + 1) & mask) {
    const std::size_t want = home(entries_[index_[next] - 1].server);
    if (((next - want) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = 0;

  // Keep the entries dense: the last entry takes the gap.
  const std::size_t last = entries_.size() - 1;
  if (position != last) {
    index_[probe(entries_[last].server)] = static_cast<std::uint32_t>(position + 1);
    entries_[position] = entries_[last];
  }
  entries_.pop_back();
}

void SignalTable::evict_one() {
  // LRU among unpinned entries. Ticks are unique per entry, so the
  // victim is the same whatever order the entries sit in. An entry is
  // pinned while it holds state that must not silently vanish:
  // in-flight accounting (a response or cancel will come back for it)
  // or a credit balance (the gate's authoritative view for selection).
  std::size_t victim = entries_.size();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.outstanding > 0 || e.pending_cost_ns > 0 || e.credit_balance != 0.0) continue;
    if (victim == entries_.size() || e.lru_tick < entries_[victim].lru_tick) victim = i;
  }
  if (victim == entries_.size()) return;  // everything pinned: soft cap grows

  const Entry& e = entries_[victim];
  if (e.seen != 0) {
    // Fold the response-path EWMAs into the group's running means; the
    // group becomes the fallback answer for this (and any untracked)
    // server in it.
    const std::size_t group = e.server / config_.sparse_group_size;
    if (group >= groups_.size()) groups_.resize(group + 1);
    GroupAggregate& agg = groups_[group];
    ++agg.folds;
    const double n = static_cast<double>(agg.folds);
    agg.mean_response_ns += (e.ewma_response_ns - agg.mean_response_ns) / n;
    agg.mean_queue += (e.ewma_queue - agg.mean_queue) / n;
    agg.mean_service_ns += (e.ewma_service_ns - agg.mean_service_ns) / n;
  }
  ++evictions_;
  remove_entry(victim);
}

}  // namespace brb::ctrl
