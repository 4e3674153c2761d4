#include "ctrl/signal_table.hpp"

#include "ctrl/sparse_signal_table.hpp"

namespace brb::ctrl {

SignalTable::SignalTable(SignalTableConfig config) : config_(config) {
  util::validate_ewma_alpha(config_.ewma_alpha, "SignalTable");
  if (config_.sparse) {
    sparse_ = std::make_unique<SparseSignalTable>(config_.ewma_alpha, config_.sparse_cap,
                                                  config_.sparse_group_size);
  }
}

SignalTable::~SignalTable() = default;
SignalTable::SignalTable(SignalTable&&) noexcept = default;
SignalTable& SignalTable::operator=(SignalTable&&) noexcept = default;

void SignalTable::grow(store::ServerId server) const {
  if (server < columns_size_) return;
  const std::size_t n = server + 1;
  ewma_response_ns_.resize(n, 0.0);
  ewma_queue_.resize(n, 0.0);
  ewma_service_ns_.resize(n, 0.0);
  seen_.resize(n, 0);
  outstanding_.resize(n, 0);
  pending_cost_ns_.resize(n, 0);
  credit_balance_.resize(n, 0.0);
  last_queue_length_.resize(n, 0);
  last_service_rate_.resize(n, 0.0);
  last_feedback_ns_.resize(n, -1);
  columns_size_ = n;
}

SignalTable::Signals SignalTable::of(store::ServerId server) const {
  if (sparse_) return sparse_->of(server);
  flush();
  if (server >= columns_size_) return Signals{};
  Signals s;
  s.ewma_response_ns = ewma_response_ns_[server];
  s.ewma_queue = ewma_queue_[server];
  s.ewma_service_time_ns = ewma_service_ns_[server];
  s.seen = seen_[server] != 0;
  s.outstanding = outstanding_[server];
  s.pending_cost_ns = pending_cost_ns_[server];
  s.credit_balance = credit_balance_[server];
  s.last_queue_length = last_queue_length_[server];
  s.last_service_rate = last_service_rate_[server];
  s.last_feedback_ns = last_feedback_ns_[server];
  return s;
}

void SignalTable::on_send(store::ServerId server, sim::Duration expected_cost) {
  ++sends_;
  if (sparse_) {
    sparse_->on_send(server, expected_cost);
    return;
  }
  flush();  // sends and staged responses share the in-flight columns
  grow(server);
  ++outstanding_[server];
  pending_cost_ns_[server] += expected_cost.count_nanos();
}

void SignalTable::on_response(store::ServerId server, const store::ServerFeedback& feedback,
                              sim::Duration rtt, sim::Duration expected_cost, sim::Time at) {
  ++responses_;
  if (sparse_) {
    // Immediate application: per-server arrival order is preserved and
    // the arithmetic matches the dense flush, so the resulting values
    // are bit-identical — there are no columns to sweep in the sparse
    // entry layout, hence nothing to gain by staging.
    sparse_->on_response(server, feedback, rtt, expected_cost, at);
    return;
  }
  grow(server);
  StagedFeedback e;
  e.server = server;
  e.queue_length = feedback.queue_length;
  e.rtt_ns = static_cast<double>(rtt.count_nanos());
  // Server-wide rate mu (req/s) -> expected per-request service time.
  e.service_ns = feedback.service_rate > 0
                     ? 1e9 / feedback.service_rate
                     : static_cast<double>(feedback.service_time.count_nanos());
  e.service_rate = feedback.service_rate;
  e.expected_cost_ns = expected_cost.count_nanos();
  e.at_ns = at.count_nanos();
  staged_.push_back(e);
}

void SignalTable::on_cancel(store::ServerId server, sim::Duration expected_cost) {
  ++cancels_;
  if (sparse_) {
    sparse_->on_cancel(server, expected_cost);
    return;
  }
  flush();  // cancels and staged responses share the in-flight columns
  grow(server);
  // Release the accounting the copy's on_send charged, with the same
  // underflow guards as the response-side release. No EWMA fold and no
  // response count: a cancelled copy produced no feedback, and folding
  // one in would corrupt C3's estimates with phantom samples.
  if (outstanding_[server] > 0) --outstanding_[server];
  pending_cost_ns_[server] -= expected_cost.count_nanos();
  if (pending_cost_ns_[server] < 0) pending_cost_ns_[server] = 0;
}

void SignalTable::flush_staged() const {
  // In-flight release + raw last-feedback columns. Applied in arrival
  // order: the underflow guards match the old per-selector counters (a
  // duplicate response must not underflow either account), and "last"
  // means last-arrived.
  for (const StagedFeedback& e : staged_) {
    if (outstanding_[e.server] > 0) --outstanding_[e.server];
    pending_cost_ns_[e.server] -= e.expected_cost_ns;
    if (pending_cost_ns_[e.server] < 0) pending_cost_ns_[e.server] = 0;
    last_queue_length_[e.server] = e.queue_length;
    last_service_rate_[e.server] = e.service_rate;
    last_feedback_ns_[e.server] = e.at_ns;
  }

  // First-contact prepass: entry i seeds its server's EWMAs iff no
  // response preceded it (in the table or earlier in this batch). The
  // flags let each EWMA pass below stay a branch-light column sweep
  // while reproducing seed-then-blend bit-exactly.
  seed_scratch_.resize(staged_.size());
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const std::uint32_t s = staged_[i].server;
    seed_scratch_[i] = seen_[s] == 0 ? 1 : 0;
    seen_[s] = 1;
  }

  const double a = config_.ewma_alpha;
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const StagedFeedback& e = staged_[i];
    ewma_response_ns_[e.server] =
        seed_scratch_[i] ? e.rtt_ns : util::ewma_update(ewma_response_ns_[e.server], a, e.rtt_ns);
  }
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const StagedFeedback& e = staged_[i];
    const double q = static_cast<double>(e.queue_length);
    ewma_queue_[e.server] =
        seed_scratch_[i] ? q : util::ewma_update(ewma_queue_[e.server], a, q);
  }
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const StagedFeedback& e = staged_[i];
    ewma_service_ns_[e.server] =
        seed_scratch_[i] ? e.service_ns
                         : util::ewma_update(ewma_service_ns_[e.server], a, e.service_ns);
  }
  staged_.clear();
}

void SignalTable::set_credit_balance(store::ServerId server, double balance) {
  if (sparse_) {
    sparse_->set_credit_balance(server, balance);
    return;
  }
  grow(server);
  credit_balance_[server] = balance;
}

std::size_t SignalTable::size() const noexcept {
  return sparse_ ? sparse_->live_entries() : columns_size_;
}

std::uint32_t SignalTable::sparse_outstanding(store::ServerId server) const {
  return sparse_->outstanding(server);
}
sim::Duration SignalTable::sparse_pending_cost(store::ServerId server) const {
  return sparse_->pending_cost(server);
}
bool SignalTable::sparse_seen(store::ServerId server) const { return sparse_->seen(server); }
double SignalTable::sparse_ewma_response_ns(store::ServerId server) const {
  return sparse_->ewma_response_ns(server);
}
double SignalTable::sparse_ewma_queue(store::ServerId server) const {
  return sparse_->ewma_queue(server);
}
double SignalTable::sparse_ewma_service_time_ns(store::ServerId server) const {
  return sparse_->ewma_service_time_ns(server);
}
double SignalTable::sparse_credit_balance(store::ServerId server) const {
  return sparse_->credit_balance(server);
}
std::int64_t SignalTable::sparse_last_feedback_ns(store::ServerId server) const {
  return sparse_->last_feedback_ns(server);
}

}  // namespace brb::ctrl
