#include "core/credits.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/ewma.hpp"

namespace brb::core {

namespace {
// First-touch demand pairs whose EWMA decays below this rate (req/s)
// are dropped from the controller's books. With the default alpha of
// 0.5 a 1 req/s pair is forgotten after ~30 idle reports (~3 s).
constexpr double kDemandRetentionFloor = 1e-9;
}  // namespace

// ---------------------------------------------------------------------------
// CreditsController

CreditsController::CreditsController(sim::Simulator& sim, std::uint32_t num_clients,
                                     std::vector<double> capacities, CreditsConfig config,
                                     const std::vector<store::ServerId>& pinned_servers)
    : sim_(&sim),
      num_clients_(num_clients),
      capacities_(std::move(capacities)),
      config_(config),
      target_(sim.attach(*this)) {
  if (num_clients_ == 0) throw std::invalid_argument("CreditsController: no clients");
  if (capacities_.empty()) throw std::invalid_argument("CreditsController: no servers");
  for (const double c : capacities_) {
    if (c <= 0.0) throw std::invalid_argument("CreditsController: non-positive capacity");
  }
  std::vector<Demand> pinned;
  pinned.reserve(pinned_servers.size());
  for (const store::ServerId s : pinned_servers) {
    if (s >= capacities_.size() || (!pinned.empty() && s <= pinned.back().server)) {
      throw std::invalid_argument(
          "CreditsController: pinned servers must ascend below the fleet size");
    }
    pinned.push_back({s, true, 0.0});
  }
  demand_.assign(num_clients_, pinned);
  capacity_factor_.assign(capacities_.size(), 1.0);
  congested_this_interval_.assign(capacities_.size(), false);
  server_total_demand_.resize(capacities_.size());
  server_on_books_.resize(capacities_.size());
  server_floor_each_.resize(capacities_.size());
  server_prop_budget_.resize(capacities_.size());
}

void CreditsController::start() {
  running_ = true;
  sim_->post_after(config_.adapt_interval, {sim::EventKind::kAdaptTick, target_, 0});
}

void CreditsController::on_demand_report(store::ClientId client, const CreditList& rates) {
  if (client >= num_clients_) throw std::out_of_range("CreditsController: bad client id");
  ++stats_.demand_reports;
  const double a = config_.demand_ewma_alpha;
  std::vector<Demand>& books = demand_[client];
  // Merge-walk the (ascending) report against the (ascending) books
  // into scratch: reported servers blend toward the new rate,
  // unreported entries decay toward zero, and first-touch entries
  // below the retention floor are forgotten. A throw leaves the books
  // untouched.
  merge_scratch_.clear();
  std::size_t i = 0;
  std::size_t r = 0;
  while (i < books.size() || r < rates.size()) {
    Demand entry{};
    if (r == rates.size() || (i < books.size() && books[i].server < rates[r].first)) {
      entry = books[i++];
      entry.ewma = util::ewma_update(entry.ewma, a, 0.0);
    } else if (i == books.size() || rates[r].first < books[i].server) {
      if (rates[r].first >= capacities_.size()) {
        throw std::out_of_range("CreditsController: bad server id in demand report");
      }
      entry = {rates[r].first, false, util::ewma_update(0.0, a, rates[r].second)};
      ++r;
    } else {
      entry = books[i++];
      entry.ewma = util::ewma_update(entry.ewma, a, rates[r++].second);
    }
    if (entry.pinned || entry.ewma >= kDemandRetentionFloor) merge_scratch_.push_back(entry);
  }
  books.swap(merge_scratch_);
}

void CreditsController::on_congestion_signal(store::ServerId server, std::uint32_t) {
  if (server >= capacities_.size()) throw std::out_of_range("CreditsController: bad server id");
  ++stats_.congestion_signals;
  congested_this_interval_[server] = true;
}

void CreditsController::adapt_tick() {
  if (!running_) return;
  ++stats_.adaptations;

  // Update congestion factors: multiplicative decrease on signal,
  // additive recovery otherwise.
  for (std::size_t s = 0; s < capacities_.size(); ++s) {
    if (congested_this_interval_[s]) {
      capacity_factor_[s] =
          std::max(config_.min_capacity_factor, capacity_factor_[s] * config_.congestion_backoff);
      congested_this_interval_[s] = false;
    } else {
      capacity_factor_[s] = std::min(1.0, capacity_factor_[s] + config_.recovery_step);
    }
  }

  // Per-server demand totals and on-books counts. Each total is summed
  // in client order, so grants do not depend on report arrival order.
  std::fill(server_total_demand_.begin(), server_total_demand_.end(), 0.0);
  std::fill(server_on_books_.begin(), server_on_books_.end(), 0u);
  for (const std::vector<Demand>& books : demand_) {
    for (const Demand& entry : books) {
      server_total_demand_[entry.server] += std::max(0.0, entry.ewma);
      ++server_on_books_[entry.server];
    }
  }
  // Per server: a small equal floor split among the clients on its
  // books (so bursty newcomers are not stalled for a whole interval),
  // the rest proportional to demand.
  const double interval_sec = config_.adapt_interval.as_seconds();
  for (std::size_t s = 0; s < capacities_.size(); ++s) {
    const double budget = capacities_[s] * capacity_factor_[s] * interval_sec;
    const double floor_budget = budget * config_.min_share_fraction;
    server_floor_each_[s] =
        server_on_books_[s] > 0 ? floor_budget / static_cast<double>(server_on_books_[s]) : 0.0;
    server_prop_budget_[s] = budget - floor_budget;
  }

  // One grant per client with a pair on the books. With no demand on
  // record for a server (reachable only through pinned pairs), its
  // proportional pool is split equally.
  if (send_grant_) {
    for (std::uint32_t c = 0; c < num_clients_; ++c) {
      const std::vector<Demand>& books = demand_[c];
      if (books.empty()) continue;
      grant_scratch_.clear();
      for (const Demand& entry : books) {
        const store::ServerId s = entry.server;
        const double total = server_total_demand_[s];
        const double share =
            total <= 0.0 ? server_prop_budget_[s] / static_cast<double>(server_on_books_[s])
                         : std::max(0.0, entry.ewma) / total * server_prop_budget_[s];
        grant_scratch_.emplace_back(s, server_floor_each_[s] + share);
      }
      send_grant_(c, grant_scratch_);
      ++stats_.grants_sent;
    }
  }
  sim_->post_after(config_.adapt_interval, {sim::EventKind::kAdaptTick, target_, 0});
}

double CreditsController::capacity_factor(store::ServerId server) const {
  if (server >= capacity_factor_.size()) {
    throw std::out_of_range("CreditsController: bad server id");
  }
  return capacity_factor_[server];
}

// ---------------------------------------------------------------------------
// CongestionMonitor

CongestionMonitor::CongestionMonitor(sim::Simulator& sim,
                                     std::vector<server::BackendServer*> servers,
                                     CreditsConfig config, SignalFn signal)
    : sim_(&sim),
      servers_(std::move(servers)),
      config_(config),
      signal_(std::move(signal)),
      target_(sim.attach(*this)) {
  if (servers_.empty()) throw std::invalid_argument("CongestionMonitor: no servers");
  if (!signal_) throw std::invalid_argument("CongestionMonitor: null signal fn");
  thresholds_.reserve(servers_.size());
  for (const server::BackendServer* server : servers_) {
    thresholds_.push_back(config_.congestion_queue_factor *
                          static_cast<double>(server->config().cores));
  }
}

void CongestionMonitor::start() {
  running_ = true;
  sim_->post_after(config_.monitor_interval, {sim::EventKind::kMonitorTick, target_, 0});
}

void CongestionMonitor::tick() {
  if (!running_) return;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const std::uint32_t queue = servers_[i]->queue_length();
    if (queue > thresholds_[i]) signal_(servers_[i]->config().id, queue);
  }
  sim_->post_after(config_.monitor_interval, {sim::EventKind::kMonitorTick, target_, 0});
}

}  // namespace brb::core
