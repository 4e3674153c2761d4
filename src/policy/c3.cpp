#include "policy/c3.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace brb::policy {

CubicRateController::CubicRateController(Config config) : config_(config) {
  if (config_.initial_rate <= 0.0 || config_.max_rate < config_.initial_rate) {
    throw std::invalid_argument("CubicRateController: bad rate bounds");
  }
  if (config_.beta <= 0.0 || config_.beta >= 1.0) {
    throw std::invalid_argument("CubicRateController: beta must be in (0,1)");
  }
  if (config_.scaling <= 0.0) throw std::invalid_argument("CubicRateController: scaling <= 0");
  if (config_.burst < 1.0) throw std::invalid_argument("CubicRateController: burst < 1");
  if (config_.min_rate <= 0.0 || config_.min_rate > config_.initial_rate) {
    throw std::invalid_argument("CubicRateController: bad min_rate");
  }
  if (config_.window <= sim::Duration::zero()) {
    throw std::invalid_argument("CubicRateController: non-positive window");
  }
  if (config_.congestion_tolerance < 1.0) {
    throw std::invalid_argument("CubicRateController: tolerance < 1");
  }
}

CubicRateController::ServerRate& CubicRateController::slot(store::ServerId server,
                                                           sim::Time now) {
  if (server >= rates_.size()) rates_.resize(server + 1);
  ServerRate& s = rates_[server];
  if (!s.initialized) {
    s.rate = config_.initial_rate;
    s.tokens = config_.burst;
    s.last_refill = now;
    s.rate_max = config_.initial_rate;
    s.epoch_start = now;
    s.window_start = now;
    s.initialized = true;
  }
  return s;
}

void CubicRateController::refill(ServerRate& s, sim::Time now) const {
  const double elapsed_sec = (now - s.last_refill).as_seconds();
  if (elapsed_sec > 0) {
    s.tokens = std::min(config_.burst, s.tokens + elapsed_sec * s.rate);
    s.last_refill = now;
  }
}

bool CubicRateController::try_acquire(store::ServerId server, sim::Time now) {
  ServerRate& s = slot(server, now);
  refill(s, now);
  if (s.tokens >= 1.0) {
    s.tokens -= 1.0;
    ++s.sent_in_window;
    return true;
  }
  return false;
}

sim::Time CubicRateController::earliest_send(store::ServerId server, sim::Time now) {
  ServerRate& s = slot(server, now);
  refill(s, now);
  if (s.tokens >= 1.0) return now;
  const double deficit = 1.0 - s.tokens;
  const double wait_sec = deficit / s.rate;
  return now + std::max(sim::Duration::nanos(1), sim::Duration::seconds(wait_sec));
}

void CubicRateController::close_window(ServerRate& s, sim::Time now) {
  const double window_sec = (now - s.window_start).as_seconds();
  const bool enough_data = s.sent_in_window >= config_.min_window_samples && window_sec > 0;
  const bool congested =
      enough_data && static_cast<double>(s.sent_in_window) >
                         config_.congestion_tolerance * static_cast<double>(s.received_in_window);
  if (congested) {
    // Multiplicative decrease; remember the pre-decrease rate (W_max).
    s.rate_max = s.rate;
    s.rate = std::max(config_.min_rate, s.rate * (1.0 - config_.beta));
    s.epoch_start = now;
    ++decreases_;
  } else {
    // Cubic growth: rate(t) = C (t - K)^3 + W_max with
    // K = cbrt(W_max * beta / C), so rate(epoch_start) equals the
    // post-decrease rate and recovery accelerates toward W_max.
    const double t = (now - s.epoch_start).as_seconds();
    const double k = std::cbrt(s.rate_max * config_.beta / config_.scaling);
    const double target = config_.scaling * std::pow(t - k, 3.0) + s.rate_max;
    s.rate = std::clamp(target, config_.min_rate, config_.max_rate);
  }
  s.window_start = now;
  s.sent_in_window = 0;
  s.received_in_window = 0;
}

void CubicRateController::on_response(store::ServerId server, const store::ServerFeedback&,
                                      sim::Time now) {
  ServerRate& s = slot(server, now);
  ++s.received_in_window;
  if (now - s.window_start >= config_.window) close_window(s, now);
}

double CubicRateController::rate_of(store::ServerId server) const {
  if (server >= rates_.size() || !rates_[server].initialized) return config_.initial_rate;
  return rates_[server].rate;
}

}  // namespace brb::policy
