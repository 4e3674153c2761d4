#include "policy/c3.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace brb::policy {

void CubicRateConfig::validate() const {
  if (initial_rate <= 0.0 || max_rate < initial_rate) {
    throw std::invalid_argument("cubic rate: bad rate bounds");
  }
  if (beta <= 0.0 || beta >= 1.0) throw std::invalid_argument("cubic rate: beta must be in (0,1)");
  if (scaling <= 0.0) throw std::invalid_argument("cubic rate: scaling <= 0");
  if (burst < 1.0) throw std::invalid_argument("cubic rate: burst < 1");
  if (min_rate <= 0.0 || min_rate > initial_rate) {
    throw std::invalid_argument("cubic rate: bad min_rate");
  }
  if (window <= sim::Duration::zero()) {
    throw std::invalid_argument("cubic rate: non-positive window");
  }
  if (congestion_tolerance < 1.0) throw std::invalid_argument("cubic rate: tolerance < 1");
}

CubicRate CubicRate::open(const CubicRateConfig& config, sim::Time now) {
  CubicRate opened;
  opened.rate = config.initial_rate;
  opened.rate_max = config.initial_rate;
  opened.epoch_start = now;
  opened.window_start = now;
  return opened;
}

void CubicRate::close_window(const CubicRateConfig& config, sim::Time now) {
  const double window_sec = (now - window_start).as_seconds();
  const bool enough_data = sent_in_window >= config.min_window_samples && window_sec > 0;
  const bool congested =
      enough_data && static_cast<double>(sent_in_window) >
                         config.congestion_tolerance * static_cast<double>(received_in_window);
  if (congested) {
    // Multiplicative decrease; remember the pre-decrease rate (W_max).
    rate_max = rate;
    rate = std::max(config.min_rate, rate * (1.0 - config.beta));
    epoch_start = now;
  } else {
    // Cubic growth: rate(t) = C (t - K)^3 + W_max with
    // K = cbrt(W_max * beta / C), so rate(epoch_start) equals the
    // post-decrease rate and recovery accelerates toward W_max.
    const double t = (now - epoch_start).as_seconds();
    const double k = std::cbrt(rate_max * config.beta / config.scaling);
    const double target = config.scaling * std::pow(t - k, 3.0) + rate_max;
    rate = std::clamp(target, config.min_rate, config.max_rate);
  }
  window_start = now;
  sent_in_window = 0;
  received_in_window = 0;
}

void CubicRate::on_response(const CubicRateConfig& config, sim::Time now) {
  ++received_in_window;
  if (now - window_start >= config.window) close_window(config, now);
}

}  // namespace brb::policy
