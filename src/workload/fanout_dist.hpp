// Task fan-out distributions.
//
// The paper's SoundCloud trace has ~500 k tasks with a mean fan-out of
// 8.6 requests per task. The trace itself is proprietary, so we provide
// several fan-out families whose mean is set to 8.6 (see DESIGN.md,
// substitutions): a discretized log-normal (heavy right tail — the
// playlist-like shape the paper motivates), geometric and fixed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace brb::workload {

class FanoutDistribution {
 public:
  virtual ~FanoutDistribution() = default;

  /// Number of requests in one task; always >= 1.
  virtual std::uint32_t sample(util::Rng& rng) const = 0;

  /// Mean fan-out (analytic or numerically derived at construction).
  virtual double mean() const = 0;
};

/// Every task has exactly `n` requests.
class FixedFanout final : public FanoutDistribution {
 public:
  explicit FixedFanout(std::uint32_t n);

  std::uint32_t sample(util::Rng&) const override { return n_; }
  double mean() const override { return static_cast<double>(n_); }

 private:
  std::uint32_t n_;
};

/// 1 + Geometric: support {1, 2, ...}, mean = 1 + (1-p)/p.
class GeometricFanout final : public FanoutDistribution {
 public:
  /// Constructs with the target mean (>= 1).
  explicit GeometricFanout(double mean);

  std::uint32_t sample(util::Rng& rng) const override {
    if (p_ >= 1.0) return 1;
    double u = rng.uniform();
    if (u <= 0.0) u = 1e-300;
    const double g = std::floor(std::log(u) / std::log(1.0 - p_));
    const double value = 1.0 + std::max(0.0, g);
    return value > 4096.0 ? 4096u : static_cast<std::uint32_t>(value);
  }
  double mean() const override { return mean_; }

 private:
  double mean_;
  double p_;  // success probability of the underlying geometric
};

/// Discretized log-normal clamped to [1, cap]: round(exp(N(mu, sigma))).
/// `for_mean` solves for mu so the discretized, clamped mean hits the
/// target (bisection at construction).
class LogNormalFanout final : public FanoutDistribution {
 public:
  LogNormalFanout(double mu, double sigma, std::uint32_t cap);

  /// Factory calibrated so that mean() == target_mean.
  static LogNormalFanout for_mean(double target_mean, double sigma = 0.8,
                                  std::uint32_t cap = 1024);

  std::uint32_t sample(util::Rng& rng) const override {
    const double v = std::round(rng.lognormal(mu_, sigma_));
    if (v < 1.0) return 1;
    if (v > static_cast<double>(cap_)) return cap_;
    return static_cast<std::uint32_t>(v);
  }
  double mean() const override { return mean_; }

  double mu() const noexcept { return mu_; }
  double sigma() const noexcept { return sigma_; }

 private:
  double mu_;
  double sigma_;
  std::uint32_t cap_;
  double mean_;
};

/// Parses "fixed:N", "geometric:MEAN", "lognormal:MEAN[:SIGMA[:CAP]]".
std::unique_ptr<FanoutDistribution> make_fanout_distribution(const std::string& spec);

}  // namespace brb::workload
