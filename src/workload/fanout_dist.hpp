// Task fan-out distributions.
//
// The paper's SoundCloud trace has ~500 k tasks with a mean fan-out of
// 8.6 requests per task. The trace itself is proprietary, so we provide
// several fan-out families whose mean is set to 8.6 (see DESIGN.md,
// substitutions): a discretized log-normal (heavy right tail — the
// playlist-like shape the paper motivates), geometric and fixed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "util/rng.hpp"

namespace brb::workload {

/// One fan-out law, its kind fixed at construction.
class FanoutDistribution {
 public:
  /// Every task has exactly `n` requests.
  static FanoutDistribution fixed(std::uint32_t n);
  /// 1 + Geometric: support {1, 2, ...}, mean = 1 + (1-p)/p, built
  /// from the target mean (>= 1).
  static FanoutDistribution geometric(double mean);
  /// Discretized log-normal clamped to [1, cap]: round(exp(N(mu,
  /// sigma))), with mu solved (bisection at construction) so that the
  /// discretized, clamped mean hits `target_mean`.
  static FanoutDistribution lognormal_for_mean(double target_mean, double sigma = 0.8,
                                               std::uint32_t cap = 1024);

  /// Number of requests in one task; always >= 1.
  std::uint32_t sample(util::Rng& rng) const {
    if (kind_ == Kind::kFixed) return n_;
    if (kind_ == Kind::kGeometric) {
      if (p_ >= 1.0) return 1;
      double u = rng.uniform();
      if (u <= 0.0) u = 1e-300;
      const double g = std::floor(std::log(u) / std::log(1.0 - p_));
      const double value = 1.0 + std::max(0.0, g);
      return value > 4096.0 ? 4096u : static_cast<std::uint32_t>(value);
    }
    const double v = std::round(rng.lognormal(mu_, sigma_));
    if (v < 1.0) return 1;
    if (v > static_cast<double>(n_)) return n_;
    return static_cast<std::uint32_t>(v);
  }

  /// Mean fan-out (analytic or numerically derived at construction).
  double mean() const noexcept { return mean_; }
  double mu() const noexcept { return mu_; }
  double sigma() const noexcept { return sigma_; }

 private:
  enum class Kind { kFixed, kGeometric, kLogNormal };

  FanoutDistribution(Kind kind, std::uint32_t n, double mean)
      : kind_(kind), n_(n), mean_(mean) {}

  Kind kind_;
  std::uint32_t n_;  // kFixed: the fan-out; kLogNormal: the cap
  double mean_;
  double p_ = 0.0;  // kGeometric: success probability of the geometric
  double mu_ = 0.0;  // kLogNormal
  double sigma_ = 0.0;
};

/// Parses "fixed:N", "geometric:MEAN", "lognormal:MEAN[:SIGMA[:CAP]]".
std::unique_ptr<FanoutDistribution> make_fanout_distribution(const std::string& spec);

}  // namespace brb::workload
