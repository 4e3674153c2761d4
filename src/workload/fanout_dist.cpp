#include "workload/fanout_dist.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/flags.hpp"

namespace brb::workload {

FanoutDistribution FanoutDistribution::fixed(std::uint32_t n) {
  if (n == 0) throw std::invalid_argument("FanoutDistribution: n == 0");
  return FanoutDistribution(Kind::kFixed, n, static_cast<double>(n));
}

FanoutDistribution FanoutDistribution::geometric(double mean) {
  if (mean < 1.0) throw std::invalid_argument("FanoutDistribution: mean < 1");
  FanoutDistribution f(Kind::kGeometric, 0, mean);
  // X = 1 + G where G ~ Geometric(p) counts failures before success:
  // E[X] = 1 + (1-p)/p  =>  p = 1 / mean.
  f.p_ = 1.0 / mean;
  return f;
}

namespace {

constexpr int kPanels = 1 << 14;

/// Midpoint of quadrature panel i over z in [-8, 8].
double panel_z(int i) { return -8.0 + 16.0 * (static_cast<double>(i) + 0.5) / kPanels; }

/// The mu-independent half of the quadrature: each panel's Gaussian
/// weight, and their sum.
struct GaussianWeights {
  std::vector<double> w;
  double sum = 0.0;
};

GaussianWeights gaussian_weights() {
  GaussianWeights g;
  g.w.resize(kPanels);
  for (int i = 0; i < kPanels; ++i) {
    const double z = panel_z(i);
    g.w[i] = std::exp(-0.5 * z * z);
    g.sum += g.w[i];
  }
  return g;
}

/// E[round/clamp(exp(N(mu, sigma)))] by quadrature over the standard
/// normal. round(exp(t)) clamps to 1 for exp(t) < 1.5 and to cap for
/// exp(t) >= cap - 0.5; a panel clear of those bounds in t by a margin
/// far wider than exp's error takes its clamped value without the exp.
double discretized_mean(const GaussianWeights& g, double mu, double sigma, std::uint32_t cap) {
  constexpr double kMargin = 1e-9;
  const double top = static_cast<double>(cap);
  const double low_t = std::log(1.5) - kMargin;
  const double high_t = std::log(top - 0.5) + kMargin;
  double acc = 0.0;
  for (int i = 0; i < kPanels; ++i) {
    const double t = mu + sigma * panel_z(i);
    double v = 1.0;
    if (t > high_t) {
      v = top;
    } else if (t >= low_t) {
      v = std::clamp(std::round(std::exp(t)), 1.0, top);
    }
    acc += g.w[i] * v;
  }
  return acc / g.sum;
}

}  // namespace

FanoutDistribution FanoutDistribution::lognormal_for_mean(double target_mean, double sigma,
                                                          std::uint32_t cap) {
  if (target_mean < 1.0) throw std::invalid_argument("FanoutDistribution: target mean < 1");
  if (sigma <= 0.0) throw std::invalid_argument("FanoutDistribution: sigma <= 0");
  if (cap == 0) throw std::invalid_argument("FanoutDistribution: cap == 0");
  // Bisection on mu; the discretized mean is monotone in mu. A step
  // that leaves the bracket unchanged would repeat itself every
  // remaining step, so stopping there returns what 80 steps would. It
  // comes once lo and hi are adjacent doubles (mid rounds onto the end
  // that already sits on its side of the target) or equal (a target
  // the bracket cannot straddle, such as 1, moves only one end).
  const GaussianWeights weights = gaussian_weights();
  double lo = -5.0;
  double hi = 15.0;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double& end = discretized_mean(weights, mid, sigma, cap) < target_mean ? lo : hi;
    if (end == mid) break;
    end = mid;
  }
  const double mu = 0.5 * (lo + hi);
  FanoutDistribution f(Kind::kLogNormal, cap, discretized_mean(weights, mu, sigma, cap));
  f.mu_ = mu;
  f.sigma_ = sigma;
  return f;
}

std::unique_ptr<FanoutDistribution> make_fanout_distribution(const std::string& spec) {
  const util::ModelSpec parts(spec, "make_fanout_distribution");
  if (parts.name() == "fixed") {
    return std::make_unique<FanoutDistribution>(FanoutDistribution::fixed(parts.count_or(1, 8)));
  }
  if (parts.name() == "geometric") {
    return std::make_unique<FanoutDistribution>(
        FanoutDistribution::geometric(parts.number_or(1, 8.6)));
  }
  if (parts.name() == "lognormal") {
    return std::make_unique<FanoutDistribution>(FanoutDistribution::lognormal_for_mean(
        parts.number_or(1, 8.6), parts.number_or(2, 0.8), parts.count_or(3, 1024)));
  }
  throw std::invalid_argument("make_fanout_distribution: unknown kind: " + parts.name());
}

}  // namespace brb::workload
