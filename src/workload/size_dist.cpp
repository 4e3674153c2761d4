#include "workload/size_dist.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/flags.hpp"

namespace brb::workload {

namespace {

/// Mean of min(max(X,1),cap) estimated by quadrature over the quantile
/// function: E[g(X)] = integral_0^1 g(Q(u)) du. 64k panels of midpoint
/// rule keep the error far below a byte for these smooth quantiles.
template <typename QuantileFn>
double truncated_mean(QuantileFn q, std::uint32_t cap) {
  constexpr int kPanels = 1 << 16;
  double acc = 0.0;
  for (int i = 0; i < kPanels; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / kPanels;
    acc += static_cast<double>(SizeDistribution::clamp_size(q(u), cap));
  }
  return acc / kPanels;
}

}  // namespace

SizeDistribution SizeDistribution::generalized_pareto(double location, double scale, double shape,
                                                      std::uint32_t cap) {
  if (scale <= 0.0) throw std::invalid_argument("SizeDistribution: scale <= 0");
  if (cap < 1) throw std::invalid_argument("SizeDistribution: cap < 1");
  SizeDistribution d(Kind::kGeneralizedPareto, cap);
  d.location_ = location;
  d.scale_ = scale;
  d.shape_ = shape;
  const auto quantile = [&](double u) {
    // Inverse CDF with survival s = 1-u.
    const double s = 1.0 - u;
    if (std::abs(shape) < 1e-12) return location - scale * std::log(s);
    return location + scale * (std::pow(s, -shape) - 1.0) / shape;
  };
  d.mean_ = truncated_mean(quantile, cap);
  return d;
}

SizeDistribution SizeDistribution::fixed(std::uint32_t size) {
  if (size == 0) throw std::invalid_argument("SizeDistribution: size == 0");
  SizeDistribution d(Kind::kFixed, size);
  d.mean_ = static_cast<double>(size);
  return d;
}

SizeDistribution SizeDistribution::bounded_pareto(double shape, std::uint32_t lo,
                                                  std::uint32_t hi) {
  if (shape <= 0.0) throw std::invalid_argument("SizeDistribution: shape <= 0");
  if (lo == 0 || lo >= hi) throw std::invalid_argument("SizeDistribution: need 0 < lo < hi");
  SizeDistribution d(Kind::kBoundedPareto, hi);
  d.lo_ = lo;
  d.shape_ = shape;
  const double a = shape;
  const double l = lo;
  const double h = hi;
  if (std::abs(a - 1.0) < 1e-12) {
    d.mean_ = (l * h) / (h - l) * std::log(h / l);
    return d;
  }
  const double la = std::pow(l, a);
  const double ha = std::pow(h, a);
  // Standard truncated-Pareto mean.
  d.mean_ = la / (1.0 - la / ha) * (a / (a - 1.0)) *
            (1.0 / std::pow(l, a - 1.0) - 1.0 / std::pow(h, a - 1.0));
  return d;
}

SizeDistribution SizeDistribution::lognormal(double mu, double sigma, std::uint32_t cap) {
  if (sigma <= 0.0) throw std::invalid_argument("SizeDistribution: sigma <= 0");
  if (cap < 1) throw std::invalid_argument("SizeDistribution: cap < 1");
  SizeDistribution d(Kind::kLogNormal, cap);
  d.location_ = mu;
  d.scale_ = sigma;
  // Quantile via inverse error function is overkill; estimate the
  // truncated mean by large-sample quadrature over the normal quantile
  // approximated with the Acklam rational fit embedded below.
  const auto normal_quantile = [](double u) {
    // Peter Acklam's inverse-normal approximation (relative error < 1.2e-9).
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    constexpr double p_low = 0.02425;
    double q, r;
    if (u < p_low) {
      q = std::sqrt(-2 * std::log(u));
      return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
             ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
    }
    if (u <= 1 - p_low) {
      q = u - 0.5;
      r = q * q;
      return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
             (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
    }
    q = std::sqrt(-2 * std::log(1 - u));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  };
  const auto quantile = [&](double u) { return std::exp(mu + sigma * normal_quantile(u)); };
  d.mean_ = truncated_mean(quantile, cap);
  return d;
}

std::unique_ptr<SizeDistribution> make_size_distribution(const std::string& spec) {
  // Sizes and caps are counts of bytes.
  const util::ModelSpec parts(spec, "make_size_distribution");
  const auto make = [](SizeDistribution d) { return std::make_unique<SizeDistribution>(d); };
  if (parts.name() == "gpareto") {
    return make(SizeDistribution::generalized_pareto(parts.number_or(1, 0.0),
                                                     parts.number_or(2, 214.476),
                                                     parts.number_or(3, 0.348238),
                                                     parts.count_or(4, 1 << 20)));
  }
  if (parts.name() == "fixed") return make(SizeDistribution::fixed(parts.count_or(1, 1024)));
  if (parts.name() == "bpareto") {
    return make(SizeDistribution::bounded_pareto(parts.number_or(1, 1.2), parts.count_or(2, 64),
                                                 parts.count_or(3, 1 << 20)));
  }
  if (parts.name() == "lognormal") {
    return make(SizeDistribution::lognormal(parts.number_or(1, 5.0), parts.number_or(2, 1.0),
                                            parts.count_or(3, 1 << 20)));
  }
  throw std::invalid_argument("make_size_distribution: unknown kind: " + parts.name());
}

}  // namespace brb::workload
