#include "workload/size_dist.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "util/flags.hpp"

namespace brb::workload {

namespace {

std::uint32_t clamp_size(double v, std::uint32_t cap) {
  if (v < 1.0) return 1;
  if (v > static_cast<double>(cap)) return cap;
  return static_cast<std::uint32_t>(v);
}

/// Mean of min(max(X,1),cap) estimated by quadrature over the quantile
/// function: E[g(X)] = integral_0^1 g(Q(u)) du. 64k panels of midpoint
/// rule keep the error far below a byte for these smooth quantiles.
template <typename QuantileFn>
double truncated_mean(QuantileFn q, std::uint32_t cap) {
  constexpr int kPanels = 1 << 16;
  double acc = 0.0;
  for (int i = 0; i < kPanels; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / kPanels;
    acc += static_cast<double>(clamp_size(q(u), cap));
  }
  return acc / kPanels;
}

}  // namespace

GeneralizedParetoSizeDist::GeneralizedParetoSizeDist(double location, double scale, double shape,
                                                     std::uint32_t cap)
    : location_(location), scale_(scale), shape_(shape), cap_(cap) {
  if (scale_ <= 0.0) throw std::invalid_argument("GeneralizedParetoSizeDist: scale <= 0");
  if (cap_ < 1) throw std::invalid_argument("GeneralizedParetoSizeDist: cap < 1");
  const auto quantile = [this](double u) {
    // Inverse CDF with survival s = 1-u.
    const double s = 1.0 - u;
    if (std::abs(shape_) < 1e-12) return location_ - scale_ * std::log(s);
    return location_ + scale_ * (std::pow(s, -shape_) - 1.0) / shape_;
  };
  mean_ = truncated_mean(quantile, cap_);
}

double GeneralizedParetoSizeDist::mean() const { return mean_; }

FixedSizeDist::FixedSizeDist(std::uint32_t size) : size_(size) {
  if (size_ == 0) throw std::invalid_argument("FixedSizeDist: size == 0");
}

BoundedParetoSizeDist::BoundedParetoSizeDist(double shape, std::uint32_t lo, std::uint32_t hi)
    : shape_(shape), lo_(lo), hi_(hi) {
  if (shape_ <= 0.0) throw std::invalid_argument("BoundedParetoSizeDist: shape <= 0");
  if (lo_ == 0 || lo_ >= hi_) throw std::invalid_argument("BoundedParetoSizeDist: need 0 < lo < hi");
}

std::uint32_t BoundedParetoSizeDist::sample(util::Rng& rng) const {
  return clamp_size(rng.bounded_pareto(shape_, lo_, hi_), hi_);
}

double BoundedParetoSizeDist::mean() const {
  const double a = shape_;
  const double l = lo_;
  const double h = hi_;
  if (std::abs(a - 1.0) < 1e-12) {
    return (l * h) / (h - l) * std::log(h / l);
  }
  const double la = std::pow(l, a);
  const double ha = std::pow(h, a);
  // Standard truncated-Pareto mean.
  return la / (1.0 - la / ha) * (a / (a - 1.0)) *
         (1.0 / std::pow(l, a - 1.0) - 1.0 / std::pow(h, a - 1.0));
}

LogNormalSizeDist::LogNormalSizeDist(double mu, double sigma, std::uint32_t cap)
    : mu_(mu), sigma_(sigma), cap_(cap) {
  if (sigma_ <= 0.0) throw std::invalid_argument("LogNormalSizeDist: sigma <= 0");
  if (cap_ < 1) throw std::invalid_argument("LogNormalSizeDist: cap < 1");
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
  const auto quantile = [&](double u) { return std::exp(mu_ + sigma_ * normal_quantile(u)); };
  mean_ = truncated_mean(quantile, cap_);
}

std::uint32_t LogNormalSizeDist::sample(util::Rng& rng) const {
  return clamp_size(rng.lognormal(mu_, sigma_), cap_);
}

double LogNormalSizeDist::mean() const { return mean_; }

std::unique_ptr<SizeDistribution> make_size_distribution(const std::string& spec) {
  std::vector<std::string> parts;
  std::stringstream ss(spec);
  for (std::string item; std::getline(ss, item, ':');) parts.push_back(item);
  if (parts.empty()) throw std::invalid_argument("make_size_distribution: empty spec");
  const std::string& kind = parts[0];
  const auto arg = [&](std::size_t i, double fallback) {
    return parts.size() > i ? util::parse_spec_number(parts[i], spec) : fallback;
  };
  // Sizes and caps in bytes.
  const auto bytes = [&](std::size_t i, std::uint32_t fallback) {
    return parts.size() > i ? static_cast<std::uint32_t>(util::parse_spec_count(
                                  parts[i], spec, std::numeric_limits<std::uint32_t>::max()))
                            : fallback;
  };
  if (kind == "gpareto") {
    return std::make_unique<GeneralizedParetoSizeDist>(arg(1, 0.0), arg(2, 214.476),
                                                       arg(3, 0.348238), bytes(4, 1 << 20));
  }
  if (kind == "fixed") {
    return std::make_unique<FixedSizeDist>(bytes(1, 1024));
  }
  if (kind == "bpareto") {
    return std::make_unique<BoundedParetoSizeDist>(arg(1, 1.2), bytes(2, 64), bytes(3, 1 << 20));
  }
  if (kind == "lognormal") {
    return std::make_unique<LogNormalSizeDist>(arg(1, 5.0), arg(2, 1.0), bytes(3, 1 << 20));
  }
  throw std::invalid_argument("make_size_distribution: unknown kind: " + kind);
}

}  // namespace brb::workload
