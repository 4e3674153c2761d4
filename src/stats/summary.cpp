#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

namespace brb::stats {

void Summary::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double Summary::sample_variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Summary::stddev() const noexcept { return std::sqrt(sample_variance()); }

}  // namespace brb::stats
