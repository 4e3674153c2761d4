#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>

namespace brb::stats {

double ExactQuantiles::quantile(double q) const {
  if (values_.empty()) throw std::logic_error("ExactQuantiles::quantile: no samples");
  std::lock_guard<std::mutex> lock(mutex_);
  // `add` only appends, so a size mismatch is the complete staleness
  // signal (and `clear` empties both vectors).
  if (sorted_.size() != values_.size()) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  // Type-7 interpolation (the R/NumPy default) over the order statistics.
  const double h = std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, sorted_.size() - 1);
  return sorted_[lo] + (h - static_cast<double>(lo)) * (sorted_[hi] - sorted_[lo]);
}

}  // namespace brb::stats
