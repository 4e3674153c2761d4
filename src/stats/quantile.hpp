// Exact quantiles: `ExactQuantiles` keeps every sample (used in tests
// as ground truth and in moderate-scale experiments). Streaming runs use
// the mergeable `QuantileSketch` (stats/sketch.hpp) instead.
#pragma once

#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace brb::stats {

/// Stores all samples; quantiles computed from a lazily-sorted cache
/// with linear interpolation (type-7, the R/NumPy default).
///
/// Thread safety: concurrent `quantile` calls are safe (the sort cache
/// is mutex-guarded, so reads from the parallel multi-seed runner do
/// not race). Mutation (`add`, `clear`) must still be externally
/// serialized against readers, like any container.
class ExactQuantiles {
 public:
  ExactQuantiles() = default;
  ExactQuantiles(const ExactQuantiles& other) : values_(other.values_) {}
  ExactQuantiles(ExactQuantiles&& other) noexcept : values_(std::move(other.values_)) {}
  ExactQuantiles& operator=(const ExactQuantiles& other) {
    if (this != &other) {
      values_ = other.values_;
      sorted_.clear();
    }
    return *this;
  }
  ExactQuantiles& operator=(ExactQuantiles&& other) noexcept {
    values_ = std::move(other.values_);
    sorted_.clear();
    return *this;
  }

  void add(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  /// q in [0,1]. Throws when empty. O(n log n) the first time after a
  /// mutation (sorts into the cache), O(1) for repeated queries.
  double quantile(double q) const;
  double percentile(double p) const { return quantile(p / 100.0); }

  void clear() {
    values_.clear();
    sorted_.clear();
  }
  /// Samples in insertion order (never reordered by quantile queries).
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
  mutable std::mutex mutex_;            // guards sorted_
  mutable std::vector<double> sorted_;  // cache; stale when size differs
};

}  // namespace brb::stats
