// Streaming summary statistics (Welford's online algorithm).
#pragma once

#include <cstdint>
#include <limits>

namespace brb::stats {

/// Numerically-stable single-pass mean/variance/extrema accumulator.
class Summary {
 public:
  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const noexcept;
  /// Unbiased sample variance; 0 for fewer than two samples.
  double sample_variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  void reset() noexcept { *this = Summary{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace brb::stats
