// HDR-style log-linear histogram for latency recording.
//
// Values are bucketed with bounded relative error (configurable
// significant digits), giving O(1) insertion, compact memory and
// accurate high quantiles — the shape of tool the paper's evaluation
// needs for p99 over millions of samples.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace brb::stats {

class Histogram {
 public:
  /// `max_value` is the largest recordable value (larger inputs clamp
  /// and are counted in `overflow()`), `sig_digits` in [1,5] bounds the
  /// relative bucket error at 10^-sig_digits.
  explicit Histogram(std::int64_t max_value = 3'600'000'000'000LL, int sig_digits = 3);

  void record(std::int64_t value);
  void record_n(std::int64_t value, std::uint64_t times);

  /// Quantile in [0,1]; returns a representative value of the bucket
  /// containing that rank. Throws if the histogram is empty.
  std::int64_t value_at_quantile(double q) const;

  std::int64_t percentile(double p) const { return value_at_quantile(p / 100.0); }
  std::int64_t median() const { return value_at_quantile(0.50); }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t overflow() const noexcept { return overflow_; }
  std::int64_t min() const noexcept { return count_ > 0 ? min_ : 0; }
  std::int64_t max() const noexcept { return count_ > 0 ? max_ : 0; }
  double mean() const noexcept { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }

  void reset();

  /// Largest relative error a recorded value can incur.
  double max_relative_error() const noexcept;

 private:
  std::size_t bucket_index(std::int64_t value) const noexcept;
  std::int64_t bucket_representative(std::size_t index) const noexcept;

  std::int64_t max_value_;
  int sig_digits_;
  int sub_bucket_bits_;            // log2 of sub-buckets per half-decade
  std::int64_t sub_bucket_count_;  // 2^sub_bucket_bits_
  std::int64_t sub_bucket_half_;   // sub_bucket_count_ / 2
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t overflow_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace brb::stats
