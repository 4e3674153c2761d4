#include "stats/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace brb::stats {

namespace {

// Number of leading zeros treating value as 64-bit; value must be > 0.
int high_bit(std::int64_t value) noexcept {
  return 63 - std::countl_zero(static_cast<std::uint64_t>(value));
}

}  // namespace

Histogram::Histogram(std::int64_t max_value, int sig_digits)
    : max_value_(max_value), sig_digits_(sig_digits) {
  if (max_value_ < 2) throw std::invalid_argument("Histogram: max_value must be >= 2");
  if (sig_digits_ < 1 || sig_digits_ > 5) {
    throw std::invalid_argument("Histogram: sig_digits must be in [1,5]");
  }
  // Need 2 * 10^sig sub-buckets so the relative error within a
  // half-decade stays below 10^-sig (same construction as HdrHistogram).
  const double needed = 2.0 * std::pow(10.0, sig_digits_);
  sub_bucket_bits_ = 1;
  while ((1LL << sub_bucket_bits_) < static_cast<std::int64_t>(needed)) ++sub_bucket_bits_;
  sub_bucket_count_ = 1LL << sub_bucket_bits_;
  sub_bucket_half_ = sub_bucket_count_ / 2;

  // One "bucket" per power of two above the sub-bucket range; each
  // bucket contributes sub_bucket_half_ slots (upper half), the first
  // bucket contributes all sub_bucket_count_ slots.
  int buckets = 1;
  std::int64_t smallest_untrackable = sub_bucket_count_;
  while (smallest_untrackable <= max_value_ &&
         smallest_untrackable < (std::int64_t{1} << 62)) {
    smallest_untrackable <<= 1;
    ++buckets;
  }
  const std::size_t slots =
      static_cast<std::size_t>(buckets + 1) * static_cast<std::size_t>(sub_bucket_half_) +
      static_cast<std::size_t>(sub_bucket_half_);
  counts_.assign(slots, 0);
}

std::size_t Histogram::bucket_index(std::int64_t value) const noexcept {
  if (value < 0) value = 0;
  if (value < sub_bucket_count_) return static_cast<std::size_t>(value);
  const int msb = high_bit(value);
  const int bucket = msb - (sub_bucket_bits_ - 1);  // which power-of-two band
  const std::int64_t sub = value >> bucket;         // in [half, count)
  return static_cast<std::size_t>(sub_bucket_count_ + (bucket - 1) * sub_bucket_half_ +
                                  (sub - sub_bucket_half_));
}

std::int64_t Histogram::bucket_representative(std::size_t index) const noexcept {
  const auto i = static_cast<std::int64_t>(index);
  if (i < sub_bucket_count_) return i;
  const std::int64_t band = (i - sub_bucket_count_) / sub_bucket_half_ + 1;
  const std::int64_t sub = (i - sub_bucket_count_) % sub_bucket_half_ + sub_bucket_half_;
  // Midpoint of the bucket keeps the error two-sided.
  const std::int64_t lo = sub << band;
  const std::int64_t width = std::int64_t{1} << band;
  return lo + width / 2;
}

void Histogram::record(std::int64_t value) { record_n(value, 1); }

void Histogram::record_n(std::int64_t value, std::uint64_t times) {
  if (times == 0) return;
  if (value < 0) value = 0;
  if (value > max_value_) {
    overflow_ += times;
    value = max_value_;
  }
  const std::size_t idx = std::min(bucket_index(value), counts_.size() - 1);
  counts_[idx] += times;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += times;
  sum_ += static_cast<double>(value) * static_cast<double>(times);
}

std::int64_t Histogram::value_at_quantile(double q) const {
  if (count_ == 0) throw std::logic_error("Histogram::value_at_quantile: empty histogram");
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, ceil as in HdrHistogram).
  const auto target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    if (running >= target) {
      const std::int64_t rep = bucket_representative(i);
      return std::min({rep, max_, max_value_});
    }
  }
  return max_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  overflow_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0.0;
}

double Histogram::max_relative_error() const noexcept {
  return 1.0 / static_cast<double>(sub_bucket_half_);
}

}  // namespace brb::stats
