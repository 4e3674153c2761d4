#include "stats/latency_recorder.hpp"

namespace brb::stats {

namespace {
// Latencies above one hour are clamped; the simulator never produces
// them in a stable system, and the cap bounds histogram memory.
constexpr std::int64_t kMaxLatencyNanos = 3'600'000'000'000LL;
}  // namespace

LatencyRecorder::LatencyRecorder(bool keep_raw)
    : keep_raw_(keep_raw), histogram_(kMaxLatencyNanos, 3) {}

LatencyRecorder::LatencyRecorder(const LatencyRecorder& other)
    : keep_raw_(other.keep_raw_),
      histogram_(other.histogram_),
      summary_(other.summary_),
      raw_(other.raw_),
      sketch_(other.sketch_ ? std::make_unique<QuantileSketch>(*other.sketch_) : nullptr) {}

LatencyRecorder& LatencyRecorder::operator=(const LatencyRecorder& other) {
  if (this != &other) {
    keep_raw_ = other.keep_raw_;
    histogram_ = other.histogram_;
    summary_ = other.summary_;
    raw_ = other.raw_;
    sketch_ = other.sketch_ ? std::make_unique<QuantileSketch>(*other.sketch_) : nullptr;
  }
  return *this;
}

void LatencyRecorder::record(sim::Duration latency) {
  const std::int64_t ns = latency.count_nanos() < 0 ? 0 : latency.count_nanos();
  histogram_.record(ns);
  summary_.add(static_cast<double>(ns));
  if (keep_raw_) raw_.add(static_cast<double>(ns));
  if (sketch_) sketch_->add(static_cast<double>(ns));
}

void LatencyRecorder::enable_sketch(double alpha) {
  sketch_ = std::make_unique<QuantileSketch>(alpha);
}

sim::Duration LatencyRecorder::mean() const {
  return sim::Duration::nanos(static_cast<std::int64_t>(summary_.mean()));
}

sim::Duration LatencyRecorder::min() const {
  return sim::Duration::nanos(static_cast<std::int64_t>(summary_.min()));
}

sim::Duration LatencyRecorder::max() const {
  return sim::Duration::nanos(static_cast<std::int64_t>(summary_.max()));
}

sim::Duration LatencyRecorder::percentile(double p) const {
  if (keep_raw_ && !raw_.empty()) {
    return sim::Duration::nanos(static_cast<std::int64_t>(raw_.percentile(p)));
  }
  return sim::Duration::nanos(histogram_.percentile(p));
}

void LatencyRecorder::reset() {
  histogram_.reset();
  summary_.reset();
  raw_.clear();
  if (sketch_) sketch_->clear();
}

}  // namespace brb::stats
