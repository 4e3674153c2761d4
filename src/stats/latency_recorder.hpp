// Latency collection facade used by clients and the experiment runner.
//
// Records `sim::Duration` samples into both an HDR histogram (for
// robust tail quantiles) and summary statistics; can optionally keep
// the raw samples for exact quantiles in smaller runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "stats/quantile.hpp"
#include "stats/sketch.hpp"
#include "stats/summary.hpp"

namespace brb::stats {

class LatencyRecorder {
 public:
  /// `keep_raw` additionally retains every sample (exact quantiles;
  /// memory proportional to sample count).
  explicit LatencyRecorder(bool keep_raw = false);

  // Copies deep-copy the optional sketch (run results are copied into
  // aggregates); moves transfer it.
  LatencyRecorder(const LatencyRecorder& other);
  LatencyRecorder& operator=(const LatencyRecorder& other);
  LatencyRecorder(LatencyRecorder&&) noexcept = default;
  LatencyRecorder& operator=(LatencyRecorder&&) noexcept = default;

  void record(sim::Duration latency);

  std::uint64_t count() const noexcept { return histogram_.count(); }
  sim::Duration mean() const;
  sim::Duration min() const;
  sim::Duration max() const;

  /// Percentile p in [0,100]. Uses exact samples when kept, else the
  /// histogram. Throws when empty.
  sim::Duration percentile(double p) const;

  const Histogram& histogram() const noexcept { return histogram_; }
  const Summary& summary() const noexcept { return summary_; }

  /// Opt-in mergeable sketch (`--stats=sketch`): subsequent samples are
  /// additionally recorded into a `QuantileSketch`, whose serialized
  /// form lands in artifacts as the O(sketch) replacement for raw
  /// samples. Off by default — existing artifacts stay byte-identical.
  void enable_sketch(double alpha = QuantileSketch::kDefaultAlpha);
  const QuantileSketch* sketch() const noexcept { return sketch_.get(); }

  void reset();

 private:
  bool keep_raw_;
  Histogram histogram_;
  Summary summary_;
  ExactQuantiles raw_;
  std::unique_ptr<QuantileSketch> sketch_;
};

}  // namespace brb::stats
