// Service-time models.
//
// The paper's servers run "at an average service rate of 3500
// requests/s" per core, with per-request work driven by the requested
// value's size. `SizeLinearServiceModel` captures that: a fixed
// per-request overhead plus a size-proportional term, calibrated so the
// *mean* service time over a given size distribution equals the target
// rate. It is the only model a run builds; with a zero per-byte cost it
// is a constant service time (the M/D/c case). The queueing-theory
// tests validate the servers against M/M/c formulas with their own
// exponential model.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace brb::server {

class ServiceTimeModel {
 public:
  virtual ~ServiceTimeModel() = default;

  /// Sampled service duration for a value of `size` bytes (> 0).
  virtual sim::Duration sample(std::uint32_t size, util::Rng& rng) const = 0;

  /// Expected service duration for a value of `size` bytes. This is the
  /// client-side forecast (the paper's clients predict cost from the
  /// requested value size).
  virtual sim::Duration expected(std::uint32_t size) const = 0;
};

/// t(size) = base + size * per_byte, optionally scaled by log-normal
/// noise with unit mean (sigma = 0 gives a deterministic model).
class SizeLinearServiceModel final : public ServiceTimeModel {
 public:
  SizeLinearServiceModel(sim::Duration base, double per_byte_nanos, double noise_sigma = 0.0);

  /// Calibrates per_byte so that E[t] = 1/target_rate given the mean
  /// value size: per_byte = (1/rate - base) / mean_size.
  static SizeLinearServiceModel calibrate(double target_rate_per_sec, double mean_size_bytes,
                                          sim::Duration base = sim::Duration::micros(50),
                                          double noise_sigma = 0.0);

  sim::Duration sample(std::uint32_t size, util::Rng& rng) const override {
    const sim::Duration mean = expected(size);
    if (noise_sigma_ == 0.0) return mean;
    const double factor = rng.lognormal(noise_mu_, noise_sigma_);
    const auto nanos = static_cast<std::int64_t>(static_cast<double>(mean.count_nanos()) * factor);
    return sim::Duration::nanos(nanos > 0 ? nanos : 1);
  }
  sim::Duration expected(std::uint32_t size) const override {
    return base_ + sim::Duration::nanos(
                       static_cast<std::int64_t>(per_byte_nanos_ * static_cast<double>(size)));
  }

 private:
  sim::Duration base_;
  double per_byte_nanos_;
  double noise_sigma_;
  double noise_mu_;  // -sigma^2/2 so the noise factor has mean exactly 1
};

}  // namespace brb::server
