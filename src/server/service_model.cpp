#include "server/service_model.hpp"

#include <cmath>
#include <stdexcept>

namespace brb::server {

SizeLinearServiceModel::SizeLinearServiceModel(sim::Duration base, double per_byte_nanos,
                                               double noise_sigma)
    : base_(base),
      per_byte_nanos_(per_byte_nanos),
      noise_sigma_(noise_sigma),
      noise_mu_(-0.5 * noise_sigma * noise_sigma) {
  if (base_.is_negative()) throw std::invalid_argument("SizeLinearServiceModel: negative base");
  if (per_byte_nanos_ < 0.0) {
    throw std::invalid_argument("SizeLinearServiceModel: negative per-byte cost");
  }
  if (noise_sigma_ < 0.0) throw std::invalid_argument("SizeLinearServiceModel: negative sigma");
  if (base_.count_nanos() == 0 && per_byte_nanos_ == 0.0) {
    throw std::invalid_argument("SizeLinearServiceModel: zero service time");
  }
}

SizeLinearServiceModel SizeLinearServiceModel::calibrate(double target_rate_per_sec,
                                                         double mean_size_bytes,
                                                         sim::Duration base, double noise_sigma) {
  if (target_rate_per_sec <= 0.0) {
    throw std::invalid_argument("SizeLinearServiceModel::calibrate: rate <= 0");
  }
  if (mean_size_bytes <= 0.0) {
    throw std::invalid_argument("SizeLinearServiceModel::calibrate: mean size <= 0");
  }
  const double target_mean_ns = 1e9 / target_rate_per_sec;
  const double size_budget_ns = target_mean_ns - static_cast<double>(base.count_nanos());
  if (size_budget_ns <= 0.0) {
    throw std::invalid_argument(
        "SizeLinearServiceModel::calibrate: base overhead exceeds the mean service budget");
  }
  return SizeLinearServiceModel(base, size_budget_ns / mean_size_bytes, noise_sigma);
}

}  // namespace brb::server
