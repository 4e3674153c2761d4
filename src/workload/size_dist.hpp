// Value-size distributions.
//
// The paper generates request value sizes "using a Pareto distribution
// based on a study conducted on Facebook's Memcached deployment"
// (Atikoglu et al., SIGMETRICS 2012). We implement the generalized
// Pareto fit that study reports for the ETC pool, plus alternatives
// used in tests and ablations.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/rng.hpp"

namespace brb::workload {

/// Samples value sizes in bytes, a deterministic function of the
/// provided RNG stream. The kind is fixed at construction.
class SizeDistribution {
 public:
  enum class Kind { kGeneralizedPareto, kFixed, kBoundedPareto, kLogNormal };

  /// Generalized Pareto (location mu, scale sigma, shape k), truncated
  /// to [1, cap]. Defaults are the Atikoglu et al. ETC value-size fit
  /// (mu 0, sigma 214.476, k 0.348238); cap defaults to memcached's
  /// 1 MiB object limit.
  static SizeDistribution generalized_pareto(double location = 0.0, double scale = 214.476,
                                             double shape = 0.348238,
                                             std::uint32_t cap = 1u << 20);
  /// Every value the same size — calibration and unit tests.
  static SizeDistribution fixed(std::uint32_t size);
  /// Bounded classic Pareto on [lo, hi].
  static SizeDistribution bounded_pareto(double shape, std::uint32_t lo, std::uint32_t hi);
  /// Log-normal sizes truncated to [1, cap].
  static SizeDistribution lognormal(double mu, double sigma, std::uint32_t cap);

  /// One value size in bytes; always in [1, max_size()].
  std::uint32_t sample(util::Rng& rng) const {
    if (kind_ == Kind::kFixed) return cap_;
    if (kind_ == Kind::kGeneralizedPareto) {
      return clamp_size(rng.generalized_pareto(shape_, scale_, location_), cap_);
    }
    if (kind_ == Kind::kBoundedPareto) {
      return clamp_size(rng.bounded_pareto(shape_, lo_, cap_), cap_);
    }
    return clamp_size(rng.lognormal(location_, scale_), cap_);
  }

  /// Analytic (or high-accuracy numeric) mean of the truncated
  /// distribution, used for service-rate calibration.
  double mean() const noexcept { return mean_; }
  std::uint32_t max_size() const noexcept { return cap_; }
  Kind kind() const noexcept { return kind_; }

  /// A draw truncated to a whole size in [1, cap].
  static std::uint32_t clamp_size(double v, std::uint32_t cap) {
    if (v < 1.0) return 1;
    if (v > static_cast<double>(cap)) return cap;
    return static_cast<std::uint32_t>(v);
  }

 private:
  SizeDistribution(Kind kind, std::uint32_t cap) : kind_(kind), cap_(cap) {}

  Kind kind_;
  std::uint32_t cap_;    // the largest size (kFixed: the size; kBoundedPareto: hi)
  std::uint32_t lo_ = 0;  // kBoundedPareto
  /// kGeneralizedPareto: location, scale and shape; kBoundedPareto:
  /// shape; kLogNormal: mu (location_) and sigma (scale_).
  double location_ = 0.0;
  double scale_ = 0.0;
  double shape_ = 0.0;
  double mean_ = 0.0;  // computed once at construction
};

/// Builds a size distribution by name ("gpareto", "fixed:N",
/// "bpareto:shape:lo:hi", "lognormal:mu:sigma:cap") for CLI harnesses.
std::unique_ptr<SizeDistribution> make_size_distribution(const std::string& spec);

}  // namespace brb::workload
