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
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace brb::workload {

/// Samples value sizes in bytes. Implementations are deterministic
/// functions of the provided RNG stream.
class SizeDistribution {
 public:
  virtual ~SizeDistribution() = default;

  /// One value size in bytes; always in [1, max_size()].
  virtual std::uint32_t sample(util::Rng& rng) const = 0;

  /// Analytic (or high-accuracy numeric) mean of the truncated
  /// distribution, used for service-rate calibration.
  virtual double mean() const = 0;

  virtual std::uint32_t max_size() const noexcept = 0;
};

/// Generalized Pareto (location mu, scale sigma, shape k), truncated to
/// [1, cap]. Defaults are the Atikoglu et al. ETC value-size fit
/// (mu 0, sigma 214.476, k 0.348238); cap defaults to memcached's 1 MiB
/// object limit.
class GeneralizedParetoSizeDist final : public SizeDistribution {
 public:
  GeneralizedParetoSizeDist(double location = 0.0, double scale = 214.476,
                            double shape = 0.348238, std::uint32_t cap = 1u << 20);

  std::uint32_t sample(util::Rng& rng) const override {
    const double v = rng.generalized_pareto(shape_, scale_, location_);
    if (v < 1.0) return 1;
    if (v > static_cast<double>(cap_)) return cap_;
    return static_cast<std::uint32_t>(v);
  }
  double mean() const override;
  std::uint32_t max_size() const noexcept override { return cap_; }

 private:
  double location_;
  double scale_;
  double shape_;
  std::uint32_t cap_;
  double mean_;  // numerically integrated once at construction
};

/// Every value the same size — calibration and unit tests.
class FixedSizeDist final : public SizeDistribution {
 public:
  explicit FixedSizeDist(std::uint32_t size);

  std::uint32_t sample(util::Rng&) const override { return size_; }
  double mean() const override { return static_cast<double>(size_); }
  std::uint32_t max_size() const noexcept override { return size_; }

 private:
  std::uint32_t size_;
};

/// Bounded classic Pareto on [lo, hi].
class BoundedParetoSizeDist final : public SizeDistribution {
 public:
  BoundedParetoSizeDist(double shape, std::uint32_t lo, std::uint32_t hi);

  std::uint32_t sample(util::Rng& rng) const override;
  double mean() const override;
  std::uint32_t max_size() const noexcept override { return hi_; }

 private:
  double shape_;
  std::uint32_t lo_;
  std::uint32_t hi_;
};

/// Log-normal sizes truncated to [1, cap].
class LogNormalSizeDist final : public SizeDistribution {
 public:
  LogNormalSizeDist(double mu, double sigma, std::uint32_t cap);

  std::uint32_t sample(util::Rng& rng) const override;
  double mean() const override;
  std::uint32_t max_size() const noexcept override { return cap_; }

 private:
  double mu_;
  double sigma_;
  std::uint32_t cap_;
  double mean_;
};

/// Builds a size distribution by name ("gpareto", "fixed:N",
/// "bpareto:shape:lo:hi", "lognormal:mu:sigma:cap") for CLI harnesses.
std::unique_ptr<SizeDistribution> make_size_distribution(const std::string& spec);

}  // namespace brb::workload
