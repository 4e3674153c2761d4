// Task arrival processes.
//
// The paper uses open-loop Poisson task arrivals with the mean rate set
// to a fraction of system capacity. Deterministic (paced) arrivals are
// provided for tests and calibration, and `ModulatedArrivals` layers a
// time-varying (diurnal) rate envelope over Poisson for workloads whose
// offered load breathes over the day.
#pragma once

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace brb::workload {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Gap until the next arrival (strictly positive).
  virtual sim::Duration next_gap(util::Rng& rng) = 0;
};

/// Poisson process: exponential inter-arrival gaps.
class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate_per_sec);

  sim::Duration next_gap(util::Rng& rng) override {
    const double gap_seconds = rng.exponential(1.0 / rate_);
    // Never zero: preserves strict event ordering between arrivals.
    return std::max(sim::Duration::nanos(1), sim::Duration::seconds(gap_seconds));
  }

 private:
  double rate_;
};

/// Fixed-gap arrivals at the given rate.
class PacedArrivals final : public ArrivalProcess {
 public:
  explicit PacedArrivals(double rate_per_sec);

  sim::Duration next_gap(util::Rng&) override { return gap_; }

 private:
  sim::Duration gap_;
};

/// Non-homogeneous Poisson: the base rate scaled by a periodic
/// envelope m(t) with unit time-average, so the mean rate over any
/// whole number of periods equals `rate_per_sec` exactly. Sampled by
/// thinning (candidates at the envelope's peak rate, accepted with
/// probability m(t)/peak), which keeps gaps strictly positive and
/// exact for any envelope shape.
class ModulatedArrivals final : public ArrivalProcess {
 public:
  /// Periodic rate multiplier, normalized to unit mean at construction.
  struct Envelope {
    enum class Kind { kSinusoid, kSteps };
    Kind kind = Kind::kSinusoid;
    /// kSinusoid: m(t) = 1 + amplitude * sin(2*pi*t/period); the
    /// amplitude must lie in [0, 1) so the rate never reaches zero.
    double amplitude = 0.0;
    /// kSteps: piecewise-constant multipliers, each held for
    /// period/steps.size(); all strictly positive, unit mean.
    std::vector<double> steps;
    double period_s = 0.0;

    /// Multiplier at absolute time t (seconds).
    double at(double t_s) const noexcept;
    /// Maximum multiplier over the period (the thinning majorant).
    double peak() const noexcept;

    /// "diurnal:LOW:HIGH:PERIOD_S": a sinusoid swinging between LOW and
    /// HIGH times the trough-to-crest midpoint, renormalized to unit
    /// mean (amplitude = (HIGH-LOW)/(HIGH+LOW)). 0 < LOW <= HIGH.
    static Envelope diurnal(double low, double high, double period_s);
    /// "steps:M1,M2,...:PERIOD_S": multipliers renormalized to unit mean.
    static Envelope piecewise(std::vector<double> multipliers, double period_s);
  };

  ModulatedArrivals(double mean_rate_per_sec, Envelope envelope);

  sim::Duration next_gap(util::Rng& rng) override;

 private:
  double rate_;
  Envelope envelope_;
  double peak_ = 1.0;  // envelope peak, cached off the sampling path
  /// Internal arrival clock (seconds); next_gap is called once per
  /// arrival in sequence, so the process tracks absolute time itself.
  double clock_s_ = 0.0;
};

/// Builds an arrival process from a spec string:
///   "poisson" | "paced" | "diurnal:LOW:HIGH:PERIOD_S" |
///   "steps:M1,M2,...:PERIOD_S"
/// An empty spec means "poisson". Throws std::invalid_argument.
std::unique_ptr<ArrivalProcess> make_arrival_process(const std::string& spec,
                                                     double rate_per_sec);

}  // namespace brb::workload
