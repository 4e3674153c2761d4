#include "workload/arrival.hpp"

#include <algorithm>
#include <cmath>

#include "util/flags.hpp"

namespace brb::workload {

PoissonArrivals::PoissonArrivals(double rate_per_sec) : rate_(rate_per_sec) {
  if (rate_ <= 0.0) throw std::invalid_argument("PoissonArrivals: rate <= 0");
}

PacedArrivals::PacedArrivals(double rate_per_sec) {
  if (rate_per_sec <= 0.0) throw std::invalid_argument("PacedArrivals: rate <= 0");
  gap_ = std::max(sim::Duration::nanos(1), sim::Duration::seconds(1.0 / rate_per_sec));
}

double ModulatedArrivals::Envelope::at(double t_s) const noexcept {
  const double phase = t_s / period_s - std::floor(t_s / period_s);
  if (kind == Kind::kSinusoid) {
    return 1.0 + amplitude * std::sin(2.0 * 3.14159265358979323846 * phase);
  }
  const auto index = static_cast<std::size_t>(phase * static_cast<double>(steps.size()));
  return steps[std::min(index, steps.size() - 1)];
}

double ModulatedArrivals::Envelope::peak() const noexcept {
  if (kind == Kind::kSinusoid) return 1.0 + amplitude;
  return *std::max_element(steps.begin(), steps.end());
}

ModulatedArrivals::Envelope ModulatedArrivals::Envelope::diurnal(double low, double high,
                                                                double period_s) {
  if (low <= 0.0 || high < low) {
    throw std::invalid_argument("ModulatedArrivals: need 0 < LOW <= HIGH");
  }
  if (period_s <= 0.0) throw std::invalid_argument("ModulatedArrivals: period <= 0");
  Envelope e;
  e.kind = Kind::kSinusoid;
  // Renormalizing LOW..HIGH to unit mean gives relative amplitude
  // (HIGH-LOW)/(HIGH+LOW), always < 1 so the rate stays positive.
  e.amplitude = (high - low) / (high + low);
  e.period_s = period_s;
  return e;
}

ModulatedArrivals::Envelope ModulatedArrivals::Envelope::piecewise(
    std::vector<double> multipliers, double period_s) {
  if (multipliers.empty()) throw std::invalid_argument("ModulatedArrivals: no steps");
  if (period_s <= 0.0) throw std::invalid_argument("ModulatedArrivals: period <= 0");
  double total = 0.0;
  for (const double m : multipliers) {
    if (m <= 0.0) throw std::invalid_argument("ModulatedArrivals: non-positive step");
    total += m;
  }
  const double mean = total / static_cast<double>(multipliers.size());
  for (double& m : multipliers) m /= mean;
  Envelope e;
  e.kind = Kind::kSteps;
  e.steps = std::move(multipliers);
  e.period_s = period_s;
  return e;
}

ModulatedArrivals::ModulatedArrivals(double mean_rate_per_sec, Envelope envelope)
    : rate_(mean_rate_per_sec), envelope_(std::move(envelope)) {
  if (rate_ <= 0.0) throw std::invalid_argument("ModulatedArrivals: rate <= 0");
  if (envelope_.period_s <= 0.0) throw std::invalid_argument("ModulatedArrivals: period <= 0");
  if (envelope_.kind == Envelope::Kind::kSinusoid &&
      (envelope_.amplitude < 0.0 || envelope_.amplitude >= 1.0)) {
    throw std::invalid_argument("ModulatedArrivals: amplitude outside [0, 1)");
  }
  peak_ = envelope_.peak();
}

sim::Duration ModulatedArrivals::next_gap(util::Rng& rng) {
  // Thinning: candidates from a homogeneous Poisson at the peak rate,
  // each accepted with probability m(t)/peak. Acceptance probability
  // is bounded below by the envelope's trough, so this terminates.
  const double peak_rate = rate_ * peak_;
  const double start_s = clock_s_;
  for (;;) {
    clock_s_ += std::max(1e-9, rng.exponential(1.0 / peak_rate));
    if (rng.uniform() * peak_ <= envelope_.at(clock_s_)) {
      const double gap_s = clock_s_ - start_s;
      return std::max(sim::Duration::nanos(1), sim::Duration::seconds(gap_s));
    }
  }
}

std::unique_ptr<ArrivalProcess> make_arrival_process(const std::string& spec,
                                                     double rate_per_sec) {
  if (spec.empty() || spec == "poisson") {
    return std::make_unique<PoissonArrivals>(rate_per_sec);
  }
  if (spec == "paced") return std::make_unique<PacedArrivals>(rate_per_sec);

  const util::ModelSpec parts(spec, "make_arrival_process");
  if (parts.name() == "diurnal") {
    if (parts.size() != 4) {
      throw std::invalid_argument("make_arrival_process: expected diurnal:LOW:HIGH:PERIOD_S");
    }
    return std::make_unique<ModulatedArrivals>(
        rate_per_sec,
        ModulatedArrivals::Envelope::diurnal(parts.number(1), parts.number(2), parts.number(3)));
  }
  if (parts.name() == "steps") {
    if (parts.size() != 3) {
      throw std::invalid_argument("make_arrival_process: expected steps:M1,M2,...:PERIOD_S");
    }
    std::vector<double> multipliers;
    for (const std::string& m : util::split_list(parts[1])) {
      multipliers.push_back(util::parse_spec_number(m, spec));
    }
    return std::make_unique<ModulatedArrivals>(
        rate_per_sec,
        ModulatedArrivals::Envelope::piecewise(std::move(multipliers), parts.number(2)));
  }
  throw std::invalid_argument("make_arrival_process: unknown arrival spec '" + spec + "'");
}

}  // namespace brb::workload
