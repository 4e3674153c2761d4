// Deterministic pseudo-random number generation for the BRB simulator.
//
// All stochastic behaviour in the library flows through `Rng`, a
// xoshiro256** generator seeded via SplitMix64. Components derive
// independent sub-streams with `Rng::split()` so that adding a consumer
// never perturbs the draws seen by another (critical for reproducible
// multi-seed experiments).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace brb::util {

/// SplitMix64: fast 64-bit mixer used for seeding and stream derivation.
/// Reference: Steele, Lea, Flood. "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the general-purpose generator recommended by Blackman &
/// Vigna (2018). 256-bit state, period 2^256 - 1, passes BigCrush.
class Xoshiro256StarStar {
 public:
  using State = std::array<std::uint64_t, 4>;

  explicit Xoshiro256StarStar(std::uint64_t seed) noexcept;
  /// Starts from a raw state (the jump table build and tests). The
  /// all-zero state is a fixed point: it never generates.
  explicit Xoshiro256StarStar(const State& state) noexcept : s_(state) {}

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Advances the state by 2^128 steps; used to derive non-overlapping
  /// sub-streams from one seed. The jump is linear over GF(2), so it is
  /// applied as the XOR of 64 precomputed columns, one per 4-bit group
  /// of the state (a 32 KB table built once per process from
  /// `long_jump_reference`): bit-identical to the loop, without its 256
  /// generator steps.
  void long_jump() noexcept;

  /// The published xoshiro256** long-jump loop: 256 steps, one per bit
  /// of the jump polynomial. Builds the table and pins it in tests.
  void long_jump_reference() noexcept;

  const State& state() const noexcept { return s_; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  State s_{};
};

/// High-level random source with the distribution samplers the simulator
/// and workload generators need. Cheap to copy; each copy continues the
/// same stream, so prefer `split()` to create independent streams.
class Rng {
 public:
  /// Seeds the stream. Identical seeds yield identical draw sequences.
  explicit Rng(std::uint64_t seed) noexcept : gen_(seed) {}

  /// Derives an independent stream: the child is seeded from this
  /// stream's output, then this stream long-jumps so parent and child
  /// never overlap.
  Rng split() noexcept;

  /// Raw 64 uniform bits.
  std::uint64_t next_u64() noexcept { return gen_.next(); }

  // The samplers on the workload hot path (uniform, uniform_int,
  // exponential, bernoulli) are defined inline so batched generation
  // loops compile to straight-line code without a call per draw.

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 uniform mantissa bits -> double in [0, 1).
    return static_cast<double>(gen_.next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    // Width computed in unsigned arithmetic: hi - lo can overflow int64
    // (full-span requests), which is well-defined only for unsigned.
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (range == 0) return static_cast<std::int64_t>(gen_.next());  // full span
    return lo + static_cast<std::int64_t>(uniform_u64_below(range));
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Covers the full
  /// uint64 range, unlike `uniform_int` whose bounds are int64 — use
  /// this for counters that may exceed 2^63 (e.g. reservoir sampling).
  std::uint64_t uniform_u64_below(std::uint64_t bound) {
    if (bound == 0) throw std::invalid_argument("Rng::uniform_u64_below: bound == 0");
    // Classic rejection sampling: discard the partial block at the top of
    // the 64-bit space so every residue is equally likely.
    const std::uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
    for (;;) {
      const std::uint64_t r = gen_.next();
      if (r >= threshold) return r % bound;
    }
  }

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential with the given mean (= 1/rate). Requires mean > 0.
  double exponential(double mean) {
    if (mean <= 0.0) throw std::invalid_argument("Rng::exponential: mean <= 0");
    double u = uniform();
    // uniform() can return exactly 0; log(0) is -inf, so nudge.
    if (u <= 0.0) u = std::numeric_limits<double>::min();
    return -mean * std::log(u);
  }

  /// Standard normal via Box-Muller (no cached spare: stateless).
  double normal(double mu, double sigma) {
    double u1 = uniform();
    if (u1 <= 0.0) u1 = std::numeric_limits<double>::min();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    return mu + sigma * radius * std::cos(kTwoPi * u2);
  }

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

  /// Classic Pareto (Type I): support [scale, inf), P(X > x) = (scale/x)^shape.
  /// Requires shape > 0, scale > 0.
  double pareto(double shape, double scale) {
    if (shape <= 0.0 || scale <= 0.0) {
      throw std::invalid_argument("Rng::pareto: shape and scale must be > 0");
    }
    double u = uniform();
    if (u <= 0.0) u = std::numeric_limits<double>::min();
    return scale / std::pow(u, 1.0 / shape);
  }

  /// Generalized Pareto: location + scale * ((1-u)^(-shape) - 1) / shape.
  /// shape == 0 degenerates to the (shifted) exponential. Requires scale > 0.
  double generalized_pareto(double shape, double scale, double location) {
    if (scale <= 0.0) {
      throw std::invalid_argument("Rng::generalized_pareto: scale must be > 0");
    }
    double u = uniform();
    if (u <= 0.0) u = std::numeric_limits<double>::min();
    if (std::abs(shape) < 1e-12) {
      return location - scale * std::log(u);
    }
    return location + scale * (std::pow(u, -shape) - 1.0) / shape;
  }

  /// Pareto truncated to [lo, hi] by inverse-CDF restriction (not
  /// rejection), so the cost is a single draw. Requires 0 < lo < hi.
  double bounded_pareto(double shape, double lo, double hi) {
    if (shape <= 0.0 || lo <= 0.0 || lo >= hi) {
      throw std::invalid_argument("Rng::bounded_pareto: need shape > 0, 0 < lo < hi");
    }
    const double u = uniform();
    const double lo_a = std::pow(lo, shape);
    const double hi_a = std::pow(hi, shape);
    // Inverse CDF of the truncated Pareto.
    return std::pow(-(u * hi_a - u * lo_a - hi_a) / (hi_a * lo_a), -1.0 / shape);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  Xoshiro256StarStar gen_;
};

/// Zipf(s, n) sampler over {1, ..., n} using rejection-inversion
/// (Hoermann & Derflinger 1996), O(1) per draw after O(1) setup, valid
/// for any exponent s >= 0 (s == 0 is the uniform distribution).
class ZipfDistribution {
 public:
  ZipfDistribution(double exponent, std::uint64_t num_elements);

  /// Draws a rank in [1, num_elements]. Defined inline: Zipf key draws
  /// dominate workload generation, and the rejection loop usually
  /// accepts on the first candidate.
  std::uint64_t sample(Rng& rng) const {
    if (n_ == 1) return 1;
    for (;;) {
      if (const std::uint64_t k = trial(rng.uniform())) return k;
    }
  }

  /// One rejection-inversion trial for a uniform draw `r` in [0, 1):
  /// the accepted rank, or 0 when the candidate is rejected. Most
  /// candidates pass the squeeze `k - x <= cut_`, which needs no `pow`;
  /// the rest take the exact acceptance test.
  std::uint64_t trial(double r) const {
    const double u = h_n_ + r * (h_x1_ - h_n_);
    const double x = h_inv(u);
    auto k = static_cast<std::uint64_t>(x + 0.5);
    k = k < 1 ? 1 : (k > n_ ? n_ : k);
    if (static_cast<double>(k) - x <= cut_) return k;
    if (u >= h(static_cast<double>(k) + 0.5) - std::pow(static_cast<double>(k), -s_)) return k;
    return 0;
  }

  double exponent() const noexcept { return s_; }
  std::uint64_t num_elements() const noexcept { return n_; }

 private:
  double h(double x) const {
    // Integral of x^-s: primitive H(x); special-cased at s == 1 (log).
    if (std::abs(s_ - 1.0) < 1e-12) return std::log(x);
    return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
  }
  double h_inv(double x) const {
    if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
    return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
  }

  double s_ = 0.0;
  std::uint64_t n_ = 0;
  double h_x1_ = 0.0;
  double h_n_ = 0.0;
  double cut_ = 0.0;
};

}  // namespace brb::util
