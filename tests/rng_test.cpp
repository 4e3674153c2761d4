// Tests for util::Rng and its distributions: determinism, stream
// independence, and statistical sanity of every sampler.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "stats/summary.hpp"

namespace brb::util {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro, LongJumpChangesStream) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  b.long_jump();
  int same = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Xoshiro, LongJumpTableMatchesReferenceLoop) {
  // The table-driven jump must equal the published 256-step loop on
  // every state: each unit vector (one column bit at a time, which is
  // what linearity composes) and a large sample of random states.
  const auto expect_same = [](const Xoshiro256StarStar::State& state) {
    Xoshiro256StarStar table(state);
    Xoshiro256StarStar reference(state);
    table.long_jump();
    reference.long_jump_reference();
    return table.state() == reference.state();
  };
  for (std::size_t bit = 0; bit < 256; ++bit) {
    Xoshiro256StarStar::State unit{};
    unit[bit / 64] = std::uint64_t{1} << (bit % 64);
    ASSERT_TRUE(expect_same(unit)) << "unit bit " << bit;
  }
  SplitMix64 states(20260101);
  for (int i = 0; i < 100'000; ++i) {
    const Xoshiro256StarStar::State state{states.next(), states.next(), states.next(),
                                          states.next()};
    ASSERT_TRUE(expect_same(state)) << "random state " << i;
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(4);
  stats::Summary s;
  for (int i = 0; i < 200000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.002);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 7.0);
  }
}

TEST(Rng, UniformThrowsOnInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(6);
  std::map<std::int64_t, int> histogram;
  for (int i = 0; i < 60000; ++i) ++histogram[rng.uniform_int(1, 6)];
  ASSERT_EQ(histogram.size(), 6u);
  for (const auto& [value, count] : histogram) {
    EXPECT_GE(value, 1);
    EXPECT_LE(value, 6);
    // Each face ~10000; allow generous slack.
    EXPECT_NEAR(count, 10000, 600);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformU64BelowRespectsBound) {
  Rng rng(21);
  for (const std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.uniform_u64_below(bound), bound);
  }
}

TEST(Rng, UniformU64BelowMatchesUniformIntStream) {
  // Same rejection-sampling core: for int64-expressible bounds the two
  // APIs must consume the generator identically and agree draw-by-draw.
  Rng a(22);
  Rng b(22);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(static_cast<std::int64_t>(a.uniform_u64_below(1000)), b.uniform_int(0, 999));
  }
}

TEST(Rng, UniformU64BelowUniformBeyondInt64Range) {
  // Bounds past 2^63 are exactly the regime uniform_int cannot span.
  Rng rng(23);
  const std::uint64_t bound = (1ULL << 63) + (1ULL << 62);
  const std::uint64_t bucket_width = bound / 8 + 1;
  std::array<int, 8> buckets{};
  const int draws = 80000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t v = rng.uniform_u64_below(bound);
    ASSERT_LT(v, bound);
    ++buckets[static_cast<std::size_t>(v / bucket_width)];
  }
  for (const int count : buckets) EXPECT_NEAR(count, draws / 8, draws / 8 * 0.10);
}

TEST(Rng, UniformU64BelowUniformJustPastInt64Boundary) {
  // Regression: a reservoir's replacement draw over `seen` observations
  // used to be funneled through uniform_int's int64 parameter,
  // overflowing (UB) once a stream passes 2^63. The draw must stay
  // uniform over the full [0, bound) range just beyond that boundary.
  Rng rng(20);
  const std::uint64_t bound = (1ULL << 63) + 987654321ULL;
  const std::uint64_t bucket_width = bound / 16 + 1;
  std::array<int, 16> buckets{};
  const int draws = 64000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t v = rng.uniform_u64_below(bound);
    ASSERT_LT(v, bound);
    ++buckets[static_cast<std::size_t>(v / bucket_width)];
  }
  const double expected = draws / 16.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    EXPECT_NEAR(buckets[b], expected, expected * 0.10) << "bucket " << b;
  }
}

TEST(Rng, UniformU64BelowRejectsZeroBound) {
  Rng rng(24);
  EXPECT_THROW(rng.uniform_u64_below(0), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanAndCv) {
  Rng rng(10);
  stats::Summary s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.05);
  // Exponential: stddev == mean.
  EXPECT_NEAR(s.stddev() / s.mean(), 1.0, 0.03);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(10);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  stats::Summary s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMean) {
  Rng rng(12);
  stats::Summary s;
  const double mu = 0.0;
  const double sigma = 0.5;
  for (int i = 0; i < 200000; ++i) s.add(rng.lognormal(mu, sigma));
  EXPECT_NEAR(s.mean(), std::exp(mu + sigma * sigma / 2), 0.02);
}

TEST(Rng, ParetoSupportAndMean) {
  Rng rng(13);
  stats::Summary s;
  const double shape = 3.0;
  const double scale = 2.0;
  for (int i = 0; i < 200000; ++i) {
    const double v = rng.pareto(shape, scale);
    ASSERT_GE(v, scale);
    s.add(v);
  }
  // E[X] = shape*scale/(shape-1) = 3.
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
}

TEST(Rng, GeneralizedParetoReducesToExponentialAtZeroShape) {
  Rng rng(14);
  stats::Summary s;
  for (int i = 0; i < 200000; ++i) s.add(rng.generalized_pareto(0.0, 2.0, 0.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(Rng, GeneralizedParetoMeanMatchesFormula) {
  Rng rng(15);
  stats::Summary s;
  const double shape = 0.3;
  const double scale = 100.0;
  for (int i = 0; i < 400000; ++i) s.add(rng.generalized_pareto(shape, scale, 0.0));
  // E[X] = scale / (1 - shape) for shape < 1.
  EXPECT_NEAR(s.mean(), scale / (1.0 - shape), scale * 0.05);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(16);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.bounded_pareto(1.2, 64.0, 4096.0);
    ASSERT_GE(v, 64.0);
    ASSERT_LE(v, 4096.0);
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(20);
  Rng child = parent.split();
  // Correlation between the two streams should be negligible.
  stats::Summary cov;
  stats::Summary a_stats;
  stats::Summary b_stats;
  for (int i = 0; i < 50000; ++i) {
    const double a = parent.uniform();
    const double b = child.uniform();
    a_stats.add(a);
    b_stats.add(b);
    cov.add((a - 0.5) * (b - 0.5));
  }
  EXPECT_LT(std::abs(cov.mean()), 0.003);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(21);
  Rng b(21);
  Rng child_a = a.split();
  Rng child_b = b.split();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(child_a.next_u64(), child_b.next_u64());
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(24);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Zipf, UniformWhenExponentZero) {
  Rng rng(25);
  ZipfDistribution zipf(0.0, 10);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng) - 1];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 800);
}

TEST(Zipf, RankOneIsHottest) {
  Rng rng(26);
  ZipfDistribution zipf(1.2, 1000);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.sample(rng) - 1];
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[99]);
  EXPECT_GT(counts[99], counts[999]);
}

TEST(Zipf, FrequenciesFollowPowerLaw) {
  Rng rng(27);
  const double s = 1.0;
  ZipfDistribution zipf(s, 100);
  std::vector<double> counts(100, 0.0);
  const int n = 500000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng) - 1];
  // count(rank 1) / count(rank 10) should be ~ 10^s.
  EXPECT_NEAR(counts[0] / counts[9], 10.0, 1.0);
}

TEST(Zipf, SingleElement) {
  Rng rng(28);
  ZipfDistribution zipf(1.5, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 1u);
}

TEST(Zipf, SamplesAlwaysInRange) {
  Rng rng(29);
  ZipfDistribution zipf(0.9, 37);
  for (int i = 0; i < 50000; ++i) {
    const auto v = zipf.sample(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 37u);
  }
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfDistribution(-0.1, 10), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(1.0, 0), std::invalid_argument);
}

class ZipfExponentSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentSweep, HeadProbabilityMatchesAnalytic) {
  const double s = GetParam();
  Rng rng(31);
  const std::uint64_t n = 50;
  ZipfDistribution zipf(s, n);
  double harmonic = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) harmonic += 1.0 / std::pow(static_cast<double>(k), s);
  const double expect_p1 = 1.0 / harmonic;
  int hits = 0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) hits += zipf.sample(rng) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / draws, expect_p1, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentSweep,
                         ::testing::Values(0.5, 0.9, 1.0, 1.2, 2.0));

// ---------------------------------------------------------------------------
// The squeeze must not change a single draw.

/// Reference copy of the sampler before its squeeze bound was fixed:
/// `cut_` was 1 - H^-1(...), about -0.51 at s = 0.9, so the squeeze
/// never fired and every candidate took the exact acceptance test.
class ExactTestZipf {
 public:
  ExactTestZipf(double s, std::uint64_t n) : s_(s), n_(n) {
    h_x1_ = h(1.5) - 1.0;
    h_n_ = h(static_cast<double>(n_) + 0.5);
    cut_ = 1.0 - h_inv(h(2.5) - std::pow(2.0, -s_));
  }

  std::uint64_t sample(Rng& rng) const {
    if (n_ == 1) return 1;
    for (;;) {
      if (const std::uint64_t k = trial(rng.uniform())) return k;
    }
  }

  std::uint64_t trial(double r) const {
    const double u = h_n_ + r * (h_x1_ - h_n_);
    const double x = h_inv(u);
    auto k = static_cast<std::uint64_t>(x + 0.5);
    k = k < 1 ? 1 : (k > n_ ? n_ : k);
    if (static_cast<double>(k) - x <= cut_) return k;
    if (u >= h(static_cast<double>(k) + 0.5) - std::pow(static_cast<double>(k), -s_)) return k;
    return 0;
  }

  /// The uniform draw at which the exact test for rank k flips:
  /// u = H(k + 1/2) - k^-s.
  double boundary_uniform(std::uint64_t k) const {
    const double u = h(static_cast<double>(k) + 0.5) - std::pow(static_cast<double>(k), -s_);
    return (u - h_n_) / (h_x1_ - h_n_);
  }

 private:
  double h(double x) const {
    if (std::abs(s_ - 1.0) < 1e-12) return std::log(x);
    return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
  }
  double h_inv(double x) const {
    if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
    return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
  }

  double s_;
  std::uint64_t n_;
  double h_x1_ = 0.0;
  double h_n_ = 0.0;
  double cut_ = 0.0;
};

// The registry's and the benches' exponents (0.5 .. 1.2), the log
// branch (1.0), and the extremes.
constexpr double kSqueezeExponents[] = {0.5, 0.9, 1.0, 1.1, 1.2, 0.01, 2.0, 5.0};

class ZipfSqueeze : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSqueeze, MatchesExactTestDrawForDraw) {
  // Just over 10^7 draws per exponent, spread over three key counts.
  const double s = GetParam();
  for (const std::uint64_t n : {10u, 1000u, 100'000u}) {
    const ZipfDistribution zipf(s, n);
    const ExactTestZipf exact(s, n);
    Rng fast_rng(n);
    Rng exact_rng(n);
    for (int i = 0; i < 3'400'000; ++i) {
      const std::uint64_t got = zipf.sample(fast_rng);
      const std::uint64_t want = exact.sample(exact_rng);
      ASSERT_EQ(got, want) << "s " << s << " n " << n << " draw " << i;
    }
    ASSERT_EQ(fast_rng.next_u64(), exact_rng.next_u64()) << "s " << s << " n " << n;
  }
}

TEST_P(ZipfSqueeze, ExhaustiveAroundExactTestBoundaries) {
  // Every uniform Rng::uniform can return (a multiple of 2^-53) within
  // 2*10^5 steps of where the exact test flips for ranks 2, 3 and n.
  // At rank 2 the unmargined squeeze bound coincides with that flip.
  const double s = GetParam();
  constexpr double kStep = 0x1.0p-53;
  constexpr std::int64_t kWindow = 200'000;
  for (const std::uint64_t n : {10u, 1000u, 100'000u}) {
    const ZipfDistribution zipf(s, n);
    const ExactTestZipf exact(s, n);
    for (const std::uint64_t k : {std::uint64_t{2}, std::uint64_t{3}, n}) {
      const auto center = static_cast<std::int64_t>(exact.boundary_uniform(k) / kStep);
      const std::int64_t first = std::max<std::int64_t>(0, center - kWindow);
      const std::int64_t last = std::min<std::int64_t>((std::int64_t{1} << 53) - 1, center + kWindow);
      for (std::int64_t m = first; m <= last; ++m) {
        const double r = static_cast<double>(m) * kStep;
        ASSERT_EQ(zipf.trial(r), exact.trial(r)) << "s " << s << " n " << n << " k " << k
                                                 << " step " << m - center;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfSqueeze, ::testing::ValuesIn(kSqueezeExponents));

}  // namespace
}  // namespace brb::util
