// Tests for the workload module: size/fan-out/key distributions,
// arrival processes, dataset, task generation, trace I/O, capacity
// planning.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_set>

#include "stats/summary.hpp"
#include "util/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/capacity.hpp"
#include "workload/fanout_dist.hpp"
#include "workload/key_dist.hpp"
#include "workload/size_dist.hpp"
#include "workload/task_gen.hpp"
#include "workload/trace.hpp"

namespace brb::workload {
namespace {

// ---------------------------------------------------------------------------
// Size distributions

TEST(GeneralizedParetoSizeDist, AtikogluDefaultsSampleInRange) {
  GeneralizedParetoSizeDist dist;
  util::Rng rng(1);
  for (int i = 0; i < 50000; ++i) {
    const std::uint32_t v = dist.sample(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, dist.max_size());
  }
}

TEST(GeneralizedParetoSizeDist, EmpiricalMeanMatchesAnalytic) {
  GeneralizedParetoSizeDist dist;
  util::Rng rng(2);
  stats::Summary s;
  for (int i = 0; i < 400000; ++i) s.add(dist.sample(rng));
  EXPECT_NEAR(s.mean(), dist.mean(), dist.mean() * 0.03);
}

TEST(GeneralizedParetoSizeDist, UncappedMeanApproximatesFormula) {
  // For GP(shape k < 1, location 0): E[X] = scale / (1 - k); the 1 MiB
  // cap and the 1-byte floor barely move it for the Atikoglu fit.
  GeneralizedParetoSizeDist dist;
  const double formula = 214.476 / (1.0 - 0.348238);
  EXPECT_NEAR(dist.mean(), formula, formula * 0.05);
}

TEST(GeneralizedParetoSizeDist, HeavyTail) {
  GeneralizedParetoSizeDist dist;
  util::Rng rng(3);
  std::uint32_t max_seen = 0;
  for (int i = 0; i < 200000; ++i) max_seen = std::max(max_seen, dist.sample(rng));
  // With 200k draws from the ETC fit we should see multi-KB values.
  EXPECT_GT(max_seen, 10'000u);
}

TEST(FixedSizeDist, AlwaysSame) {
  FixedSizeDist dist(777);
  util::Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.sample(rng), 777u);
  EXPECT_DOUBLE_EQ(dist.mean(), 777.0);
  EXPECT_THROW(FixedSizeDist(0), std::invalid_argument);
}

TEST(BoundedParetoSizeDist, StaysWithinBoundsAndMatchesMean) {
  BoundedParetoSizeDist dist(1.3, 64, 65536);
  util::Rng rng(5);
  stats::Summary s;
  for (int i = 0; i < 400000; ++i) {
    const std::uint32_t v = dist.sample(rng);
    ASSERT_GE(v, 64u);
    ASSERT_LE(v, 65536u);
    s.add(v);
  }
  EXPECT_NEAR(s.mean(), dist.mean(), dist.mean() * 0.05);
}

TEST(BoundedParetoSizeDist, RejectsBadParameters) {
  EXPECT_THROW(BoundedParetoSizeDist(0.0, 1, 10), std::invalid_argument);
  EXPECT_THROW(BoundedParetoSizeDist(1.0, 10, 10), std::invalid_argument);
  EXPECT_THROW(BoundedParetoSizeDist(1.0, 0, 10), std::invalid_argument);
}

TEST(LogNormalSizeDist, MeanMatchesQuadrature) {
  LogNormalSizeDist dist(6.0, 1.0, 1 << 20);
  util::Rng rng(6);
  stats::Summary s;
  for (int i = 0; i < 400000; ++i) s.add(dist.sample(rng));
  EXPECT_NEAR(s.mean(), dist.mean(), dist.mean() * 0.03);
}

TEST(SizeDistFactory, ParsesSpecs) {
  EXPECT_EQ(make_size_distribution("gpareto")->name(), "gpareto");
  EXPECT_EQ(make_size_distribution("fixed:512")->mean(), 512.0);
  EXPECT_EQ(make_size_distribution("bpareto:1.2:64:4096")->name(), "bpareto");
  EXPECT_EQ(make_size_distribution("lognormal:5:1:100000")->name(), "lognormal");
  EXPECT_THROW(make_size_distribution("nope"), std::invalid_argument);
  EXPECT_THROW(make_size_distribution(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fan-out distributions

TEST(FixedFanout, Constant) {
  FixedFanout f(8);
  util::Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(f.sample(rng), 8u);
  EXPECT_THROW(FixedFanout(0), std::invalid_argument);
}

TEST(GeometricFanout, MeanMatchesTarget) {
  GeometricFanout f(8.6);
  util::Rng rng(8);
  stats::Summary s;
  for (int i = 0; i < 400000; ++i) s.add(f.sample(rng));
  EXPECT_NEAR(s.mean(), 8.6, 0.1);
}

TEST(GeometricFanout, MinimumIsOne) {
  GeometricFanout f(1.0);
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(f.sample(rng), 1u);
}

TEST(LogNormalFanout, ForMeanCalibratesDiscretizedMean) {
  const auto f = LogNormalFanout::for_mean(8.6, 2.0, 512);
  EXPECT_NEAR(f.mean(), 8.6, 0.05);
  util::Rng rng(10);
  stats::Summary s;
  for (int i = 0; i < 400000; ++i) s.add(f.sample(rng));
  EXPECT_NEAR(s.mean(), 8.6, 0.25);
}

TEST(LogNormalFanout, SkewMatchesIntuition) {
  // With sigma 2.0 the median should be far below the mean.
  const auto f = LogNormalFanout::for_mean(8.6, 2.0, 512);
  util::Rng rng(11);
  std::vector<std::uint32_t> draws;
  for (int i = 0; i < 100000; ++i) draws.push_back(f.sample(rng));
  std::sort(draws.begin(), draws.end());
  EXPECT_LE(draws[draws.size() / 2], 3u);
  EXPECT_GE(draws[static_cast<std::size_t>(draws.size() * 0.99)], 50u);
}

TEST(LogNormalFanout, ForMeanPinsCalibratedBits) {
  // mu and mean() bit for bit as the plain 80-step bisection over the
  // full quadrature returned them: the registry's specs, the factory
  // default, and edges — target 1 and an unreachable target (only hi
  // moves, to -5), a target at the cap (only lo moves, to 15), cap 1,
  // a tiny sigma.
  struct Pin {
    double target;
    double sigma;
    std::uint32_t cap;
    std::uint64_t mu_bits;
    std::uint64_t mean_bits;
  };
  constexpr Pin kPins[] = {
      {8.6, 2.0, 512, 0x3fca085798eb9a38ULL, 0x4021334240bb880cULL},
      {8.6, 0.8, 1024, 0x3ffd4ea48cb70ce0ULL, 0x402133215b1ee76eULL},
      {8.6, 1.0, 512, 0x3ffa68d15192feb6ULL, 0x4021333869729e5fULL},
      {2.5, 1.0, 64, 0x3fd70acdd773a476ULL, 0x4004004cafc729ccULL},
      {24, 1.5, 512, 0x4000c8204075823eULL, 0x40380001d2fda049ULL},
      {8.6, 2.0, 64, 0x3fe59038e827b034ULL, 0x40213330d685693bULL},
      {1.0, 0.8, 1024, 0xc014000000000000ULL, 0x3ff0000000007d44ULL},
      {1.0, 2.0, 1, 0xc014000000000000ULL, 0x3ff0000000000000ULL},
      {512, 2.0, 512, 0x402e000000000000ULL, 0x407ffffc50e429c0ULL},
      {500, 0.5, 512, 0x401b563610a375aaULL, 0x407f3fff4d589540ULL},
      {1.5, 0.05, 4, 0x3fd9f38a5325feb0ULL, 0x3ff7ffffffffffaeULL},
      {3.0, 8.0, 100000, 0xc014000000000000ULL, 0x40a5510d50f82566ULL},
  };
  for (const Pin& pin : kPins) {
    const auto f = LogNormalFanout::for_mean(pin.target, pin.sigma, pin.cap);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f.mu()), pin.mu_bits)
        << pin.target << ":" << pin.sigma << ":" << pin.cap << " mu " << f.mu();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f.mean()), pin.mean_bits)
        << pin.target << ":" << pin.sigma << ":" << pin.cap << " mean " << f.mean();
  }
}

TEST(LogNormalFanout, RespectsCap) {
  const auto f = LogNormalFanout::for_mean(8.6, 2.0, 64);
  util::Rng rng(12);
  for (int i = 0; i < 100000; ++i) ASSERT_LE(f.sample(rng), 64u);
}

TEST(EmpiricalFanout, MatchesWeights) {
  EmpiricalFanout f({0.0, 1.0, 0.0, 3.0});  // fanouts 2 and 4 at 1:3
  util::Rng rng(13);
  std::uint64_t twos = 0;
  std::uint64_t fours = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::uint32_t v = f.sample(rng);
    ASSERT_TRUE(v == 2 || v == 4);
    (v == 2 ? twos : fours) += 1;
  }
  EXPECT_NEAR(static_cast<double>(fours) / static_cast<double>(twos), 3.0, 0.2);
  EXPECT_DOUBLE_EQ(f.mean(), 0.25 * 2 + 0.75 * 4);
}

TEST(EmpiricalFanout, RejectsDegenerate) {
  EXPECT_THROW(EmpiricalFanout({}), std::invalid_argument);
  EXPECT_THROW(EmpiricalFanout({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(EmpiricalFanout({1.0, -1.0}), std::invalid_argument);
}

TEST(FanoutFactory, ParsesSpecs) {
  EXPECT_EQ(make_fanout_distribution("fixed:4")->mean(), 4.0);
  EXPECT_NEAR(make_fanout_distribution("geometric:8.6")->mean(), 8.6, 1e-9);
  EXPECT_NEAR(make_fanout_distribution("lognormal:8.6:2.0:512")->mean(), 8.6, 0.05);
  EXPECT_THROW(make_fanout_distribution("bogus"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Key distributions

TEST(UniformKeys, CoversKeyspace) {
  UniformKeys keys(100);
  util::Rng rng(14);
  std::set<store::KeyId> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(keys.sample(rng));
  EXPECT_GT(seen.size(), 95u);
  for (const store::KeyId k : seen) ASSERT_LT(k, 100u);
}

TEST(ZipfKeys, SkewedButInRange) {
  ZipfKeys keys(1000, 1.0);
  util::Rng rng(15);
  std::map<store::KeyId, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[keys.sample(rng)];
  for (const auto& [k, c] : counts) ASSERT_LT(k, 1000u);
  // The hottest key should far exceed the uniform share.
  int hottest = 0;
  for (const auto& [k, c] : counts) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, 5 * (100000 / 1000));
}

TEST(KeyFactory, ParsesSpecs) {
  EXPECT_EQ(make_key_distribution("uniform:500")->num_keys(), 500u);
  EXPECT_EQ(make_key_distribution("zipf:500:0.9")->num_keys(), 500u);
  EXPECT_THROW(make_key_distribution("what"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Arrival processes

TEST(PoissonArrivals, MeanGapMatchesRate) {
  PoissonArrivals arrivals(1000.0);
  util::Rng rng(16);
  stats::Summary s;
  for (int i = 0; i < 200000; ++i) s.add(arrivals.next_gap(rng).as_seconds());
  EXPECT_NEAR(s.mean(), 1e-3, 5e-5);
  // Exponential gaps: CV = 1.
  EXPECT_NEAR(s.stddev() / s.mean(), 1.0, 0.05);
}

TEST(PoissonArrivals, GapsAreStrictlyPositive) {
  PoissonArrivals arrivals(1e9);
  util::Rng rng(17);
  for (int i = 0; i < 10000; ++i) ASSERT_GT(arrivals.next_gap(rng).count_nanos(), 0);
}

TEST(PacedArrivals, ConstantGap) {
  PacedArrivals arrivals(100.0);
  util::Rng rng(18);
  EXPECT_EQ(arrivals.next_gap(rng).count_nanos(), 10'000'000);
  EXPECT_EQ(arrivals.next_gap(rng).count_nanos(), 10'000'000);
}

TEST(ArrivalProcesses, RejectNonPositiveRates) {
  EXPECT_THROW(PoissonArrivals(0.0), std::invalid_argument);
  EXPECT_THROW(PacedArrivals(-1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Dataset + TaskGenerator

TEST(Dataset, StableSizesPerKey) {
  FixedSizeDist sizes(100);
  Dataset d(50, sizes, util::Rng(19));
  EXPECT_EQ(d.num_keys(), 50u);
  EXPECT_EQ(d.size_of(0), 100u);
  EXPECT_THROW(d.size_of(50), std::out_of_range);
}

TEST(Dataset, SameSeedSameSizes) {
  GeneralizedParetoSizeDist sizes;
  Dataset a(100, sizes, util::Rng(20));
  Dataset b(100, sizes, util::Rng(20));
  for (store::KeyId k = 0; k < 100; ++k) ASSERT_EQ(a.size_of(k), b.size_of(k));
}

TaskGenerator make_generator(const Dataset& dataset, const KeyDistribution& keys,
                             const FanoutDistribution& fanout, std::uint64_t seed) {
  TaskGenerator::Config config;
  config.num_clients = 4;
  return TaskGenerator(config, dataset, keys, fanout,
                       std::make_unique<PoissonArrivals>(1000.0), util::Rng(seed));
}

TEST(TaskGenerator, ArrivalsStrictlyIncreaseAndIdsSequential) {
  FixedSizeDist sizes(100);
  Dataset dataset(1000, sizes, util::Rng(21));
  UniformKeys keys(1000);
  FixedFanout fanout(4);
  auto generator = make_generator(dataset, keys, fanout, 22);
  sim::Time last = sim::Time::zero();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const TaskSpec task = generator.next();
    EXPECT_EQ(task.id, i);
    EXPECT_GT(task.arrival, last);
    last = task.arrival;
  }
}

TEST(TaskGenerator, RoundRobinClientAssignment) {
  FixedSizeDist sizes(100);
  Dataset dataset(1000, sizes, util::Rng(23));
  UniformKeys keys(1000);
  FixedFanout fanout(2);
  auto generator = make_generator(dataset, keys, fanout, 24);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(generator.next().client, static_cast<store::ClientId>(i % 4));
  }
}

TEST(TaskGenerator, DistinctKeysWithinTask) {
  FixedSizeDist sizes(100);
  Dataset dataset(50, sizes, util::Rng(25));
  UniformKeys keys(50);
  FixedFanout fanout(20);
  auto generator = make_generator(dataset, keys, fanout, 26);
  for (int i = 0; i < 200; ++i) {
    const TaskSpec task = generator.next();
    std::unordered_set<store::KeyId> unique;
    for (const auto& request : task.requests) unique.insert(request.key);
    EXPECT_EQ(unique.size(), task.requests.size());
  }
}

TEST(TaskGenerator, DistinctKeyStreamIsPinned) {
  // Regression pin for the distinct-key sampling path: the sorted-vector
  // dedup scratch must consume the RNG stream and emit keys exactly as
  // the original unordered_set-based membership check did. Any change to
  // the sampling order shifts every downstream artifact, so the full
  // (client, key, size_hint) stream is pinned by hash for a fixed seed.
  GeneralizedParetoSizeDist sizes;
  Dataset dataset(2000, sizes, util::Rng(77));
  ZipfKeys keys(2000, 0.9);
  FixedFanout fanout(16);
  auto generator = make_generator(dataset, keys, fanout, 78);
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64
  const auto mix = [&hash](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (int i = 0; i < 500; ++i) {
    const TaskSpec task = generator.next();
    mix(task.client);
    for (const auto& request : task.requests) {
      mix(request.key);
      mix(request.size_hint);
    }
  }
  EXPECT_EQ(hash, 0xf964fe5a03ddc8b0ull);
}

TEST(TaskGenerator, FanoutClampedToKeyspace) {
  FixedSizeDist sizes(100);
  Dataset dataset(3, sizes, util::Rng(27));
  UniformKeys keys(3);
  FixedFanout fanout(10);  // more than the keyspace holds
  auto generator = make_generator(dataset, keys, fanout, 28);
  const TaskSpec task = generator.next();
  EXPECT_EQ(task.requests.size(), 3u);
}

TEST(TaskGenerator, SizeHintsMatchDataset) {
  GeneralizedParetoSizeDist sizes;
  Dataset dataset(500, sizes, util::Rng(29));
  UniformKeys keys(500);
  FixedFanout fanout(5);
  auto generator = make_generator(dataset, keys, fanout, 30);
  for (int i = 0; i < 100; ++i) {
    const TaskSpec task = generator.next();
    for (const auto& request : task.requests) {
      ASSERT_EQ(request.size_hint, dataset.size_of(request.key));
    }
  }
}

TEST(TaskGenerator, EmpiricalMeanFanoutTracksDistribution) {
  FixedSizeDist sizes(100);
  Dataset dataset(100'000, sizes, util::Rng(31));
  UniformKeys keys(100'000);
  const auto fanout = LogNormalFanout::for_mean(8.6, 2.0, 512);
  auto generator = make_generator(dataset, keys, fanout, 32);
  stats::Summary s;
  for (int i = 0; i < 20000; ++i) s.add(generator.next().fanout());
  EXPECT_NEAR(s.mean(), 8.6, 0.5);
}

// ---------------------------------------------------------------------------
// Batched sampling: every sample_batch/next_gap_batch path must consume
// the RNG stream draw-for-draw identically to scalar sampling — the
// byte-identity of seeded artifacts rests on it.

template <typename Dist, typename Value>
void expect_batch_matches_scalar(const Dist& dist, std::uint64_t seed, std::size_t n) {
  util::Rng scalar_rng(seed);
  util::Rng batch_rng(seed);
  std::vector<Value> batch(n);
  dist.sample_batch(batch_rng, batch.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(batch[i], dist.sample(scalar_rng)) << "draw " << i;
  }
  // Both streams must land on the same state: no extra or missing draws.
  EXPECT_EQ(scalar_rng.next_u64(), batch_rng.next_u64());
}

TEST(KeyDistBatch, MatchesScalarDrawForDraw) {
  expect_batch_matches_scalar<ZipfKeys, store::KeyId>(ZipfKeys(100'000, 0.9), 41, 4096);
  expect_batch_matches_scalar<UniformKeys, store::KeyId>(UniformKeys(5000), 42, 4096);
}

TEST(FanoutBatch, MatchesScalarDrawForDraw) {
  expect_batch_matches_scalar<FixedFanout, std::uint32_t>(FixedFanout(16), 43, 1024);
  expect_batch_matches_scalar<GeometricFanout, std::uint32_t>(GeometricFanout(8.6), 44, 4096);
  expect_batch_matches_scalar<LogNormalFanout, std::uint32_t>(
      LogNormalFanout(2.0, 0.8, 512), 45, 4096);
  expect_batch_matches_scalar<EmpiricalFanout, std::uint32_t>(
      EmpiricalFanout({0.5, 0.3, 0.2}), 46, 1024);  // default (virtual-loop) batch path
}

TEST(SizeDistBatch, MatchesScalarDrawForDraw) {
  expect_batch_matches_scalar<GeneralizedParetoSizeDist, std::uint32_t>(
      GeneralizedParetoSizeDist(), 47, 4096);
  expect_batch_matches_scalar<FixedSizeDist, std::uint32_t>(FixedSizeDist(100), 48, 512);
}

TEST(ArrivalBatch, MatchesScalarDrawForDraw) {
  PoissonArrivals poisson(14'000.0);
  util::Rng scalar_rng(49);
  util::Rng batch_rng(49);
  std::vector<sim::Duration> gaps(4096);
  poisson.next_gap_batch(batch_rng, gaps.data(), gaps.size());
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    ASSERT_EQ(gaps[i], poisson.next_gap(scalar_rng)) << "gap " << i;
  }
  EXPECT_EQ(scalar_rng.next_u64(), batch_rng.next_u64());

  PacedArrivals paced(1000.0);
  util::Rng paced_rng(50);
  std::vector<sim::Duration> paced_gaps(64);
  paced.next_gap_batch(paced_rng, paced_gaps.data(), paced_gaps.size());
  for (const sim::Duration gap : paced_gaps) EXPECT_EQ(gap, paced.next_gap(paced_rng));
}

TEST(TaskGenerator, FillBlockMatchesNextDrawForDraw) {
  // Two identically-seeded generators: one consumed task-by-task via
  // next(), one in uneven fill_block chunks. Every field of every task
  // (and the final RNG stream position, via the last arrival) must
  // coincide — the block path is the scalar path.
  GeneralizedParetoSizeDist sizes;
  Dataset dataset(2000, sizes, util::Rng(61));
  ZipfKeys keys(2000, 0.9);
  GeometricFanout fanout(6.0);
  auto scalar_gen = make_generator(dataset, keys, fanout, 62);
  auto block_gen = make_generator(dataset, keys, fanout, 62);
  FixedSizeDist write_sizes(256);
  scalar_gen.set_write_traffic(0.25, &write_sizes);
  block_gen.set_write_traffic(0.25, &write_sizes);

  TaskBlock block;
  const std::size_t chunks[] = {1, 64, 7, 256, 128, 44};
  for (const std::size_t chunk : chunks) {
    block_gen.fill_block(block, chunk);
    ASSERT_EQ(block.size(), chunk);
    for (std::size_t i = 0; i < block.size(); ++i) {
      const TaskSpec expected = scalar_gen.next();
      const TaskView got = block.view(i);
      ASSERT_EQ(got.id, expected.id);
      ASSERT_EQ(got.client, expected.client);
      ASSERT_EQ(got.tenant, expected.tenant);
      ASSERT_EQ(got.arrival, expected.arrival);
      ASSERT_EQ(got.fanout, expected.requests.size());
      for (std::size_t r = 0; r < got.fanout; ++r) {
        ASSERT_EQ(got.requests[r].key, expected.requests[r].key);
        ASSERT_EQ(got.requests[r].size_hint, expected.requests[r].size_hint);
        ASSERT_EQ(got.requests[r].is_write, expected.requests[r].is_write);
      }
    }
  }
}

TEST(TenantClientBlocks, LargestRemainderBoundariesPinned) {
  // Regression pin for the sort-based largest-remainder split: slots go
  // to the largest fractional parts, ties to the lowest tenant index —
  // exactly the order the old repeated-argmax rescan awarded them.
  const auto make_tenants = [](std::initializer_list<double> shares) {
    std::vector<TenantMix> tenants;
    for (const double share : shares) {
      TenantMix mix;
      mix.name = "t" + std::to_string(tenants.size());
      mix.share = share;
      tenants.push_back(std::move(mix));
    }
    return tenants;
  };
  // Three-way fractional tie (.667 each), two spare slots: tenants 0
  // and 1 win.
  EXPECT_EQ(tenant_client_blocks(make_tenants({1.0, 1.0, 1.0}), 11),
            (std::vector<std::uint32_t>{0, 4, 8, 11}));
  // Two-way tie (.5 vs .5), one slot: lowest index wins.
  EXPECT_EQ(tenant_client_blocks(make_tenants({0.5, 0.25, 0.25}), 9),
            (std::vector<std::uint32_t>{0, 4, 7, 9}));
  // Mixed fractions: award order .833, .833 (tie -> index 3 then 4), .667.
  EXPECT_EQ(tenant_client_blocks(make_tenants({5.0, 3.0, 2.0, 1.0, 1.0}), 27),
            (std::vector<std::uint32_t>{0, 10, 16, 21, 24, 27}));
}

// ---------------------------------------------------------------------------
// Trace I/O

TEST(Trace, RoundTripsThroughStream) {
  FixedSizeDist sizes(64);
  Dataset dataset(100, sizes, util::Rng(33));
  UniformKeys keys(100);
  FixedFanout fanout(3);
  auto generator = make_generator(dataset, keys, fanout, 34);
  const auto tasks = generator.generate(50);

  std::stringstream buffer;
  TraceWriter::write(buffer, tasks);
  const auto replayed = TraceReader::read(buffer);

  ASSERT_EQ(replayed.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_EQ(replayed[i].id, tasks[i].id);
    ASSERT_EQ(replayed[i].client, tasks[i].client);
    ASSERT_EQ(replayed[i].arrival, tasks[i].arrival);
    ASSERT_EQ(replayed[i].requests.size(), tasks[i].requests.size());
    for (std::size_t r = 0; r < tasks[i].requests.size(); ++r) {
      ASSERT_EQ(replayed[i].requests[r].key, tasks[i].requests[r].key);
      ASSERT_EQ(replayed[i].requests[r].size_hint, tasks[i].requests[r].size_hint);
    }
  }
}

TEST(Trace, RejectsMissingHeader) {
  std::stringstream buffer("1,0,100,5:10\n");
  EXPECT_THROW(TraceReader::read(buffer), std::runtime_error);
}

TEST(Trace, RejectsMalformedLine) {
  std::stringstream buffer("#brb-trace-v1\n1,0,100,notakey\n");
  EXPECT_THROW(TraceReader::read(buffer), std::runtime_error);
}

TEST(Trace, RejectsTaskWithoutRequests) {
  std::stringstream buffer("#brb-trace-v1\n1,0,100,\n");
  EXPECT_THROW(TraceReader::read(buffer), std::runtime_error);
}

TEST(Trace, SkipsCommentsAndBlankLines) {
  std::stringstream buffer("#brb-trace-v1\n\n# comment\n1,0,100,5:10\n");
  const auto tasks = TraceReader::read(buffer);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].requests[0].key, 5u);
}

TEST(Trace, FileRoundTrip) {
  FixedSizeDist sizes(64);
  Dataset dataset(10, sizes, util::Rng(35));
  UniformKeys keys(10);
  FixedFanout fanout(2);
  auto generator = make_generator(dataset, keys, fanout, 36);
  const auto tasks = generator.generate(5);
  const std::string path = "/tmp/brb_trace_test.csv";
  TraceWriter::write_file(path, tasks);
  const auto replayed = TraceReader::read_file(path);
  EXPECT_EQ(replayed.size(), 5u);
  std::remove(path.c_str());
  EXPECT_THROW(TraceReader::read_file("/nonexistent/path.csv"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Capacity planning

TEST(CapacityPlanner, PaperNumbers) {
  CapacityPlanner planner(ClusterSpec{});  // 9 x 4 x 3500
  EXPECT_DOUBLE_EQ(planner.system_capacity_rps(), 126'000.0);
  EXPECT_DOUBLE_EQ(planner.request_rate_for_utilization(0.7), 88'200.0);
  EXPECT_NEAR(planner.task_rate_for_utilization(0.7, 8.6), 10'255.8, 0.1);
  EXPECT_NEAR(planner.utilization_for_task_rate(10'255.8, 8.6), 0.7, 1e-4);
}

TEST(CapacityPlanner, RejectsDegenerateClusters) {
  EXPECT_THROW(CapacityPlanner(ClusterSpec{0, 4, 3500.0}), std::invalid_argument);
  EXPECT_THROW(CapacityPlanner(ClusterSpec{9, 0, 3500.0}), std::invalid_argument);
  EXPECT_THROW(CapacityPlanner(ClusterSpec{9, 4, 0.0}), std::invalid_argument);
}

TEST(CapacityPlanner, RejectsBadQueries) {
  CapacityPlanner planner(ClusterSpec{});
  EXPECT_THROW(planner.request_rate_for_utilization(-0.1), std::invalid_argument);
  EXPECT_THROW(planner.task_rate_for_utilization(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(planner.utilization_for_task_rate(-1.0, 8.6), std::invalid_argument);
}

}  // namespace
}  // namespace brb::workload
