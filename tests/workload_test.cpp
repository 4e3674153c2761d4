// Tests for the workload module: size/fan-out/key distributions,
// arrival processes, dataset, task generation, trace I/O, capacity
// planning.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
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
  const auto dist = SizeDistribution::generalized_pareto();
  util::Rng rng(1);
  for (int i = 0; i < 50000; ++i) {
    const std::uint32_t v = dist.sample(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, dist.max_size());
  }
}

TEST(GeneralizedParetoSizeDist, EmpiricalMeanMatchesAnalytic) {
  const auto dist = SizeDistribution::generalized_pareto();
  util::Rng rng(2);
  stats::Summary s;
  for (int i = 0; i < 400000; ++i) s.add(dist.sample(rng));
  EXPECT_NEAR(s.mean(), dist.mean(), dist.mean() * 0.03);
}

TEST(GeneralizedParetoSizeDist, UncappedMeanApproximatesFormula) {
  // For GP(shape k < 1, location 0): E[X] = scale / (1 - k); the 1 MiB
  // cap and the 1-byte floor barely move it for the Atikoglu fit.
  const auto dist = SizeDistribution::generalized_pareto();
  const double formula = 214.476 / (1.0 - 0.348238);
  EXPECT_NEAR(dist.mean(), formula, formula * 0.05);
}

TEST(GeneralizedParetoSizeDist, HeavyTail) {
  const auto dist = SizeDistribution::generalized_pareto();
  util::Rng rng(3);
  std::uint32_t max_seen = 0;
  for (int i = 0; i < 200000; ++i) max_seen = std::max(max_seen, dist.sample(rng));
  // With 200k draws from the ETC fit we should see multi-KB values.
  EXPECT_GT(max_seen, 10'000u);
}

TEST(FixedSizeDist, AlwaysSame) {
  const auto dist = SizeDistribution::fixed(777);
  util::Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.sample(rng), 777u);
  EXPECT_DOUBLE_EQ(dist.mean(), 777.0);
  EXPECT_THROW(SizeDistribution::fixed(0), std::invalid_argument);
}

TEST(BoundedParetoSizeDist, StaysWithinBoundsAndMatchesMean) {
  const auto dist = SizeDistribution::bounded_pareto(1.3, 64, 65536);
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
  EXPECT_THROW(SizeDistribution::bounded_pareto(0.0, 1, 10), std::invalid_argument);
  EXPECT_THROW(SizeDistribution::bounded_pareto(1.0, 10, 10), std::invalid_argument);
  EXPECT_THROW(SizeDistribution::bounded_pareto(1.0, 0, 10), std::invalid_argument);
}

TEST(LogNormalSizeDist, MeanMatchesQuadrature) {
  const auto dist = SizeDistribution::lognormal(6.0, 1.0, 1 << 20);
  util::Rng rng(6);
  stats::Summary s;
  for (int i = 0; i < 400000; ++i) s.add(dist.sample(rng));
  EXPECT_NEAR(s.mean(), dist.mean(), dist.mean() * 0.03);
}

/// True when `spec` builds a size distribution of kind `kind`.
bool sizes_are(SizeDistribution::Kind kind, const std::string& spec) {
  return make_size_distribution(spec)->kind() == kind;
}

TEST(SizeDistFactory, ParsesSpecs) {
  EXPECT_TRUE(sizes_are(SizeDistribution::Kind::kGeneralizedPareto, "gpareto"));
  EXPECT_EQ(make_size_distribution("fixed:512")->mean(), 512.0);
  EXPECT_TRUE(sizes_are(SizeDistribution::Kind::kBoundedPareto, "bpareto:1.2:64:4096"));
  EXPECT_EQ(make_size_distribution("bpareto:1.2:64:4096")->max_size(), 4096u);
  EXPECT_TRUE(sizes_are(SizeDistribution::Kind::kLogNormal, "lognormal:5:1:100000"));
  EXPECT_EQ(make_size_distribution("lognormal:5:1:100000")->max_size(), 100000u);
  EXPECT_THROW(make_size_distribution("nope"), std::invalid_argument);
  EXPECT_THROW(make_size_distribution(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fan-out distributions

TEST(FixedFanout, Constant) {
  const auto f = FanoutDistribution::fixed(8);
  util::Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(f.sample(rng), 8u);
  EXPECT_THROW(FanoutDistribution::fixed(0), std::invalid_argument);
}

TEST(GeometricFanout, MeanMatchesTarget) {
  const auto f = FanoutDistribution::geometric(8.6);
  util::Rng rng(8);
  stats::Summary s;
  for (int i = 0; i < 400000; ++i) s.add(f.sample(rng));
  EXPECT_NEAR(s.mean(), 8.6, 0.1);
}

TEST(GeometricFanout, MinimumIsOne) {
  const auto f = FanoutDistribution::geometric(1.0);
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(f.sample(rng), 1u);
}

TEST(LogNormalFanout, ForMeanCalibratesDiscretizedMean) {
  const auto f = FanoutDistribution::lognormal_for_mean(8.6, 2.0, 512);
  EXPECT_NEAR(f.mean(), 8.6, 0.05);
  util::Rng rng(10);
  stats::Summary s;
  for (int i = 0; i < 400000; ++i) s.add(f.sample(rng));
  EXPECT_NEAR(s.mean(), 8.6, 0.25);
}

TEST(LogNormalFanout, SkewMatchesIntuition) {
  // With sigma 2.0 the median should be far below the mean.
  const auto f = FanoutDistribution::lognormal_for_mean(8.6, 2.0, 512);
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
    const auto f = FanoutDistribution::lognormal_for_mean(pin.target, pin.sigma, pin.cap);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f.mu()), pin.mu_bits)
        << pin.target << ":" << pin.sigma << ":" << pin.cap << " mu " << f.mu();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f.mean()), pin.mean_bits)
        << pin.target << ":" << pin.sigma << ":" << pin.cap << " mean " << f.mean();
  }
}

TEST(LogNormalFanout, RespectsCap) {
  const auto f = FanoutDistribution::lognormal_for_mean(8.6, 2.0, 64);
  util::Rng rng(12);
  for (int i = 0; i < 100000; ++i) ASSERT_LE(f.sample(rng), 64u);
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
  const auto keys = KeyDistribution::uniform(100);
  util::Rng rng(14);
  std::set<store::KeyId> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(keys.sample(rng));
  EXPECT_GT(seen.size(), 95u);
  for (const store::KeyId k : seen) ASSERT_LT(k, 100u);
}

TEST(ZipfKeys, SkewedButInRange) {
  const auto keys = KeyDistribution::zipf(1000, 1.0);
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
  // A trailing ':' leaves an empty argument, which is not a number.
  EXPECT_THROW(make_key_distribution("zipf:500:"), std::invalid_argument);
  EXPECT_THROW(make_key_distribution("uniform:"), std::invalid_argument);
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
  const auto sizes = SizeDistribution::fixed(100);
  Dataset d(50, sizes, util::Rng(19));
  EXPECT_EQ(d.num_keys(), 50u);
  EXPECT_EQ(d.size_of(0), 100u);
  EXPECT_THROW(d.size_of(50), std::out_of_range);
}

TEST(Dataset, SameSeedSameSizes) {
  const auto sizes = SizeDistribution::generalized_pareto();
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
  const auto sizes = SizeDistribution::fixed(100);
  Dataset dataset(1000, sizes, util::Rng(21));
  const auto keys = KeyDistribution::uniform(1000);
  const auto fanout = FanoutDistribution::fixed(4);
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
  const auto sizes = SizeDistribution::fixed(100);
  Dataset dataset(1000, sizes, util::Rng(23));
  const auto keys = KeyDistribution::uniform(1000);
  const auto fanout = FanoutDistribution::fixed(2);
  auto generator = make_generator(dataset, keys, fanout, 24);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(generator.next().client, static_cast<store::ClientId>(i % 4));
  }
}

TEST(TaskGenerator, DistinctKeysWithinTask) {
  const auto sizes = SizeDistribution::fixed(100);
  Dataset dataset(50, sizes, util::Rng(25));
  const auto keys = KeyDistribution::uniform(50);
  const auto fanout = FanoutDistribution::fixed(20);
  auto generator = make_generator(dataset, keys, fanout, 26);
  for (int i = 0; i < 200; ++i) {
    const TaskSpec task = generator.next();
    std::unordered_set<store::KeyId> unique;
    for (const auto& request : task.requests) unique.insert(request.key);
    EXPECT_EQ(unique.size(), task.requests.size());
  }
}

TEST(TaskGenerator, DistinctKeyStreamIsPinned) {
  // Regression pin for the distinct-key sampling path: the dedup must
  // consume the RNG stream and emit keys exactly as the original
  // unordered_set-based membership check did. Any change to
  // the sampling order shifts every downstream artifact, so the full
  // (client, key, size_hint) stream is pinned by hash for a fixed seed.
  const auto sizes = SizeDistribution::generalized_pareto();
  Dataset dataset(2000, sizes, util::Rng(77));
  const auto keys = KeyDistribution::zipf(2000, 0.9);
  const auto fanout = FanoutDistribution::fixed(16);
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

// FNV-1a 64 of a generator's next `tasks` tasks: arrival (which pins the
// RNG position the task's draws left behind), client, and each request's
// key and size hint in emission order. Also returns the largest fan-out.
std::pair<std::uint64_t, std::size_t> hash_distinct_stream(TaskGenerator& generator,
                                                           int tasks) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  std::size_t max_fanout = 0;
  for (int i = 0; i < tasks; ++i) {
    const TaskSpec task = generator.next();
    max_fanout = std::max(max_fanout, task.requests.size());
    mix(static_cast<std::uint64_t>(task.arrival.count_nanos()));
    mix(task.client);
    for (const auto& request : task.requests) {
      mix(request.key);
      mix(request.size_hint);
    }
  }
  return {hash, max_fanout};
}

TEST(TaskGenerator, PaperMixDistinctStreamIsPinned) {
  // The paper's workload (Zipf(0.9) over 100k keys, log-normal fan-out
  // capped at 512) with distinct keys, over enough tasks that some reach
  // the cap: pins the dedup at the fan-outs where it costs the most.
  const auto sizes = make_size_distribution("gpareto");
  const auto keys = make_key_distribution("zipf:100000:0.9");
  const auto fanout = make_fanout_distribution("lognormal:8.6:2.0:512");
  Dataset dataset(keys->num_keys(), *sizes, util::Rng(81));
  auto generator = make_generator(dataset, *keys, *fanout, 82);
  const auto [hash, max_fanout] = hash_distinct_stream(generator, 5000);
  EXPECT_EQ(max_fanout, 512u);
  EXPECT_EQ(hash, 0x55c492fb5a4dc347ull) << std::hex << "0x" << hash;
}

TEST(TaskGenerator, DistinctKeyFallbackScanIsPinned) {
  // Scrambled Zipf over 16 keys reaches fewer than 16 of them, so a
  // fixed:16 task spends its whole 64 * 16 + 256 draw budget and then
  // takes the unreached keys by ascending scan. Pins both phases.
  const auto sizes = make_size_distribution("gpareto");
  const auto keys = make_key_distribution("zipf:16:0.9");
  const auto fanout = make_fanout_distribution("fixed:16");
  util::Rng probe(83);
  std::set<store::KeyId> reachable;
  for (int i = 0; i < 100'000; ++i) reachable.insert(keys->sample(probe));
  ASSERT_LT(reachable.size(), 16u);

  Dataset dataset(keys->num_keys(), *sizes, util::Rng(84));
  auto generator = make_generator(dataset, *keys, *fanout, 85);
  const auto [hash, max_fanout] = hash_distinct_stream(generator, 200);
  EXPECT_EQ(max_fanout, 16u);
  EXPECT_EQ(hash, 0xda3fa5b850c56893ull) << std::hex << "0x" << hash;
}

TEST(TaskGenerator, FanoutClampedToKeyspace) {
  const auto sizes = SizeDistribution::fixed(100);
  Dataset dataset(3, sizes, util::Rng(27));
  const auto keys = KeyDistribution::uniform(3);
  const auto fanout = FanoutDistribution::fixed(10);  // more than the keyspace holds
  auto generator = make_generator(dataset, keys, fanout, 28);
  const TaskSpec task = generator.next();
  EXPECT_EQ(task.requests.size(), 3u);
}

TEST(TaskGenerator, SizeHintsMatchDataset) {
  const auto sizes = SizeDistribution::generalized_pareto();
  Dataset dataset(500, sizes, util::Rng(29));
  const auto keys = KeyDistribution::uniform(500);
  const auto fanout = FanoutDistribution::fixed(5);
  auto generator = make_generator(dataset, keys, fanout, 30);
  for (int i = 0; i < 100; ++i) {
    const TaskSpec task = generator.next();
    for (const auto& request : task.requests) {
      ASSERT_EQ(request.size_hint, dataset.size_of(request.key));
    }
  }
}

TEST(TaskGenerator, EmpiricalMeanFanoutTracksDistribution) {
  const auto sizes = SizeDistribution::fixed(100);
  Dataset dataset(100'000, sizes, util::Rng(31));
  const auto keys = KeyDistribution::uniform(100'000);
  const auto fanout = FanoutDistribution::lognormal_for_mean(8.6, 2.0, 512);
  auto generator = make_generator(dataset, keys, fanout, 32);
  stats::Summary s;
  for (int i = 0; i < 20000; ++i) s.add(generator.next().fanout());
  EXPECT_NEAR(s.mean(), 8.6, 0.5);
}

TEST(TaskGenerator, FillBlockMatchesNextDrawForDraw) {
  // Two identically-seeded generators: one consumed task-by-task via
  // next(), one in uneven fill_block chunks. Every field of every task
  // (and the final RNG stream position, via the last arrival) must
  // coincide — the block path is the scalar path.
  const auto sizes = SizeDistribution::generalized_pareto();
  Dataset dataset(2000, sizes, util::Rng(61));
  const auto keys = KeyDistribution::zipf(2000, 0.9);
  const auto fanout = FanoutDistribution::geometric(6.0);
  auto scalar_gen = make_generator(dataset, keys, fanout, 62);
  auto block_gen = make_generator(dataset, keys, fanout, 62);
  const auto write_sizes = SizeDistribution::fixed(256);
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

TEST(TaskGenerator, StreamIsPinned) {
  // Regression pin for every model's draw order: FNV-1a hashes of a
  // Dataset's sizes and of 2000 fill_block tasks (arrival, client,
  // tenant, and each request's key, size and write flag) over the grid
  // {uniform, zipf} keys x {fixed, geometric, lognormal} fan-out x
  // {poisson, paced, diurnal} arrivals x writes {0, 0.3} x distinct
  // keys {off, on}. Any change to what a draw consumes or the order of
  // draws moves a hash.
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64
  const auto mix = [&hash](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 1099511628211ull;
    }
  };

  const auto sizes = make_size_distribution("gpareto");
  Dataset dataset(2000, *sizes, util::Rng(91));
  for (store::KeyId key = 0; key < dataset.num_keys(); ++key) mix(dataset.size_of(key));
  EXPECT_EQ(hash, 0xd4315c430fa918d8ull) << std::hex << "dataset 0x" << hash;

  const char* const key_specs[] = {"uniform:2000", "zipf:2000:0.9"};
  const char* const fanout_specs[] = {"fixed:8", "geometric:8.6", "lognormal:8.6"};
  const char* const arrival_specs[] = {"poisson", "paced", "diurnal:0.5:1.5:0.5"};
  const double write_fractions[] = {0.0, 0.3};
  // One hash per grid cell, in loop order (distinct keys innermost).
  const std::uint64_t pinned[72] = {
      0x5401bf3ac30c1301ull, 0xd5f5c180f66050b7ull, 0x94a277f007af6fa5ull,
      0xf56cabce55edce33ull, 0xfdd398317e0318d3ull, 0x541c275b37f5327ull,
      0xef4c7e56e389f916ull, 0x1fd413196363d01ull, 0x7cab39379c6fef51ull,
      0x57427e71ccc32bcaull, 0x7d4f8366bc93f841ull, 0xbded2a8a4398c0dull,
      0xfdebb69913031b3bull, 0xf4016255dbbda867ull, 0x637b0cfca4592f4cull,
      0x117e601e4020a5bcull, 0xfa0a65fdccd78df3ull, 0x8543e70cdaae809eull,
      0xd3940fdade45eefeull, 0xc79f426a82ee4689ull, 0x8e9a5688447f8c5full,
      0xf51e833cf6f9e215ull, 0x8c71e4edc24d1b53ull, 0xd3c6bc241fcb097eull,
      0x1ef61f98ae135987ull, 0xd4433f7cebc25adaull, 0xbda7ecc3b7e5a8acull,
      0x997cd683b693e380ull, 0x36b8a444799a2a3bull, 0xa879a7ab8beb2b2aull,
      0xa8147ec82cbc72e5ull, 0x43e7e3f269fe7cb5ull, 0x9cb23751179b0756ull,
      0xdabb09b88d22f327ull, 0x128128a3cf8e5840ull, 0xf62440c8b1f2eb1dull,
      0x2f1325b75c0c7eb5ull, 0x81ffb254b4d4873aull, 0xbaf357316565742eull,
      0x65e3a5ac45193426ull, 0x5b2e6227593c660bull, 0xe4d7d25a4df759f6ull,
      0xb9aaec40d07bd2cull, 0x2ccf7780acaeb49eull, 0xc308624eb812c8f2ull,
      0xc62e1ef6dde795c4ull, 0xa86670f8307f2bc9ull, 0xa14c78b3e54a5a6ull,
      0xba02d215f5ac3b35ull, 0x6f3fb31cd97bc76eull, 0x4444c4970381b4c0ull,
      0x49e85b3f5e8fbea1ull, 0x760f15a83d9d8dc7ull, 0x455e4783bea5a774ull,
      0x3f0035709003c86cull, 0xb1aa5aa811773adaull, 0x87bd5bae06e11ea3ull,
      0x1928f704b35953bull, 0x5307e21d9322bd7full, 0xcd7c9a73ab473588ull,
      0x959b7e34801a2545ull, 0xd57d8cf0cf77e975ull, 0x658b6300985cbe27ull,
      0x76ba88a142e2e9f7ull, 0xc90b29dd523ef91bull, 0xd37097a11999397full,
      0xe945e3d0cd18d62aull, 0x115285c618774661ull, 0x32edcc16f53d045eull,
      0x984a9297d0945beaull, 0x3df6bf7a60e55f8cull, 0xe8a04d226b2d6f0eull,
  };
  std::size_t cell = 0;
  for (const char* key_spec : key_specs) {
    const auto keys = make_key_distribution(key_spec);
    for (const char* fanout_spec : fanout_specs) {
      const auto fanout = make_fanout_distribution(fanout_spec);
      for (const char* arrival_spec : arrival_specs) {
        for (const double writes : write_fractions) {
          for (const bool distinct : {false, true}) {
            TaskGenerator::Config config;
            config.num_clients = 7;
            config.distinct_keys = distinct;
            TaskGenerator generator(config, dataset, *keys, *fanout,
                                    make_arrival_process(arrival_spec, 2000.0),
                                    util::Rng(92 + cell));
            generator.set_write_traffic(writes, sizes.get());
            hash = 1469598103934665603ull;
            TaskBlock block;
            for (std::size_t done = 0; done < 2000; done += block.size()) {
              generator.fill_block(block, std::min<std::size_t>(256, 2000 - done));
              for (std::size_t i = 0; i < block.size(); ++i) {
                const TaskView task = block.view(i);
                mix(static_cast<std::uint64_t>(task.arrival.count_nanos()));
                mix(task.client);
                mix(task.tenant.value());
                for (std::uint32_t r = 0; r < task.fanout; ++r) {
                  mix(task.requests[r].key);
                  mix(task.requests[r].size_hint);
                  mix(task.requests[r].is_write ? 1 : 0);
                }
              }
            }
            EXPECT_EQ(hash, pinned[cell])
                << std::hex << "cell " << std::dec << cell << " " << key_spec << " "
                << fanout_spec << " " << arrival_spec << " writes " << writes << " distinct "
                << distinct << ": 0x" << std::hex << hash;
            ++cell;
          }
        }
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
  const auto sizes = SizeDistribution::fixed(64);
  Dataset dataset(100, sizes, util::Rng(33));
  const auto keys = KeyDistribution::uniform(100);
  const auto fanout = FanoutDistribution::fixed(3);
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

TEST(Trace, RejectsFieldsThatAreNotWholeInRangeIntegers) {
  // Each line is read strictly: the whole field must be a decimal
  // integer within its type's range, and the error names the line.
  for (const std::string bad :
       {"2x,0,100,5:10",            // trailing characters in the task id
        "1,0,100,5:4294967396",     // size past 2^32-1 (was truncated to 100)
        "1,4294967297,100,5:10",    // client past 2^32-1
        "1,0,-5000,5:10",           // negative arrival
        "1,0,9223372036854775808,5:10",  // arrival past int64
        "18446744073709551616,0,100,5:10",  // task id past 2^64-1
        "1,0,100,5x:10", "1,0,100,5:10;", "1,0,100,5:10,7:1", "1,0,100", "1,0,+100,5:10",
        "1, 0,100,5:10"}) {
    std::stringstream buffer("#brb-trace-v1\n# comment\n" + bad + "\n");
    try {
      TraceReader::read(buffer);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    }
  }
}

TEST(Trace, AcceptsEachFieldAtItsLimit) {
  std::stringstream buffer(
      "#brb-trace-v1\n18446744073709551615,4294967295,9223372036854775807,"
      "18446744073709551615:4294967295;0:0\n");
  const auto tasks = TraceReader::read(buffer);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].id, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(tasks[0].client, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(tasks[0].arrival.count_nanos(), std::numeric_limits<std::int64_t>::max());
  ASSERT_EQ(tasks[0].requests.size(), 2u);
  EXPECT_EQ(tasks[0].requests[0].key, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(tasks[0].requests[0].size_hint, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(tasks[0].requests[1].key, 0u);
}

TEST(Trace, SkipsCommentsAndBlankLines) {
  std::stringstream buffer("#brb-trace-v1\n\n# comment\n1,0,100,5:10\n");
  const auto tasks = TraceReader::read(buffer);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].requests[0].key, 5u);
}

TEST(Trace, FileRoundTrip) {
  const auto sizes = SizeDistribution::fixed(64);
  Dataset dataset(10, sizes, util::Rng(35));
  const auto keys = KeyDistribution::uniform(10);
  const auto fanout = FanoutDistribution::fixed(2);
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
