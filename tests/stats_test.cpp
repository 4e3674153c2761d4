// Tests for the stats module: summaries, histograms, quantile
// estimators, latency recorder, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "stats/latency_recorder.hpp"
#include "stats/quantile.hpp"
#include "stats/report.hpp"
#include "stats/sketch.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "util/rng.hpp"

namespace brb::stats {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, NumericalStabilityLargeOffset) {
  Summary s;
  for (int i = 0; i < 10000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(Histogram, EmptyThrowsOnQuantile) {
  Histogram h;
  EXPECT_THROW(h.value_at_quantile(0.5), std::logic_error);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.median(), 1234);
  EXPECT_EQ(h.min(), 1234);
  EXPECT_EQ(h.max(), 1234);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::int64_t v = 0; v < 1000; ++v) h.record(v);
  // Values below the sub-bucket resolution are recorded exactly; the
  // median rank is ceil(0.5 * 1000) = 500th smallest, i.e. value 499.
  EXPECT_EQ(h.value_at_quantile(0.5), 499);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 999);
}

TEST(Histogram, RelativeErrorBounded) {
  Histogram h(3'600'000'000'000LL, 3);
  util::Rng rng(2);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 200000; ++i) {
    values.push_back(rng.uniform_int(1, 1'000'000'000));
    h.record(values.back());
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const auto exact = values[static_cast<std::size_t>(q * (values.size() - 1))];
    const auto approx = h.value_at_quantile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.01)
        << "q=" << q;
  }
}

TEST(Histogram, MeanTracksSum) {
  Histogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(Histogram, OverflowClampsAndCounts) {
  Histogram h(1000, 3);
  h.record(5000);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_LE(h.max(), 1000);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.record(-17);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.value_at_quantile(0.5), 0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_THROW(h.value_at_quantile(0.5), std::logic_error);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1, 3), std::invalid_argument);
  EXPECT_THROW(Histogram(1000, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1000, 6), std::invalid_argument);
}

TEST(Histogram, RecordNBulk) {
  Histogram h;
  h.record_n(42, 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.median(), 42);
  h.record_n(42, 0);
  EXPECT_EQ(h.count(), 1000u);
}

TEST(ExactQuantiles, MatchesSortedOrderStats) {
  ExactQuantiles eq;
  for (int i = 100; i >= 1; --i) eq.add(i);
  EXPECT_DOUBLE_EQ(eq.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(eq.quantile(1.0), 100.0);
  // Type-7: h = q*(n-1); q=0.5 -> 50.5.
  EXPECT_DOUBLE_EQ(eq.quantile(0.5), 50.5);
}

TEST(ExactQuantiles, ThrowsWhenEmpty) {
  ExactQuantiles eq;
  EXPECT_THROW(eq.quantile(0.5), std::logic_error);
}

TEST(ExactQuantiles, SingleElement) {
  ExactQuantiles eq;
  eq.add(7.0);
  EXPECT_DOUBLE_EQ(eq.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(eq.quantile(0.99), 7.0);
}

TEST(ExactQuantiles, QuantileDoesNotReorderValues) {
  // Regression: quantile() used to nth_element the sample buffer in
  // place, scrambling values() and mutating under const.
  ExactQuantiles eq;
  for (int i = 100; i >= 1; --i) eq.add(i);
  const std::vector<double> before = eq.values();
  eq.quantile(0.5);
  eq.quantile(0.99);
  EXPECT_EQ(eq.values(), before);
}

TEST(ExactQuantiles, RepeatedQueriesUseSortedCache) {
  ExactQuantiles eq;
  util::Rng rng(17);
  for (int i = 0; i < 5000; ++i) eq.add(rng.uniform());
  const double first = eq.quantile(0.95);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(eq.quantile(0.95), first);
  // A mutation invalidates the cache even at unchanged count semantics.
  eq.add(1e9);
  EXPECT_DOUBLE_EQ(eq.quantile(1.0), 1e9);
}

TEST(ExactQuantiles, CacheInvalidatedByClearAndRefill) {
  ExactQuantiles eq;
  for (int i = 1; i <= 10; ++i) eq.add(i);
  EXPECT_DOUBLE_EQ(eq.quantile(1.0), 10.0);
  eq.clear();
  for (int i = 101; i <= 110; ++i) eq.add(i);  // same count, new values
  EXPECT_DOUBLE_EQ(eq.quantile(1.0), 110.0);
}

TEST(ExactQuantiles, ConcurrentQuantileReadsAreSafeAndConsistent) {
  // An ExactQuantiles shared across threads may see racing first
  // reads (the sorted cache is built lazily); they must agree.
  ExactQuantiles eq;
  util::Rng rng(18);
  for (int i = 0; i < 20000; ++i) eq.add(rng.exponential(1.0));
  ExactQuantiles reference = eq;
  const double expected_p50 = reference.quantile(0.5);
  const double expected_p99 = reference.quantile(0.99);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (eq.quantile(0.5) != expected_p50) mismatches.fetch_add(1);
        if (eq.quantile(0.99) != expected_p99) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ExactQuantiles, CopyAndAssignKeepSamples) {
  ExactQuantiles eq;
  for (int i = 1; i <= 9; ++i) eq.add(i);
  eq.quantile(0.5);  // populate the cache before copying
  const ExactQuantiles copy = eq;
  EXPECT_EQ(copy.count(), 9u);
  EXPECT_DOUBLE_EQ(copy.quantile(0.5), 5.0);
  ExactQuantiles assigned;
  assigned.add(42.0);
  assigned = eq;
  EXPECT_DOUBLE_EQ(assigned.quantile(1.0), 9.0);
}

TEST(QuantileSketch, RejectsBadAlphaAndThrowsWhenEmpty) {
  EXPECT_THROW(QuantileSketch(0.0), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(1.0), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(-0.1), std::invalid_argument);
  QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.quantile(0.5), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.max(), std::logic_error);
}

TEST(QuantileSketch, ZeroBucketHoldsNonPositiveSamples) {
  QuantileSketch s;
  s.add(0.0);
  s.add(-2.0);
  s.add(10.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.bucket_count(), 1u);  // only the positive sample grids
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  // Rank 1 of 3 at q=0.5 is still a zero-bucket sample; the estimate
  // clamps to 0 (latencies cannot be negative downstream).
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(QuantileSketch, RelativeErrorBoundedOnHeavyTails) {
  // Heavy-tailed streams shaped like nanosecond latencies: lognormal
  // (skewed service) and exponential (queueing tail). Estimates must
  // stay within the documented alpha bound at every reported quantile,
  // plus a whisker for the rank-convention gap vs type-7 interpolation.
  util::Rng rng(21);
  QuantileSketch lognormal;
  ExactQuantiles lognormal_exact;
  QuantileSketch exponential;
  ExactQuantiles exponential_exact;
  for (int i = 0; i < 200000; ++i) {
    const double ln_v = std::exp(rng.normal(std::log(1e6), 1.5));
    lognormal.add(ln_v);
    lognormal_exact.add(ln_v);
    const double ex_v = rng.exponential(1.0 / 5e6);
    exponential.add(ex_v);
    exponential_exact.add(ex_v);
  }
  const double bound = QuantileSketch::kDefaultAlpha + 0.005;
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double ln_truth = lognormal_exact.quantile(q);
    EXPECT_NEAR(lognormal.quantile(q), ln_truth, ln_truth * bound) << "lognormal q=" << q;
    const double ex_truth = exponential_exact.quantile(q);
    EXPECT_NEAR(exponential.quantile(q), ex_truth, ex_truth * bound) << "exponential q=" << q;
  }
  const double ln_min = lognormal_exact.quantile(0.0);
  const double ln_max = lognormal_exact.quantile(1.0);
  EXPECT_NEAR(lognormal.quantile(0.0), ln_min, ln_min * bound);
  EXPECT_NEAR(lognormal.quantile(1.0), ln_max, ln_max * bound);
  EXPECT_DOUBLE_EQ(lognormal.min(), ln_min);
  EXPECT_DOUBLE_EQ(lognormal.max(), ln_max);
}

TEST(QuantileSketch, ShardMergeByteIdenticalForAnyPartition) {
  // The merge contract `brbsim merge` rides on: round-robin the stream
  // over N shard sketches, merge them in order, and the result must
  // serialize byte-identically to the unsharded sketch — for every N.
  util::Rng rng(22);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(std::exp(rng.normal(std::log(2e6), 1.2)));
  }
  samples[7] = 0.0;  // exercise the zero bucket across the partition
  QuantileSketch reference;
  for (const double v : samples) reference.add(v);
  const std::string reference_json = reference.to_json().dump_string(-1);

  for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
    std::vector<QuantileSketch> parts(shards);
    for (std::size_t i = 0; i < samples.size(); ++i) parts[i % shards].add(samples[i]);
    QuantileSketch merged = parts[0];
    for (std::size_t i = 1; i < shards; ++i) merged.merge(parts[i]);
    EXPECT_EQ(merged.to_json().dump_string(-1), reference_json) << "shards=" << shards;
    EXPECT_EQ(merged.count(), reference.count());
    EXPECT_DOUBLE_EQ(merged.quantile(0.99), reference.quantile(0.99));
  }
}

TEST(QuantileSketch, MergeIsCommutativeAndAssociative) {
  util::Rng rng(23);
  QuantileSketch a;
  QuantileSketch b;
  QuantileSketch c;
  for (int i = 0; i < 3000; ++i) {
    a.add(rng.exponential(1e-6));
    b.add(rng.uniform(1.0, 1e9));
    c.add(std::exp(rng.normal(10.0, 2.0)));
  }
  QuantileSketch abc = a;
  abc.merge(b);
  abc.merge(c);
  QuantileSketch cba = c;
  cba.merge(b);
  cba.merge(a);
  QuantileSketch bc = b;  // a + (b + c): associativity
  bc.merge(c);
  QuantileSketch a_bc = a;
  a_bc.merge(bc);
  const std::string expected = abc.to_json().dump_string(-1);
  EXPECT_EQ(cba.to_json().dump_string(-1), expected);
  EXPECT_EQ(a_bc.to_json().dump_string(-1), expected);
}

TEST(QuantileSketch, MergeRejectsAlphaMismatchAndAllowsEmpty) {
  QuantileSketch fine(0.01);
  QuantileSketch coarse(0.05);
  fine.add(1.0);
  coarse.add(1.0);
  EXPECT_THROW(fine.merge(coarse), std::invalid_argument);
  QuantileSketch empty;
  fine.merge(empty);  // no-op
  EXPECT_EQ(fine.count(), 1u);
  empty.merge(fine);  // adopts the other's extremes
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
}

TEST(QuantileSketch, JsonRoundTripPreservesEverything) {
  util::Rng rng(24);
  QuantileSketch s;
  for (int i = 0; i < 5000; ++i) s.add(rng.exponential(1e-7));
  s.add(0.0);
  const Json emitted = s.to_json();
  const QuantileSketch parsed = QuantileSketch::from_json(emitted);
  EXPECT_EQ(parsed.to_json().dump_string(-1), emitted.dump_string(-1));
  EXPECT_EQ(parsed.count(), s.count());
  EXPECT_DOUBLE_EQ(parsed.quantile(0.99), s.quantile(0.99));
  EXPECT_DOUBLE_EQ(parsed.min(), s.min());
  EXPECT_DOUBLE_EQ(parsed.max(), s.max());
  // An empty sketch round-trips too (no min/max keys emitted).
  const QuantileSketch empty_parsed = QuantileSketch::from_json(QuantileSketch().to_json());
  EXPECT_TRUE(empty_parsed.empty());
}

TEST(QuantileSketch, FromJsonRejectsMalformedDocuments) {
  for (const char* text :
       {"{}", "[1,2]", R"({"alpha":0.01,"count":1,"zero":0})",
        R"({"alpha":0.01,"count":0,"zero":0,"buckets":[[1]]})",
        R"({"alpha":0.01,"count":0,"zero":0,"buckets":[["x",1]]})"}) {
    EXPECT_THROW(QuantileSketch::from_json(Json::parse(text)), std::runtime_error) << text;
  }
}

TEST(LatencyRecorder, RecordsAndSummarizes) {
  LatencyRecorder r(false);
  r.record(sim::Duration::millis(1));
  r.record(sim::Duration::millis(2));
  r.record(sim::Duration::millis(3));
  EXPECT_EQ(r.count(), 3u);
  EXPECT_NEAR(r.mean().as_millis(), 2.0, 0.01);
  EXPECT_NEAR(r.percentile(50).as_millis(), 2.0, 0.02);
  EXPECT_EQ(r.min().count_nanos(), sim::Duration::millis(1).count_nanos());
  EXPECT_EQ(r.max().count_nanos(), sim::Duration::millis(3).count_nanos());
}

TEST(LatencyRecorder, RawModeIsExact) {
  LatencyRecorder r(true);
  for (int i = 1; i <= 1001; ++i) r.record(sim::Duration::nanos(i));
  EXPECT_EQ(r.percentile(50).count_nanos(), 501);
}

TEST(LatencyRecorder, NegativeDurationsClampToZero) {
  LatencyRecorder r(false);
  r.record(sim::Duration::nanos(-5));
  EXPECT_EQ(r.min().count_nanos(), 0);
}

TEST(LatencyRecorder, SketchIsOptIn) {
  LatencyRecorder off(false);
  off.record(sim::Duration::millis(1));
  EXPECT_EQ(off.sketch(), nullptr);

  LatencyRecorder on(false);
  on.enable_sketch();
  for (int ms = 1; ms <= 100; ++ms) on.record(sim::Duration::millis(ms));
  ASSERT_NE(on.sketch(), nullptr);
  EXPECT_EQ(on.sketch()->count(), 100u);
  EXPECT_NEAR(on.sketch()->percentile(99) / 1e6, 99.0, 99.0 * 0.02);
}

TEST(LatencyRecorder, CopyCarriesTheSketch) {
  LatencyRecorder a(false);
  a.enable_sketch();
  a.record(sim::Duration::millis(1));
  a.record(sim::Duration::millis(2));
  ASSERT_NE(a.sketch(), nullptr);

  // Copies must deep-copy: recording into the original cannot leak
  // into the copy (run results are copied into aggregates).
  const LatencyRecorder copy = a;
  a.record(sim::Duration::millis(3));
  ASSERT_NE(copy.sketch(), nullptr);
  EXPECT_EQ(copy.sketch()->count(), 2u);
  EXPECT_EQ(a.sketch()->count(), 3u);
}

TEST(Table, AlignsAndPrints) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableFormatters, Render) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_millis(2.5, 1), "2.5ms");
  EXPECT_EQ(fmt_ratio(1.987, 2), "1.99x");
}

TEST(Json, ScalarsRenderCompactly) {
  EXPECT_EQ(Json{}.dump_string(-1), "null");
  EXPECT_EQ(Json(true).dump_string(-1), "true");
  EXPECT_EQ(Json(42).dump_string(-1), "42");
  EXPECT_EQ(Json(std::uint64_t{7}).dump_string(-1), "7");
  EXPECT_EQ(Json(2.5).dump_string(-1), "2.5");
  EXPECT_EQ(Json("hi").dump_string(-1), "\"hi\"");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json j = Json::object();
  j["z"] = 1;
  j["a"] = 2;
  j["z"] = 3;  // update in place, no duplicate key
  EXPECT_EQ(j.dump_string(-1), "{\"z\":3,\"a\":2}");
  EXPECT_EQ(j.size(), 2u);
}

TEST(Json, NestedStructuresRender) {
  Json j = Json::object();
  Json runs = Json::array();
  runs.push_back(1);
  runs.push_back("two");
  j["runs"] = std::move(runs);
  j["empty_obj"] = Json::object();
  j["empty_arr"] = Json::array();
  EXPECT_EQ(j.dump_string(-1), "{\"runs\":[1,\"two\"],\"empty_obj\":{},\"empty_arr\":[]}");
}

TEST(Json, EscapesStringsAndNonFiniteNumbers) {
  Json j = Json::object();
  j["s"] = "a\"b\\c\nd";
  j["nan"] = std::nan("");
  EXPECT_EQ(j.dump_string(-1), "{\"s\":\"a\\\"b\\\\c\\nd\",\"nan\":null}");
}

TEST(Json, TypeMisuseThrows) {
  Json arr = Json::array();
  arr.push_back(1);
  EXPECT_THROW(arr["key"], std::logic_error);
  Json obj = Json::object();
  EXPECT_THROW(obj.push_back(1), std::logic_error);
}

TEST(CsvField, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
}

}  // namespace
}  // namespace brb::stats
