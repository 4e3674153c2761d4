// The sharded sweep subsystem: Json parse/emit round-trips, the
// deterministic plan partition, and the headline property — merging
// the artifacts of any N-way sharded run reproduces the unsharded
// artifact byte for byte (modulo the trailing "timing" subtree).
// Also the paper-claims readout brbsim prints from an artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/sweep_plan.hpp"
#include "core/scenario.hpp"
#include "stats/artifact.hpp"
#include "stats/report.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace brb {
namespace {

using stats::Json;

// ---------------------------------------------------------------------------
// Json::parse — round trips and error handling

std::string reparse_compact(const std::string& text) {
  return Json::parse(text).dump_string(-1);
}

TEST(JsonParse, ScalarsRoundTrip) {
  for (const char* text : {"null", "true", "false", "0", "42", "-17", "\"hi\"", "2.5",
                           "-0.125", "1e+300", "9223372036854775807", "-9223372036854775808"}) {
    EXPECT_EQ(reparse_compact(text), text) << text;
  }
}

TEST(JsonParse, KindsAreClassified) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("42").kind(), Json::Kind::kInt);
  EXPECT_EQ(Json::parse("42.0").kind(), Json::Kind::kDouble);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e-3").as_double(), 0.0025);
  EXPECT_EQ(Json::parse("\"a b\"").as_string(), "a b");
  // as_double accepts integers too (artifact readers do arithmetic).
  EXPECT_DOUBLE_EQ(Json::parse("7").as_double(), 7.0);
}

TEST(JsonParse, NestedDocumentsRoundTrip) {
  const std::string text =
      R"({"tool":"brbsim","cases":[{"label":"a","runs":[1,2.5,null]},{"label":"b","runs":[]}],"empty":{}})";
  EXPECT_EQ(reparse_compact(text), text);
  // Indented emission parses back to the same document.
  const Json doc = Json::parse(text);
  EXPECT_EQ(Json::parse(doc.dump_string(2)).dump_string(-1), text);
}

TEST(JsonParse, StringEscapesRoundTrip) {
  const std::string text = R"json({"s":"a\"b\\c\nd\te","u":"\u0001x"})json";
  EXPECT_EQ(reparse_compact(text), text);
  EXPECT_EQ(Json::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xc3\xa9");          // é
  EXPECT_EQ(Json::parse(R"("\u20ac")").as_string(), "\xe2\x82\xac");      // €
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");  // emoji
}

TEST(JsonParse, DoublesRoundTripExactly) {
  // Shortest-round-trip emission: parse(dump(x)) must recover the bits.
  util::Rng rng(20260728);
  for (int i = 0; i < 2000; ++i) {
    double value = rng.uniform(-1e6, 1e6);
    if (i % 3 == 0) value = rng.uniform() * 1e-9;
    if (i % 7 == 0) value = rng.uniform() * 1e18;
    const Json emitted(value);
    const Json parsed = Json::parse(emitted.dump_string(-1));
    // A short value like "5" legitimately reparses as an integer; the
    // numeric value must still match exactly.
    ASSERT_EQ(parsed.as_double(), value) << emitted.dump_string(-1);
    ASSERT_EQ(parsed.dump_string(-1), emitted.dump_string(-1));
  }
  EXPECT_EQ(Json(-0.0).dump_string(-1), "-0");
  EXPECT_EQ(reparse_compact("-0"), "-0");
}

TEST(JsonParse, MalformedInputThrows) {
  for (const char* text : {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
                           "{\"a\" 1}", "[1] trailing", "\"\\u12g4\"", "\"\\ud800\"",
                           "nan", "01a"}) {
    EXPECT_THROW(Json::parse(text), std::invalid_argument) << text;
  }
}

// ---------------------------------------------------------------------------
// ShardSpec + plan partition

TEST(ShardSpec, ParsesAndRejects) {
  const cli::ShardSpec spec = cli::ShardSpec::parse("2/3");
  EXPECT_EQ(spec.index, 2u);
  EXPECT_EQ(spec.count, 3u);
  EXPECT_EQ(spec.describe(), "2/3");
  EXPECT_TRUE(cli::ShardSpec::parse("1/1").is_full());
  for (const char* text : {"", "3", "0/3", "4/3", "1/0", "-1/3", "a/b", "1/2/3x"}) {
    EXPECT_THROW(cli::ShardSpec::parse(text), std::invalid_argument) << text;
  }
}

TEST(SeedList, RejectsPartsThatAreNotWholeDecimalDigits) {
  const auto seeds_of = [](const std::string& list) {
    const std::string arg = "--seed-list=" + list;
    const char* argv[] = {"brbsim", arg.c_str()};
    return cli::seeds_from_flags(util::Flags(2, argv), 3);
  };
  EXPECT_EQ(seeds_of("2,7,18446744073709551615"),
            (std::vector<std::uint64_t>{2, 7, 18446744073709551615ull}));
  // "2.5" used to read as 2 and report a duplicate; "2x" ran seed 2.
  for (const std::string part : {"2x", "2.5", "-1", "+3", " 4", "0x10", "18446744073709551616"}) {
    try {
      seeds_of("2," + part);
      ADD_FAILURE() << "accepted '" << part << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "--seed-list: not a seed: " + part);
    }
  }
}

TEST(SweepPlan, DeterministicAndExactPartition) {
  const char* argv[] = {"brbsim", "--loads=0.5,0.7,0.9", "--tasks=1000"};
  const util::Flags flags(3, argv);
  const core::ScenarioConfig base = cli::config_from_flags(flags);
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  const cli::SweepPlan plan = cli::build_sweep_plan("load-sweep", base, seeds, flags);
  const cli::SweepPlan again = cli::build_sweep_plan("load-sweep", base, seeds, flags);

  ASSERT_EQ(plan.units.size(), plan.cases.size() * seeds.size());
  ASSERT_EQ(plan.units.size(), again.units.size());
  for (std::size_t i = 0; i < plan.units.size(); ++i) {
    EXPECT_EQ(plan.units[i].id, again.units[i].id);
    EXPECT_EQ(plan.units[i].hash, again.units[i].hash);
  }

  // Every N-way partition covers each unit exactly once.
  for (const std::uint32_t n : {1u, 2u, 3u, 7u, 16u}) {
    std::size_t covered = 0;
    for (std::uint32_t i = 1; i <= n; ++i) {
      cli::ShardSpec shard;
      shard.index = i;
      shard.count = n;
      covered += plan.shard_units(shard).size();
      for (const cli::SweepUnit* unit : plan.shard_units(shard)) {
        EXPECT_EQ(cli::ShardSpec::bucket_of(unit->hash, n), i - 1);
      }
    }
    EXPECT_EQ(covered, plan.units.size()) << "N=" << n;
  }
}

TEST(SweepPlan, UnknownScenarioThrows) {
  const util::Flags flags(0, nullptr);
  EXPECT_THROW(cli::build_sweep_plan("nope", core::ScenarioConfig{}, {1}, flags),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The merge property: shard artifacts reassemble byte-identically

struct SweepCase {
  const char* scenario;
  std::vector<const char*> argv;
};

std::string deterministic_dump(Json doc) {
  doc.erase("timing");
  return doc.dump_string();
}

std::string csv_of(const Json& doc) {
  std::ostringstream os;
  stats::artifact_csv(os, doc);
  return os.str();
}

TEST(ShardMerge, MergedArtifactByteIdenticalToUnsharded) {
  // Scenario/override combos chosen to cover sweeps, writes, tenants
  // (optional JSON fields) and replication; utilization is drawn per
  // combo from a seeded rng so the property is exercised at varying
  // operating points rather than one hand-picked one.
  const std::vector<SweepCase> combos = {
      {"load-sweep",
       {"brbsim", "--loads=0.55,0.8", "--systems=c3,equalmax-credits", "--tasks=700",
        "--servers=5", "--clients=6"}},
      {"write-heavy",
       {"brbsim", "--writes=0.15", "--systems=equalmax-credits", "--tasks=700", "--servers=5",
        "--clients=6"}},
      {"multi-tenant",
       {"brbsim", "--systems=equalmax-credits", "--tasks=900", "--servers=5", "--clients=8"}},
      {"replication-sweep",
       {"brbsim", "--replications=1,3", "--systems=equalmax-model", "--tasks=600",
        "--servers=5", "--clients=6"}},
  };
  util::Rng rng(42);
  const std::size_t threads = 2;

  for (const SweepCase& combo : combos) {
    SCOPED_TRACE(combo.scenario);
    std::vector<const char*> argv = combo.argv;
    const std::string utilization =
        "--utilization=" + std::to_string(0.5 + 0.1 * static_cast<double>(rng.uniform_int(0, 3)));
    argv.push_back(utilization.c_str());
    const util::Flags flags(static_cast<int>(argv.size()), argv.data());
    const core::ScenarioConfig base = cli::config_from_flags(flags);
    const std::vector<std::uint64_t> seeds = {1, 2, 3};
    const cli::SweepPlan plan = cli::build_sweep_plan(combo.scenario, base, seeds, flags);

    const Json full_doc = cli::execute_shard(plan, nullptr, threads);
    const std::string full_dump = deterministic_dump(full_doc);
    const std::string full_csv = csv_of(full_doc);

    for (const std::uint32_t n : {1u, 2u, 3u, 7u}) {
      SCOPED_TRACE("N=" + std::to_string(n));
      std::vector<Json> shards;
      for (std::uint32_t i = 1; i <= n; ++i) {
        cli::ShardSpec shard;
        shard.index = i;
        shard.count = n;
        const Json doc = cli::execute_shard(plan, &shard, threads);
        // Artifacts travel between machines as text; round-trip each
        // shard through serialization exactly as `brbsim merge` does —
        // which also asserts parse(dump(doc)) is byte-faithful.
        const std::string wire = doc.dump_string();
        Json reread = Json::parse(wire);
        ASSERT_EQ(reread.dump_string(), wire);
        shards.push_back(std::move(reread));
      }
      const Json merged = stats::merge_artifacts(shards);
      EXPECT_EQ(deterministic_dump(merged), full_dump);
      EXPECT_EQ(csv_of(merged), full_csv);
    }
  }
}

TEST(ShardMerge, SketchArtifactsMergeByteIdentically) {
  // --stats=sketch runs carry per-run and pooled case-level sketches;
  // the merger must rebuild the pooled sketch from per-seed sketches
  // (pure bucket addition) so the merged block is byte-identical to
  // the unsharded one for any shard count.
  const char* argv[] = {"brbsim",     "--systems=c3,equalmax-credits",
                        "--tasks=600", "--servers=5",
                        "--clients=6", "--stats=sketch"};
  const util::Flags flags(6, argv);
  const core::ScenarioConfig base = cli::config_from_flags(flags);
  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  const cli::SweepPlan plan = cli::build_sweep_plan("paper", base, seeds, flags);
  const std::size_t threads = 2;

  const Json full_doc = cli::execute_shard(plan, nullptr, threads);
  for (const Json& item : full_doc.at("cases").items()) {
    const Json* pooled = item.find("task_latency_sketch");
    ASSERT_NE(pooled, nullptr);
    std::int64_t run_total = 0;
    for (const Json& run : item.at("runs").items()) {
      const Json* per_run = run.find("task_latency_sketch");
      ASSERT_NE(per_run, nullptr);
      run_total += per_run->at("count").as_int();
    }
    EXPECT_EQ(pooled->at("count").as_int(), run_total);
  }

  for (const std::uint32_t n : {2u, 3u}) {
    SCOPED_TRACE("N=" + std::to_string(n));
    std::vector<Json> shards;
    for (std::uint32_t i = 1; i <= n; ++i) {
      cli::ShardSpec shard;
      shard.index = i;
      shard.count = n;
      shards.push_back(cli::execute_shard(plan, &shard, threads));
    }
    const Json merged = stats::merge_artifacts(shards);
    EXPECT_EQ(deterministic_dump(merged), deterministic_dump(full_doc));
    EXPECT_EQ(csv_of(merged), csv_of(full_doc));
  }
}

TEST(ShardMerge, PeakRssIsMaxOverShards) {
  // RSS budgets are per worker process, so the merged figure is the
  // worst shard — never the sum.
  const char* argv[] = {"brbsim", "--systems=equalmax-credits", "--tasks=400", "--servers=4",
                        "--clients=4"};
  const util::Flags flags(5, argv);
  const core::ScenarioConfig base = cli::config_from_flags(flags);
  const std::vector<std::uint64_t> seeds = {1, 2};
  const cli::SweepPlan plan = cli::build_sweep_plan("paper", base, seeds, flags);
  const std::size_t threads = 2;

  std::vector<Json> shards;
  for (std::uint32_t i = 1; i <= 2; ++i) {
    cli::ShardSpec shard;
    shard.index = i;
    shard.count = 2;
    shards.push_back(cli::execute_shard(plan, &shard, threads));
  }
  shards[0]["timing"]["peak_rss_mb"] = 512.0;
  shards[1]["timing"]["peak_rss_mb"] = 7168.0;
  const Json merged = stats::merge_artifacts(shards);
  EXPECT_EQ(merged.at("timing").at("peak_rss_mb").as_double(), 7168.0);

  // A shard missing the field (older artifact) degrades gracefully:
  // the max is taken over the shards that have it.
  shards[1]["timing"].erase("peak_rss_mb");
  const Json degraded = stats::merge_artifacts(shards);
  EXPECT_EQ(degraded.at("timing").at("peak_rss_mb").as_double(), 512.0);
}

TEST(ShardMerge, ArtifactQuarantinesTimingLast) {
  const char* argv[] = {"brbsim", "--systems=equalmax-credits", "--tasks=500", "--servers=4",
                        "--clients=4"};
  const util::Flags flags(5, argv);
  const core::ScenarioConfig base = cli::config_from_flags(flags);
  const std::vector<std::uint64_t> seeds = {1, 2};
  const cli::SweepPlan plan = cli::build_sweep_plan("paper", base, seeds, flags);
  const std::size_t threads = 2;
  const Json doc = cli::execute_shard(plan, nullptr, threads);

  ASSERT_FALSE(doc.members().empty());
  EXPECT_EQ(doc.members().back().first, "timing");
  EXPECT_EQ(doc.at("format").as_int(), stats::kArtifactFormat);
  const Json& timing = doc.at("timing");
  EXPECT_EQ(timing.at("cases").size(), doc.at("cases").size());
  // No nondeterministic field outside the timing subtree.
  EXPECT_EQ(deterministic_dump(doc).find("wall_seconds"), std::string::npos);
  for (const Json& item : doc.at("cases").items()) {
    for (const Json& run : item.at("runs").items()) {
      EXPECT_EQ(run.find("wall_seconds"), nullptr);
    }
  }
  // The CSV projection is fully deterministic too.
  EXPECT_EQ(csv_of(doc).find("wall_seconds"), std::string::npos);
}

TEST(ShardMerge, RejectsInconsistentShards) {
  const char* argv[] = {"brbsim", "--systems=equalmax-credits,c3", "--tasks=400",
                        "--servers=4", "--clients=4"};
  const util::Flags flags(5, argv);
  const core::ScenarioConfig base = cli::config_from_flags(flags);
  const std::vector<std::uint64_t> seeds = {1, 2};
  const cli::SweepPlan plan = cli::build_sweep_plan("paper", base, seeds, flags);
  const std::size_t threads = 1;

  cli::ShardSpec one_of_two;
  one_of_two.index = 1;
  one_of_two.count = 2;
  cli::ShardSpec two_of_two;
  two_of_two.index = 2;
  two_of_two.count = 2;
  const Json shard1 = cli::execute_shard(plan, &one_of_two, threads);
  const Json shard2 = cli::execute_shard(plan, &two_of_two, threads);

  // Happy path: both halves merge.
  EXPECT_NO_THROW(stats::merge_artifacts({shard1, shard2}));
  // A unit executed twice, a unit missing, and an empty input all fail.
  EXPECT_THROW(stats::merge_artifacts({shard1, shard1, shard2}), std::runtime_error);
  EXPECT_THROW(stats::merge_artifacts({shard1}), std::runtime_error);
  EXPECT_THROW(stats::merge_artifacts({}), std::runtime_error);

  // A shard of a different sweep (different seed plan) is rejected.
  const std::vector<std::uint64_t> other_seeds = {7, 8};
  const cli::SweepPlan other_plan = cli::build_sweep_plan("paper", base, other_seeds, flags);
  const Json other = cli::execute_shard(other_plan, &one_of_two, threads);
  EXPECT_THROW(stats::merge_artifacts({shard1, other}), std::runtime_error);

  // Garbage documents are rejected up front.
  EXPECT_THROW(stats::merge_artifacts({Json::parse("{\"tool\":\"other\"}")}),
               std::runtime_error);

  // Malformed shards fail with a message naming the artifact: a
  // timing block with fewer rows than cases, and a format of the wrong
  // type.
  const auto merge_error = [](const std::vector<Json>& shards) {
    try {
      stats::merge_artifacts(shards);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  Json short_timing = shard2;
  Json timing_cases = Json::array();
  timing_cases.push_back(short_timing.at("timing").at("cases").at(0));
  short_timing["timing"]["cases"] = std::move(timing_cases);
  EXPECT_EQ(merge_error({shard1, short_timing}),
            "artifact #2: timing.cases has 1 entries for 2 cases");
  Json text_format = shard1;
  text_format["format"] = "2";
  EXPECT_EQ(merge_error({text_format, shard2}), "artifact #1: 'format' is not an integer");

  // Per-case failures name the artifact and the case.
  Json bad_seed = shard2;
  Json& bad_case = bad_seed["cases"].at(0);
  Json runs = bad_case.at("runs");
  ASSERT_GT(runs.size(), 0u);
  runs.at(0)["seed"] = "1";
  bad_case["runs"] = std::move(runs);
  const std::string message = merge_error({shard1, bad_seed});
  EXPECT_EQ(message.rfind("merge_artifacts: artifact #2, case 'equalmax-credits': ", 0), 0u)
      << message;
}

TEST(ShardMerge, RejectsShardsThatDifferInKeepRaw) {
  // --keep-raw switches the percentile method (exact over raw samples),
  // so the config block echoes it and shards with and without it do not
  // merge. Unset, it stays out of the block.
  const auto shard_of = [](std::vector<const char*> argv, std::uint32_t index) {
    const util::Flags flags(static_cast<int>(argv.size()), argv.data());
    const core::ScenarioConfig base = cli::config_from_flags(flags);
    const cli::SweepPlan plan = cli::build_sweep_plan("paper", base, {1, 2}, flags);
    cli::ShardSpec shard;
    shard.index = index;
    shard.count = 2;
    return cli::execute_shard(plan, &shard, 1);
  };
  const std::vector<const char*> plain = {"brbsim", "--systems=c3", "--tasks=400",
                                          "--servers=4", "--clients=4"};
  std::vector<const char*> keep_raw = plain;
  keep_raw.push_back("--keep-raw");
  const Json first = shard_of(plain, 1);
  const Json second_raw = shard_of(keep_raw, 2);
  EXPECT_EQ(first.at("config").find("keep_raw"), nullptr);
  EXPECT_TRUE(second_raw.at("config").at("keep_raw").as_bool());
  EXPECT_NO_THROW(stats::merge_artifacts({first, shard_of(plain, 2)}));
  EXPECT_THROW(stats::merge_artifacts({first, second_raw}), std::runtime_error);
}

TEST(ShardMerge, EmptyShardContributesNothing) {
  // More shards than units: some shards own nothing, and the merge of
  // all of them still reassembles the whole sweep.
  const char* argv[] = {"brbsim", "--systems=equalmax-credits", "--tasks=400", "--servers=4",
                        "--clients=4"};
  const util::Flags flags(5, argv);
  const core::ScenarioConfig base = cli::config_from_flags(flags);
  const std::vector<std::uint64_t> seeds = {1};
  const cli::SweepPlan plan = cli::build_sweep_plan("paper", base, seeds, flags);
  ASSERT_EQ(plan.units.size(), 1u);
  const std::size_t threads = 1;

  const Json full = cli::execute_shard(plan, nullptr, threads);
  std::vector<Json> shards;
  for (std::uint32_t i = 1; i <= 3; ++i) {
    cli::ShardSpec shard;
    shard.index = i;
    shard.count = 3;
    shards.push_back(cli::execute_shard(plan, &shard, threads));
  }
  const Json merged = stats::merge_artifacts(shards);
  EXPECT_EQ(deterministic_dump(merged), deterministic_dump(full));
}


// ---------------------------------------------------------------------------
// The executor: one pool of workers over every (case, seed) unit

Json plan_artifact(const char* scenario, std::vector<const char*> argv,
                   const std::vector<std::uint64_t>& seeds, std::size_t threads,
                   std::vector<std::string>* finished = nullptr) {
  const util::Flags flags(static_cast<int>(argv.size()), argv.data());
  const cli::SweepPlan plan =
      cli::build_sweep_plan(scenario, cli::config_from_flags(flags), seeds, flags);
  return cli::execute_shard(plan, nullptr, threads, [&](const cli::ExperimentCase& experiment) {
    if (finished != nullptr) finished->push_back(experiment.label);
  });
}

TEST(ExecuteShard, CrossCasePoolMatchesSerialBytes) {
  // One seed, many cases: only a pool that spans cases runs units of
  // different cases at once.
  const std::vector<const char*> argv = {"brbsim", "--tasks=600", "--servers=5", "--clients=6"};
  std::vector<std::string> serial_finished;
  std::vector<std::string> pooled_finished;
  const Json serial = plan_artifact("policy-matrix", argv, {1}, 1, &serial_finished);
  const Json pooled = plan_artifact("policy-matrix", argv, {1}, 4, &pooled_finished);
  ASSERT_GT(serial.at("cases").size(), 4u);
  EXPECT_EQ(deterministic_dump(pooled), deterministic_dump(serial));
  EXPECT_EQ(csv_of(pooled), csv_of(serial));

  // Each case reports done once, after its last unit; serially, in
  // plan order.
  std::vector<std::string> labels;
  for (const Json& item : serial.at("cases").items()) labels.push_back(item.at("label").as_string());
  EXPECT_EQ(serial_finished, labels);
  std::sort(labels.begin(), labels.end());
  std::sort(pooled_finished.begin(), pooled_finished.end());
  EXPECT_EQ(pooled_finished, labels);
}

TEST(ExecuteShard, RethrowsTheFailingUnitsErrorAtAnyThreadCount) {
  // Tied dispatch issues duplicates, which run_scenario rejects for the
  // global-queue model systems: the paper's third case fails.
  const std::vector<const char*> argv = {"brbsim", "--dispatch=tied", "--tasks=400",
                                         "--servers=4", "--clients=4"};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<std::string> finished;
    try {
      plan_artifact("paper", argv, {1, 2}, threads, &finished);
      ADD_FAILURE() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("global-queue model systems"), std::string::npos)
          << e.what();
    }
    // Serially the run stops at the first failure: the two cases before
    // it finished, nothing after it ran.
    if (threads == 1) {
      EXPECT_EQ(finished, (std::vector<std::string>{"c3", "equalmax-credits"}));
    }
  }
}

// ---------------------------------------------------------------------------
// Paper claims readout (brbsim's console output after the case table)

Json small_paper_artifact(std::vector<const char*> argv) {
  for (const char* arg : {"--tasks=400", "--servers=4", "--clients=4"}) argv.push_back(arg);
  const util::Flags flags(static_cast<int>(argv.size()), argv.data());
  const core::ScenarioConfig base = cli::config_from_flags(flags);
  const std::vector<std::uint64_t> seeds = {1};
  const cli::SweepPlan plan = cli::build_sweep_plan("paper", base, seeds, flags);
  const std::size_t threads = 1;
  return cli::execute_shard(plan, nullptr, threads);
}

TEST(PaperClaims, PrintedWhenAllFivePaperCasesRan) {
  const Json doc = small_paper_artifact({"brbsim"});
  ASSERT_EQ(doc.at("cases").size(), 5u);
  std::ostringstream os;
  EXPECT_TRUE(cli::print_paper_claims(os, doc));
  EXPECT_NE(os.str().find("Claim A"), std::string::npos);
  EXPECT_NE(os.str().find("Claim B"), std::string::npos);
}

TEST(PaperClaims, SilentWithoutAllFivePaperCases) {
  const Json doc = small_paper_artifact({"brbsim", "--systems=c3,equalmax-credits"});
  ASSERT_EQ(doc.at("cases").size(), 2u);
  std::ostringstream os;
  EXPECT_FALSE(cli::print_paper_claims(os, doc));
  EXPECT_TRUE(os.str().empty());
}

// policy-matrix and other scenarios run under the same five case labels;
// the readout belongs to the paper scenario only.
TEST(PaperClaims, SilentForOtherScenarios) {
  Json doc = small_paper_artifact({"brbsim"});
  ASSERT_EQ(doc.at("cases").size(), 5u);
  doc["scenario"] = "policy-matrix";
  std::ostringstream os;
  EXPECT_FALSE(cli::print_paper_claims(os, doc));
  EXPECT_TRUE(os.str().empty());
}

}  // namespace
}  // namespace brb
