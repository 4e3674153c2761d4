// Tests for the util module: flags parsing and the shared EWMA helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "util/ewma.hpp"
#include "util/flags.hpp"

namespace brb::util {
namespace {

Flags parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()), args.data());
}

TEST(Flags, SpaceSeparatedValue) {
  const Flags flags = parse({"--tasks", "500"});
  EXPECT_EQ(flags.get_int("tasks", 0), 500);
  EXPECT_TRUE(flags.has("tasks"));
}

TEST(Flags, EqualsSeparatedValue) {
  const Flags flags = parse({"--utilization=0.7"});
  EXPECT_DOUBLE_EQ(flags.get_double("utilization", 0.0), 0.7);
}

TEST(Flags, BareFlagIsBooleanTrue) {
  const Flags flags = parse({"--paper"});
  EXPECT_TRUE(flags.get_bool("paper", false));
}

TEST(Flags, BooleanFollowedByFlag) {
  const Flags flags = parse({"--csv", "--tasks", "10"});
  EXPECT_TRUE(flags.get_bool("csv", false));
  EXPECT_EQ(flags.get_int("tasks", 0), 10);
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=on"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=off"}).get_bool("x", true));
  // Any other spelling is an error, not the fallback.
  EXPECT_THROW(parse({"--paced=maybe"}).get_bool("paced", false), std::invalid_argument);
  EXPECT_THROW(parse({"--paced="}).get_bool("paced", true), std::invalid_argument);
  EXPECT_THROW(parse({"--paced=TRUE"}).get_bool("paced", false), std::invalid_argument);
}

TEST(Flags, FallbacksWhenAbsent) {
  const Flags flags = parse({});
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(flags.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(flags.get_bool("missing", false));
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, PositionalArguments) {
  const Flags flags = parse({"input.csv", "--tasks", "5", "output.csv"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "output.csv");
}

TEST(Flags, MalformedNumberThrows) {
  const Flags flags = parse({"--tasks", "abc"});
  EXPECT_THROW(flags.get_int("tasks", 0), std::invalid_argument);
  const Flags flags2 = parse({"--ratio", "x.y"});
  EXPECT_THROW(flags2.get_double("ratio", 0.0), std::invalid_argument);
  // The whole value must parse: no silent prefix reads.
  EXPECT_THROW(parse({"--tasks=2e3"}).get_int("tasks", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--tasks=2000x"}).get_int("tasks", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--tasks= 5"}).get_int("tasks", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--tasks=9223372036854775808"}).get_int("tasks", 0),
               std::invalid_argument);
  EXPECT_EQ(parse({"--tasks=-12"}).get_int("tasks", 0), -12);
  EXPECT_THROW(parse({"--utilization=0.7x"}).get_double("utilization", 0.0),
               std::invalid_argument);
  EXPECT_THROW(parse({"--utilization=nan"}).get_double("utilization", 0.0),
               std::invalid_argument);
  EXPECT_THROW(parse({"--utilization=inf"}).get_double("utilization", 0.0),
               std::invalid_argument);
  EXPECT_THROW(parse({"--utilization="}).get_double("utilization", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse({"--utilization=7e-1"}).get_double("utilization", 0.0), 0.7);
  // Environment values go through the same parsers.
  ::setenv("BRB_TEST_ONLY_RATIO", "0.5x", 1);
  EXPECT_THROW(parse({}).get_double("test-only-ratio", 0.0), std::invalid_argument);
  ::unsetenv("BRB_TEST_ONLY_RATIO");
}

TEST(Flags, GetUintParsesAndRejectsNegatives) {
  const Flags flags = parse({"--tasks", "500", "--seeds", "-1"});
  EXPECT_EQ(flags.get_uint("tasks", 0), 500u);
  EXPECT_EQ(flags.get_uint("missing", 7), 7u);
  // Counts must not wrap through an unsigned cast: -1 is an error, not
  // 2^64 - 1 seeds.
  EXPECT_THROW(flags.get_uint("seeds", 1), std::invalid_argument);
  const Flags bad = parse({"--tasks", "many"});
  EXPECT_THROW(bad.get_uint("tasks", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--tasks=2e3"}).get_uint("tasks", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--tasks=2000x"}).get_uint("tasks", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--tasks=+5"}).get_uint("tasks", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--tasks=18446744073709551616"}).get_uint("tasks", 0),
               std::invalid_argument);
  EXPECT_EQ(parse({"--clients=4294967314"}).get_uint("clients", 0), 4294967314u);
}

TEST(Flags, RepeatedFlagRejected) {
  // Keeping either copy would silently drop the other.
  try {
    parse({"--tasks=3000", "--tasks=2000"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --tasks given more than once");
  }
  EXPECT_THROW(parse({"--quiet", "--tasks", "5", "--quiet"}), std::invalid_argument);
}

TEST(Flags, EnvironmentFallback) {
  ::setenv("BRB_TEST_ONLY_FLAG", "77", 1);
  const Flags flags = parse({});
  EXPECT_EQ(flags.get_int("test-only-flag", 0), 77);
  ::unsetenv("BRB_TEST_ONLY_FLAG");
  EXPECT_EQ(flags.get_int("test-only-flag", 5), 5);
}

TEST(Flags, CommandLineBeatsEnvironment) {
  ::setenv("BRB_PRIORITY_SRC", "env", 1);
  const Flags flags = parse({"--priority-src", "cli"});
  EXPECT_EQ(flags.get_string("priority-src", ""), "cli");
  ::unsetenv("BRB_PRIORITY_SRC");
}

// ---------------------------------------------------------------------------
// EWMA (the single smoothing implementation every component shares)

TEST(Ewma, UpdateIsTheExactHistoricalExpression) {
  // Every pre-dedupe call site computed a*sample + (1-a)*previous;
  // artifact byte-identity depends on this staying bit-exact.
  const double a = 0.3;
  const double previous = 123.456;
  const double sample = 789.0123;
  EXPECT_EQ(ewma_update(previous, a, sample), a * sample + (1.0 - a) * previous);
}

TEST(Ewma, UnseededSeedsWithFirstObservation) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.seen());
  ewma.observe(1000.0);
  EXPECT_TRUE(ewma.seen());
  EXPECT_DOUBLE_EQ(ewma.value(), 1000.0);  // verbatim, not blended with 0
  ewma.observe(2000.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 1500.0);
}

TEST(Ewma, SeededBlendsFromThePrior) {
  Ewma ewma(0.2, 100.0);
  EXPECT_TRUE(ewma.seen());
  ewma.observe(200.0);
  EXPECT_DOUBLE_EQ(ewma.value(), ewma_update(100.0, 0.2, 200.0));
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(-0.1), std::invalid_argument);
  EXPECT_THROW(Ewma(1.1, 5.0), std::invalid_argument);
  EXPECT_NO_THROW(Ewma(1.0));  // alpha 1 = no smoothing, legal
}

}  // namespace
}  // namespace brb::util
