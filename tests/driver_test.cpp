// Tests for the brbsim driver's config-flag table: the artifact blocks
// it echoes, the per-scenario flag declarations validation enforces,
// the strict per-row parsers, and the generated --help.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "cli/driver.hpp"
#include "cli/scenario_registry.hpp"
#include "util/flags.hpp"

namespace brb {
namespace {

util::Flags flags_of(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"brbsim"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return util::Flags(static_cast<int>(argv.size()), argv.data());
}

/// The message validate_flags throws for `args`, or "" when it passes.
std::string rejection(const std::vector<std::string>& args) {
  try {
    cli::validate_flags(flags_of(args));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

bool overwrites(const cli::ScenarioSpec& scenario, const std::string& flag) {
  for (const cli::Overwrite& overwrite : scenario.overwrites) {
    if (overwrite.flag == flag) return true;
  }
  return false;
}

TEST(ConfigTable, ArtifactBlocksArePinned) {
  // Every echoed field set away from its default, every when-set field
  // set. The expected strings were produced by the hand-written echo
  // code the table replaced; key order differs between the two blocks.
  core::ScenarioConfig config;
  config.cluster = workload::ClusterSpec::parse("hetero:2x4x3500,1x8x7000");
  config.replication = 2;
  config.num_clients = 7;
  config.num_tasks = 1234;
  config.utilization = 0.65;
  config.trace_path = "t.trace";
  config.fanout_spec = "fixed:3";
  config.size_spec = "fixed:100";
  config.key_spec = "uniform:50";
  config.paced_arrivals = true;
  config.arrival_spec = "diurnal:0.5:1.5:2";
  config.write_fraction = 0.25;
  config.tenant_spec = "a;b";
  config.net_latency = sim::Duration::micros(75.5);
  config.net_jitter = sim::Duration::micros(3);
  config.service_base = sim::Duration::micros(12.25);
  config.service_noise_sigma = 0.3;
  config.cost_noise_sigma = 0.4;
  config.warmup_fraction = 0.1;
  config.selector_override = "random";
  config.policy_spec = "c3";
  config.policy_switch_spec = "t0:random,1s:c3";
  config.dispatch_spec = "tied";
  config.admission_override = "direct";
  config.signal_store = "sparse:8";
  config.stats_spec = "sketch";
  config.system = core::SystemKind::kC3;
  std::vector<cli::CaseResult> results;
  results.push_back({{"case", config}, core::aggregate_runs(config.system, {})});
  const stats::Json doc = cli::report_json("pin", config, {1}, results);

  EXPECT_EQ(doc.at("config").dump_string(-1),
            R"({"servers":3,"cores_per_server":4,"service_rate_per_core":3.5e+03,)"
            R"("cluster":"hetero:2x4x3500,1x8x7000","replication":2,"clients":7,"tasks":1234,)"
            R"("utilization":0.65,"trace":"t.trace","fanout":"fixed:3","sizes":"fixed:100",)"
            R"("keys":"uniform:50","paced_arrivals":true,"arrivals":"diurnal:0.5:1.5:2",)"
            R"("write_fraction":0.25,"tenants":"a;b","net_latency_us":75.5,"net_jitter_us":3,)"
            R"("service_base_us":12.25,"service_noise_sigma":0.3,"cost_noise_sigma":0.4,)"
            R"("warmup_fraction":0.1,"selector_override":"random","policy":"c3",)"
            R"("policy_switch":"t0:random,1s:c3","dispatch":"tied","admission":"direct",)"
            R"("signal_store":"sparse:8","stats":"sketch"})");
  EXPECT_EQ(doc.at("cases").items()[0].dump_string(-1),
            R"({"label":"case","system":"c3","utilization":0.65,"fanout":"fixed:3",)"
            R"("tasks":1234,"cluster":"hetero:2x4x3500,1x8x7000","keys":"uniform:50",)"
            R"("replication":2,"arrivals":"diurnal:0.5:1.5:2","write_fraction":0.25,)"
            R"("tenants":"a;b","policy":"c3","policy_switch":"t0:random,1s:c3",)"
            R"("dispatch":"tied","admission":"direct","signal_store":"sparse:8",)"
            R"("stats":"sketch","task_latency_ms":{)"
            R"("p50_ms":{"mean":0,"stddev":0,"min":0,"max":0},)"
            R"("p95_ms":{"mean":0,"stddev":0,"min":0,"max":0},)"
            R"("p99_ms":{"mean":0,"stddev":0,"min":0,"max":0},)"
            R"("mean_ms":{"mean":0,"stddev":0,"min":0,"max":0}},"runs":[]})");
}

TEST(ConfigTable, EveryScenarioRejectsFlagsItDoesNotRead) {
  for (const cli::ScenarioSpec& scenario : cli::scenario_registry()) {
    const std::string pick = "--scenario=" + scenario.name;
    const std::string named = "'" + scenario.name + "'";
    for (const util::FlagHelp& flag : cli::expander_flags()) {
      const std::string name(flag.name);
      const std::string message = rejection({pick, "--" + name + "=1"});
      bool reads = false;
      for (const std::string& read : scenario.reads) reads |= read == name;
      if (reads) {
        EXPECT_EQ(message, "") << scenario.name << " --" << name;
        continue;
      }
      EXPECT_NE(message.find(named), std::string::npos) << message;
      // The replacement: the config flag another scenario sweeps with
      // this one (when this scenario keeps it), else a scenario that
      // reads the flag.
      std::string replacement = "--scenario";
      for (const cli::ScenarioSpec& other : cli::scenario_registry()) {
        for (const cli::Overwrite& overwrite : other.overwrites) {
          if (overwrite.instead == name && !overwrites(scenario, overwrite.flag) &&
              replacement == "--scenario") {
            replacement = "use --" + overwrite.flag;
          }
        }
      }
      EXPECT_NE(message.find(replacement), std::string::npos) << message;
    }
    for (const cli::Overwrite& overwrite : scenario.overwrites) {
      const std::string message = rejection({pick, "--" + overwrite.flag + "=1"});
      EXPECT_NE(message.find(named), std::string::npos) << scenario.name << " " << message;
      const std::string replacement =
          overwrite.instead.empty() ? "--scenario" : "use --" + overwrite.instead;
      EXPECT_NE(message.find(replacement), std::string::npos) << message;
    }
    EXPECT_NE(rejection({pick, "--seed=7"}).find("use --seed-list"), std::string::npos);
    // Every other config flag stays in effect and passes.
    for (const cli::ConfigFlag& row : cli::config_flags()) {
      const std::string name(row.name);
      if (overwrites(scenario, name) || !row.runs_instead.empty()) continue;
      EXPECT_EQ(rejection({pick, "--" + name + "=1"}), "") << scenario.name << " --" << name;
    }
  }
}

TEST(ConfigTable, SilentlyIgnoredFlagsFail) {
  const struct {
    std::vector<std::string> args;
    std::string expected;
  } cases[] = {
      {{"--scenario=paper", "--writes=0.1"}, "use --write-fraction"},
      {{"--scenario=paper", "--dispatches=tied"}, "use --dispatch"},
      {{"--scenario=paper", "--policies=random"}, "use --policy"},
      {{"--scenario=mega-fleet", "--systems=c3"}, "--scenario that does: paper"},
      {{"--scenario=hedging-shootout", "--systems=c3"}, "--scenario that does: paper"},
      {{"--scenario=load-sweep", "--utilization=0.5"}, "use --loads"},
      {{"--scenario=write-heavy", "--write-fraction=0.5"}, "use --writes"},
      {{"--scenario=fanout-sweep", "--fanout=fixed:1"}, "use --fanouts"},
      {{"--scenario=credits-interval", "--credits-adapt-s=0.1"}, "use --intervals-ms"},
      {{"--scenario=forecast-noise", "--cost-noise=2"}, "use --noise-sigmas"},
      {{"--scenario=paper", "--seed=7"}, "use --seed-list"},
      {{"--scenario=paper", "--system=c3"}, "did you mean --systems"},
  };
  for (const auto& c : cases) {
    const std::string message = rejection(c.args);
    EXPECT_NE(message.find(c.expected), std::string::npos) << c.args[1] << ": " << message;
  }
}

TEST(ConfigTable, RecordTraceReadsOnlyWorkloadFlagsAndSeed) {
  EXPECT_EQ(rejection({"--record-trace=t.csv", "--tasks=10", "--seed=7",
                       "--cluster=uniform:3x2x100", "--keys=uniform:10", "--paper"}),
            "");
  for (const char* ignored : {"--scenario=paper", "--loads=0.5", "--replication=2", "--json=x",
                              "--policy=c3", "--net-latency-us=10"}) {
    EXPECT_NE(rejection({"--record-trace=t.csv", ignored}).find("--record-trace does not read"),
              std::string::npos)
        << ignored;
  }
}

TEST(ConfigTable, MalformedValuesThrow) {
  for (const cli::ConfigFlag& row : cli::config_flags()) {
    const std::string name(row.name);
    const bool text = std::holds_alternative<cli::ConfigFlag::Ref<std::string>>(row.field);
    std::vector<std::string> values = {""};
    // A text field cannot tell "x" from a valid path or tenant name; it
    // only rejects the empty value.
    if (!text) values.insert(values.end(), {"x", "1x", "nan", "-1"});
    if (std::holds_alternative<cli::ConfigFlag::Ref<std::uint32_t>>(row.field)) {
      values.push_back("4294967296");
    }
    for (const std::string& value : values) {
      EXPECT_THROW(cli::config_from_flags(flags_of({"--" + name + "=" + value})),
                   std::invalid_argument)
          << "--" << name << "=" << value;
    }
  }
  // The same parsers read BRB_<NAME> environment values.
  ::setenv("BRB_TASKS", "2e3", 1);
  EXPECT_THROW(cli::config_from_flags(util::Flags()), std::invalid_argument);
  ::unsetenv("BRB_TASKS");
  // A duration must fit the int64 nanosecond clock.
  EXPECT_THROW(cli::config_from_flags(flags_of({"--net-latency-us=1e300"})),
               std::invalid_argument);
  // 2^32-1 still fits a 32-bit row.
  EXPECT_EQ(cli::config_from_flags(flags_of({"--clients=4294967295"})).num_clients, 4294967295u);
}

TEST(ConfigTable, WorkloadSpecNumbersParseWhole) {
  // Each numeric field of a workload spec parses whole, and the error
  // names both the flag and the spec.
  for (const std::string arg :
       {"--keys=zipf:1e5x:0.9", "--keys=zipf:abc", "--keys=uniform:-5", "--fanout=lognormal:abc",
        "--fanout=fixed:2.5", "--sizes=gpareto:x", "--sizes=fixed:1kb",
        "--arrivals=diurnal:0.5:x:60", "--arrivals=steps:1,2y:10",
        "--cluster=hetero:6x4x3500,3.5x8x7000", "--cluster=uniform:3x2x1e3z"}) {
    const std::size_t eq = arg.find('=');
    try {
      cli::config_from_flags(flags_of({arg}));
      ADD_FAILURE() << arg << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("flag " + arg.substr(0, eq)), std::string::npos) << message;
      EXPECT_NE(message.find(arg.substr(eq + 1)), std::string::npos) << message;
    }
  }
  // Whole numbers still parse, exponents included.
  EXPECT_EQ(cli::config_from_flags(flags_of({"--keys=zipf:1e5:0.9"})).key_spec, "zipf:1e5:0.9");
  EXPECT_EQ(cli::config_from_flags(flags_of({"--cluster=uniform:3x2x1e3"})).cluster.num_servers,
            3u);
}

/// Runs brbsim on `args`; returns its exit code and what it wrote to
/// stderr.
std::pair<int, std::string> run_brbsim(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"brbsim"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int code = cli::run_brbsim(static_cast<int>(argv.size()), argv.data());
  ::testing::internal::GetCapturedStdout();
  return {code, ::testing::internal::GetCapturedStderr()};
}

TEST(Driver, PlanRejectsBadWorkloadSpecs) {
  // --plan runs nothing, but each workload spec is still built once at
  // flag parsing: a bad one exits 1 and names its flag.
  for (const std::string arg : {"--keys=zipf:abc", "--fanout=bogus", "--sizes=gpareto:x",
                                "--arrivals=sawtooth:1", "--cluster=hetero:axbxc"}) {
    const auto [code, err] = run_brbsim({"--scenario=paper", arg, "--plan"});
    EXPECT_EQ(code, 1) << arg;
    EXPECT_NE(err.find("flag " + arg.substr(0, arg.find('='))), std::string::npos) << err;
  }
  EXPECT_EQ(run_brbsim({"--scenario=paper", "--fanout=fixed:4", "--plan"}).first, 0);
}

TEST(ConfigTable, UsageListsEveryFlagOnce) {
  std::ostringstream usage;
  cli::print_usage(usage);
  std::vector<std::string> listed;  // the flag of every line that starts with "  --"
  std::istringstream lines(usage.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  --", 0) != 0) continue;
    listed.push_back(line.substr(4, line.find_first_of("= ", 4) - 4));
  }
  std::vector<std::string> accepted;
  for (const util::FlagHelp& flag : cli::run_control_flags()) accepted.emplace_back(flag.name);
  for (const cli::ConfigFlag& row : cli::config_flags()) accepted.emplace_back(row.name);
  for (const util::FlagHelp& flag : cli::expander_flags()) accepted.emplace_back(flag.name);
  for (const std::string& name : accepted) {
    EXPECT_EQ(std::count(listed.begin(), listed.end(), name), 1) << "--" << name;
  }
  EXPECT_EQ(listed.size(), accepted.size());
}

}  // namespace
}  // namespace brb
