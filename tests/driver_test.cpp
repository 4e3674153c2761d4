// Tests for the brbsim driver's config-flag table: the artifact blocks
// it echoes, the per-scenario flag declarations validation enforces,
// the strict per-row parsers, and the generated --help.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <type_traits>
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
  // A plan with no units: the artifact's blocks without a single run.
  const cli::SweepPlan plan{"pin", config, {{"case", config}}, {1}, {}};
  const stats::Json doc = cli::execute_shard(plan, nullptr, 1);

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
      // Each case sets its own key spec from --skews.
      {{"--scenario=replication-skew", "--keys=uniform:1000"}, "use --skews"},
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

/// FNV-1a over each case's system and every config-table field, so a
/// pin moves when any case's config does.
std::string expansion_digest(const std::vector<cli::ExperimentCase>& cases) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](const std::string& text) {
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // separator
    h *= 1099511628211ULL;
  };
  for (const cli::ExperimentCase& experiment : cases) {
    core::ScenarioConfig config = experiment.config;
    mix(to_string(config.system));
    for (const cli::ConfigFlag& row : cli::config_flags()) {
      std::visit(
          [&](auto field) {
            const auto& value = field(config);
            using T = std::remove_cvref_t<decltype(value)>;
            std::ostringstream text;
            text.precision(17);
            text << row.name << "=";
            if constexpr (std::is_same_v<T, sim::Duration>) {
              text << value.count_nanos();
            } else if constexpr (std::is_same_v<T, workload::ClusterSpec>) {
              text << value.describe();
            } else {
              text << value;
            }
            mix(text.str());
          },
          row.field);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

TEST(ScenarioExpansion, EveryScenarioIsPinned) {
  // Every scenario's default cases, plus user lists that pin how a
  // swept value is parsed and labelled. The expectations were recorded
  // from the hand-written expanders; any change to a case's label,
  // system or config field moves them.
  const struct {
    std::vector<std::string> args;
    std::string labels;  // space-joined, in case order
    std::string digest;
  } pins[] = {
      {{"--scenario=paper"},
       "c3 equalmax-credits equalmax-model unifincr-credits unifincr-model",
       "1c0e01e17e84f7e5"},
      {{"--scenario=load-sweep"},
       "c3@util=0.5 equalmax-credits@util=0.5 equalmax-model@util=0.5 c3@util=0.6 "
       "equalmax-credits@util=0.6 equalmax-model@util=0.6 c3@util=0.7 "
       "equalmax-credits@util=0.7 equalmax-model@util=0.7 c3@util=0.8 "
       "equalmax-credits@util=0.8 equalmax-model@util=0.8 c3@util=0.9 "
       "equalmax-credits@util=0.9 equalmax-model@util=0.9",
       "cbc1175d0f1dc654"},
      {{"--scenario=fanout-sweep"},
       "c3@fanout=fixed:1 equalmax-credits@fanout=fixed:1 c3@fanout=fixed:4 "
       "equalmax-credits@fanout=fixed:4 c3@fanout=geometric:8.6 "
       "equalmax-credits@fanout=geometric:8.6 c3@fanout=lognormal:8.6:1.0:512 "
       "equalmax-credits@fanout=lognormal:8.6:1.0:512 c3@fanout=lognormal:8.6:2.0:512 "
       "equalmax-credits@fanout=lognormal:8.6:2.0:512 c3@fanout=fixed:32 "
       "equalmax-credits@fanout=fixed:32",
       "5e78376da6b6ecbf"},
      {{"--scenario=policy-matrix"},
       "random-fifo fifo-direct request-sjf-direct c3 equalmax-direct unifincr-direct "
       "equalmax-credits unifincr-credits cumslack-credits fifo-model equalmax-model "
       "unifincr-model cumslack-model equalmax-direct/c3 equalmax-direct/least-pending-cost "
       "equalmax-direct/least-outstanding equalmax-direct/random",
       "aecdd7c59b3f524b"},
      {{"--scenario=policy-shootout"},
       "random round-robin least-outstanding two-choices least-pending-cost c3-noderate c3",
       "0d88420ea4b77810"},
      {{"--scenario=policy-switch"},
       "static/random static/c3-noderate switch/t0:random,1s:c3-noderate",
       "466598f2c7cd0361"},
      {{"--scenario=hedging-shootout"},
       "steady/single steady/hedge:q98 steady/tied steady/kofn:2 diurnal/single "
       "diurnal/hedge:q98 diurnal/tied diurnal/kofn:2",
       "d13e081f2381dfe3"},
      {{"--scenario=large-cluster"}, "equalmax-credits c3", "dcc48c619d816eaa"},
      {{"--scenario=mega-fleet"}, "two-choices c3-noderate equalmax-credits", "7d68f04aef49f71b"},
      {{"--scenario=trace-replay", "--trace=pin.trace"}, "c3 equalmax-credits", "8d41e5b0cc512ff6"},
      {{"--scenario=hetero-servers"}, "c3 equalmax-credits equalmax-model", "3003a87f2bd87148"},
      {{"--scenario=diurnal"}, "c3 equalmax-credits equalmax-model", "eeaa6b6e52c79bed"},
      {{"--scenario=write-heavy"},
       "c3@writes=0.05 equalmax-credits@writes=0.05 c3@writes=0.2 equalmax-credits@writes=0.2",
       "a79279b668b0a191"},
      {{"--scenario=multi-tenant"}, "c3 equalmax-credits", "e6df59f286a5d75e"},
      {{"--scenario=replication-skew"},
       "c3@skew=0 equalmax-credits@skew=0 c3@skew=0.9 equalmax-credits@skew=0.9 c3@skew=1.2 "
       "equalmax-credits@skew=1.2",
       "4e4630083ac15716"},
      {{"--scenario=credits-interval"},
       "equalmax-model equalmax-credits@adapt-ms=100 equalmax-credits@adapt-ms=250 "
       "equalmax-credits@adapt-ms=500 equalmax-credits@adapt-ms=1000 "
       "equalmax-credits@adapt-ms=2000 equalmax-credits@adapt-ms=4000",
       "57058ee18f9bde43"},
      {{"--scenario=forecast-noise"},
       "fifo-direct equalmax-credits@noise=0 equalmax-credits@noise=0.25 "
       "equalmax-credits@noise=0.5 equalmax-credits@noise=1 equalmax-credits@noise=2",
       "ee47ef4010d5fe19"},
      {{"--scenario=replication-sweep"},
       "c3@R=1 equalmax-credits@R=1 equalmax-model@R=1 c3@R=2 equalmax-credits@R=2 "
       "equalmax-model@R=2 c3@R=3 equalmax-credits@R=3 equalmax-model@R=3 c3@R=5 "
       "equalmax-credits@R=5 equalmax-model@R=5 c3@R=9 equalmax-credits@R=9 equalmax-model@R=9",
       "06a31e50a094e8cb"},
      {{"--scenario=load-sweep", "--loads=0.70,0.55"},
       "c3@util=0.7 equalmax-credits@util=0.7 equalmax-model@util=0.7 c3@util=0.55 "
       "equalmax-credits@util=0.55 equalmax-model@util=0.55",
       "6bdc0575bd00b242"},
      {{"--scenario=replication-sweep", "--replications=02,3"},
       "c3@R=2 equalmax-credits@R=2 equalmax-model@R=2 c3@R=3 equalmax-credits@R=3 "
       "equalmax-model@R=3",
       "5b419727f9de4f90"},
      {{"--scenario=forecast-noise", "--noise-sigmas=0.10,1e0"},
       "fifo-direct equalmax-credits@noise=0.1 equalmax-credits@noise=1",
       "1feec277a4356b16"},
      {{"--scenario=policy-matrix", "--systems=c3,random-fifo"},
       "c3 random-fifo",
       "9cadd3cbacd1f2a1"},
      {{"--scenario=fanout-sweep", "--fanouts=fixed:2,geometric:3", "--systems=c3"},
       "c3@fanout=fixed:2 c3@fanout=geometric:3",
       "a142cdca21754747"},
      {{"--scenario=write-heavy", "--writes=0.1,0.30"},
       "c3@writes=0.1 equalmax-credits@writes=0.1 c3@writes=0.3 equalmax-credits@writes=0.3",
       "27ed1660483d2761"},
      {{"--scenario=large-cluster", "--cluster=hetero:6x4x3500,3x8x7000", "--clients=50"},
       "equalmax-credits c3",
       "a9105f7a7f1c4ed2"},
      {{"--scenario=large-cluster", "--servers=40", "--tasks=1000"},
       "equalmax-credits c3",
       "862a870919408372"},
      {{"--scenario=hetero-servers", "--cluster=uniform:3x2x1000"},
       "c3 equalmax-credits equalmax-model",
       "f69a5e22ec59b7dc"},
      {{"--scenario=mega-fleet", "--stats=exact", "--servers=10", "--clients=100"},
       "two-choices c3-noderate equalmax-credits",
       "8fbd6fe7abd76e10"},
      {{"--scenario=diurnal", "--arrivals=steps:1,2:10"},
       "c3 equalmax-credits equalmax-model",
       "37c30ce87bd88def"},
      {{"--scenario=multi-tenant", "--tenants=a;b"}, "c3 equalmax-credits", "d5ab3190283def02"},
      {{"--scenario=hedging-shootout", "--dispatches=hedge,tied", "--servers=20"},
       "steady/hedge:q95 steady/tied diurnal/hedge:q95 diurnal/tied",
       "525b1c8a245bbe59"},
      {{"--scenario=policy-shootout", "--policies=lor,random"},
       "least-outstanding random",
       "ded0975fe8d3606a"},
      {{"--scenario=policy-switch", "--policy-switch=t0:c3,2s:random"},
       "static/c3 static/random switch/t0:c3,2s:random",
       "e728079ec9a801d8"},
      {{"--scenario=credits-interval", "--intervals-ms=50,300"},
       "equalmax-model equalmax-credits@adapt-ms=50 equalmax-credits@adapt-ms=300",
       "8388d38dc2ea65a9"},
      {{"--scenario=replication-skew", "--skews=0.5", "--replication=3"},
       "c3@skew=0.5 equalmax-credits@skew=0.5",
       "f0a49b3c905504fc"},
      {{"--scenario=paper", "--replication=2", "--systems=c3,fifo-model"},
       "c3 fifo-model",
       "b4708232eee95917"},
      {{"--scenario=trace-replay", "--trace=pin.trace", "--systems=c3"}, "c3", "b251490572a1032f"},
  };
  std::vector<std::string> pinned;
  for (const auto& pin : pins) {
    std::string command;
    for (const std::string& arg : pin.args) command += (command.empty() ? "" : " ") + arg;
    const util::Flags flags = flags_of(pin.args);
    ASSERT_EQ(rejection(pin.args), "") << command;
    const cli::ScenarioSpec* scenario = cli::find_scenario(flags.get_string("scenario", ""));
    ASSERT_NE(scenario, nullptr) << command;
    const std::vector<cli::ExperimentCase> cases =
        scenario->expand(cli::config_from_flags(flags), flags);
    std::string labels;
    for (const cli::ExperimentCase& experiment : cases) {
      labels += (labels.empty() ? "" : " ") + experiment.label;
    }
    EXPECT_EQ(labels, pin.labels) << command;
    EXPECT_EQ(expansion_digest(cases), pin.digest) << command;
    pinned.push_back(pin.args.front());
  }
  // Every registered scenario is pinned.
  for (const cli::ScenarioSpec& scenario : cli::scenario_registry()) {
    EXPECT_NE(std::find(pinned.begin(), pinned.end(), "--scenario=" + scenario.name),
              pinned.end())
        << scenario.name;
  }
}

TEST(ScenarioExpansion, EnvironmentDefaultsBeatPresets) {
  // A BRB_<NAME> default is set like the flag itself: a scenario preset
  // keeps off it, so the config block and every case agree.
  ::setenv("BRB_SERVERS", "20", 1);
  for (const char* name : {"large-cluster", "hedging-shootout"}) {
    const util::Flags flags = flags_of({std::string("--scenario=") + name});
    const core::ScenarioConfig base = cli::config_from_flags(flags);
    EXPECT_EQ(base.cluster.num_servers, 20u) << name;
    for (const cli::ExperimentCase& experiment : cli::find_scenario(name)->expand(base, flags)) {
      EXPECT_EQ(experiment.config.cluster.num_servers, 20u) << name << " " << experiment.label;
      EXPECT_EQ(experiment.config.num_clients, 1000u) << name << " " << experiment.label;
    }
  }
  ::unsetenv("BRB_SERVERS");
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

TEST(Driver, PlanRejectsBadControlPlaneAndTenantSpecs) {
  // The grammar of these specs is checked by core::validate, so --plan
  // fails on a spec the first run would die on, and says which one.
  for (const auto& [arg, names] : std::vector<std::pair<std::string, std::string>>{
           {"--tenants=a,fanout=bogus:3", "config: tenants:"},
           {"--tenants=a,write=-0.5;b", "config: tenants:"},
           {"--signal-store=bogus", "signal store"},
           {"--stats=bogus", "config: stats"},
           {"--admission=bogus", "config: admission:"},
           {"--policy=bogus", "config: policy:"},
           {"--dispatch=bogus", "config: dispatch:"},
           {"--policy-switch=bogus", "config: policy-switch:"},
           // Numbers parse whole and finite, and times fit the clock.
           {"--policy-switch=nans:c3", "config: policy-switch:"},
           {"--policy-switch=1e300s:c3", "config: policy-switch:"},
           {"--policy-switch=infms:c3", "config: policy-switch:"},
           {"--dispatch=hedge:fresh=inf", "config: dispatch:"},
           {"--dispatch=hedge:fresh=1e300", "config: dispatch:"},
           {"--dispatch=kofn:+2", "config: dispatch:"},
           {"--dispatch=hedge:q 95", "config: dispatch:"}}) {
    const auto [code, err] = run_brbsim({"--scenario=paper", arg, "--plan"});
    EXPECT_EQ(code, 1) << arg;
    EXPECT_NE(err.find(names), std::string::npos) << arg << ": " << err;
  }
}

TEST(Driver, PlanRejectsDuplicateCaseLabels) {
  // Label lookups (the paper claims, merge) would read only the first.
  for (const auto& [args, label] : std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"--scenario=load-sweep", "--loads=0.7,0.70"}, "c3@util=0.7"},
           {{"--scenario=policy-shootout", "--policies=lor,least-outstanding"},
            "least-outstanding"}}) {
    std::vector<std::string> argv = args;
    argv.push_back("--plan");
    const auto [code, err] = run_brbsim(argv);
    EXPECT_EQ(code, 1) << args[1];
    EXPECT_NE(err.find("duplicate case label " + label), std::string::npos) << err;
  }
}

TEST(Driver, PlanRejectsInvalidFleetsAndCases) {
  // --plan runs nothing, yet a config no run could start fails it.
  for (const std::string arg : {"--servers=0", "--cores=0", "--rate=0", "--replication=0",
                                "--replication=10"}) {
    EXPECT_EQ(run_brbsim({"--scenario=paper", arg, "--plan"}).first, 1) << arg;
  }
  // Every expanded case is validated, not only the base config.
  const auto [code, err] = run_brbsim({"--scenario=load-sweep", "--loads=0.5,2", "--plan"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("case c3@util=2: config: utilization"), std::string::npos) << err;
  EXPECT_EQ(run_brbsim({"--scenario=replication-sweep", "--replications=2,10", "--plan"}).first,
            1);
  EXPECT_EQ(run_brbsim({"--scenario=replication-sweep", "--replications=2,9", "--plan"}).first,
            0);
  // The same checks guard configs built in code.
  core::ScenarioConfig config;
  config.cluster.num_servers = 0;
  EXPECT_THROW(core::validate(config), std::invalid_argument);
  config = core::ScenarioConfig{};
  config.cluster.service_rate_per_core = 0.0;
  EXPECT_THROW(core::validate(config), std::invalid_argument);
  config = core::ScenarioConfig{};
  config.replication = config.cluster.num_servers + 1;
  EXPECT_THROW(core::validate(config), std::invalid_argument);
  config.replication = config.cluster.num_servers;
  EXPECT_NO_THROW(core::validate(config));
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
