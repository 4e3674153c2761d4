// The `brbsim` unified experiment driver, layered as plan / execute /
// merge.
//
// The one experiment runner: pick a scenario from the registry,
// override any `ScenarioConfig` field with a flag, run every (case,
// seed) unit on one pool of worker threads — or only one shard of them
// across worker *processes / machines* — and get an aligned console
// table (plus the paper's Figure 2 claims for the five paper cases) and
// machine-readable JSON / CSV artifacts that merge byte-identically.
// Every case of an artifact is built from its per-seed rows by
// `stats::set_case_runs`, in-process and in `brbsim merge` alike.
//
//   brbsim --scenario=paper --seeds=3 --json=out.json
//   brbsim --scenario=load-sweep --loads=0.6,0.8 --tasks=30000 --csv=sweep.csv
//   brbsim --scenario=paper --plan                      # list the unit grid
//   brbsim --scenario=paper --shard=2/3 --json=s2.json  # one machine's slice
//   brbsim --scenario=paper --spawn=3 --json=out.json   # 3 worker processes
//   brbsim merge out.json s1.json s2.json s3.json       # reassemble shards
//   brbsim --record-trace=trace.csv --tasks=20000
//   brbsim --scenario=trace-replay --trace=trace.csv
//   brbsim --list
#pragma once

#include <functional>
#include <iosfwd>
#include <string_view>
#include <variant>
#include <vector>

#include "cli/scenario_registry.hpp"
#include "cli/sweep_plan.hpp"
#include "core/scenario.hpp"
#include "stats/report.hpp"
#include "util/flags.hpp"

namespace brb::cli {

/// One `ScenarioConfig` flag. The `config_flags()` table is the only
/// place a config flag's name, help line, parser and artifact echo are
/// written: flag validation, `config_from_flags`, the artifact's config
/// and case blocks, and `--help` are all loops over it.
struct ConfigFlag {
  template <typename T>
  using Ref = T& (*)(core::ScenarioConfig&);
  /// The field the flag sets. Each type has one strict parser: integers
  /// are whole decimals (at most 2^32-1 for 32-bit fields, at least 1
  /// for a `positive` row), reals and durations are finite and >= 0,
  /// switches take 1/0/true/false/yes/no/on/off, text must be non-empty,
  /// and a cluster is a `ClusterSpec` profile.
  using Field = std::variant<Ref<std::uint32_t>, Ref<std::uint64_t>, Ref<double>, Ref<bool>,
                             Ref<std::string>, Ref<sim::Duration>, Ref<workload::ClusterSpec>>;

  std::string_view heading{};    // starts a `--help` section ("" = continue the last)
  std::string_view name{};       // without the leading "--"
  std::string_view arg{};        // `--help` placeholder ("" for a switch)
  std::string_view help{};
  Field field{};
  double unit_ns = 0.0;          // duration fields: nanoseconds per unit of the value
  std::string_view json{};       // artifact key ("" = not echoed)
  bool when_set = false;         // echo only a non-empty string or a set switch
  int case_slot = 0;             // position in every case block (0 = config block only)
  std::string_view conflicts{};  // comma list of flags that may not be given with this one
  bool recorded = false;         // read by `--record-trace`
  bool positive = false;         // an integer field rejects 0
  /// Set when every scenario run overwrites the field: the run-control
  /// flag to use instead.
  std::string_view runs_instead{};
};

/// Every config flag, in `--help` and config-block order.
const std::vector<ConfigFlag>& config_flags();

/// The flags that steer the driver rather than set a config field.
const std::vector<util::FlagHelp>& run_control_flags();

/// Rejects a command-line flag that no table knows (with a did-you-mean
/// hint), and one the resolved scenario — or `--record-trace` — would
/// not read: an expander flag it does not declare, or a config flag its
/// cases overwrite. The message names the scenario and the flag to use
/// instead. Throws std::invalid_argument.
void validate_flags(const util::Flags& flags);

/// Builds the driver's base config: paper defaults (60k tasks unless
/// `--paper`), then every config flag set on the command line or in
/// the environment, then `core::validate` on all but the replication
/// factor's fit to the fleet, which `build_sweep_plan` checks per case.
core::ScenarioConfig config_from_flags(const util::Flags& flags);

/// Parses `value` into config flag `name`'s field with that flag's own
/// parser, and returns the parsed field as text (`0.70` reads back
/// `0.7`). Throws std::invalid_argument naming the flag.
std::string set_config_flag(core::ScenarioConfig& config, std::string_view name,
                            const std::string& value);

/// True when the command line or the environment sets config flag
/// `name` or a flag it conflicts with (either side of `conflicts`).
bool config_flag_set(const util::Flags& flags, std::string_view name);

/// Seed list: `--seed-list=1,5,9` wins, else 1..`--seeds`.
std::vector<std::uint64_t> seeds_from_flags(const util::Flags& flags,
                                            std::uint64_t default_count);

/// Generates the base config's workload and writes it as a trace file.
void record_trace(const core::ScenarioConfig& base, const std::string& path);

/// Layer 2 (execute): runs the plan's units owned by `shard` (nullptr
/// = all of them) and returns their JSON artifact (stats/artifact.hpp
/// format 2). Workers claim units in plan order from one pool of
/// `min(units, threads)` threads, `threads` = 0 meaning one per planned
/// seed; one worker runs in the calling thread. Any count gives the
/// same bytes above the trailing "timing" object, which holds the wall
/// clock and peak RSS. The first failing unit in plan order is
/// rethrown. `progress`, if set, is called (serialized) when a case's
/// last owned unit ends; cases with no owned unit get empty runs.
stats::Json execute_shard(const SweepPlan& plan, const ShardSpec* shard, std::size_t threads,
                          const std::function<void(const ExperimentCase&)>& progress = {});

/// Console summary table of an artifact document (cases with at least
/// one executed run).
void print_case_table(std::ostream& os, const stats::Json& artifact);

/// The paper's Figure 2 headline claims (Claim A/B), computed from an
/// artifact of the "paper" scenario. Writes nothing and returns false
/// for any other scenario, or unless all five paper cases (c3,
/// equalmax-{credits,model}, unifincr-{credits,model}) have executed
/// runs.
bool print_paper_claims(std::ostream& os, const stats::Json& artifact);

void print_usage(std::ostream& os);

/// Full driver entry point (what tools/brbsim_main.cpp calls).
/// `brbsim merge OUT IN...` is handled here too.
/// Returns a process exit code; never throws.
int run_brbsim(int argc, const char* const* argv);

}  // namespace brb::cli
