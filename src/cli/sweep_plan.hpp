// The deterministic experiment plan behind `brbsim` — layer 1 of the
// plan / execute / merge split.
//
// A `SweepPlan` enumerates every (case, seed) unit of one scenario
// expansion up front, with a stable 64-bit hash per unit. Sharding
// partitions the *hash space* into N contiguous ranges (multiply-shift:
// unit u belongs to shard `hash(u) * N >> 64`), so:
//
//   - the partition is deterministic and machine-independent — every
//     worker derives its slice from the same flags, no coordinator;
//   - shard loads are balanced in expectation whatever the case/seed
//     grid shape, because the hash mixes both dimensions;
//   - the N-way partition is exact: each unit lands in exactly one
//     shard for every N.
//
// `brbsim --plan` prints the table, `--shard=i/N` executes one slice,
// and `brbsim merge` reassembles the artifacts (stats/artifact.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cli/scenario_registry.hpp"
#include "core/scenario.hpp"
#include "stats/report.hpp"
#include "util/flags.hpp"

namespace brb::cli {

/// One executable unit of a sweep: a single (case, seed) simulation.
struct SweepUnit {
  std::uint32_t case_index = 0;
  std::uint64_t seed = 0;
  /// Stable partition key: FNV-1a over (scenario, case index, label,
  /// seed). Identical across runs, shard counts, and machines.
  std::uint64_t hash = 0;
  /// Human-readable stable id, "<case_index>:<label>#s<seed>".
  std::string id;
};

/// A 1-based "--shard=i/N" selector over the unit hash space.
struct ShardSpec {
  std::uint32_t index = 1;
  std::uint32_t count = 1;

  /// Parses "i/N" with 1 <= i <= N. Throws std::invalid_argument.
  static ShardSpec parse(const std::string& text);

  bool is_full() const noexcept { return count == 1; }
  /// True when `hash` falls in this shard's contiguous range.
  bool contains(std::uint64_t hash) const noexcept { return bucket_of(hash, count) == index - 1; }
  /// Which of `count` shards owns `hash` (0-based).
  static std::uint32_t bucket_of(std::uint64_t hash, std::uint32_t count) noexcept;

  std::string describe() const;  // "i/N"
};

/// The full deterministic plan of one driver invocation: the expanded
/// cases, the seed list, and the flat unit grid (case-major).
struct SweepPlan {
  std::string scenario;
  core::ScenarioConfig base;
  std::vector<ExperimentCase> cases;
  std::vector<std::uint64_t> seeds;
  std::vector<SweepUnit> units;

  /// The units this shard owns, in plan order.
  std::vector<const SweepUnit*> shard_units(const ShardSpec& shard) const;
};

/// Stable unit hash (exposed for tests).
std::uint64_t sweep_unit_hash(const std::string& scenario, std::uint32_t case_index,
                              const std::string& label, std::uint64_t seed);

/// Expands `scenario_name` from the registry against the flag-resolved
/// base config and plans its cases with `plan_cases`. Throws
/// std::invalid_argument on an unknown scenario; an empty expansion
/// yields an empty plan.
SweepPlan build_sweep_plan(const std::string& scenario_name, const core::ScenarioConfig& base,
                           const std::vector<std::uint64_t>& seeds, const util::Flags& flags);

/// Plans already-expanded cases: checks them and enumerates the unit
/// grid. Throws std::invalid_argument on two cases with one label and
/// on a case `core::validate` rejects.
SweepPlan plan_cases(const std::string& scenario_name, const core::ScenarioConfig& base,
                     std::vector<ExperimentCase> cases, const std::vector<std::uint64_t>& seeds);

/// `--plan`: one line per unit. With `shard_count` > 1 a shard column
/// is added; `selected` (if set) marks that shard's units with '*'.
void print_plan(std::ostream& os, const SweepPlan& plan, std::uint32_t shard_count,
                std::optional<std::uint32_t> selected_index);

/// Machine-readable plan listing (`--plan --json=PATH`).
stats::Json plan_json(const SweepPlan& plan, std::uint32_t shard_count);

}  // namespace brb::cli
