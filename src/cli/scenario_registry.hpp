// Named experiment scenarios for the unified `brbsim` driver.
//
// A scenario expands one flag-configured base `ScenarioConfig` into the
// concrete (label, config) cases it studies — one per (system, swept
// value) pair. Every figure and ablation sweep is reachable as
// `brbsim --scenario=<name>` with every config field overridable.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/flags.hpp"

namespace brb::cli {

/// One runnable experiment: a human/machine label plus the full config.
struct ExperimentCase {
  std::string label;
  core::ScenarioConfig config;
};

struct ScenarioSpec {
  std::string name;
  std::string summary;  // one line, shown by `brbsim --list`
  /// Expands into cases. `base` already carries every command-line
  /// override; expansion varies only the dimension under study.
  std::function<std::vector<ExperimentCase>(const core::ScenarioConfig& base,
                                            const util::Flags& flags)>
      expand;
};

/// All built-in scenarios, in presentation order.
const std::vector<ScenarioSpec>& scenario_registry();

/// Returns nullptr when `name` is not registered.
const ScenarioSpec* find_scenario(const std::string& name);

/// Parses `--systems=a,b,c` into kinds; `fallback` when absent.
/// Throws std::invalid_argument on an unknown system name.
std::vector<core::SystemKind> systems_from_flags(const util::Flags& flags,
                                                 std::vector<core::SystemKind> fallback);

/// Parses a comma-separated list flag of doubles; `fallback` when absent.
std::vector<double> doubles_from_flag(const util::Flags& flags, std::string_view name,
                                      std::vector<double> fallback);

}  // namespace brb::cli
