// Named experiment scenarios for the unified `brbsim` driver.
//
// A scenario expands one flag-configured base `ScenarioConfig` into the
// concrete (label, config) cases it studies — one per (system, swept
// value) pair. Every figure and ablation sweep is reachable as
// `brbsim --scenario=<name>`. Most scenarios are data rows: presets
// ("--flag=value" defaults the user's own flags win over), default
// systems, at most one axis that sweeps a config flag through that
// flag's own parser, and fixed reference cases; one grid expansion
// turns a row into cases. The few whose values do more than set one
// config flag are code. Each entry declares the expander flags it
// reads and the config flags its cases overwrite (derived for rows),
// so the driver can reject a flag the scenario would silently ignore.
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

/// A config flag no case of a scenario keeps (its cases overwrite it, or
/// the run ignores it), and the flag to use instead ("" when the
/// scenario fixes the value outright).
struct Overwrite {
  std::string flag;
  std::string instead;
};

struct ScenarioSpec {
  std::string name;
  std::string summary;  // one line, shown by `brbsim --list`
  /// The expander flags (`expander_flags()`) this scenario reads.
  std::vector<std::string> reads;
  /// The config flags (`cli::config_flags()`) no case keeps.
  std::vector<Overwrite> overwrites;
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

/// The flags only scenario expanders read (`--loads`, `--systems`, ...),
/// as opposed to the config flags every case starts from.
const std::vector<util::FlagHelp>& expander_flags();

/// Parses `--systems=a,b,c` into kinds; `fallback` when absent.
/// Throws std::invalid_argument on an unknown system name.
std::vector<core::SystemKind> systems_from_flags(const util::Flags& flags,
                                                 std::vector<core::SystemKind> fallback);

}  // namespace brb::cli
