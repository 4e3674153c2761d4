#include "cli/sweep_plan.hpp"

#include <ostream>
#include <stdexcept>

#include "stats/table.hpp"

namespace brb::cli {

namespace {

std::uint64_t parse_shard_part(const std::string& text, const std::string& part) {
  if (const std::optional<std::uint64_t> value = util::parse_decimal(part)) return *value;
  throw std::invalid_argument("--shard: expected i/N with integers, got '" + text + "'");
}

}  // namespace

ShardSpec ShardSpec::parse(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("--shard: expected i/N (e.g. --shard=2/3), got '" + text + "'");
  }
  const std::uint64_t index = parse_shard_part(text, text.substr(0, slash));
  const std::uint64_t count = parse_shard_part(text, text.substr(slash + 1));
  if (count == 0 || index == 0 || index > count) {
    throw std::invalid_argument("--shard: need 1 <= i <= N, got '" + text + "'");
  }
  if (count > 1'000'000) {
    throw std::invalid_argument("--shard: implausible shard count in '" + text + "'");
  }
  ShardSpec spec;
  spec.index = static_cast<std::uint32_t>(index);
  spec.count = static_cast<std::uint32_t>(count);
  return spec;
}

std::uint32_t ShardSpec::bucket_of(std::uint64_t hash, std::uint32_t count) noexcept {
  // Multiply-shift range partition: maps the hash space onto [0, count)
  // in contiguous ranges of equal width (Lemire's fast alternative to
  // modulo, which here doubles as the "contiguous-by-hash" property).
  return static_cast<std::uint32_t>(
      (static_cast<unsigned __int128>(hash) * count) >> 64);
}

std::string ShardSpec::describe() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

std::uint64_t sweep_unit_hash(const std::string& scenario, std::uint32_t case_index,
                              const std::string& label, std::uint64_t seed) {
  // FNV-1a 64 over the unit identity, with '\0' separators so
  // ("ab", "c") never collides with ("a", "bc").
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix_byte = [&h](unsigned char byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  const auto mix_string = [&](const std::string& s) {
    for (const char c : s) mix_byte(static_cast<unsigned char>(c));
    mix_byte(0);
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  mix_string(scenario);
  mix_u64(case_index);
  mix_string(label);
  mix_u64(seed);
  return h;
}

std::vector<const SweepUnit*> SweepPlan::shard_units(const ShardSpec& shard) const {
  std::vector<const SweepUnit*> owned;
  owned.reserve(units.size() / (shard.count > 0 ? shard.count : 1) + 1);
  for (const SweepUnit& unit : units) {
    if (shard.contains(unit.hash)) owned.push_back(&unit);
  }
  return owned;
}

SweepPlan build_sweep_plan(const std::string& scenario_name, const core::ScenarioConfig& base,
                           const std::vector<std::uint64_t>& seeds, const util::Flags& flags) {
  const ScenarioSpec* scenario = find_scenario(scenario_name);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario '" + scenario_name +
                                "' (see brbsim --list)");
  }
  return plan_cases(scenario_name, base, scenario->expand(base, flags), seeds);
}

SweepPlan plan_cases(const std::string& scenario_name, const core::ScenarioConfig& base,
                     std::vector<ExperimentCase> cases, const std::vector<std::uint64_t>& seeds) {
  SweepPlan plan;
  plan.scenario = scenario_name;
  plan.base = base;
  plan.cases = std::move(cases);
  plan.seeds = seeds;
  plan.units.reserve(plan.cases.size() * seeds.size());
  for (std::uint32_t case_index = 0; case_index < plan.cases.size(); ++case_index) {
    const std::string& label = plan.cases[case_index].label;
    // A label names one case: artifact lookups by label (the paper
    // claims, merge) would silently read only the first of two.
    for (std::uint32_t earlier = 0; earlier < case_index; ++earlier) {
      if (plan.cases[earlier].label == label) {
        throw std::invalid_argument("scenario '" + scenario_name +
                                    "': duplicate case label " + label);
      }
    }
    // Every case is checked here, so a bad one fails --plan rather than
    // a run midway through the sweep.
    try {
      core::validate(plan.cases[case_index].config);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("case " + label + ": " + e.what());
    }
    for (const std::uint64_t seed : seeds) {
      SweepUnit unit;
      unit.case_index = case_index;
      unit.seed = seed;
      unit.hash = sweep_unit_hash(scenario_name, case_index, label, seed);
      unit.id = std::to_string(case_index) + ":" + label + "#s" + std::to_string(seed);
      plan.units.push_back(std::move(unit));
    }
  }
  return plan;
}

void print_plan(std::ostream& os, const SweepPlan& plan, std::uint32_t shard_count,
                std::optional<std::uint32_t> selected_index) {
  os << "# plan scenario=" << plan.scenario << ": " << plan.cases.size() << " cases x "
     << plan.seeds.size() << " seeds = " << plan.units.size() << " units";
  if (shard_count > 1) os << ", " << shard_count << " shards";
  os << "\n";
  std::vector<std::string> header = {"unit", "system", "seed"};
  if (shard_count > 1) header.push_back(selected_index ? "shard (*=mine)" : "shard");
  stats::Table table(header);
  for (const SweepUnit& unit : plan.units) {
    std::vector<std::string> row = {
        unit.id, to_string(plan.cases[unit.case_index].config.system),
        std::to_string(unit.seed)};
    if (shard_count > 1) {
      const std::uint32_t bucket = ShardSpec::bucket_of(unit.hash, shard_count);
      std::string cell = std::to_string(bucket + 1) + "/" + std::to_string(shard_count);
      if (selected_index && bucket + 1 == *selected_index) cell += " *";
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

stats::Json plan_json(const SweepPlan& plan, std::uint32_t shard_count) {
  stats::Json root = stats::Json::object();
  root["tool"] = "brbsim-plan";
  root["scenario"] = plan.scenario;
  root["cases"] = plan.cases.size();
  stats::Json seeds = stats::Json::array();
  for (const std::uint64_t seed : plan.seeds) seeds.push_back(seed);
  root["seeds"] = std::move(seeds);
  if (shard_count > 1) root["shards"] = shard_count;
  stats::Json units = stats::Json::array();
  for (const SweepUnit& unit : plan.units) {
    stats::Json u = stats::Json::object();
    u["id"] = unit.id;
    u["case"] = unit.case_index;
    u["label"] = plan.cases[unit.case_index].label;
    u["system"] = to_string(plan.cases[unit.case_index].config.system);
    u["seed"] = unit.seed;
    if (shard_count > 1) u["shard"] = ShardSpec::bucket_of(unit.hash, shard_count) + 1;
    units.push_back(std::move(u));
  }
  root["units"] = std::move(units);
  return root;
}

}  // namespace brb::cli
