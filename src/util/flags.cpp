#include "util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace brb::util {

namespace {

std::string env_name_for(std::string_view flag) {
  std::string name = "BRB_";
  for (const char c : flag) {
    name.push_back(c == '-' ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return name;
}

std::optional<bool> parse_bool(std::string_view text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") return true;
  if (text == "0" || text == "false" || text == "no" || text == "off") return false;
  return std::nullopt;
}

[[noreturn]] void bad_value(std::string_view name, std::string_view expected,
                            const std::string& value) {
  throw std::invalid_argument("flag --" + std::string(name) + ": " + std::string(expected) +
                              ", got '" + value + "'");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg.empty()) continue;  // bare "--" separator
    const auto eq = arg.find('=');
    std::string name(arg.substr(0, eq));
    std::string value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      value = argv[++i];  // `--name value`
    } else {
      value = "true";  // followed by another flag (or nothing): a switch
    }
    // Keeping either copy of a repeated flag would silently drop the other.
    if (!values_.emplace(name, std::move(value)).second) {
      throw std::invalid_argument("flag --" + name + " given more than once");
    }
  }
}

std::vector<std::string> split_list(std::string_view list) {
  std::vector<std::string> parts;
  for (;;) {
    const std::size_t comma = list.find(',');
    const std::string_view part = list.substr(0, comma);
    if (!part.empty()) parts.emplace_back(part);
    if (comma == std::string_view::npos) return parts;
    list.remove_prefix(comma + 1);
  }
}

std::optional<std::uint64_t> parse_decimal(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [consumed, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || consumed != end) return std::nullopt;
  return value;
}

std::optional<double> parse_finite(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [consumed, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || consumed != end || !std::isfinite(value)) return std::nullopt;
  return value;
}

double parse_spec_number(std::string_view field, std::string_view spec) {
  const std::optional<double> value = parse_finite(field);
  if (!value) {
    throw std::invalid_argument("spec '" + std::string(spec) + "': '" + std::string(field) +
                                "' is not a number");
  }
  return *value;
}

std::uint64_t parse_spec_count(std::string_view field, std::string_view spec, std::uint64_t max) {
  const double value = parse_spec_number(field, spec);
  if (!(value >= 0.0 && value <= static_cast<double>(max) && value == std::floor(value))) {
    throw std::invalid_argument("spec '" + std::string(spec) + "': '" + std::string(field) +
                                "' is not a whole number in [0, " + std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(value);
}

ModelSpec::ModelSpec(std::string_view spec, std::string_view who) : spec_(spec) {
  if (spec.empty()) throw std::invalid_argument(std::string(who) + ": empty spec");
  for (;;) {
    const std::size_t colon = spec.find(':');
    parts_.emplace_back(spec.substr(0, colon));
    if (colon == std::string_view::npos) return;
    spec.remove_prefix(colon + 1);
  }
}

std::optional<std::string> Flags::get(std::string_view name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  // BRB_* env vars are explicit run configuration — the same input class as
  // argv, resolved once per lookup — not hidden nondeterminism.
  // brblint:allow(BRB-D02): env fallback is declared run configuration
  if (const char* env = std::getenv(env_name_for(name).c_str()); env != nullptr) {
    return std::string(env);
  }
  return std::nullopt;
}

std::string Flags::get_string(std::string_view name, std::string_view fallback) const {
  if (const auto v = get(name)) return *v;
  return std::string(fallback);
}

std::int64_t Flags::get_int(std::string_view name, std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  const bool negative = v->starts_with('-');
  const std::optional<std::uint64_t> magnitude =
      parse_decimal(std::string_view(*v).substr(negative ? 1 : 0));
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (!magnitude || *magnitude > kMax) bad_value(name, "expected an integer", *v);
  const auto value = static_cast<std::int64_t>(*magnitude);
  return negative ? -value : value;
}

std::uint64_t Flags::get_uint(std::string_view name, std::uint64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  const std::optional<std::uint64_t> value = parse_decimal(*v);
  if (!value) bad_value(name, "expected an integer >= 0", *v);
  return *value;
}

double Flags::get_double(std::string_view name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  const std::optional<double> value = parse_finite(*v);
  if (!value) bad_value(name, "expected a finite number", *v);
  return *value;
}

bool Flags::get_bool(std::string_view name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  const std::optional<bool> value = parse_bool(*v);
  if (!value) bad_value(name, "expected 1/0/true/false/yes/no/on/off", *v);
  return *value;
}

bool Flags::has(std::string_view name) const { return values_.find(name) != values_.end(); }

std::vector<std::string> Flags::cli_names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> curr(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitute = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitute});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

std::optional<std::string> closest_name(std::string_view name,
                                        const std::vector<std::string>& candidates) {
  // Budget scales with length so short flags do not match everything.
  const std::size_t budget = name.size() <= 4 ? 1 : name.size() <= 8 ? 2 : 3;
  std::optional<std::string> best;
  std::size_t best_distance = budget + 1;
  for (const std::string& candidate : candidates) {
    const std::size_t distance = edit_distance(name, candidate);
    if (distance < best_distance) {
      best_distance = distance;
      best = candidate;
    }
  }
  return best;
}

}  // namespace brb::util
