#include "util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
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

bool parse_bool(std::string_view text, bool fallback) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") return true;
  if (text == "0" || text == "false" || text == "no" || text == "off") return false;
  return fallback;
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
    if (eq != std::string_view::npos) {
      values_.emplace(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
      continue;
    }
    // `--name value` unless the next token is another flag; then boolean.
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      values_.emplace(std::string(arg), argv[i + 1]);
      ++i;
    } else {
      values_.emplace(std::string(arg), "true");
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
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + std::string(name) + ": not an integer: " + *v);
  }
}

std::uint64_t Flags::get_uint(std::string_view name, std::uint64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::int64_t parsed = 0;
  try {
    parsed = std::stoll(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + std::string(name) + ": not an integer: " + *v);
  }
  if (parsed < 0) {
    throw std::invalid_argument("flag --" + std::string(name) + ": must be >= 0, got " + *v);
  }
  return static_cast<std::uint64_t>(parsed);
}

double Flags::get_double(std::string_view name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + std::string(name) + ": not a number: " + *v);
  }
}

bool Flags::get_bool(std::string_view name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parse_bool(*v, fallback);
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
