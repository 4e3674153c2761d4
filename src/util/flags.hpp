// Tiny command-line flag parser for brbsim, the benches and examples.
//
// Supports `--name value`, `--name=value`, and boolean `--name`
// (no value). Also reads `BRB_`-prefixed environment variables as
// defaults, so `BRB_PAPER=1 ./build/brbsim` runs at paper scale. The
// typed getters are strict: the whole value must parse, whether it
// came from argv or the environment.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace brb::util {

class Flags {
 public:
  /// Parses argv. Throws std::invalid_argument on a flag given more
  /// than once (a missing value for `--name` followed by another flag
  /// is treated as a boolean `true`).
  Flags(int argc, const char* const* argv);

  /// Builds an empty flag set (environment variables still consulted).
  Flags() = default;

  /// Looks up a flag, falling back to the environment variable
  /// BRB_<NAME> (upper-cased, '-' replaced by '_').
  std::optional<std::string> get(std::string_view name) const;

  std::string get_string(std::string_view name, std::string_view fallback) const;
  /// The typed getters throw std::invalid_argument naming the flag
  /// unless the whole value parses: an optionally signed decimal for
  /// get_int, an unsigned decimal for get_uint (so "--tasks=-1" cannot
  /// wrap and "--tasks=2e3" cannot read as 2), a finite number for
  /// get_double, and 1/0/true/false/yes/no/on/off for get_bool.
  std::int64_t get_int(std::string_view name, std::int64_t fallback) const;
  std::uint64_t get_uint(std::string_view name, std::uint64_t fallback) const;
  double get_double(std::string_view name, double fallback) const;
  bool get_bool(std::string_view name, bool fallback) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// True if the flag was passed explicitly on the command line.
  bool has(std::string_view name) const;

  /// Names of every flag passed explicitly on the command line (sorted;
  /// environment defaults are not included). Lets tools validate
  /// against their recognized-flag list.
  std::vector<std::string> cli_names() const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

/// One flag's `--help` line: `--NAME=ARG  HELP` (no `=ARG` for a
/// switch, whose `arg` is empty).
struct FlagHelp {
  std::string_view name;  // without the leading "--"
  std::string_view arg;
  std::string_view help;
};

/// Splits a comma-separated list, dropping empty parts
/// ("a,,b," -> {"a", "b"}).
std::vector<std::string> split_list(std::string_view list);

/// Parses `text` as an unsigned decimal integer: one or more digits
/// and nothing else (no sign, no spaces, no trailing characters), in
/// range of uint64. nullopt otherwise.
std::optional<std::uint64_t> parse_decimal(std::string_view text);

/// Parses `text` as a finite decimal number with nothing trailing
/// ("0.7", "-2", "1e3"; not "0.7x", "nan" or "inf"). nullopt otherwise.
std::optional<double> parse_finite(std::string_view text);

/// Parses `field`, one numeric field of the workload spec `spec`, whole
/// as parse_finite does; throws std::invalid_argument naming the field
/// and the spec otherwise.
double parse_spec_number(std::string_view field, std::string_view spec);

/// parse_spec_number for a count: a whole number in [0, max] ("100000",
/// "1e5"; not "1e5x", "2.5" or "-1").
std::uint64_t parse_spec_count(std::string_view field, std::string_view spec, std::uint64_t max);

/// A model spec "NAME:ARG:..." split on every ':' (empty parts kept, so
/// "zipf:100:" has an empty third argument), as the workload factories
/// (make_key_distribution, make_size_distribution, ...) and
/// parse_dispatch_mode read it. Its arguments parse through
/// parse_spec_number and parse_spec_count.
class ModelSpec {
 public:
  /// Throws std::invalid_argument "WHO: empty spec" for an empty spec.
  ModelSpec(std::string_view spec, std::string_view who);

  const std::string& name() const noexcept { return parts_.front(); }
  std::size_t size() const noexcept { return parts_.size(); }
  const std::string& operator[](std::size_t i) const { return parts_.at(i); }
  /// Argument i as a number; it must be present.
  double number(std::size_t i) const { return parse_spec_number(parts_.at(i), spec_); }
  /// Argument i as a number, or `fallback` when the spec stops before it.
  double number_or(std::size_t i, double fallback) const {
    return i < parts_.size() ? number(i) : fallback;
  }
  /// Argument i as a whole number in [0, max], or `fallback` when the
  /// spec stops before it.
  template <typename T = std::uint32_t>
  T count_or(std::size_t i, std::type_identity_t<T> fallback,
             std::uint64_t max = std::numeric_limits<T>::max()) const {
    return i < parts_.size() ? static_cast<T>(parse_spec_count(parts_[i], spec_, max)) : fallback;
  }

 private:
  std::string spec_;
  std::vector<std::string> parts_;
};

/// Damerau-ish edit distance for did-you-mean hints (insert, delete,
/// substitute; no transposition). Exposed for tests.
std::size_t edit_distance(std::string_view a, std::string_view b);

/// The closest candidate within a small edit budget; nullopt when
/// nothing is plausibly a typo of `name`.
std::optional<std::string> closest_name(std::string_view name,
                                        const std::vector<std::string>& candidates);

}  // namespace brb::util
