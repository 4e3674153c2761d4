// Strong simulated-time types.
//
// All simulator timestamps are integer nanoseconds. Strong types keep
// times and durations from mixing with raw integers (a frequent source
// of unit bugs in simulators), while constexpr arithmetic keeps them
// zero-cost.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace brb::sim {

/// A span of simulated time. Signed so that differences are expressible;
/// negative durations are legal values but most consumers reject them.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration nanos(std::int64_t v) noexcept { return Duration(v); }
  static constexpr Duration micros(double v) noexcept {
    return Duration(static_cast<std::int64_t>(v * 1e3));
  }
  static constexpr Duration millis(double v) noexcept {
    return Duration(static_cast<std::int64_t>(v * 1e6));
  }
  static constexpr Duration seconds(double v) noexcept {
    return Duration(static_cast<std::int64_t>(v * 1e9));
  }
  static constexpr Duration zero() noexcept { return Duration(0); }
  static constexpr Duration max() noexcept {
    return Duration(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t count_nanos() const noexcept { return ns_; }
  constexpr double as_micros() const noexcept { return static_cast<double>(ns_) / 1e3; }
  constexpr double as_millis() const noexcept { return static_cast<double>(ns_) / 1e6; }
  constexpr double as_seconds() const noexcept { return static_cast<double>(ns_) / 1e9; }

  constexpr bool is_negative() const noexcept { return ns_ < 0; }

  constexpr Duration operator+(Duration other) const noexcept { return Duration(ns_ + other.ns_); }
  constexpr Duration operator-(Duration other) const noexcept { return Duration(ns_ - other.ns_); }
  constexpr Duration operator-() const noexcept { return Duration(-ns_); }
  constexpr Duration operator*(double k) const noexcept {
    return Duration(static_cast<std::int64_t>(static_cast<double>(ns_) * k));
  }
  constexpr Duration operator/(double k) const noexcept {
    return Duration(static_cast<std::int64_t>(static_cast<double>(ns_) / k));
  }
  constexpr double operator/(Duration other) const noexcept {
    return static_cast<double>(ns_) / static_cast<double>(other.ns_);
  }
  constexpr Duration& operator+=(Duration other) noexcept {
    ns_ += other.ns_;
    return *this;
  }
  constexpr Duration& operator-=(Duration other) noexcept {
    ns_ -= other.ns_;
    return *this;
  }

  constexpr auto operator<=>(const Duration&) const noexcept = default;

 private:
  explicit constexpr Duration(std::int64_t ns) noexcept : ns_(ns) {}
  std::int64_t ns_ = 0;
};

constexpr Duration operator*(double k, Duration d) noexcept { return d * k; }

/// An absolute point on the simulated clock (nanoseconds since t=0).
class Time {
 public:
  constexpr Time() = default;

  static constexpr Time zero() noexcept { return Time(0); }
  static constexpr Time nanos(std::int64_t v) noexcept { return Time(v); }
  static constexpr Time micros(double v) noexcept {
    return Time(static_cast<std::int64_t>(v * 1e3));
  }
  static constexpr Time millis(double v) noexcept {
    return Time(static_cast<std::int64_t>(v * 1e6));
  }
  static constexpr Time seconds(double v) noexcept {
    return Time(static_cast<std::int64_t>(v * 1e9));
  }
  static constexpr Time max() noexcept { return Time(std::numeric_limits<std::int64_t>::max()); }

  constexpr std::int64_t count_nanos() const noexcept { return ns_; }
  constexpr double as_micros() const noexcept { return static_cast<double>(ns_) / 1e3; }
  constexpr double as_millis() const noexcept { return static_cast<double>(ns_) / 1e6; }
  constexpr double as_seconds() const noexcept { return static_cast<double>(ns_) / 1e9; }

  constexpr Time operator+(Duration d) const noexcept { return Time(ns_ + d.count_nanos()); }
  constexpr Time operator-(Duration d) const noexcept { return Time(ns_ - d.count_nanos()); }
  constexpr Duration operator-(Time other) const noexcept {
    return Duration::nanos(ns_ - other.ns_);
  }
  constexpr Time& operator+=(Duration d) noexcept {
    ns_ += d.count_nanos();
    return *this;
  }

  constexpr auto operator<=>(const Time&) const noexcept = default;

 private:
  explicit constexpr Time(std::int64_t ns) noexcept : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// `value` units of `unit_ns` nanoseconds, truncated to whole
/// nanoseconds; nullopt unless the product is in [0, 2^63) ns, outside
/// which the int64 cast is undefined. The one checked conversion for
/// durations read from flags and specs (NaN fails it too).
std::optional<Duration> checked_duration(double value, double unit_ns);

/// Human-readable rendering, e.g. "1.500ms" / "42.000us"; for logs only.
std::string to_string(Duration d);
std::string to_string(Time t);

namespace literals {

constexpr Duration operator""_ns(unsigned long long v) {
  return Duration::nanos(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_us(unsigned long long v) {
  return Duration::micros(static_cast<double>(v));
}
constexpr Duration operator""_ms(unsigned long long v) {
  return Duration::millis(static_cast<double>(v));
}
constexpr Duration operator""_s(unsigned long long v) {
  return Duration::seconds(static_cast<double>(v));
}

}  // namespace literals

}  // namespace brb::sim
