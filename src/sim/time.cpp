#include "sim/time.hpp"

#include <cmath>
#include <cstdio>

namespace brb::sim {

namespace {

std::string format_ns(std::int64_t ns) {
  char buffer[64];
  const double abs_ns = std::abs(static_cast<double>(ns));
  if (abs_ns >= 1e9) {
    std::snprintf(buffer, sizeof(buffer), "%.3fs", static_cast<double>(ns) / 1e9);
  } else if (abs_ns >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.3fms", static_cast<double>(ns) / 1e6);
  } else if (abs_ns >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.3fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%lldns", static_cast<long long>(ns));
  }
  return buffer;
}

}  // namespace

std::optional<Duration> checked_duration(double value, double unit_ns) {
  const double nanos = value * unit_ns;
  if (!(nanos >= 0.0 && nanos < 0x1p63)) return std::nullopt;
  return Duration::nanos(static_cast<std::int64_t>(nanos));
}

std::string to_string(Duration d) { return format_ns(d.count_nanos()); }
std::string to_string(Time t) { return format_ns(t.count_nanos()); }

}  // namespace brb::sim
