#include "sim/simulator.hpp"

namespace brb::sim {

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_ && step()) ++executed;
  return executed;
}

std::uint64_t Simulator::run_until(Time until) {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_) {
    const auto next = queue_.peek_time();
    if (!next || *next > until) break;
    step();
    ++executed;
  }
  if (!stopped_ && until > now_) now_ = until;
  return executed;
}

bool Simulator::step() {
  auto entry = queue_.pop();
  if (!entry) return false;
  now_ = entry->when;
  ++processed_;
  entry->fn();
  return true;
}

}  // namespace brb::sim
