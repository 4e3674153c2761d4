// The systems under comparison.
//
// Figure 2 of the paper compares five: C3 (state of the art) and the
// {EqualMax, UnifIncr} x {Credits, Model} matrix. The remaining kinds
// are ablations this reproduction adds to separate mechanisms (see
// DESIGN.md section 4).
#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace brb::core {

enum class SystemKind {
  /// C3 (NSDI '15): cubic replica ranking + cubic rate control,
  /// task-oblivious FIFO servers.
  kC3,
  /// BRB EqualMax priorities, credits realization.
  kEqualMaxCredits,
  /// BRB UnifIncr priorities, credits realization.
  kUnifIncrCredits,
  /// BRB EqualMax priorities, ideal global-queue model.
  kEqualMaxModel,
  /// BRB UnifIncr priorities, ideal global-queue model.
  kUnifIncrModel,
  // --- ablations beyond the paper's Figure 2 ---
  /// Task-oblivious baseline: least-outstanding selection, FIFO servers.
  kFifoDirect,
  /// Random replica selection, FIFO servers (memcached-era floor).
  kRandomFifo,
  /// BRB EqualMax without any admission control (no credits).
  kEqualMaxDirect,
  /// BRB UnifIncr without any admission control (no credits).
  kUnifIncrDirect,
  /// Ideal global queue but FIFO (separates pooling from priorities).
  kFifoModel,
  /// Per-request SJF, direct (separates size-aware from task-aware).
  kRequestSjfDirect,
  /// CumSlack extension (exact serialized slack), credits realization.
  kCumSlackCredits,
  /// CumSlack extension, ideal global queue.
  kCumSlackModel,
};

/// Everything that defines a system, in one row: the registry names of
/// its replica selector, priority policy, server queue discipline and
/// admission policy (each overridable from the command line), whether
/// it selects replicas per sub-task, and its two roles in the paper's
/// comparison.
struct SystemProfile {
  SystemKind kind;
  std::string_view name;
  std::string_view selector;
  std::string_view priority_policy;
  std::string_view discipline;
  bool select_per_subtask;
  std::string_view admission;
  /// Task-aware (BRB) priority assignment.
  bool task_aware;
  /// Servers pull from the shared global queue instead of owning one.
  bool global_queue;
};

// BRB selects replicas load-aware per sub-task ("intelligent replica
// selection", §2). Least-pending-cost tracks the forecast work a client
// has bound to each server — the strongest decentralized signal
// available to it (measured in the policy-matrix scenario; beats
// C3-style ranking at sub-task granularity).
inline constexpr std::array<SystemProfile, 13> kSystemProfiles = {{
    // kind, name, selector, priority, discipline, per-subtask, admission, task-aware, global
    {SystemKind::kC3, "c3", "c3", "fifo", "fifo", false, "cubic-rate", false, false},
    {SystemKind::kEqualMaxCredits, "equalmax-credits", "least-pending-cost", "equalmax",
     "priority", true, "credits", true, false},
    {SystemKind::kUnifIncrCredits, "unifincr-credits", "least-pending-cost", "unifincr",
     "priority", true, "credits", true, false},
    {SystemKind::kEqualMaxModel, "equalmax-model", "first", "equalmax", "priority", true,
     "direct", true, true},
    {SystemKind::kUnifIncrModel, "unifincr-model", "first", "unifincr", "priority", true,
     "direct", true, true},
    {SystemKind::kFifoDirect, "fifo-direct", "least-outstanding", "fifo", "fifo", false,
     "direct", false, false},
    {SystemKind::kRandomFifo, "random-fifo", "random", "fifo", "fifo", false, "direct", false,
     false},
    {SystemKind::kEqualMaxDirect, "equalmax-direct", "least-pending-cost", "equalmax",
     "priority", true, "direct", true, false},
    {SystemKind::kUnifIncrDirect, "unifincr-direct", "least-pending-cost", "unifincr",
     "priority", true, "direct", true, false},
    {SystemKind::kFifoModel, "fifo-model", "first", "fifo", "fifo", true, "direct", false, true},
    {SystemKind::kRequestSjfDirect, "request-sjf-direct", "least-pending-cost", "request-sjf",
     "priority", false, "direct", false, false},
    {SystemKind::kCumSlackCredits, "cumslack-credits", "least-pending-cost", "cumslack",
     "priority", true, "credits", true, false},
    {SystemKind::kCumSlackModel, "cumslack-model", "first", "cumslack", "priority", true,
     "direct", true, true},
}};

constexpr bool profiles_in_enum_order() {
  for (std::size_t i = 0; i < kSystemProfiles.size(); ++i) {
    if (kSystemProfiles[i].kind != static_cast<SystemKind>(i)) return false;
  }
  return true;
}
static_assert(profiles_in_enum_order(), "kSystemProfiles rows must follow SystemKind order");

constexpr const SystemProfile& system_profile(SystemKind kind) {
  return kSystemProfiles[static_cast<std::size_t>(kind)];
}

inline std::string to_string(SystemKind kind) { return std::string(system_profile(kind).name); }

inline SystemKind system_kind_from_name(std::string_view name) {
  for (const SystemProfile& profile : kSystemProfiles) {
    if (profile.name == name) return profile.kind;
  }
  throw std::invalid_argument("system_kind_from_name: unknown system: " + std::string(name));
}

/// True when servers pull from the shared global queue.
constexpr bool uses_global_queue(SystemKind kind) { return system_profile(kind).global_queue; }

/// True when the credits controller machinery is active by default.
constexpr bool uses_credits(SystemKind kind) {
  return system_profile(kind).admission == "credits";
}

/// True for task-aware (BRB) priority assignment.
constexpr bool is_task_aware(SystemKind kind) { return system_profile(kind).task_aware; }

}  // namespace brb::core
