// Task-aware priority assignment — the core of BRB (paper section 2.1).
//
// Clients subdivide a task into sub-tasks (one per replica group),
// forecast each sub-task's cost, take the costliest as the bottleneck,
// and stamp every request with a priority that servers honor (lower
// value = served earlier):
//
//   EqualMax : priority = bottleneck cost. Tasks with shorter
//              bottlenecks go first (SJF on task makespan).
//   UnifIncr : priority = bottleneck cost - request's own cost (its
//              slack). Requests likely to bottleneck their task have
//              little slack and are served first.
//   Fifo     : priority = task arrival time (task-oblivious control).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "store/types.hpp"

namespace brb::policy {

/// One planned request inside a task, after replica selection. A
/// write stays a single plan entry (its cost lands once in each
/// replica's sub-task serialization); the dispatch step fans it out to
/// every replica of the group with the same priority.
struct PlannedRequest {
  store::KeyId key = 0;
  std::uint32_t size_hint = 0;
  store::GroupId group = 0;
  store::ServerId server = 0;
  bool is_write = false;
  sim::Duration expected_cost = sim::Duration::zero();
  store::Priority priority = 0.0;  // output of the policy
};

/// A task after splitting and cost forecasting.
struct TaskPlan {
  store::TaskId task_id = 0;
  sim::Time arrival;
  std::vector<PlannedRequest> requests;
  /// Cost of the costliest sub-task (max over groups of the summed
  /// expected costs); filled by the planner before assign().
  sim::Duration bottleneck_cost = sim::Duration::zero();
};

/// Computes per-group sub-task costs and the bottleneck for a plan.
/// Sub-task cost = sum of its requests' expected costs (requests for
/// one replica group serialize at the chosen replica).
void compute_bottleneck(TaskPlan& plan);

/// Sorts (group, cost) pairs by group id and collapses equal-group
/// runs into summed costs, in place. Shared by the planner's replica
/// selection and compute_bottleneck so the aggregation cannot drift
/// between the two; integer sums keep the result order-independent.
void collapse_group_costs(std::vector<std::pair<store::GroupId, std::int64_t>>& pairs);

/// Stamps every request of a task with its priority under one fixed
/// rule.
class PriorityPolicy {
 public:
  enum class Rule {
    /// Task-oblivious: FIFO by task arrival time.
    kFifo,
    /// BRB EqualMax (paper 2.1).
    kEqualMax,
    /// BRB UnifIncr (paper 2.1).
    kUnifIncr,
    /// Per-request SJF (ablation): priority = own expected cost,
    /// ignoring task structure. Separates "size-aware" from
    /// "task-aware" gains.
    kRequestSjf,
    /// CumSlack (this reproduction's extension of UnifIncr): requests
    /// in one sub-task serialize at their replica, so the slack of
    /// request i is really the bottleneck cost minus the *cumulative*
    /// cost of its sub-task up to and including i — the last request
    /// of the bottleneck sub-task has exactly zero slack, and earlier
    /// siblings inherit the serialization they impose on later ones.
    /// UnifIncr approximates this with the per-request cost alone
    /// (paper 2.1); CumSlack computes it exactly. Requests within a
    /// sub-task accumulate in plan order, which is the order the
    /// client transmits them.
    kCumSlack,
  };

  explicit PriorityPolicy(Rule rule) : rule_(rule) {}

  /// Stamps request.priority for every request in the plan.
  void assign(TaskPlan& plan) const;

  /// "fifo", "equalmax", "unifincr", "request-sjf" or "cumslack".
  std::string name() const;

 private:
  Rule rule_;
};

/// The policy `name()` names; throws std::invalid_argument otherwise.
std::unique_ptr<PriorityPolicy> make_priority_policy(const std::string& name);

}  // namespace brb::policy
