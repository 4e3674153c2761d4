#include "policy/priority_policy.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace brb::policy {

namespace {

/// Per-group accumulation without a per-task hash map: one
/// thread-local (group, cost) table, cleared for every task. Integer
/// sums make the result order-independent.
std::vector<std::pair<store::GroupId, std::int64_t>>& group_scratch() {
  // brblint:allow(BRB-D02): content-free reuse — cleared before every use, only capacity survives
  thread_local std::vector<std::pair<store::GroupId, std::int64_t>> scratch;
  return scratch;
}

/// The running cost sum of `group` in a small linear-scan table
/// (tasks touch few distinct groups), appended at zero on first use.
std::int64_t& group_sum(std::vector<std::pair<store::GroupId, std::int64_t>>& table,
                        store::GroupId group) {
  for (auto& entry : table) {
    if (entry.first == group) return entry.second;
  }
  return table.emplace_back(group, 0).second;
}

/// Indexed by PriorityPolicy::Rule.
constexpr const char* kRuleNames[] = {"fifo", "equalmax", "unifincr", "request-sjf", "cumslack"};

}  // namespace

void collapse_group_costs(std::vector<std::pair<store::GroupId, std::int64_t>>& pairs) {
  // Sorting is only a grouping device here: equal-group entries sum
  // into one exact int64 total whatever their relative order, so the
  // (unstable) algorithm choice cannot change the collapsed output.
  // Typical tasks carry a handful of requests — insertion sort beats
  // introsort's dispatch overhead at that size.
  const auto by_group = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (pairs.size() <= 16) {
    for (std::size_t i = 1; i < pairs.size(); ++i) {
      auto item = pairs[i];
      std::size_t j = i;
      for (; j > 0 && item.first < pairs[j - 1].first; --j) pairs[j] = pairs[j - 1];
      pairs[j] = item;
    }
  } else {
    std::sort(pairs.begin(), pairs.end(), by_group);
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < pairs.size();) {
    const store::GroupId group = pairs[i].first;
    std::int64_t cost = 0;
    for (; i < pairs.size() && pairs[i].first == group; ++i) cost += pairs[i].second;
    pairs[out++] = {group, cost};
  }
  pairs.resize(out);
}

void compute_bottleneck(TaskPlan& plan) {
  if (plan.requests.size() == 1) {
    plan.bottleneck_cost = plan.requests.front().expected_cost;
    return;
  }
  // Only the max of the per-group sums is needed, and int64 sums are
  // exact in any accumulation order — so skip the sort-and-collapse
  // pass and accumulate into the linear-scan table.
  auto& scratch = group_scratch();
  scratch.clear();
  for (const PlannedRequest& request : plan.requests) {
    group_sum(scratch, request.group) += request.expected_cost.count_nanos();
  }
  std::int64_t bottleneck = 0;
  for (const auto& [group, cost] : scratch) bottleneck = std::max(bottleneck, cost);
  plan.bottleneck_cost = sim::Duration::nanos(bottleneck);
}

void PriorityPolicy::assign(TaskPlan& plan) const {
  const std::int64_t bottleneck = plan.bottleneck_cost.count_nanos();
  const auto slack_priority = [bottleneck](std::int64_t cost) {
    const std::int64_t slack = bottleneck - cost;
    return static_cast<store::Priority>(slack < 0 ? 0 : slack);
  };
  switch (rule_) {
    case Rule::kFifo: {
      const auto arrival_ns = static_cast<store::Priority>(plan.arrival.count_nanos());
      for (PlannedRequest& request : plan.requests) request.priority = arrival_ns;
      return;
    }
    case Rule::kEqualMax:
      for (PlannedRequest& request : plan.requests) {
        request.priority = static_cast<store::Priority>(bottleneck);
      }
      return;
    case Rule::kUnifIncr:
      for (PlannedRequest& request : plan.requests) {
        request.priority = slack_priority(request.expected_cost.count_nanos());
      }
      return;
    case Rule::kRequestSjf:
      for (PlannedRequest& request : plan.requests) {
        request.priority = static_cast<store::Priority>(request.expected_cost.count_nanos());
      }
      return;
    case Rule::kCumSlack: {
      // The running sum must follow request order, so a sort is not an
      // option.
      auto& running = group_scratch();
      running.clear();
      for (PlannedRequest& request : plan.requests) {
        std::int64_t& cumulative = group_sum(running, request.group);
        cumulative += request.expected_cost.count_nanos();
        request.priority = slack_priority(cumulative);
      }
      return;
    }
  }
}

std::string PriorityPolicy::name() const { return kRuleNames[static_cast<int>(rule_)]; }

std::unique_ptr<PriorityPolicy> make_priority_policy(const std::string& name) {
  for (int rule = 0; rule < static_cast<int>(std::size(kRuleNames)); ++rule) {
    if (name == kRuleNames[rule]) {
      return std::make_unique<PriorityPolicy>(static_cast<PriorityPolicy::Rule>(rule));
    }
  }
  throw std::invalid_argument("make_priority_policy: unknown policy: " + name);
}

}  // namespace brb::policy
