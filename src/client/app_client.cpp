#include "client/app_client.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace brb::client {

AppClient::AppClient(sim::Simulator& sim, Config config, const store::RingPartitioner& partitioner,
                     const server::ServiceTimeModel& cost_model, ctrl::DispatchEndpoint endpoint,
                     const policy::PriorityPolicy& priority_policy, DispatchGate gate,
                     util::Rng rng, RequestBook& book)
    : sim_(&sim),
      config_(config),
      book_(&book),
      partitioner_(&partitioner),
      cost_model_(&cost_model),
      endpoint_(std::move(endpoint)),
      priority_policy_(&priority_policy),
      gate_(std::move(gate)),
      rng_(rng),
      target_(sim.attach(*this)) {
  if (config_.cost_noise_sigma < 0.0) {
    throw std::invalid_argument("AppClient: negative cost noise sigma");
  }
  gate_.set_transmit([this](OutboundRequest& out) { transmit_now(out); });
  gate_.attach_signals(&endpoint_.signals());
}

sim::Duration AppClient::forecast_cost(std::uint32_t size_hint) {
  const sim::Duration exact = cost_model_->expected(size_hint);
  if (config_.cost_noise_sigma == 0.0) return exact;
  // Multiplicative log-normal noise with unit mean models imperfect
  // size knowledge (forecast-quality ablation).
  const double sigma = config_.cost_noise_sigma;
  const double factor = rng_.lognormal(-0.5 * sigma * sigma, sigma);
  const auto noisy =
      static_cast<std::int64_t>(static_cast<double>(exact.count_nanos()) * factor);
  return sim::Duration::nanos(std::max<std::int64_t>(1, noisy));
}

void AppClient::submit(const workload::TaskView& view) {
  workload::TaskSpec spec;
  if (!book_->spec_pool_.empty()) {
    // Recycle a requests vector from a completed task: assign() reuses
    // its capacity, so the copy out of the block slab is allocation-free.
    spec.requests = std::move(book_->spec_pool_.back());
    book_->spec_pool_.pop_back();
  }
  spec.id = view.id;
  spec.client = view.client;
  spec.tenant = view.tenant;
  spec.arrival = view.arrival;
  spec.requests.assign(view.requests, view.requests + view.fanout);
  submit(std::move(spec));
}

void AppClient::submit(workload::TaskSpec task) {
  if (task.requests.empty()) {
    throw std::invalid_argument("AppClient::submit: task with no requests");
  }
  RequestBook& book = *book_;
  if (book.in_use) {
    throw std::logic_error("AppClient::submit: re-entered while the planning scratch is in use");
  }
  struct Release {
    bool& in_use;
    ~Release() { in_use = false; }
  } release{book.in_use};
  book.in_use = true;
  ++stats_.tasks_submitted;
  const store::TaskId task_id = task.id;  // spec is moved out below

  // 1. Plan: forecast costs and group requests by replica group.
  policy::TaskPlan& plan = book.plan;
  plan.task_id = task.id;
  plan.arrival = sim_->now();
  plan.bottleneck_cost = sim::Duration::zero();
  plan.requests.clear();
  plan.requests.reserve(task.requests.size());
  for (const workload::RequestSpec& spec : task.requests) {
    policy::PlannedRequest planned;
    planned.key = spec.key;
    planned.size_hint = spec.size_hint;
    planned.is_write = spec.is_write;
    planned.group = partitioner_->group_of(spec.key);
    planned.expected_cost = forecast_cost(spec.size_hint);
    plan.requests.push_back(planned);
  }

  // 2. Dispatch planning: jointly per sub-task (BRB) or per request.
  // The endpoint returns a full DispatchPlan; `planned.server` carries
  // the primary for the bottleneck/priority step, and the plan itself
  // (parallel scratch) drives multi-copy dispatch in step 4. Group
  // aggregation runs over sorted scratch vectors (reused across
  // submits); policies still observe groups in ascending id order,
  // exactly as the std::map formulation did. Writes have no replica
  // freedom (every replica executes a copy), so a pure-write task
  // skips planning entirely; a mixed task (possible via
  // tasks_override) still plans for every group — its reads use the
  // plan, its writes ignore it.
  const bool all_writes =
      std::all_of(plan.requests.begin(), plan.requests.end(),
                  [](const policy::PlannedRequest& planned) { return planned.is_write; });
  book.request_plans.clear();
  book.request_plans.resize(plan.requests.size());
  if (all_writes) {
    // Generated write tasks are all-or-nothing per task.
  } else if (config_.select_per_subtask && plan.requests.size() == 1) {
    // Median fan-out is 1-2 requests: skip the aggregation machinery.
    policy::PlannedRequest& planned = plan.requests.front();
    const ctrl::DispatchPlan dispatch =
        endpoint_.plan(partitioner_->replicas_of(planned.group), planned.expected_cost);
    planned.server = dispatch.primary();
    book.request_plans.front() = dispatch;
  } else if (config_.select_per_subtask) {
    book.group_costs.clear();
    for (const policy::PlannedRequest& planned : plan.requests) {
      book.group_costs.emplace_back(planned.group, planned.expected_cost.count_nanos());
    }
    policy::collapse_group_costs(book.group_costs);
    book.chosen.clear();
    for (const auto& [group, cost] : book.group_costs) {
      book.chosen.emplace_back(
          group, endpoint_.plan(partitioner_->replicas_of(group), sim::Duration::nanos(cost)));
    }
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
      policy::PlannedRequest& planned = plan.requests[i];
      const auto it = std::lower_bound(
          book.chosen.begin(), book.chosen.end(), planned.group,
          [](const auto& entry, store::GroupId group) { return entry.first < group; });
      planned.server = it->second.primary();
      book.request_plans[i] = it->second;
    }
  } else {
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
      policy::PlannedRequest& planned = plan.requests[i];
      const ctrl::DispatchPlan dispatch =
          endpoint_.plan(partitioner_->replicas_of(planned.group), planned.expected_cost);
      planned.server = dispatch.primary();
      book.request_plans[i] = dispatch;
    }
  }

  // 3. Bottleneck + priorities (the task-aware step).
  policy::compute_bottleneck(plan);
  priority_policy_->assign(plan);

  // 4. Track the task and dispatch every request through the gate.
  // Writes fan out: one wire copy per replica of the group, all with
  // the planned priority; the task completes when the last replica
  // acknowledges. Each copy spends gate credits against its own
  // server, which is exactly the asymmetric pressure write traffic
  // puts on the credit and congestion paths. `remaining` counts
  // LOGICAL units: a multi-copy read still contributes one — its
  // duplicate copies complete (or cancel) outside task accounting.
  std::uint32_t wire_requests = 0;
  for (const policy::PlannedRequest& planned : plan.requests) {
    wire_requests += planned.is_write
                         ? static_cast<std::uint32_t>(
                               partitioner_->replicas_of(planned.group).size())
                         : 1;
  }
  PendingTask pending;
  pending.spec = std::move(task);
  pending.remaining = wire_requests;
  pending.started = sim_->now();
  pending.owner = config_.id;
  book_->pending_insert(std::move(pending));

  const auto dispatch = [&](const policy::PlannedRequest& planned, store::ServerId server) {
    OutboundRequest out;
    out.server = server;
    out.group = planned.group;
    out.request.task_id = task_id;
    out.request.key = planned.key;
    out.request.client = config_.id;
    out.request.priority = planned.priority;
    out.request.expected_cost = planned.expected_cost;
    out.request.sent_at = sim_->now();  // refined at actual transmit time
    out.request.is_write = planned.is_write;
    out.request.write_size = planned.is_write ? planned.size_hint : 0;
    // The endpoint sees load at *offer* time so that requests held by a
    // gate (credits exhausted, rate limited) still count against the
    // server they are bound for — otherwise the client keeps piling
    // work onto a throttled replica it believes is idle.
    endpoint_.on_send(out.server, out.request.expected_cost);
    gate_.offer(std::move(out));
  };
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const policy::PlannedRequest& planned = plan.requests[i];
    if (planned.is_write) {
      for (const store::ServerId replica : partitioner_->replicas_of(planned.group)) {
        dispatch(planned, replica);
      }
    } else if (book.request_plans[i].mode == ctrl::DispatchMode::kSingle) {
      if (book.request_plans[i].skipped_fresh) ++stats_.hedges_skipped_fresh;
      dispatch(planned, planned.server);
    } else {
      dispatch_plan(planned, book.request_plans[i], task_id);
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-copy logical requests (hedge / tied / kofn executor)

void AppClient::maybe_release_logical(std::uint32_t index) {
  LogicalRequest& lr = book_->logicals_[index];
  // An armed hedge deadline keeps the slot live: its event carries
  // this index, and recycling under it would fire onto a stranger.
  if (!lr.completed || lr.hedge_armed) return;
  for (std::uint8_t c = 0; c < lr.num_targets; ++c) {
    const std::uint8_t state = lr.copy_state[c];
    if (state == kCopyInFlight || state == kTombstone) return;
  }
  book_->logicals_.release(index);
  --logical_count_;
}

void AppClient::issue_copy(std::uint32_t index, std::uint8_t copy) {
  LogicalRequest& lr = book_->logicals_[index];
  OutboundRequest out;
  out.server = lr.targets[copy];
  out.group = lr.group;
  out.logical = index;
  out.copy = copy;
  out.request = lr.request;
  out.request.sent_at = sim_->now();  // refined at actual transmit time
  lr.copy_state[copy] = kCopyInFlight;
  // Offer-time accounting, exactly like single-copy dispatch: a held
  // duplicate still counts against the server it is bound for.
  endpoint_.on_send(out.server, out.request.expected_cost);
  gate_.offer(std::move(out));
}

void AppClient::hedge_fire(std::uint32_t index) {
  LogicalRequest& lr = book_->logicals_[index];
  lr.hedge_armed = false;
  if (lr.completed) {
    // The response's cancel lost the race with this firing (the event
    // was already claimed for delivery): just disarm and release.
    maybe_release_logical(index);
    return;
  }
  ++stats_.hedges_issued;
  ++stats_.duplicates_sent;
  issue_copy(index, 1);
}

void AppClient::dispatch_plan(const policy::PlannedRequest& planned,
                              const ctrl::DispatchPlan& dispatch, store::TaskId task_id) {
  const std::uint32_t index = book_->logicals_.alloc();
  ++logical_count_;
  LogicalRequest& lr = book_->logicals_[index];
  lr.group = planned.group;
  lr.targets = dispatch.targets;
  lr.copy_state.fill(kUnissued);
  lr.num_targets = dispatch.num_targets;
  lr.needed = dispatch.needed;
  lr.received = 0;
  lr.mode = dispatch.mode;
  lr.completed = false;
  lr.claimed = false;
  lr.hedge_armed = false;
  // Template for the copies: they differ only in request_id (stamped
  // at transmit) and server.
  lr.request.request_id = 0;
  lr.request.task_id = task_id;
  lr.request.key = planned.key;
  lr.request.client = config_.id;
  lr.request.priority = planned.priority;
  lr.request.expected_cost = planned.expected_cost;
  lr.request.sent_at = sim_->now();
  lr.request.is_write = false;
  lr.request.write_size = 0;

  switch (dispatch.mode) {
    case ctrl::DispatchMode::kHedge:
      issue_copy(index, 0);
      lr.hedge_armed = true;
      lr.hedge_event =
          sim_->post_after(dispatch.hedge_delay, {sim::EventKind::kHedgeFire, target_, index});
      break;
    case ctrl::DispatchMode::kTied:
      issue_copy(index, 0);
      ++stats_.duplicates_sent;
      issue_copy(index, 1);
      break;
    case ctrl::DispatchMode::kKofn:
      for (std::uint8_t c = 0; c < dispatch.num_targets; ++c) issue_copy(index, c);
      stats_.duplicates_sent +=
          static_cast<std::uint64_t>(dispatch.num_targets - dispatch.needed);
      break;
    case ctrl::DispatchMode::kSingle:
      throw std::logic_error("AppClient::dispatch_plan: single-mode plan");
  }
}

bool AppClient::admit_service(const store::ReadRequest& request) {
  InflightRequest* inflight = find_inflight(request.request_id);
  // Unknown ids admit unconditionally (the wiring keys filters by
  // request.client, so this does not happen in a run); so do writes
  // and single-mode reads.
  if (inflight == nullptr || inflight->logical == kNoLogical) return true;
  const std::uint32_t logical_index = inflight->logical;
  LogicalRequest& lr = book_->logicals_[logical_index];
  const std::uint8_t copy = inflight->copy;
  if (lr.copy_state[copy] == kTombstone) {
    // Rejected at dequeue: the loser consumes no core and no
    // service-time draw. Finalize the copy here.
    endpoint_.on_cancel(inflight->server, inflight->expected_cost);
    book_->inflight_erase(*inflight);
    --inflight_count_;
    ++stats_.duplicates_cancelled;
    lr.copy_state[copy] = kCopyDone;
    maybe_release_logical(logical_index);
    return false;
  }
  if (lr.mode == ctrl::DispatchMode::kTied && !lr.claimed) {
    // First copy to reach service claims the logical request; the
    // sibling is tombstoned and will be rejected at its own dequeue
    // (or dropped at the gate if still held).
    lr.claimed = true;
    for (std::uint8_t c = 0; c < lr.num_targets; ++c) {
      if (c != copy && lr.copy_state[c] == kCopyInFlight) lr.copy_state[c] = kTombstone;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Request book

store::RequestId RequestBook::inflight_insert(const InflightRequest& request) {
  const std::uint32_t slot = inflight_.alloc();
  InflightRequest& record = inflight_[slot];
  const std::uint32_t generation = record.generation + 1;
  record = request;
  record.generation = generation;
  return (std::uint64_t{generation} << 32) | slot;
}

InflightRequest* RequestBook::inflight_find(store::RequestId id) noexcept {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if ((generation & 1) == 0 || slot >= inflight_.size()) return nullptr;
  InflightRequest& record = inflight_[slot];
  return record.generation == generation ? &record : nullptr;
}

void RequestBook::inflight_erase(InflightRequest& request) {
  ++request.generation;
  inflight_.release(static_cast<std::uint32_t>(&request - &inflight_[0]));
}

std::size_t RequestBook::pending_probe(store::ClientId client,
                                       store::TaskId task_id) const noexcept {
  const std::size_t mask = pending_.size() - 1;
  std::size_t i = pending_home(client, task_id);
  while (pending_[i].remaining != 0 &&
         (pending_[i].spec.id != task_id || pending_[i].owner != client)) {
    i = (i + 1) & mask;
  }
  return i;
}

void RequestBook::pending_insert(PendingTask task) {
  if ((pending_count_ + 1) * 2 > pending_.size()) {
    std::vector<PendingTask> old = std::move(pending_);
    pending_ = std::vector<PendingTask>(std::max<std::size_t>(4, old.size() * 2));
    pending_shift_ = 64 - std::countr_zero(pending_.size());
    for (PendingTask& live : old) {
      if (live.remaining != 0) pending_[pending_probe(live.owner, live.spec.id)] = std::move(live);
    }
  }
  PendingTask& slot = pending_[pending_probe(task.owner, task.spec.id)];
  if (slot.remaining != 0) {
    throw std::logic_error("AppClient::submit: task id already in flight on this client");
  }
  slot = std::move(task);
  ++pending_count_;
}

PendingTask* RequestBook::pending_find(store::ClientId client, store::TaskId task_id) noexcept {
  if (pending_.empty()) return nullptr;
  PendingTask& slot = pending_[pending_probe(client, task_id)];
  return slot.remaining != 0 ? &slot : nullptr;
}

void RequestBook::pending_erase(PendingTask& task) {
  // Backward shift: pull back every later slot of the probe run whose
  // home does not lie cyclically in (hole, slot].
  const std::size_t mask = pending_.size() - 1;
  std::size_t hole = static_cast<std::size_t>(&task - pending_.data());
  for (std::size_t next = (hole + 1) & mask; pending_[next].remaining != 0;
       next = (next + 1) & mask) {
    const std::size_t home = pending_home(pending_[next].owner, pending_[next].spec.id);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      pending_[hole] = std::move(pending_[next]);
      hole = next;
    }
  }
  pending_[hole] = PendingTask{};
  --pending_count_;
}

// ---------------------------------------------------------------------------
// Wire path

InflightRequest* AppClient::find_inflight(store::RequestId id) noexcept {
  InflightRequest* inflight = book_->inflight_find(id);
  return inflight != nullptr && inflight->client == config_.id ? inflight : nullptr;
}

void AppClient::transmit_now(OutboundRequest& out) {
  if (network_send_ == nullptr) {
    throw std::logic_error("AppClient: network send hook not installed");
  }
  if (out.logical != kNoLogical &&
      book_->logicals_[out.logical].copy_state[out.copy] == kTombstone) {
    // Cancelled while held at the gate: the copy never reaches the
    // wire. Release its offer-time accounting and finalize.
    endpoint_.on_cancel(out.server, out.request.expected_cost);
    ++stats_.duplicates_cancelled;
    book_->logicals_[out.logical].copy_state[out.copy] = kCopyDone;
    maybe_release_logical(out.logical);
    return;
  }
  out.request.sent_at = sim_->now();
  InflightRequest inflight;
  inflight.task_id = out.request.task_id;
  inflight.sent_at = sim_->now();
  inflight.expected_cost = out.request.expected_cost;
  inflight.server = out.server;
  inflight.client = config_.id;
  inflight.logical = out.logical;
  inflight.copy = out.copy;
  out.request.request_id = book_->inflight_insert(inflight);
  ++inflight_count_;
  ++stats_.requests_sent;
  if (out.request.is_write) ++stats_.writes_sent;
  (*network_send_)(out);
}

void AppClient::on_response(const store::ReadResponse& response) {
  InflightRequest* record = find_inflight(response.request_id);
  if (record == nullptr) throw std::logic_error("AppClient::on_response: unknown request id");
  const InflightRequest inflight = *record;
  book_->inflight_erase(*record);
  --inflight_count_;
  ++stats_.responses_received;
  if (response.is_write) ++stats_.writes_acked;

  const sim::Duration rtt = sim_->now() - inflight.sent_at;
  // Real server work produced real feedback — fold it even for
  // absorbed duplicates; only *cancelled* copies skip the EWMA path.
  endpoint_.on_response(inflight.server, response.feedback, rtt, inflight.expected_cost,
                        sim_->now());
  gate_.on_response(inflight.server, response.feedback);

  if (inflight.logical != kNoLogical) {
    LogicalRequest& lr = book_->logicals_[inflight.logical];
    lr.copy_state[inflight.copy] = kCopyDone;
    if (lr.completed) {
      // Absorbed duplicate: it was already in (or past) service when
      // the logical request completed — the quantified wasted work.
      ++stats_.duplicates_served;
      maybe_release_logical(inflight.logical);
      return;
    }
    ++lr.received;
    if (hooks_ != nullptr && hooks_->on_request_complete) hooks_->on_request_complete(rtt);
    if (lr.received < lr.needed) return;

    lr.completed = true;
    if (lr.mode == ctrl::DispatchMode::kHedge && inflight.copy != 0) ++stats_.hedges_won;
    if (lr.hedge_armed && sim_->cancel(lr.hedge_event)) {
      // O(1) wheel cancel; on failure the already-claimed firing will
      // see `completed`, disarm itself, and release the slot.
      lr.hedge_armed = false;
      ++stats_.hedges_cancelled;
    }
    for (std::uint8_t c = 0; c < lr.num_targets; ++c) {
      if (lr.copy_state[c] == kCopyInFlight) lr.copy_state[c] = kTombstone;
    }
    maybe_release_logical(inflight.logical);
    // Fall through to task accounting: the logical unit completed.
  } else {
    if (hooks_ != nullptr && hooks_->on_request_complete) hooks_->on_request_complete(rtt);
  }

  PendingTask* task = book_->pending_find(config_.id, response.task_id);
  if (task == nullptr) throw std::logic_error("AppClient::on_response: response for unknown task");
  if (--task->remaining == 0) {
    ++stats_.tasks_completed;
    const sim::Duration latency = sim_->now() - task->started;
    // Out of the table before the hook runs: the slot is reused (and
    // may move) as soon as it is erased.
    workload::TaskSpec spec = std::move(task->spec);
    book_->pending_erase(*task);
    if (hooks_ != nullptr && hooks_->on_task_complete) hooks_->on_task_complete(spec, latency);
    if (book_->spec_pool_.size() < RequestBook::kSpecPoolMax) {
      // Hand the spent requests vector back to the submit(TaskView)
      // slab pool; its capacity is reused by the next task.
      spec.requests.clear();
      book_->spec_pool_.push_back(std::move(spec.requests));
    }
  }
}

}  // namespace brb::client
