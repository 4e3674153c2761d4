// The application server ("client" in the paper's terminology).
//
// Receives end-user tasks, splits them into sub-tasks (one per replica
// group), forecasts request costs from requested value sizes, asks the
// control plane for a dispatch plan per sub-task, assigns BRB
// priorities, and dispatches through the configured gate. Tracks
// in-flight requests and reports task completion (a task completes
// when its last request completes — the property all of BRB exploits).
//
// The client is also the dispatch-plan *executor* (tail-cutting):
//  * hedge — copy 0 goes out immediately; a cancellable engine event
//    armed at the plan's quantile deadline issues the back-up, and the
//    first response cancels the timer (or tombstones the loser).
//  * tied — both copies are enqueued at once; the first copy to reach
//    service *claims* the logical request (server-side admission
//    filter) and the sibling is rejected at its dequeue.
//  * kofn — n copies go out; the k-th response completes the logical
//    request and the stragglers are tombstoned.
// A tombstoned copy is finalized at exactly one of three points: the
// gate drop (never transmitted), the dequeue rejection (admission
// filter), or the absorbed response (it was already in service).
// Either way its SignalTable accounting is released via the
// endpoint's single feedback path, so duplicates never corrupt C3's
// estimates.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "client/dispatch_gate.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "policy/priority_policy.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "util/rng.hpp"
#include "workload/task.hpp"

namespace brb::client {

/// Cumulative per-client counters.
struct ClientStats {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_received = 0;
  /// Write replica copies sent / acknowledged (subset of the above).
  std::uint64_t writes_sent = 0;
  std::uint64_t writes_acked = 0;
  // --- tail-cutting (dispatch modes other than single) ---
  /// Hedge back-up copies actually issued (deadline fired).
  std::uint64_t hedges_issued = 0;
  /// Logical requests completed by the hedge back-up, not the primary.
  std::uint64_t hedges_won = 0;
  /// Armed hedge deadlines cancelled by a response before firing.
  std::uint64_t hedges_cancelled = 0;
  /// Hedge plans degraded to single because the primary's feedback was
  /// fresher than the configured fresh= age (signal-aware skip).
  std::uint64_t hedges_skipped_fresh = 0;
  /// Duplicate copies offered beyond the needed count (tied siblings,
  /// kofn extras, fired hedge back-ups).
  std::uint64_t duplicates_sent = 0;
  /// Duplicates cancelled before consuming service (gate drop or
  /// dequeue rejection).
  std::uint64_t duplicates_cancelled = 0;
  /// Duplicates that consumed full service after the logical request
  /// had already completed (the wasted work the metric quantifies).
  std::uint64_t duplicates_served = 0;
};

/// Sentinel: a wire request that is not part of a multi-copy logical
/// request (single mode, writes).
inline constexpr std::uint32_t kNoLogical = OutboundRequest::kNoLogical;

/// Free-list pool: `alloc` reuses the most recently released slot and
/// grows only when none is free, so the pool holds as many slots as
/// were ever live at once.
template <typename T>
class FreeListPool {
 public:
  std::uint32_t alloc() {
    if (free_.empty()) {
      items_.emplace_back();
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }
  void release(std::uint32_t index) { free_.push_back(index); }
  T& operator[](std::uint32_t index) noexcept { return items_[index]; }
  std::size_t size() const noexcept { return items_.size(); }
  std::size_t capacity() const noexcept { return items_.capacity(); }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

/// One wire request between transmit and response (or dequeue
/// rejection).
struct InflightRequest {
  store::TaskId task_id = 0;
  sim::Time sent_at;
  sim::Duration expected_cost = sim::Duration::zero();
  store::ServerId server = 0;
  store::ClientId client = 0;          // the issuing client
  std::uint32_t logical = kNoLogical;  // index into the logical pool
  /// Odd while live; bumped at alloc and at release, so an id from an
  /// earlier life of the slot no longer matches.
  std::uint32_t generation = 0;
  std::uint8_t copy = 0;  // which plan target this copy is
};

/// Per-copy lifecycle of a multi-copy logical request.
enum CopyState : std::uint8_t {
  kUnissued = 0,   // hedge back-up before the deadline fires
  kCopyInFlight,   // offered (possibly gate-held or being serviced)
  kTombstone,      // cancelled; finalize at gate/dequeue/response
  kCopyDone,       // finalized (responded, dropped, or rejected)
};

/// One multi-copy logical request. `completed` means the needed
/// responses arrived and the task-level accounting ran; the slot is
/// recycled once every issued copy is finalized and no hedge timer can
/// still fire.
struct LogicalRequest {
  store::ReadRequest request;  // template for issuing further copies
  store::GroupId group = 0;
  std::array<store::ServerId, ctrl::DispatchPlan::kMaxTargets> targets{};
  std::array<std::uint8_t, ctrl::DispatchPlan::kMaxTargets> copy_state{};
  std::uint8_t num_targets = 0;
  std::uint8_t needed = 1;
  std::uint8_t received = 0;
  ctrl::DispatchMode mode = ctrl::DispatchMode::kSingle;
  bool completed = false;
  bool claimed = false;      // tied: a copy reached service first
  bool hedge_armed = false;  // a cancellable deadline event is live
  sim::EventId hedge_event = 0;
};

/// A task awaiting responses. A live task always awaits at least one,
/// so `remaining == 0` marks an empty pending-table slot.
struct PendingTask {
  workload::TaskSpec spec;  // spec.id is the task id
  sim::Time started;
  std::uint32_t remaining = 0;
  store::ClientId owner = 0;  // the client the task was submitted to
};

/// The request-tracking state of one run, shared by every client of
/// that run, so it is sized by what the fleet has live at once rather
/// than by the sum of each client's busiest moment:
///  * the planning scratch of `AppClient::submit` — each submit plans
///    into it and is done with it before returning. Sharing is safe
///    because submit is never re-entered (network sends are posted
///    events, not calls), and `in_use` turns a violation into an
///    exception;
///  * in-flight wire requests, a free-list pool whose handle
///    `(generation << 32) | slot` is the request id;
///  * multi-copy logical requests, a free-list pool;
///  * pending tasks, a flat open-addressed table keyed by (client, task
///    id): power-of-two capacity, linear probing, at most 1/2 load,
///    backward-shift erase. It is iterated only to rehash, so its
///    layout cannot reach completion order or artifacts;
///  * requests vectors recycled from completed tasks (bounded).
/// Per-client counters stay with each client. Never share one book
/// across threads: each run owns its own.
class RequestBook {
 public:
  policy::TaskPlan plan;
  /// Sorted (group, summed cost) pairs for per-sub-task planning.
  std::vector<std::pair<store::GroupId, std::int64_t>> group_costs;
  std::vector<std::pair<store::GroupId, ctrl::DispatchPlan>> chosen;
  /// Per-request plans (parallel to plan.requests) for the multi-copy
  /// dispatch step; single-mode plans never touch it.
  std::vector<ctrl::DispatchPlan> request_plans;
  /// Set while a submit is using the planning scratch.
  bool in_use = false;

  /// Slots held by each table (live or free), for capacity checks.
  std::size_t inflight_capacity() const noexcept { return inflight_.capacity(); }
  std::size_t logical_capacity() const noexcept { return logicals_.capacity(); }
  std::size_t pending_capacity() const noexcept { return pending_.size(); }

 private:
  friend class AppClient;

  /// Records `request` and returns its id.
  store::RequestId inflight_insert(const InflightRequest& request);
  /// The live record `id` names, or nullptr for a stale or bogus id.
  InflightRequest* inflight_find(store::RequestId id) noexcept;
  void inflight_erase(InflightRequest& request);

  /// Home slot of (client, task id): the top bits of a Fibonacci hash.
  std::size_t pending_home(store::ClientId client, store::TaskId task_id) const noexcept {
    const std::uint64_t key = task_id + std::uint64_t{client} * 0xC2B2AE3D27D4EB4FULL;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> pending_shift_);
  }
  /// Slot holding (client, task id), or the empty slot that ends its
  /// probe run. Requires a non-empty table.
  std::size_t pending_probe(store::ClientId client, store::TaskId task_id) const noexcept;
  /// Throws std::logic_error when the task id is already in flight on
  /// the same client.
  void pending_insert(PendingTask task);
  /// The live task (client, task id), or nullptr.
  PendingTask* pending_find(store::ClientId client, store::TaskId task_id) noexcept;
  /// Empties the slot of `task` by backward shift, so probing needs no
  /// tombstones.
  void pending_erase(PendingTask& task);

  FreeListPool<InflightRequest> inflight_;
  FreeListPool<LogicalRequest> logicals_;
  std::vector<PendingTask> pending_;
  std::size_t pending_count_ = 0;
  int pending_shift_ = 64;
  /// Requests vectors recycled from completed tasks, feeding the
  /// TaskView submit path (bounded; steady state allocates nothing).
  static constexpr std::size_t kSpecPoolMax = 64;
  std::vector<std::vector<workload::RequestSpec>> spec_pool_;
};

class AppClient {
 public:
  struct Config {
    store::ClientId id = 0;
    /// log-normal sigma of multiplicative forecast noise; 0 = exact
    /// size knowledge (the default assumption in the paper).
    double cost_noise_sigma = 0.0;
    /// Select a replica once per sub-task (true, BRB's joint choice)
    /// or independently per request (false, C3-style).
    bool select_per_subtask = true;
  };

  /// Completion hooks, installed by the experiment runner.
  struct Hooks {
    std::function<void(const workload::TaskSpec&, sim::Duration latency)> on_task_complete;
    std::function<void(sim::Duration latency)> on_request_complete;
  };
  /// Transport: actually puts a request on the wire. The request's
  /// `client` field names the sender, so one function serves a fleet.
  using NetworkSendFn = std::function<void(const OutboundRequest&)>;

  /// `book` must outlive the client; every client of a run shares
  /// one (see RequestBook). The client wires the gate to its transmit
  /// path and mirrors a credits gate's balances into the endpoint's
  /// SignalTable.
  AppClient(sim::Simulator& sim, Config config, const store::RingPartitioner& partitioner,
            const server::ServiceTimeModel& cost_model, ctrl::DispatchEndpoint endpoint,
            const policy::PriorityPolicy& priority_policy, DispatchGate gate, util::Rng rng,
            RequestBook& book);

  /// The client keeps these pointers, so one transport and one hook set
  /// serve a whole fleet; each must outlive the client. Null hooks (the
  /// default) report nothing; a send before the transport is set throws.
  void set_network_send(const NetworkSendFn* fn) noexcept { network_send_ = fn; }
  void set_hooks(const Hooks* hooks) noexcept { hooks_ = hooks; }

  /// Entry point: a task arrives at this application server. By value:
  /// callers that are done with the spec (trace replay, tests) move it
  /// in, and the client moves it again into its pending-task record —
  /// the per-task requests vector is never copied on the hot path.
  /// Throws std::logic_error when called from inside another submit
  /// sharing this client's book (see RequestBook), or with a task id
  /// already in flight on this client.
  void submit(workload::TaskSpec task);

  /// Hot-path entry: a borrowed view into the generator's TaskBlock
  /// slab. The request span is copied into a requests vector recycled
  /// from completed tasks, so steady-state submission allocates
  /// nothing (the spec must own its requests for the lifetime of the
  /// task — completion hooks take `const TaskSpec&`).
  void submit(const workload::TaskView& view);

  /// Delivery of a response from the network.
  void on_response(const store::ReadResponse& response);

  /// Called by the gate when a request is released to the transport:
  /// stamps send time, drops tombstoned duplicates, transmits.
  void transmit_now(OutboundRequest& out);

  /// Server-side admission filter (installed only when some dispatch
  /// mode can issue duplicates): called synchronously at service
  /// start. Returns false to reject a tombstoned copy (it consumes no
  /// core and no service-time draw); a tied request's first copy to
  /// reach service claims the logical request here and tombstones its
  /// sibling.
  bool admit_service(const store::ReadRequest& request);

  const ClientStats& stats() const noexcept { return stats_; }
  const Config& config() const noexcept { return config_; }
  DispatchGate& gate() noexcept { return gate_; }
  ctrl::DispatchEndpoint& endpoint() noexcept { return endpoint_; }
  std::uint64_t in_flight() const noexcept { return inflight_count_; }
  /// Logical (multi-copy) requests still live — 0 once drained.
  std::uint64_t logical_in_flight() const noexcept { return logical_count_; }
  /// This client's event target (responses address it).
  std::uint32_t target() const noexcept { return target_; }

 private:
  friend class sim::Simulator;  // dispatches kHedgeFire

  /// Expected-cost forecast: `cost_model_->expected(size_hint)` plus
  /// the optional noise draw.
  sim::Duration forecast_cost(std::uint32_t size_hint);

  /// Recycles the slot once completed, all issued copies finalized,
  /// and no armed hedge deadline remains.
  void maybe_release_logical(std::uint32_t index);
  /// Offers copy `copy` of logical request `index` through the gate.
  void issue_copy(std::uint32_t index, std::uint8_t copy);
  /// Hedge deadline fired: issue the back-up unless already complete.
  void hedge_fire(std::uint32_t index);
  /// Dispatches one read according to `plan` (multi-copy modes).
  void dispatch_plan(const policy::PlannedRequest& planned, const ctrl::DispatchPlan& plan,
                     store::TaskId task_id);
  /// This client's live in-flight record for `id`, or nullptr.
  InflightRequest* find_inflight(store::RequestId id) noexcept;

  sim::Simulator* sim_;
  Config config_;
  /// Request-tracking state shared with the rest of the run's fleet.
  RequestBook* book_;
  const store::RingPartitioner* partitioner_;
  const server::ServiceTimeModel* cost_model_;
  ctrl::DispatchEndpoint endpoint_;
  const policy::PriorityPolicy* priority_policy_;
  DispatchGate gate_;
  util::Rng rng_;
  const NetworkSendFn* network_send_ = nullptr;
  const Hooks* hooks_ = nullptr;
  ClientStats stats_;
  std::uint64_t inflight_count_ = 0;
  /// 32 bits, so the event target shares its word: a fleet holds one
  /// client per row, and every 8 bytes is 8 MB at a million clients.
  std::uint32_t logical_count_ = 0;
  std::uint32_t target_;
};

}  // namespace brb::client
