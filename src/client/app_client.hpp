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
#include <memory>
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

/// Planning scratch for `AppClient::submit`, shared by every client of
/// one run: each submit plans into it and is done with it before
/// returning, so one set of buffers serves the whole fleet instead of
/// every client keeping capacity for the largest fan-out it has seen.
/// Sharing is safe because submit is never re-entered — network sends
/// are scheduled events, not calls — and `in_use` turns a violation
/// into an exception. Never share one scratch across threads: each run
/// owns its own.
struct ClientScratch {
  policy::TaskPlan plan;
  /// Sorted (group, summed cost) pairs for per-sub-task planning.
  std::vector<std::pair<store::GroupId, std::int64_t>> group_costs;
  std::vector<std::pair<store::GroupId, ctrl::DispatchPlan>> chosen;
  /// Per-request plans (parallel to plan.requests) for the multi-copy
  /// dispatch step; single-mode plans never touch it.
  std::vector<ctrl::DispatchPlan> request_plans;
  /// Set while a submit is using the scratch.
  bool in_use = false;
};

class AppClient : public sim::Actor {
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

  /// `scratch` must outlive the client; every client of a run shares
  /// one (see ClientScratch).
  AppClient(sim::Simulator& sim, Config config, const store::Partitioner& partitioner,
            const server::ServiceTimeModel& cost_model,
            std::unique_ptr<ctrl::DispatchEndpoint> endpoint,
            const policy::PriorityPolicy& priority_policy, std::unique_ptr<DispatchGate> gate,
            util::Rng rng, ClientScratch& scratch);

  /// Transport hook: actually puts a request on the wire. Installed by
  /// the cluster wiring.
  using NetworkSendFn = std::function<void(const OutboundRequest&)>;
  void set_network_send(NetworkSendFn fn) { network_send_ = std::move(fn); }
  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Entry point: a task arrives at this application server. By value:
  /// callers that are done with the spec (trace replay, tests) move it
  /// in, and the client moves it again into its pending-task record —
  /// the per-task requests vector is never copied on the hot path.
  /// Throws std::logic_error when called from inside another submit
  /// sharing this client's scratch (see ClientScratch), or with a task
  /// id already in flight on this client.
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
  DispatchGate& gate() noexcept { return *gate_; }
  ctrl::DispatchEndpoint& endpoint() noexcept { return *endpoint_; }
  std::uint64_t in_flight() const noexcept { return inflight_count_; }
  /// Logical (multi-copy) requests still live — 0 once drained.
  std::uint64_t logical_in_flight() const noexcept { return logical_count_; }

 private:
  /// Sentinel: this wire request is not part of a multi-copy logical
  /// request (single mode, writes) — the zero-overhead legacy path.
  static constexpr std::uint32_t kNoLogical = OutboundRequest::kNoLogical;

  struct InflightRequest {
    store::TaskId task_id = 0;
    store::ServerId server = 0;
    sim::Time sent_at;
    sim::Duration expected_cost = sim::Duration::zero();
    std::uint32_t logical = kNoLogical;  // index into logicals_
    std::uint8_t copy = 0;               // which plan target this copy is
  };
  struct PendingTask {
    workload::TaskSpec spec;
    std::uint32_t remaining = 0;
    sim::Time started;
  };
  /// One slot of the pending-task table. A live task always awaits at
  /// least one response, so `task.remaining == 0` marks an empty slot.
  struct PendingSlot {
    store::TaskId task_id = 0;
    PendingTask task;
  };
  /// One slot of the in-flight window table (serial_plus1 == 0: empty).
  struct InflightSlot {
    std::uint64_t serial_plus1 = 0;
    InflightRequest data;
  };

  /// Per-copy lifecycle of a multi-copy logical request.
  enum CopyState : std::uint8_t {
    kUnissued = 0,   // hedge back-up before the deadline fires
    kCopyInFlight,   // offered (possibly gate-held or being serviced)
    kTombstone,      // cancelled; finalize at gate/dequeue/response
    kCopyDone,       // finalized (responded, dropped, or rejected)
  };

  /// One multi-copy logical request (free-list pooled). `completed`
  /// means the needed responses arrived and the task-level accounting
  /// ran; the slot is recycled once every issued copy is finalized and
  /// no hedge timer can still fire.
  struct LogicalRequest {
    store::ReadRequest request;  // template for issuing further copies
    store::GroupId group = 0;
    std::array<store::ServerId, ctrl::DispatchPlan::kMaxTargets> targets{};
    std::array<std::uint64_t, ctrl::DispatchPlan::kMaxTargets> copy_serial_plus1{};
    std::array<std::uint8_t, ctrl::DispatchPlan::kMaxTargets> copy_state{};
    std::uint8_t num_targets = 0;
    std::uint8_t needed = 1;
    std::uint8_t received = 0;
    ctrl::DispatchMode mode = ctrl::DispatchMode::kSingle;
    bool completed = false;
    bool claimed = false;      // tied: a copy reached service first
    bool hedge_armed = false;  // a cancellable deadline event is live
    sim::EventId hedge_event = 0;
    std::uint32_t next_free = kNoLogical;
  };

  /// Expected-cost forecast: `cost_model_->expected(size_hint)` plus
  /// the optional noise draw.
  sim::Duration forecast_cost(std::uint32_t size_hint);
  /// Home slot of `task_id`: the top bits of a Fibonacci hash.
  std::size_t pending_home(store::TaskId task_id) const noexcept {
    return static_cast<std::size_t>((task_id * 0x9E3779B97F4A7C15ULL) >> pending_shift_);
  }
  /// Pending-task table slot holding `task_id`, or the empty slot that
  /// ends its probe run. Requires a non-empty table.
  std::size_t pending_probe(store::TaskId task_id) const noexcept;
  void pending_insert(store::TaskId task_id, PendingTask task);
  /// Empties `slot` by backward shift, so probing needs no tombstones.
  void pending_erase(std::size_t slot);

  void inflight_insert(std::uint64_t serial, const InflightRequest& data);
  /// Doubles the window table until every live serial maps to a
  /// distinct slot again.
  void inflight_grow();

  std::uint32_t logical_alloc();
  void logical_release(std::uint32_t index);
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

  Config config_;
  /// Requests vectors recycled from completed tasks, feeding the
  /// TaskView submit path (bounded; steady state allocates nothing).
  static constexpr std::size_t kSpecPoolMax = 64;
  std::vector<std::vector<workload::RequestSpec>> spec_pool_;
  /// Planning scratch shared with the rest of the run's fleet.
  ClientScratch* scratch_;
  const store::Partitioner* partitioner_;
  const server::ServiceTimeModel* cost_model_;
  std::unique_ptr<ctrl::DispatchEndpoint> endpoint_;
  const policy::PriorityPolicy* priority_policy_;
  std::unique_ptr<DispatchGate> gate_;
  util::Rng rng_;
  NetworkSendFn network_send_;
  Hooks hooks_;
  ClientStats stats_;
  /// In-flight request state, keyed by the request's per-client serial
  /// (the low 40 bits of its id — dense and monotonically increasing).
  /// A power-of-two window table indexed by `serial & mask` replaces
  /// the hash map: live serials span a bounded window, so the table
  /// grows to the max in-flight span and then runs collision-free.
  std::vector<InflightSlot> inflight_table_;
  std::uint64_t inflight_count_ = 0;
  /// Multi-copy logical requests, free-list pooled (never shrinks;
  /// bounded by the max simultaneous multi-copy window).
  std::vector<LogicalRequest> logicals_;
  std::uint32_t logical_free_head_ = kNoLogical;
  std::uint64_t logical_count_ = 0;
  /// Tasks awaiting responses, keyed by global task id (not dense per
  /// client): a flat open-addressed table — power-of-two capacity,
  /// Fibonacci hash, linear probing, at most 1/2 load. Allocated at
  /// the first submit and iterated only to rehash, so its layout cannot
  /// reach completion order or artifacts.
  std::vector<PendingSlot> pending_slots_;
  std::size_t pending_count_ = 0;
  int pending_shift_ = 64;
  std::uint64_t next_request_serial_ = 0;
};

}  // namespace brb::client
