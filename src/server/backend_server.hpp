// The backend storage server.
//
// Each server owns `cores` independent service units that drain its
// work. In the normal (decentralized) configuration the server owns a
// private queue discipline; in the paper's ideal "model" configuration
// all servers share the global priority queue and work-pull from it
// (see server/global_queue.hpp).
//
// Every response piggybacks load feedback (queue length and an EWMA of
// the observed service rate) — the signal C3 consumes; BRB is free to
// ignore or use it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "server/global_queue.hpp"
#include "server/queue_discipline.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "store/storage_engine.hpp"
#include "store/types.hpp"
#include "util/rng.hpp"

namespace brb::server {

/// Cumulative per-server counters for reports and tests.
struct ServerStats {
  std::uint64_t served = 0;
  sim::Duration busy_time = sim::Duration::zero();
};

class BackendServer {
 public:
  struct Config {
    store::ServerId id = 0;
    std::uint32_t cores = 4;
    /// EWMA smoothing for the advertised service rate (0..1; weight of
    /// the newest sample).
    double rate_ewma_alpha = 0.2;
  };

  /// `on_response` is invoked at service completion; the cluster wiring
  /// routes it through the network back to the issuing client.
  using ResponseHandler = std::function<void(const store::ReadResponse&)>;

  BackendServer(sim::Simulator& sim, Config config, const ServiceTimeModel& service_model,
                util::Rng rng);

  /// Installs a private queue with the given discipline (owned by the
  /// server); receive() then queues into it. Must be called before
  /// traffic.
  void use_private_queue(QueueDiscipline discipline) { queue_ = std::move(discipline); }
  /// Attaches the ideal model's shared global queue instead; the
  /// server then only work-pulls. A private queue takes precedence.
  void set_global_queue(GlobalQueueModel& queue) { global_queue_ = &queue; }
  void set_response_handler(ResponseHandler handler) { on_response_ = std::move(handler); }

  /// Incremental backlog watch: `fn(over)` fires when the private
  /// queue's length crosses `threshold` in either direction, letting
  /// observers like the credits congestion monitor track congestion
  /// state in O(1) instead of polling every server. The callback cost
  /// is paid only at crossings; steady state is a cached compare.
  using QueueWatchFn = std::function<void(bool over)>;
  void set_queue_watch(std::uint32_t threshold, QueueWatchFn fn) {
    watch_threshold_ = threshold;
    queue_watch_ = std::move(fn);
    watch_over_ = false;
    check_watch();
  }

  /// Service-admission filter (tail-cutting executor): called
  /// synchronously at every service start; returning false rejects the
  /// request — it consumes no core and no service-time draw, and no
  /// response is ever produced (the issuing client already finalized
  /// it). Installed by the scenario wiring only when some dispatch
  /// mode can issue duplicates, so single-mode runs pay nothing.
  using ServiceFilterFn = std::function<bool(const store::ReadRequest&)>;
  void set_service_filter(ServiceFilterFn fn) { service_filter_ = std::move(fn); }

  /// Local storage replica (populated by the cluster loader).
  store::StorageEngine& storage() noexcept { return storage_; }
  const store::StorageEngine& storage() const noexcept { return storage_; }

  /// Delivery of a read request from the network (private-queue mode).
  void receive(const store::ReadRequest& request);

  /// Makes idle cores pull work; called by the global queue when new
  /// work arrives that this server could serve.
  void pump();

  std::uint32_t idle_cores() const noexcept {
    return static_cast<std::uint32_t>(idle_.size());
  }
  std::uint32_t busy_cores() const noexcept { return config_.cores - idle_cores(); }
  /// This server's event target (network deliveries address it).
  std::uint32_t target() const noexcept { return target_; }

  /// Queue length advertised in feedback (waiting requests only).
  std::uint32_t queue_length() const {
    if (queue_) return static_cast<std::uint32_t>(server::size(*queue_));
    return global_queue_ == nullptr
               ? 0
               : static_cast<std::uint32_t>(global_queue_->backlog(config_.id));
  }

  const ServerStats& stats() const noexcept { return stats_; }
  const Config& config() const noexcept { return config_; }

 private:
  friend class sim::Simulator;  // dispatches kServiceDone

  /// What a core in service keeps for its completion: the response
  /// as of service start, whose `value_size` is the size service
  /// started with (the stored size for a read, read at storage
  /// `version`; the new size for a write, which the replica installs
  /// before acknowledging).
  struct InService {
    store::ReadResponse response;
    std::uint64_t version = 0;
  };

  void start_service(const store::ReadRequest& request);
  /// The kServiceDone handler: `core` finished its request.
  void complete(std::uint32_t core);
  void check_watch() {
    if (!queue_watch_) return;
    const bool over = queue_length() > watch_threshold_;
    if (over != watch_over_) {
      watch_over_ = over;
      queue_watch_(over);
    }
  }

  sim::Simulator* sim_;
  Config config_;
  const ServiceTimeModel* service_model_;
  util::Rng rng_;
  std::optional<QueueDiscipline> queue_;      // private-queue mode
  GlobalQueueModel* global_queue_ = nullptr;  // global-queue mode
  ResponseHandler on_response_;
  ServiceFilterFn service_filter_;
  QueueWatchFn queue_watch_;
  std::uint32_t watch_threshold_ = 0;
  bool watch_over_ = false;
  store::StorageEngine storage_;
  /// One in-service slot per core, and the idle cores' slots.
  std::vector<InService> in_service_;
  std::vector<std::uint32_t> idle_;
  std::uint32_t target_;
  /// Service rate advertised in feedback (requests/s, whole server).
  /// Before any completion this is cores / expected(mean) — a neutral
  /// prior.
  double ewma_rate_ = 0.0;
  ServerStats stats_;
};

}  // namespace brb::server
