#include "server/backend_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/ewma.hpp"

namespace brb::server {

BackendServer::BackendServer(sim::Simulator& sim, Config config,
                             const ServiceTimeModel& service_model, util::Rng rng)
    : sim_(&sim),
      config_(config),
      service_model_(&service_model),
      rng_(rng),
      in_service_(config.cores),
      target_(sim.attach(*this)) {
  if (config_.cores == 0) throw std::invalid_argument("BackendServer: zero cores");
  for (std::uint32_t core = config_.cores; core-- > 0;) idle_.push_back(core);
  if (config_.rate_ewma_alpha <= 0.0 || config_.rate_ewma_alpha > 1.0) {
    throw std::invalid_argument("BackendServer: rate_ewma_alpha must be in (0,1]");
  }
  // Neutral prior: rate implied by the expected service time of an
  // average-sized (1-byte baseline) request. Refined on first completion.
  const double expected_ns = static_cast<double>(service_model_->expected(1).count_nanos());
  ewma_rate_ = expected_ns > 0 ? 1e9 / expected_ns * config_.cores : 1.0;
}

void BackendServer::receive(const store::ReadRequest& request) {
  if (!queue_) {
    throw std::logic_error("BackendServer::receive: no private queue (model mode pulls instead)");
  }
  if (!idle_.empty() && server::size(*queue_) == 0) {
    // Idle core, empty queue: the enqueue/pop round-trip through the
    // discipline is an identity — serve directly.
    start_service(request);
    return;
  }
  server::push(*queue_, QueuedRead{request, sim_->now()});
  pump();
}

void BackendServer::pump() {
  if (!queue_ && global_queue_ == nullptr) {
    throw std::logic_error("BackendServer::pump: no queue");
  }
  while (!idle_.empty()) {
    std::optional<QueuedRead> read =
        queue_ ? server::pop(*queue_) : global_queue_->next_for(config_.id);
    if (!read) break;
    start_service(read->request);
  }
}

void BackendServer::start_service(const store::ReadRequest& request) {
  if (service_filter_ && !service_filter_(request)) {
    // Rejected at dequeue (a cancelled duplicate): consumes no core
    // and no service-time draw; the caller's pump loop simply pulls
    // the next item, and the receive fast path falls through idle.
    return;
  }
  const std::uint32_t core = idle_.back();
  idle_.pop_back();
  // Actual work is driven by the replica's stored value size; absent
  // keys (possible in unit tests) serve as 1-byte values. Writes do
  // work proportional to the payload being installed instead.
  const std::uint32_t size = request.is_write ? std::max(1u, request.write_size)
                                             : storage_.size_of(request.key).value_or(1);
  const sim::Duration service_time = service_model_->sample(size, rng_);
  in_service_[core] = {{request.request_id, request.task_id, request.key, request.client,
                        config_.id, size, request.is_write, {0, 0.0, service_time}},
                       storage_.version()};
  sim_->post_after(service_time, {sim::EventKind::kServiceDone, target_, core});
}

void BackendServer::complete(std::uint32_t core) {
  store::ReadResponse response = in_service_[core].response;
  const std::uint64_t version = in_service_[core].version;
  const sim::Duration service_time = response.feedback.service_time;
  idle_.push_back(core);
  ++stats_.served;
  stats_.busy_time += service_time;

  // EWMA of the whole-server completion rate implied by this service
  // time (cores working in parallel).
  const double rate_sample =
      1e9 / static_cast<double>(service_time.count_nanos()) * config_.cores;
  ewma_rate_ = util::ewma_update(ewma_rate_, config_.rate_ewma_alpha, rate_sample);

  if (response.is_write) {
    // The replica resizes its stored value at completion and sends a
    // bare acknowledgement (no payload travels back).
    storage_.put_meta(response.key, response.value_size);
    response.value_size = 0;
  } else if (storage_.version() != version) {
    // The response reports the size stored at completion, so a write
    // landing mid-service shows; the size read at service start is
    // still current unless the store changed since.
    response.value_size = storage_.size_of(response.key).value_or(1);
  }
  response.feedback.queue_length = queue_length();
  response.feedback.service_rate = ewma_rate_;
  if (on_response_) on_response_(response);

  pump();
}

}  // namespace brb::server
