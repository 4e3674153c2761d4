#include "server/backend_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/ewma.hpp"

namespace brb::server {

BackendServer::BackendServer(sim::Simulator& sim, Config config,
                             const ServiceTimeModel& service_model, util::Rng rng)
    : Actor(sim), config_(config), service_model_(&service_model), rng_(rng) {
  if (config_.cores == 0) throw std::invalid_argument("BackendServer: zero cores");
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
  if (busy_cores_ < config_.cores && server::size(*queue_) == 0) {
    // Idle core, empty queue: the enqueue/pop round-trip through the
    // discipline is an identity — serve directly.
    start_service(request);
    return;
  }
  server::push(*queue_, QueuedRead{request, now()});
  pump();
  check_watch();
}

void BackendServer::pump() {
  if (!queue_ && source_ == nullptr) {
    throw std::logic_error("BackendServer::pump: no work source");
  }
  bool pulled = false;
  while (busy_cores_ < config_.cores) {
    std::optional<QueuedRead> read =
        queue_ ? server::pop(*queue_) : source_->next_for(config_.id);
    if (!read) break;
    pulled = true;
    start_service(read->request);
  }
  if (pulled) check_watch();
}

void BackendServer::start_service(const store::ReadRequest& request) {
  if (service_filter_ && !service_filter_(request)) {
    // Rejected at dequeue (a cancelled duplicate): consumes no core
    // and no service-time draw; the caller's pump loop simply pulls
    // the next item, and the receive fast path falls through idle.
    return;
  }
  ++busy_cores_;
  // Actual work is driven by the replica's stored value size; absent
  // keys (possible in unit tests) serve as 1-byte values. Writes do
  // work proportional to the payload being installed instead.
  const std::uint32_t size = request.is_write ? std::max(1u, request.write_size)
                                             : storage_.size_of(request.key).value_or(1);
  const sim::Duration service_time = service_model_->sample(size, rng_);
  const sim::Time done_at = now() + service_time;
  sim().schedule_at(done_at, [this, request_id = request.request_id, task_id = request.task_id,
                              key = request.key, client = request.client, service_time, size,
                              is_write = request.is_write, version = storage_.version()] {
    complete(request_id, task_id, key, client, service_time, size, is_write, version);
  });
}

void BackendServer::complete(store::RequestId request_id, store::TaskId task_id,
                             store::KeyId key, store::ClientId client,
                             sim::Duration service_time, std::uint32_t size, bool is_write,
                             std::uint64_t version) {
  --busy_cores_;
  ++stats_.served;
  stats_.busy_time += service_time;

  // EWMA of the whole-server completion rate implied by this service
  // time (cores working in parallel).
  const double rate_sample =
      1e9 / static_cast<double>(service_time.count_nanos()) * config_.cores;
  ewma_rate_ = util::ewma_update(ewma_rate_, config_.rate_ewma_alpha, rate_sample);

  store::ReadResponse response;
  response.request_id = request_id;
  response.task_id = task_id;
  response.key = key;
  response.client = client;
  response.server = config_.id;
  if (is_write) {
    // The replica resizes its stored value at completion and sends a
    // bare acknowledgement (no payload travels back).
    storage_.put_meta(key, size);
    response.is_write = true;
    response.value_size = 0;
  } else {
    // The response reports the size stored at completion, so a write
    // landing mid-service shows; the size read at service start is
    // still current unless the store changed since.
    response.value_size =
        storage_.version() == version ? size : storage_.size_of(key).value_or(1);
  }
  response.feedback.queue_length = queue_length();
  response.feedback.service_rate = ewma_rate_;
  response.feedback.service_time = service_time;
  if (on_response_) on_response_(response);

  pump();
}

}  // namespace brb::server
