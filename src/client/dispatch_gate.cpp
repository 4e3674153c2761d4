#include "client/dispatch_gate.hpp"

#include <utility>

namespace brb::client {

RateLimitedGate::RateLimitedGate(sim::Simulator& sim,
                                 policy::CubicRateController::Config config)
    : sim_(&sim), controller_(config) {}

RateLimitedGate::PerServer& RateLimitedGate::slot(store::ServerId server) {
  if (server >= servers_.size()) servers_.resize(server + 1);
  return servers_[server];
}

void RateLimitedGate::offer(OutboundRequest out) {
  const store::ServerId server = out.server;
  PerServer& ps = slot(server);
  if (ps.queue.empty() && controller_.try_acquire(server, sim_->now())) {
    transmit(out);
    return;
  }
  ps.queue.push_back(std::move(out));
  ++held_;
  schedule_drain(server);
}

void RateLimitedGate::schedule_drain(store::ServerId server) {
  PerServer& ps = slot(server);
  if (ps.drain_scheduled) return;
  ps.drain_scheduled = true;
  const sim::Time when = controller_.earliest_send(server, sim_->now());
  sim_->schedule_at(when, [this, server] {
    servers_[server].drain_scheduled = false;
    drain(server);
  });
}

void RateLimitedGate::drain(store::ServerId server) {
  PerServer& ps = servers_[server];
  while (!ps.queue.empty() && controller_.try_acquire(server, sim_->now())) {
    OutboundRequest out = std::move(ps.queue.front());
    ps.queue.pop_front();
    --held_;
    transmit(out);
  }
  if (!ps.queue.empty()) schedule_drain(server);
}

void RateLimitedGate::on_response(store::ServerId server, const store::ServerFeedback& feedback) {
  controller_.on_response(server, feedback, sim_->now());
  // A rate increase may allow held requests to go out sooner.
  if (server < servers_.size() && !servers_[server].queue.empty()) {
    schedule_drain(server);
  }
}

}  // namespace brb::client
