#include "sim/simulator.hpp"

#include "client/app_client.hpp"
#include "core/arrival_pump.hpp"
#include "core/credits.hpp"
#include "ctrl/policy_runtime.hpp"
#include "server/backend_server.hpp"

namespace brb::sim {

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_ && step()) ++executed;
  return executed;
}

std::uint64_t Simulator::run_until(Time until) {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_) {
    const auto next = queue_.peek_time();
    if (!next || *next > until) break;
    step();
    ++executed;
  }
  if (!stopped_ && until > now_) now_ = until;
  return executed;
}

bool Simulator::step() {
  const auto entry = queue_.pop();
  if (!entry) return false;
  now_ = entry->when;
  ++processed_;
  dispatch(entry->event);
  return true;
}

void Simulator::dispatch(const Event& event) {
  const std::uint32_t target = event.target;
  // A message slot, core, server or index: all fit 32 bits.
  const auto arg = static_cast<std::uint32_t>(event.payload);
  switch (event.kind) {
    case EventKind::kCallable: thunks_[target](event.payload); break;
    case EventKind::kArrival: actor<core::ArrivalPump>(target).on_arrival(); break;
    case EventKind::kReplayArrival:
      actor<core::ArrivalPump>(target).on_replay(event.payload);
      break;
    case EventKind::kStop: stop(); break;
    case EventKind::kRequestDelivery:
      actor<server::BackendServer>(target).receive(messages_[arg].request);
      break;
    case EventKind::kQueueSubmit: {
      // Writes are pinned to their replica: each copy must execute on
      // its own server, so it may not float freely within the group.
      const net::Message& message = messages_[arg];
      auto& queue = actor<server::GlobalQueueModel>(target);
      const server::QueuedRead read{message.request, now_};
      if (message.request.is_write) {
        queue.submit_pinned(read, message.server);
      } else {
        queue.submit(read, message.group);
      }
      break;
    }
    case EventKind::kResponseDelivery:
      actor<client::AppClient>(target).on_response(messages_[arg].response);
      break;
    case EventKind::kDemandReport:
      actor<core::CreditsController>(target).on_demand_report(messages_[arg].client,
                                                              messages_[arg].credits);
      break;
    case EventKind::kGrant:
      actor<client::DispatchGate>(target).on_grant(messages_[arg].credits);
      break;
    case EventKind::kCongestionSignal:
      actor<core::CreditsController>(target).on_congestion_signal(
          static_cast<store::ServerId>(event.payload >> 32), arg);
      break;
    case EventKind::kServiceDone: actor<server::BackendServer>(target).complete(arg); break;
    case EventKind::kGateWake: actor<client::DispatchGate>(target).wake(arg); break;
    case EventKind::kMeasureTick: actor<client::DispatchGate>(target).measure_tick(); break;
    case EventKind::kAdaptTick: actor<core::CreditsController>(target).adapt_tick(); break;
    case EventKind::kMonitorTick: actor<core::CongestionMonitor>(target).tick(); break;
    case EventKind::kHedgeFire: actor<client::AppClient>(target).hedge_fire(arg); break;
    case EventKind::kPolicyEpoch: actor<ctrl::PolicyRuntime>(target).apply_epoch(arg); break;
  }
  // A delivered message's slot is free once its handler returns.
  if (event.kind >= EventKind::kRequestDelivery && event.kind <= EventKind::kGrant) {
    messages_.free(arg);
  }
}

}  // namespace brb::sim
