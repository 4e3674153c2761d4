#include "client/dispatch_gate.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ctrl/signal_table.hpp"

namespace brb::client {

namespace {
// Orders a gate's slots by server, for std::lower_bound.
constexpr auto kSlotBefore = [](const auto& slot, store::ServerId id) { return slot.server < id; };

// Heap order of held requests: the earliest (key, seq) on top.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.key != b.key ? a.key > b.key : a.seq > b.seq;
};
}  // namespace

DispatchGate::DispatchGate(sim::Simulator& sim, std::uint32_t num_servers,
                           const core::CreditsConfig& config, const core::CreditList& pinned,
                           double first_touch_credit) {
  if (num_servers == 0) throw std::invalid_argument("DispatchGate: no servers");
  if (first_touch_credit < 0.0) {
    throw std::invalid_argument("DispatchGate: negative first-touch credit");
  }
  state_ = std::make_unique<TokenState>(TokenState{
      &sim, num_servers, Grant{config, first_touch_credit, {}, false, {}}, {}});
  std::vector<Slot>& slots = state_->slots;
  slots.reserve(pinned.size());
  for (const auto& [server, balance] : pinned) {
    if (server >= num_servers || (!slots.empty() && server <= slots.back().server)) {
      throw std::invalid_argument("DispatchGate: pinned servers must ascend below the fleet size");
    }
    Slot& opened = slots.emplace_back();
    opened.server = server;
    opened.pinned = true;
    opened.tokens = balance;
  }
}

DispatchGate::DispatchGate(sim::Simulator& sim, std::uint32_t num_servers,
                           const policy::CubicRateConfig& config) {
  if (num_servers == 0) throw std::invalid_argument("DispatchGate: no servers");
  config.validate();
  state_ = std::make_unique<TokenState>(TokenState{&sim, num_servers, Cubic{config}, {}});
}

DispatchGate::DispatchGate(DispatchGate&& other) {
  if (other.transmit_ || (other.state_ && other.state_->target)) {
    throw std::logic_error("DispatchGate: a wired or started gate cannot move");
  }
  state_ = std::move(other.state_);
}

std::string DispatchGate::name() const {
  if (!state_) return "direct";
  return std::holds_alternative<Grant>(state_->law) ? "credits" : "cubic-rate";
}

DispatchGate::Slot& DispatchGate::slot(store::ServerId server) {
  std::vector<Slot>& slots = state_->slots;
  // All-pinned layout: slot index == server id.
  if (server < slots.size() && slots[server].server == server) return slots[server];
  if (server >= state_->num_servers) throw std::out_of_range("DispatchGate: bad server");
  const auto it = std::lower_bound(slots.begin(), slots.end(), server, kSlotBefore);
  if (it != slots.end() && it->server == server) return *it;
  Slot& opened = *slots.emplace(it);
  opened.server = server;
  const sim::Time now = state_->sim->now();
  if (const auto* cubic = std::get_if<Cubic>(&state_->law)) {
    opened.tokens = cubic->config.burst;
    opened.last_refill = now;
    opened.cubic = policy::CubicRate::open(cubic->config, now);
  } else {
    opened.tokens = grant_law().first_touch_credit;
    sync_balance(opened);
  }
  return opened;
}

const DispatchGate::Slot* DispatchGate::find(store::ServerId server) const {
  if (!state_) throw std::logic_error("DispatchGate: a direct gate has no slots");
  if (server >= state_->num_servers) throw std::out_of_range("DispatchGate: bad server");
  const std::vector<Slot>& slots = state_->slots;
  const auto it = std::lower_bound(slots.begin(), slots.end(), server, kSlotBefore);
  return it != slots.end() && it->server == server ? &*it : nullptr;
}

void DispatchGate::refill(Slot& slot, const Cubic& law) const {
  const sim::Time now = state_->sim->now();
  const double elapsed_sec = (now - slot.last_refill).as_seconds();
  if (elapsed_sec > 0) {
    slot.tokens = std::min(law.config.burst, slot.tokens + elapsed_sec * slot.cubic.rate);
    slot.last_refill = now;
  }
}

bool DispatchGate::try_acquire(Slot& slot) {
  const auto* cubic = std::get_if<Cubic>(&state_->law);
  if (cubic != nullptr) refill(slot, *cubic);
  if (slot.tokens < 1.0) return false;
  slot.tokens -= 1.0;
  if (cubic != nullptr) ++slot.cubic.sent_in_window;
  return true;
}

void DispatchGate::offer_to_slot(OutboundRequest out) {
  TokenState& state = *state_;
  Slot& target = slot(out.server);
  ++target.offered_in_window;
  if (target.held.empty() && try_acquire(target)) {
    sync_balance(target);
    transmit_(out);
    return;
  }
  const store::Priority key =
      std::holds_alternative<Grant>(state.law) ? out.request.priority : store::Priority{};
  target.held.push_back(Held{key, state.next_seq++, state.sim->now(), std::move(out)});
  std::push_heap(target.held.begin(), target.held.end(), kLater);
  ++state.held;
  ++state.hold_events;
  schedule_wake(target);
}

void DispatchGate::drain(Slot& slot) {
  TokenState& state = *state_;
  while (!slot.held.empty() && try_acquire(slot)) {
    std::pop_heap(slot.held.begin(), slot.held.end(), kLater);
    Held next = std::move(slot.held.back());
    slot.held.pop_back();
    --state.held;
    state.total_hold_time += state.sim->now() - next.held_at;
    transmit_(next.out);
  }
  sync_balance(slot);
  if (!slot.held.empty()) {
    schedule_wake(slot);
  } else {
    // Return the storage: a queue that has emptied would otherwise keep
    // its peak capacity, and every slot's peak would add up.
    std::vector<Held>().swap(slot.held);
  }
}

void DispatchGate::schedule_wake(Slot& slot) {
  const auto* cubic = std::get_if<Cubic>(&state_->law);
  if (cubic == nullptr || slot.wake_pending) return;
  slot.wake_pending = true;
  refill(slot, *cubic);
  sim::Time when = state_->sim->now();
  if (slot.tokens < 1.0) {
    const double wait_sec = (1.0 - slot.tokens) / slot.cubic.rate;
    when = when + std::max(sim::Duration::nanos(1), sim::Duration::seconds(wait_sec));
  }
  state_->sim->post_at(when, {sim::EventKind::kGateWake, target(), slot.server});
}

void DispatchGate::wake(store::ServerId server) {
  Slot& woken = slot(server);
  woken.wake_pending = false;
  drain(woken);
}

std::uint32_t DispatchGate::target() {
  if (!state_) throw std::logic_error("DispatchGate: a direct gate receives no events");
  if (!state_->target) state_->target = state_->sim->attach(*this);
  return *state_->target;
}

void DispatchGate::on_token_response(store::ServerId server) {
  if (const auto* cubic = std::get_if<Cubic>(&state_->law)) {
    slot(server).cubic.on_response(cubic->config, state_->sim->now());
  }
}

double DispatchGate::balance(store::ServerId server) const {
  if (const Slot* opened = find(server)) return opened->tokens;
  if (const auto* cubic = std::get_if<Cubic>(&state_->law)) return cubic->config.burst;
  return std::get<Grant>(state_->law).first_touch_credit;
}

double DispatchGate::rate(store::ServerId server) const {
  const Slot* opened = find(server);
  const Cubic& law = std::get<Cubic>(state_->law);
  return opened != nullptr ? opened->cubic.rate : law.config.initial_rate;
}

// ---------------------------------------------------------------------------
// Grant law

DispatchGate::Grant& DispatchGate::grant_law() {
  Grant* law = state_ ? std::get_if<Grant>(&state_->law) : nullptr;
  if (law == nullptr) throw std::logic_error("DispatchGate: not a credits gate");
  return *law;
}

void DispatchGate::set_report(ReportFn fn) { grant_law().report = std::move(fn); }

void DispatchGate::attach_signals(ctrl::SignalTable* signals) {
  if (!state_ || !std::holds_alternative<Grant>(state_->law)) return;
  state_->signals = signals;
  for (const Slot& slot : state_->slots) sync_balance(slot);
}

void DispatchGate::sync_balance(const Slot& slot) {
  if (state_->signals != nullptr) state_->signals->set_credit_balance(slot.server, slot.tokens);
}

void DispatchGate::start() {
  grant_law().running = true;
  state_->sim->post_after(grant_law().config.measure_interval,
                          {sim::EventKind::kMeasureTick, target(), 0});
}

void DispatchGate::stop() { grant_law().running = false; }

void DispatchGate::measure_tick() {
  Grant& law = grant_law();
  if (!law.running) return;
  if (law.report) {
    law.rates_scratch.clear();
    const double window_sec = law.config.measure_interval.as_seconds();
    for (Slot& slot : state_->slots) {
      if (!slot.pinned && slot.offered_in_window == 0) continue;
      law.rates_scratch.emplace_back(slot.server,
                                     static_cast<double>(slot.offered_in_window) / window_sec);
      slot.offered_in_window = 0;
    }
    // Idle first-touch ticks send nothing: a million dormant clients
    // must not produce a million empty control messages per interval.
    if (!law.rates_scratch.empty()) law.report(law.rates_scratch);
  }
  state_->sim->post_after(law.config.measure_interval, {sim::EventKind::kMeasureTick, target(), 0});
}

void DispatchGate::on_grant(const core::CreditList& credits) {
  const double carryover_cap = grant_law().config.carryover_cap_factor;
  for (const auto& [server, amount] : credits) {
    Slot& target = slot(server);
    // Credits are shares of the *coming* interval; a bounded carryover
    // of unused balance smooths bursts across grant boundaries.
    const double carryover = std::min(target.tokens, carryover_cap * amount);
    target.tokens = amount + std::max(0.0, carryover);
    drain(target);
  }
}

}  // namespace brb::client
