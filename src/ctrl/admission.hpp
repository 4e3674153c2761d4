// Admission policies by name — the other half of the control plane's
// policy interface pair.
//
// An admission policy decides *when* a planned request leaves the
// client: immediately ("direct"), when a token bucket with a cubic
// rate cap allows it ("cubic-rate", C3's controller), or when the
// client holds a credit for the target server ("credits", the paper's
// scheme). The uniform interface is client::DispatchGate — offer() a
// planned request, feed on_response() feedback, report held() backlog
// — and this registry makes the implementations constructible by name,
// replacing the hard-coded per-system switch the scenario runner
// carried.
//
// The credits gate mirrors its balances into the client's SignalTable
// so selection policies can read them without reaching into gate
// internals.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "client/dispatch_gate.hpp"
#include "core/credits.hpp"
#include "ctrl/signal_table.hpp"
#include "sim/simulator.hpp"

namespace brb::ctrl {

/// Everything a registered admission policy may need at construction.
struct AdmissionContext {
  sim::Simulator* sim = nullptr;
  std::uint32_t num_servers = 0;
  /// Credits admission: controller parameters, the pinned credit pairs
  /// with their opening balances (ascending by server), and the
  /// opening balance of every other pair, which opens on first offer.
  core::CreditsConfig credits{};
  core::CreditList pinned_credits;
  double first_touch_credit = 0.0;
  /// Cubic-rate admission: controller config with initial_rate already
  /// resolved (> 0).
  policy::CubicRateController::Config rate{};
  /// When set, a credits gate mirrors its per-server balances into
  /// this table.
  SignalTable* signals = nullptr;
};

struct AdmissionPolicyInfo {
  std::string name;
  std::string summary;
};

/// All registered admission policies, in presentation order.
const std::vector<AdmissionPolicyInfo>& admission_policy_catalog();

/// Resolves an admission policy name; throws std::invalid_argument
/// with a did-you-mean hint on unknown names.
std::string canonical_admission_name(const std::string& name);

/// Constructs an admission policy by name ("direct" | "cubic-rate" |
/// "credits"). Throws on unknown names or a context missing what the
/// named policy needs.
std::unique_ptr<client::DispatchGate> make_admission_policy(const std::string& name,
                                                            const AdmissionContext& context);

}  // namespace brb::ctrl
