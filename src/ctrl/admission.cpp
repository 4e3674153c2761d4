#include "ctrl/admission.hpp"

#include <stdexcept>

#include "util/flags.hpp"

namespace brb::ctrl {

const std::vector<AdmissionPolicyInfo>& admission_policy_catalog() {
  static const std::vector<AdmissionPolicyInfo> catalog = {
      {"direct", "no gating: transmit immediately"},
      {"cubic-rate", "C3's cubic rate controller: per-server token buckets, "
                     "multiplicative decrease / cubic recovery"},
      {"credits", "the paper's credits scheme: spend controller-granted credits, "
                  "hold excess in a per-server priority queue"},
  };
  return catalog;
}

std::string canonical_admission_name(const std::string& name) {
  std::vector<std::string> known;
  for (const AdmissionPolicyInfo& info : admission_policy_catalog()) {
    if (info.name == name) return info.name;
    known.push_back(info.name);
  }
  std::string message = "unknown admission policy '" + name + "'";
  if (const auto suggestion = util::closest_name(name, known)) {
    message += " (did you mean '" + *suggestion + "'?)";
  }
  throw std::invalid_argument(message);
}

std::unique_ptr<client::DispatchGate> make_admission_policy(const std::string& name,
                                                            const AdmissionContext& context) {
  const std::string canonical = canonical_admission_name(name);
  if (canonical == "direct") return std::make_unique<client::DirectGate>();
  if (canonical == "cubic-rate") {
    if (context.sim == nullptr) {
      throw std::invalid_argument("make_admission_policy: cubic-rate needs a simulator");
    }
    return std::make_unique<client::RateLimitedGate>(*context.sim, context.rate);
  }
  if (canonical == "credits") {
    if (context.sim == nullptr || context.num_servers == 0) {
      throw std::invalid_argument("make_admission_policy: credits needs a simulator and servers");
    }
    auto gate = std::make_unique<core::CreditGate>(*context.sim, context.num_servers,
                                                   context.credits, context.pinned_credits,
                                                   context.first_touch_credit);
    if (context.signals != nullptr) gate->attach_signals(context.signals);
    return gate;
  }
  throw std::logic_error("make_admission_policy: catalog/factory mismatch for " + canonical);
}

}  // namespace brb::ctrl
