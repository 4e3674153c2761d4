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

}  // namespace brb::ctrl
