// Admission policies by name — the other half of the control plane's
// policy interface pair.
//
// An admission policy decides *when* a planned request leaves the
// client: immediately ("direct"), when a token bucket with a cubic
// rate cap allows it ("cubic-rate", C3's controller), or when the
// client holds a credit for the target server ("credits", the paper's
// scheme). All three are client::DispatchGate: direct, or a token gate
// under the cubic or the grant law. The scenario runner builds each
// client's gate from the canonical name.
#pragma once

#include <string>
#include <vector>

namespace brb::ctrl {

struct AdmissionPolicyInfo {
  std::string name;
  std::string summary;
};

/// All registered admission policies, in presentation order.
const std::vector<AdmissionPolicyInfo>& admission_policy_catalog();

/// Resolves an admission policy name; throws std::invalid_argument
/// with a did-you-mean hint on unknown names.
std::string canonical_admission_name(const std::string& name);

}  // namespace brb::ctrl
