// iotsec-verify: whole-deployment static verification.
//
// One call runs all three layers without starting a simulator or pushing
// a packet:
//   policy     — P0xx (exhaustiveness, conflicts, shadowing, quarantine
//                reachability, dead rules, unsatisfiable predicates)
//   dataplane  — G0xx over every distinct µmbox config a posture carries,
//                plus R0xx over inline SignatureMatcher rules
//   cross      — X0xx attack-path coverage against the attack graph
// Findings come back deterministic and ordered (Report::Finalize).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "learn/attack_graph.h"
#include "policy/fsm_policy.h"
#include "verify/coverage.h"
#include "verify/policy_check.h"
#include "verify/report.h"

namespace iotsec::verify {

struct VerifyInput {
  const policy::StateSpace* space = nullptr;
  const policy::FsmPolicy* policy = nullptr;
  std::vector<DeviceId> devices;
  std::map<DeviceId, std::string> device_names;
  /// Optional: enables the X0xx cross-layer pass.
  const learn::AttackGraph* attack_graph = nullptr;
  /// Attack goals to check; empty = every reachable goal.
  std::vector<std::string> goals;
  dataplane::ElementContext element_ctx;
  double enumeration_limit = 1e6;

  /// Optional: runtime sizing limits for the G007 boot-queue checks.
  /// Unset skips the pass (policy-file-only lint runs have no limits).
  struct DeploymentLimits {
    /// Boot-queue bound stamped onto launched µmboxes
    /// (ControllerConfig::boot_queue_limit).
    std::size_t boot_queue_limit = 256;
    /// Total µmbox slots: host capacity summed over the cluster. Bounds
    /// how many boot queues can exist at once.
    int cluster_slots = 0;
    /// Packet-pool budget (AdmissionConfig::pool_capacity); 0 = no
    /// budget declared, the aggregate-capacity warning is skipped.
    std::size_t pool_capacity = 0;
  };
  std::optional<DeploymentLimits> limits;

  /// Optional: federated control-plane placement for the X004 check. A
  /// rule whose predicate reads another segment's device dimension only
  /// sees that dimension through the global delta-sync path; if either
  /// end of that path is missing, the predicate is evaluated against a
  /// permanently stale view. Unset skips the pass (flat deployments).
  struct FederationTopology {
    /// Segment each device is placed in (control/federation.h numbering).
    std::map<DeviceId, int> segment_of;
    /// Segments with a delta-sync path to the global controller.
    std::set<int> synced_segments;
  };
  std::optional<FederationTopology> federation;
};

/// Runs every applicable layer and returns the finalized report.
Report Verify(const VerifyInput& in);

/// Builds a minimal state space that makes a parsed-from-file policy
/// checkable without a live deployment: every named device gets a
/// ctx:<name> dimension over DefaultSecurityContexts(), and every other
/// dimension the rules reference gets the referenced values plus a
/// synthetic "__other__" value (kept first, so the initial state stays
/// neutral and each predicate has a non-matching value).
policy::StateSpace SynthesizeStateSpace(
    const policy::FsmPolicy& policy,
    const std::map<DeviceId, std::string>& device_names);

}  // namespace iotsec::verify
