// Cross-layer attack-path coverage (X0xx findings).
//
// For every multi-stage attack plan the learned attack graph exports,
// prove statically that the policy cuts it: some hop's device must be
// tunneled through a µmbox that scans or blocks (GuardEvaluator strength
// kScanOnly or more) in EVERY system state the attack induces along the
// way (each completed step flips its device's security context to
// "compromised" — a guard that evaporates once the posture reacts to the
// compromise is no guard).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dataplane/element.h"
#include "learn/attack_graph.h"
#include "policy/fsm_policy.h"
#include "verify/report.h"

namespace iotsec::verify {

struct CoverageInput {
  const policy::StateSpace* space = nullptr;
  const policy::FsmPolicy* policy = nullptr;
  const learn::AttackGraph* attack_graph = nullptr;
  /// Goals to check; empty = AttackGraph::ReachableGoals().
  std::vector<std::string> goals;
  std::map<DeviceId, std::string> device_names;
  dataplane::ElementContext element_ctx;
};

void CheckAttackCoverage(const CoverageInput& in, Report& report);

}  // namespace iotsec::verify
