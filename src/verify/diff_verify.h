// Differential verification: regressions between two deployment/ruleset
// versions, never absolute findings.
//
// Runs the symbolic model checker (model_check.h) on a *base* and a
// *next* input — typically the same deployment with two different OTA
// ruleset versions spliced in — and reports only where next is worse:
//   M101 error  new attack path introduced (goal safe under base,
//               unguarded-reachable under next)
//   M102 error  enforcement weakened on an existing path (blocked under
//               base, only alert-guarded under next)
//        warn   an already-unguarded path got strictly shorter
// A delta that only *adds* enforcement is silent, which is exactly what a
// pre-canary gate wants: the rollout pipeline blocks on regressions, not
// on pre-existing debt.
//
// MakePreRolloutVerifier packages this as RolloutCoordinator's
// PreRolloutVerifier hook: before a version starts staging, the gate
// model-checks the fleet's stable ruleset against the candidate and
// (in kBlock mode) quarantines candidates that weaken enforcement.
#pragma once

#include <string>

#include "rollout/coordinator.h"
#include "rollout/version_store.h"
#include "verify/model_check.h"
#include "verify/report.h"

namespace iotsec::verify {

/// Model-checks both inputs and appends regression-only findings
/// labelled `origin`. Returns true when no error-severity regression was
/// found (warn-level M102s do not fail the gate).
bool DiffVerify(const ModelCheckInput& base, const ModelCheckInput& next,
                const std::string& origin, Report& report);

/// The deployment the pre-rollout gate verifies against: everything a
/// ModelCheckInput needs except the ruleset versions, which come from
/// the VersionStore per (sku, base, target) gate call. Pointer members
/// must outlive the returned verifier.
struct DeploymentModel {
  const policy::StateSpace* space = nullptr;
  const policy::FsmPolicy* policy = nullptr;
  const learn::AttackGraph* attack_graph = nullptr;
  std::vector<DeviceId> devices;
  std::map<DeviceId, std::string> device_names;
  /// Goal facts to protect; empty = every reachable goal.
  std::vector<std::string> goals;
  dataplane::ElementContext element_ctx;
  ModelCheckConfig config;
};

/// Builds the coordinator hook: verifier(sku, base_version,
/// target_version, detail) diff-verifies store->RulesAt(sku, base) vs
/// RulesAt(sku, target) under `model` and returns false on an
/// error-severity regression, with the findings text in *detail.
/// `store` must outlive the verifier.
[[nodiscard]] rollout::PreRolloutVerifier MakePreRolloutVerifier(
    DeploymentModel model, const rollout::VersionStore* store);

}  // namespace iotsec::verify
