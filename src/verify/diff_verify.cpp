#include "verify/diff_verify.h"

#include <utility>

namespace iotsec::verify {

namespace {

/// Lenient-safe: no unguarded path exists (blocked or alert-cut).
bool LenientSafe(GoalVerdict::Class cls) {
  return cls == GoalVerdict::Class::kBlocked ||
         cls == GoalVerdict::Class::kAlertOnly;
}

}  // namespace

bool DiffVerify(const ModelCheckInput& base, const ModelCheckInput& next,
                const std::string& origin, Report& report) {
  const ModelCheckResult base_result = ModelCheck(base);
  const ModelCheckResult next_result = ModelCheck(next);

  bool clean = true;
  for (const auto& nv : next_result.verdicts) {
    // A goal absent from the base run compares against "blocked": a goal
    // that only exists under next *is* new attack surface.
    const GoalVerdict* bv = nullptr;
    for (const auto& candidate : base_result.verdicts) {
      if (candidate.goal == nv.goal) {
        bv = &candidate;
        break;
      }
    }
    const GoalVerdict::Class base_cls =
        bv != nullptr ? bv->cls : GoalVerdict::Class::kBlocked;
    const std::string vs = bv != nullptr
                               ? "base version"
                               : "base version (goal did not exist)";

    if (base_cls == GoalVerdict::Class::kUnknown ||
        nv.cls == GoalVerdict::Class::kUnknown) {
      report.Add("M004", Severity::kWarn, origin,
                 "verdict on '" + nv.goal +
                     "' incomplete on one side of the diff (budget "
                     "exhausted) — versions not comparable");
      continue;
    }

    if (LenientSafe(base_cls) && nv.cls == GoalVerdict::Class::kUnguarded) {
      report.Add("M101", Severity::kError, origin,
                 "new attack path introduced: '" + nv.goal +
                     "' was safe under the " + vs + ", now reachable in " +
                     std::to_string(nv.trace.steps.size()) +
                     " step(s): " + nv.trace.ToString());
      clean = false;
      continue;
    }
    if (base_cls == GoalVerdict::Class::kBlocked &&
        nv.cls == GoalVerdict::Class::kAlertOnly) {
      report.Add("M102", Severity::kError, origin,
                 "enforcement weakened: '" + nv.goal +
                     "' was blocked under the " + vs +
                     ", now only alert-guarded — blocking guards alone "
                     "miss this path (" +
                     std::to_string(nv.trace.steps.size()) +
                     " step(s)): " + nv.trace.ToString());
      clean = false;
      continue;
    }
    if (bv != nullptr && base_cls == GoalVerdict::Class::kUnguarded &&
        nv.cls == GoalVerdict::Class::kUnguarded &&
        nv.trace.steps.size() < bv->trace.steps.size()) {
      report.Add("M102", Severity::kWarn, origin,
                 "existing unguarded path to '" + nv.goal +
                     "' got shorter: " +
                     std::to_string(bv->trace.steps.size()) + " -> " +
                     std::to_string(nv.trace.steps.size()) +
                     " step(s): " + nv.trace.ToString());
    }
  }
  return clean;
}

rollout::PreRolloutVerifier MakePreRolloutVerifier(
    DeploymentModel model, const rollout::VersionStore* store) {
  return [model = std::move(model), store](
             const std::string& sku, std::uint64_t base_version,
             std::uint64_t target_version, std::string* detail) {
    const auto fill = [&model](std::vector<std::string> rules) {
      ModelCheckInput in;
      in.space = model.space;
      in.policy = model.policy;
      in.attack_graph = model.attack_graph;
      in.devices = model.devices;
      in.device_names = model.device_names;
      in.goals = model.goals;
      in.extra_rule_texts = std::move(rules);
      in.element_ctx = model.element_ctx;
      in.config = model.config;
      return in;
    };
    const ModelCheckInput base = fill(store->RulesAt(sku, base_version));
    const ModelCheckInput next = fill(store->RulesAt(sku, target_version));
    Report report;
    const std::string origin =
        "rollout " + sku + " v" + std::to_string(base_version) + " -> v" +
        std::to_string(target_version);
    const bool ok = DiffVerify(base, next, origin, report);
    report.Finalize();
    if (detail != nullptr) {
      detail->clear();
      for (const auto& finding : report.findings()) {
        if (finding.severity != Severity::kError) continue;
        if (!detail->empty()) *detail += " | ";
        *detail += finding.ToString();
      }
    }
    return ok;
  };
}

}  // namespace iotsec::verify
