#include "verify/coverage.h"

#include "policy/state_space.h"
#include "verify/graph_lint.h"

namespace iotsec::verify {
namespace {

using learn::AttackPlan;
using policy::StateSpace;
using policy::SystemState;

std::string NameOf(DeviceId d,
                   const std::map<DeviceId, std::string>& names) {
  const auto it = names.find(d);
  return it != names.end() ? it->second : "device#" + std::to_string(d);
}

/// States the attack induces: states[k] is the system state just before
/// step k fires (step k-1 flipped its device's context to "compromised").
std::vector<SystemState> InducedStates(
    const StateSpace& space, const AttackPlan& plan,
    const std::map<DeviceId, std::string>& names) {
  std::vector<SystemState> states;
  states.push_back(space.InitialState());
  for (std::size_t k = 0; k + 1 < plan.steps.size(); ++k) {
    SystemState next = states.back();
    const DeviceId d = plan.steps[k]->device;
    if (d != kInvalidDevice) {
      space.Assign(next, StateSpace::ContextDim(NameOf(d, names)),
                   "compromised");
    }
    states.push_back(std::move(next));
  }
  return states;
}

}  // namespace

void CheckAttackCoverage(const CoverageInput& in, Report& report) {
  if (!in.space || !in.policy || !in.attack_graph) return;
  const auto& space = *in.space;
  const auto& policy = *in.policy;
  GuardEvaluator guards(in.element_ctx);

  const auto goals =
      in.goals.empty() ? in.attack_graph->ReachableGoals() : in.goals;
  for (const auto& plan : in.attack_graph->ExportPaths(goals)) {
    if (!plan.IsMultiStage()) continue;
    const std::string object = "attack path to '" + plan.goal + "'";
    const auto states = InducedStates(space, plan, in.device_names);

    // A hop is guarded when its device's posture enforces in EVERY
    // induced state; guarded-at-start hops that lose their guard later
    // are the partial-coverage case.
    const learn::Exploit* full_guard = nullptr;
    const learn::Exploit* initial_guard = nullptr;
    std::size_t guard_lost_at = 0;
    for (const auto* step : plan.steps) {
      if (step->device == kInvalidDevice) continue;
      bool all = true;
      std::size_t first_unguarded = states.size();
      for (std::size_t j = 0; j < states.size(); ++j) {
        if (guards.Strength(policy.Evaluate(space, states[j], step->device)) <
            GuardStrength::kScanOnly) {
          all = false;
          first_unguarded = j;
          break;
        }
      }
      if (all) {
        full_guard = step;
        break;
      }
      if (first_unguarded > 0 && !initial_guard) {
        initial_guard = step;
        guard_lost_at = first_unguarded;
      }
    }

    if (full_guard) {
      report.Add("X003", Severity::kInfo, object,
                 "covered: hop '" + full_guard->name + "' (device '" +
                     NameOf(full_guard->device, in.device_names) +
                     "') is guarded by an enforcing µmbox in every state "
                     "along the path [" + plan.ToString() + "]");
    } else if (initial_guard) {
      report.Add("X002", Severity::kWarn, object,
                 "partially covered: hop '" + initial_guard->name +
                     "' (device '" +
                     NameOf(initial_guard->device, in.device_names) +
                     "') is guarded initially but the guard disappears "
                     "after attack step " + std::to_string(guard_lost_at) +
                     " [" + plan.ToString() + "]");
    } else {
      report.Add("X001", Severity::kError, object,
                 "uncovered multi-stage attack path: no hop is guarded by "
                 "a blocking/scanning µmbox in the states the attack "
                 "induces [" + plan.ToString() + "]");
    }
  }
}

}  // namespace iotsec::verify
