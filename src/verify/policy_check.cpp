#include "verify/policy_check.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "verify/graph_lint.h"

namespace iotsec::verify {
namespace {

using policy::FsmPolicy;
using policy::StateSpace;
using policy::SystemState;

std::string NameOf(DeviceId d,
                   const std::map<DeviceId, std::string>& names) {
  const auto it = names.find(d);
  return it != names.end() ? it->second
                           : "device#" + std::to_string(d);
}

std::string RuleObject(const policy::PolicyRule& rule) {
  return "policy rule '" + rule.name + "'";
}

/// Enumerates the cross product of the given dimensions, invoking `fn`
/// with a state whose other dimensions stay at their initial value.
template <typename Fn>
void ForEachProjectedState(const StateSpace& space,
                           const std::vector<std::size_t>& dims, Fn&& fn) {
  SystemState state = space.InitialState();
  std::vector<std::size_t> counter(dims.size(), 0);
  for (;;) {
    for (std::size_t i = 0; i < dims.size(); ++i) {
      state.values[dims[i]] = static_cast<int>(counter[i]);
    }
    fn(state);
    std::size_t pos = 0;
    while (pos < dims.size()) {
      if (++counter[pos] < space.Dim(dims[pos]).values.size()) break;
      counter[pos] = 0;
      ++pos;
    }
    if (pos == dims.size()) break;
  }
}

void CheckPredicates(const PolicyCheckInput& in, Report& report) {
  const auto& space = *in.space;
  for (const auto& rule : in.policy->rules()) {
    for (const auto& [dim_name, values] : rule.when.constraints) {
      const auto idx = space.IndexOf(dim_name);
      if (!idx) {
        report.Add("P006", Severity::kError, RuleObject(rule),
                   "predicate references unknown dimension '" + dim_name +
                       "' — the rule can never match, so the states it "
                       "meant to cover fall through to lower rules or the "
                       "default (fail-open)");
        continue;
      }
      const auto& dim = space.Dim(*idx);
      const bool satisfiable = std::any_of(
          values.begin(), values.end(), [&](const std::string& v) {
            return dim.IndexOf(v).has_value();
          });
      if (!satisfiable) {
        report.Add("P006", Severity::kError, RuleObject(rule),
                   "no admissible value of '" + dim_name +
                       "' in the predicate exists in the state space — "
                       "the rule can never match");
      }
    }
  }
}

void CheckEmptyTunnels(const PolicyCheckInput& in, Report& report) {
  for (const auto& rule : in.policy->rules()) {
    if (rule.posture.tunnel && Trim(rule.posture.umbox_config).empty()) {
      report.Add("P007", Severity::kWarn, RuleObject(rule),
                 "posture '" + rule.posture.profile +
                     "' tunnels traffic but carries an empty µmbox "
                     "config — the diversion enforces nothing");
    }
  }
  const auto& def = in.policy->DefaultPosture();
  if (def.tunnel && Trim(def.umbox_config).empty()) {
    report.Add("P007", Severity::kWarn,
               "default posture '" + def.profile + "'",
               "tunnels traffic but carries an empty µmbox config — the "
               "diversion enforces nothing");
  }
}

void CheckEnumerated(const PolicyCheckInput& in,
                     const policy::PolicyAnalysis& analysis,
                     GuardEvaluator& guards, Report& report) {
  const auto& policy = *in.policy;
  const auto& rules = policy.rules();
  const bool default_enforces =
      guards.Strength(policy.DefaultPosture()) >= GuardStrength::kScanOnly;

  for (DeviceId d : in.devices) {
    const auto it = analysis.enumeration.find(d);
    if (it == analysis.enumeration.end() || !it->second.enumerated) continue;
    const auto& device_enum = it->second;
    const std::string device_name = NameOf(d, in.device_names);

    // P001: the implicit default is reached and enforces nothing.
    if (device_enum.default_states > 0 && !default_enforces) {
      report.Add(
          "P001", Severity::kError, "device '" + device_name + "'",
          "policy is non-exhaustive and falls open: " +
              std::to_string(
                  static_cast<long long>(device_enum.default_states)) +
              " reachable state(s) fall through to the default posture '" +
              policy.DefaultPosture().profile +
              "', which does not tunnel traffic through any enforcing "
              "µmbox");
    }

    // P005: device rules that decide no reachable state.
    const std::set<std::size_t> winners(device_enum.winning_rules.begin(),
                                        device_enum.winning_rules.end());
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (rules[i].device != d || winners.count(i)) continue;
      report.Add("P005", Severity::kWarn, RuleObject(rules[i]),
                 "rule decides no reachable state for device '" +
                     device_name +
                     "' (dead — shadowed, unsatisfiable, or subsumed)");
    }
  }
}

void CheckQuarantineReachability(const PolicyCheckInput& in,
                                 GuardEvaluator& guards, Report& report) {
  const auto& space = *in.space;
  const auto& policy = *in.policy;
  // Contexts in which traffic must be tunneled through an enforcing
  // µmbox. "normal" is the only context a posture may legitimately
  // leave untunneled.
  static const std::set<std::string> kDegraded = {"suspicious",
                                                  "compromised",
                                                  "unpatched"};

  for (DeviceId d : in.devices) {
    const std::string device_name = NameOf(d, in.device_names);
    const auto ctx_idx =
        space.IndexOf(StateSpace::ContextDim(device_name));
    if (!ctx_idx) continue;  // device has no security-context dimension

    std::set<std::size_t> dims{*ctx_idx};
    double projected =
        static_cast<double>(space.Dim(*ctx_idx).values.size());
    for (const auto& name : policy.RelevantDims(d)) {
      if (const auto idx = space.IndexOf(name); idx && dims.insert(*idx).second) {
        projected *= static_cast<double>(space.Dim(*idx).values.size());
      }
    }
    if (projected > in.enumeration_limit) continue;

    // Per degraded context value: how many states leak, plus an example.
    std::map<std::string, std::pair<std::size_t, std::string>> leaks;
    const std::vector<std::size_t> dim_list(dims.begin(), dims.end());
    ForEachProjectedState(space, dim_list, [&](const SystemState& state) {
      const std::string ctx_value = space.ValueOf(state, *ctx_idx);
      if (!kDegraded.count(ctx_value)) return;
      const auto& posture = policy.Evaluate(space, state, d);
      if (guards.Strength(posture) >= GuardStrength::kScanOnly) return;
      auto& [count, example] = leaks[ctx_value];
      if (count == 0) {
        example = space.Describe(state) + " -> posture '" +
                  posture.profile + "'";
      }
      ++count;
    });

    for (const auto& [ctx_value, leak] : leaks) {
      report.Add("P004", Severity::kError, "device '" + device_name + "'",
                 "quarantine unreachable: in " +
                     std::to_string(leak.first) + " state(s) with ctx:" +
                     device_name + "=" + ctx_value +
                     " the device's traffic is not tunneled through an "
                     "enforcing µmbox (e.g. " + leak.second + ")");
    }
  }
}

}  // namespace

void CheckPolicy(const PolicyCheckInput& in, Report& report) {
  if (!in.space || !in.policy) return;
  const auto& rules = in.policy->rules();

  const auto analysis = policy::AnalyzePolicy(*in.policy, *in.space,
                                              in.devices,
                                              in.enumeration_limit);

  for (const auto& conflict : analysis.conflicts) {
    report.Add("P003", Severity::kError,
               RuleObject(rules[conflict.rule_a]),
               "conflicts with rule '" + rules[conflict.rule_b].name +
                   "': " + conflict.reason);
  }
  for (std::size_t idx : analysis.shadowed_rules) {
    report.Add("P002", Severity::kWarn, RuleObject(rules[idx]),
               "shadowed by a higher-priority rule whose predicate "
               "subsumes this one — it can never win");
  }

  CheckPredicates(in, report);
  CheckEmptyTunnels(in, report);

  // Lenient: a scanning guard counts (detection triggers response).
  GuardEvaluator guards(in.element_ctx);
  CheckEnumerated(in, analysis, guards, report);
  CheckQuarantineReachability(in, guards, report);
}

}  // namespace iotsec::verify
