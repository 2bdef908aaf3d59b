#include "verify/verifier.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "verify/graph_lint.h"

namespace iotsec::verify {
namespace {

/// Lints every distinct µmbox config the policy's postures carry, labeled
/// by the first posture that introduced it.
void LintPostureGraphs(const VerifyInput& in, Report& report) {
  std::set<std::string> seen;
  auto lint = [&](const policy::Posture& posture, const std::string& where) {
    if (Trim(posture.umbox_config).empty()) return;
    if (!seen.insert(posture.umbox_config).second) return;
    LintGraphConfig(posture.umbox_config, in.element_ctx,
                    "posture '" + posture.profile + "' (" + where + ")",
                    report);
  };
  for (const auto& rule : in.policy->rules()) {
    lint(rule.posture, "rule '" + rule.name + "'");
  }
  lint(in.policy->DefaultPosture(), "default");
}

/// G007: boot-queue sizing against the deployment's runtime limits.
void CheckDeploymentLimits(const VerifyInput::DeploymentLimits& lim,
                           Report& report) {
  if (lim.boot_queue_limit == 0) {
    report.Add("G007", Severity::kError, "deployment limits",
               "boot_queue_limit is 0: every packet arriving during a "
               "µmbox boot window is silently dropped (guaranteed boot "
               "blackhole); set a positive limit");
  }
  if (lim.pool_capacity > 0 && lim.cluster_slots > 0) {
    const std::size_t aggregate =
        lim.boot_queue_limit * static_cast<std::size_t>(lim.cluster_slots);
    if (aggregate > lim.pool_capacity) {
      report.Add("G007", Severity::kWarn, "deployment limits",
                 "aggregate boot-queue capacity " +
                     std::to_string(aggregate) + " (boot_queue_limit " +
                     std::to_string(lim.boot_queue_limit) + " x " +
                     std::to_string(lim.cluster_slots) +
                     " cluster slots) exceeds the packet-pool budget " +
                     std::to_string(lim.pool_capacity) +
                     ": parked boot traffic alone can exhaust the pool "
                     "and starve live forwarding");
    }
  }
}

/// X004: cross-segment predicates need a working sync path on both ends.
/// The federated control plane only propagates another segment's device
/// context/state through the global delta sync; a rule reading across
/// segments where either side is unsynced evaluates a permanently stale
/// view — typically a quarantine rule that silently never fires.
void CheckFederationPlacement(const VerifyInput& in, Report& report) {
  const auto& fed = *in.federation;
  // Invert device_names so predicate dims ("ctx:<name>"/"dev:<name>")
  // resolve to owning devices.
  std::map<std::string, DeviceId> by_name;
  for (const auto& [id, name] : in.device_names) by_name[name] = id;
  const auto segment_of = [&](DeviceId id) {
    const auto it = fed.segment_of.find(id);
    return it == fed.segment_of.end() ? -1 : it->second;
  };
  const auto synced = [&](int seg) {
    return fed.synced_segments.count(seg) != 0;
  };
  for (const auto& rule : in.policy->rules()) {
    if (rule.device == kInvalidDevice) continue;
    const int reader_seg = segment_of(rule.device);
    if (reader_seg < 0) continue;  // unplaced devices are not checkable
    std::set<std::string> reported_dims;
    for (const auto& [dim, values] : rule.when.constraints) {
      if (!StartsWith(dim, "ctx:") && !StartsWith(dim, "dev:")) continue;
      const auto owner_it = by_name.find(dim.substr(4));
      if (owner_it == by_name.end()) continue;
      const int owner_seg = segment_of(owner_it->second);
      if (owner_seg < 0 || owner_seg == reader_seg) continue;
      if (synced(reader_seg) && synced(owner_seg)) continue;
      if (!reported_dims.insert(dim).second) continue;
      const int broken = synced(reader_seg) ? owner_seg : reader_seg;
      const auto reader_name = in.device_names.find(rule.device);
      report.Add(
          "X004", Severity::kError, "policy rule " + rule.name,
          "predicate reads '" + dim + "' across segments (device '" +
              (reader_name != in.device_names.end() ? reader_name->second
                                                    : "?") +
              "' in segment " + std::to_string(reader_seg) +
              ", owner in segment " + std::to_string(owner_seg) +
              ") but segment " + std::to_string(broken) +
              " has no global-sync path: the rule evaluates a "
              "permanently stale view and can silently never fire");
    }
  }
}

}  // namespace

Report Verify(const VerifyInput& in) {
  Report report;
  if (in.limits) CheckDeploymentLimits(*in.limits, report);
  if (in.policy) {
    if (in.space) {
      PolicyCheckInput pin;
      pin.space = in.space;
      pin.policy = in.policy;
      pin.devices = in.devices;
      pin.device_names = in.device_names;
      pin.element_ctx = in.element_ctx;
      pin.enumeration_limit = in.enumeration_limit;
      CheckPolicy(pin, report);
    }
    LintPostureGraphs(in, report);
    if (in.federation) CheckFederationPlacement(in, report);
    if (in.space && in.attack_graph) {
      CoverageInput cin;
      cin.space = in.space;
      cin.policy = in.policy;
      cin.attack_graph = in.attack_graph;
      cin.goals = in.goals;
      cin.device_names = in.device_names;
      cin.element_ctx = in.element_ctx;
      CheckAttackCoverage(cin, report);
    }
  }
  report.Finalize();
  return report;
}

policy::StateSpace SynthesizeStateSpace(
    const policy::FsmPolicy& policy,
    const std::map<DeviceId, std::string>& device_names) {
  using policy::Dimension;
  using policy::DimensionKind;
  using policy::StateSpace;

  StateSpace space;
  std::set<std::string> have;
  for (const auto& [id, name] : device_names) {
    Dimension dim;
    dim.name = StateSpace::ContextDim(name);
    dim.kind = DimensionKind::kDeviceContext;
    dim.device = id;
    dim.values = policy::DefaultSecurityContexts();
    have.insert(dim.name);
    space.AddDimension(std::move(dim));
  }

  // Referenced dimensions, with their referenced values, in name order.
  std::map<std::string, std::set<std::string>> referenced;
  for (const auto& rule : policy.rules()) {
    for (const auto& [dim_name, values] : rule.when.constraints) {
      referenced[dim_name].insert(values.begin(), values.end());
    }
  }
  for (const auto& [dim_name, values] : referenced) {
    if (have.count(dim_name)) continue;
    Dimension dim;
    dim.name = dim_name;
    if (StartsWith(dim_name, "ctx:")) {
      dim.kind = DimensionKind::kDeviceContext;
      dim.values = policy::DefaultSecurityContexts();
      for (const auto& v : values) {
        if (std::find(dim.values.begin(), dim.values.end(), v) ==
            dim.values.end()) {
          dim.values.push_back(v);
        }
      }
    } else {
      dim.kind = StartsWith(dim_name, "dev:") ? DimensionKind::kDeviceState
                                              : DimensionKind::kEnvVar;
      dim.values.emplace_back("__other__");
      dim.values.insert(dim.values.end(), values.begin(), values.end());
    }
    space.AddDimension(std::move(dim));
  }
  return space;
}

}  // namespace iotsec::verify
