// Tests for the incremental control loop: the view's maintained state,
// its dirty keys, the controller's name/address lookups, and the scoped
// sweep (dirty devices only) checked against a reference
// run whose every sweep evaluates every device in scope.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "control/view.h"
#include "core/iotsec.h"
#include "obs/obs.h"

namespace iotsec::control {
namespace {

using policy::StateSpace;

// ------------------------------------------------ maintained state

/// A small space over devices a..c and two env variables, plus one
/// dimension with a prefix the view never writes.
StateSpace ViewSpace() {
  StateSpace space;
  for (const char* device : {"a", "b", "c"}) {
    space.AddDimension({StateSpace::ContextDim(device),
                        policy::DimensionKind::kDeviceContext, 1,
                        policy::DefaultSecurityContexts()});
    space.AddDimension({StateSpace::StateDim(device),
                        policy::DimensionKind::kDeviceState, 1,
                        {"off", "on", "alarm"}});
  }
  space.AddDimension({StateSpace::EnvDim("smoke"),
                      policy::DimensionKind::kEnvVar, kInvalidDevice,
                      {"off", "on"}});
  space.AddDimension({StateSpace::EnvDim("temp"),
                      policy::DimensionKind::kEnvVar, kInvalidDevice,
                      {"low", "mid", "high"}});
  space.AddDimension({"other:x", policy::DimensionKind::kEnvVar,
                      kInvalidDevice, {"p", "q"}});
  return space;
}

std::string PickValue(Rng& rng, const std::vector<std::string>& domain) {
  // Mostly in-domain; sometimes a value no dimension knows.
  if (rng.NextBool(0.15)) return "bogus";
  return domain[rng.NextBelow(domain.size())];
}

class MaintainedStateTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MaintainedStateTest, EqualsTheRebuiltProjectionAfterRandomWrites) {
  Rng rng(GetParam());
  const StateSpace space = ViewSpace();
  // A copy with its own layout: ToSystemState must take the slow path
  // for it, so the two sides below are computed independently.
  StateSpace rebuilt_space;
  for (const auto& dim : space.Dims()) rebuilt_space.AddDimension(dim);
  ASSERT_FALSE(rebuilt_space.SameLayout(space));

  GlobalView view;
  // Writes before binding are resolved by Bind.
  view.SetDeviceContext("a", "suspicious");
  view.SetEnvLevel("smoke", "on");
  view.Bind(space);
  EXPECT_EQ(view.State(), view.ToSystemState(rebuilt_space));

  const std::vector<std::string> devices = {"a", "b", "c", "ghost"};
  const std::vector<std::string> variables = {"smoke", "temp", "wind"};
  const std::vector<std::string> states = {"off", "on", "alarm"};
  const std::vector<std::string> levels = {"off", "on", "low", "mid",
                                           "high"};
  std::uint64_t version = view.Version();
  for (int step = 0; step < 400; ++step) {
    const auto op = rng.NextBelow(3);
    const std::string device = devices[rng.NextBelow(devices.size())];
    std::optional<std::string> before;
    std::string key;
    std::string value;
    if (op == 0) {
      value = PickValue(rng, states);
      before = view.DeviceState(device);
      key = StateSpace::StateDim(device);
      view.SetDeviceState(device, value);
    } else if (op == 1) {
      value = PickValue(rng, policy::DefaultSecurityContexts());
      before = view.DeviceContext(device);
      key = StateSpace::ContextDim(device);
      view.SetDeviceContext(device, value);
    } else {
      const std::string variable = variables[rng.NextBelow(variables.size())];
      value = PickValue(rng, levels);
      before = view.EnvLevel(variable);
      key = StateSpace::EnvDim(variable);
      view.SetEnvLevel(variable, value);
    }
    ASSERT_EQ(view.State(), view.ToSystemState(rebuilt_space))
        << "step " << step << ": " << key << " = " << value;
    // The fast path hands back the maintained state itself.
    ASSERT_EQ(view.ToSystemState(space), view.State());

    // A real change bumps the version and, for a key of the bound space,
    // dirties exactly that key; a no-op write does neither.
    const bool changed = before.value_or("") != value;
    EXPECT_EQ(view.Version(), version + (changed ? 1 : 0)) << "step " << step;
    version = view.Version();
    std::vector<std::string> dirty;
    view.DrainDirtyKeys([&](const std::string& k) { dirty.push_back(k); });
    const bool in_space = space.IndexOf(key).has_value();
    EXPECT_EQ(dirty, changed && in_space ? std::vector<std::string>{key}
                                         : std::vector<std::string>{})
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintainedStateTest,
                         ::testing::Values(3, 17, 2024, 9001));

TEST(MaintainedStateTest, DirtyKeysDrainOnce) {
  const StateSpace space = ViewSpace();
  GlobalView view;
  view.SetEnvLevel("smoke", "on");  // before Bind: resolved, not dirty
  view.Bind(space);
  view.SetEnvLevel("smoke", "off");
  view.SetDeviceState("b", "on");
  view.SetDeviceContext("a", "suspicious");
  view.SetDeviceContext("a", "compromised");  // same key twice: one entry
  view.SetDeviceContext("ghost", "suspicious");  // not in the space
  std::vector<std::string> dirty;
  view.DrainDirtyKeys([&](const std::string& k) { dirty.push_back(k); });
  EXPECT_EQ(dirty, (std::vector<std::string>{"env:smoke", "dev:b", "ctx:a"}));
  dirty.clear();
  view.DrainDirtyKeys([&](const std::string& k) { dirty.push_back(k); });
  EXPECT_TRUE(dirty.empty());
}

TEST(MaintainedStateTest, OutOfDomainWritesAreCountedAndReadAsValueZero) {
  const StateSpace space = ViewSpace();
  GlobalView view;
  view.Bind(space);
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  auto* counter = obs::M().ctl_view_unknown_values;
  const std::uint64_t before = counter->Value();

  view.SetDeviceContext("a", "compromised");
  view.SetDeviceContext("a", "compromized");  // typo: out of domain
  view.SetDeviceContext("a", "compromizzed");
  view.SetDeviceState("ghost", "weird");  // no such dimension: not counted
  view.SetEnvLevel("smoke", "on");

  EXPECT_EQ(counter->Value(), before + 2);
  const auto ctx_a = *space.IndexOf("ctx:a");
  EXPECT_EQ(view.State().values[ctx_a], 0) << "reads as \"normal\"";
  EXPECT_EQ(space.ValueOf(view.State(), ctx_a), "normal");
  obs::SetEnabled(was_enabled);
}

// ------------------------------------------------ controller lookups

TEST(ControllerLookupTest, OperatorContextFindsTheOwnerByName) {
  core::DeploymentOptions opts;
  opts.federation.enabled = true;
  core::Deployment dep(opts);
  dep.AddCamera("cam");
  dep.AddSmartLock("lock");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);

  // Routed as a device event (owner found by name), not a global one.
  const auto global_before = dep.federation()->stats().global_events;
  const auto local_before = dep.federation()->stats().local_events;
  dep.controller().SetDeviceContext("lock", "suspicious");
  EXPECT_EQ(dep.federation()->stats().local_events, local_before + 1);
  EXPECT_EQ(dep.federation()->stats().global_events, global_before);
  // An unknown name has no owner: it falls back to the global path.
  dep.controller().SetDeviceContext("nobody", "suspicious");
  EXPECT_EQ(dep.federation()->stats().global_events, global_before + 1);
}

TEST(ControllerLookupTest, TelemetryIsAttributedByAddress) {
  core::Deployment dep;
  auto* alarm = dep.AddFireAlarm("alarm");
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  const auto before = dep.controller().stats().telemetry_events;
  dep.environment().SetBool("smoke", true, dep.Now());
  dep.RunFor(2 * kSecond);
  EXPECT_GT(dep.controller().stats().telemetry_events, before);
  EXPECT_EQ(dep.controller().view().DeviceState("alarm"), alarm->State());
}

// ------------------------------------------------ scoped sweep ≡ full

/// Silences the controller's expected "cluster at capacity" errors for
/// the life of a scenario.
class QuietLogs {
 public:
  QuietLogs() : saved_(GetLogLevel()) { SetLogLevel(LogLevel::kOff); }
  ~QuietLogs() { SetLogLevel(saved_); }
  QuietLogs(const QuietLogs&) = delete;
  QuietLogs& operator=(const QuietLogs&) = delete;

 private:
  LogLevel saved_;
};

/// Every test deployment: ten devices of mixed classes on a one-host
/// cluster too small for all of them, so some launches fail and leave
/// devices isolated until capacity frees up.
std::unique_ptr<core::Deployment> MakeFleet(bool federated) {
  core::DeploymentOptions opts;
  opts.host_capacity = 3;
  if (federated) {
    opts.federation.enabled = true;
    opts.federation.max_segment_devices = 3;
  }
  auto dep = std::make_unique<core::Deployment>(std::move(opts));
  dep->AddCamera("cam1", {devices::Vulnerability::kDefaultPassword});
  dep->AddCamera("cam2");
  dep->AddSmartLock("lock");
  dep->AddLightBulb("bulb1");
  dep->AddLightBulb("bulb2");
  dep->AddFireAlarm("alarm");
  dep->AddThermostat("thermo");
  dep->AddMotionSensor("motion");
  dep->AddSmartPlug("plug", "oven_power");
  dep->AddWindow("window");
  return dep;
}

std::vector<DeviceId> FleetIds(core::Deployment& dep) {
  std::vector<DeviceId> ids;
  for (const auto& [id, name] : dep.controller().DeviceNames()) {
    ids.push_back(id);
  }
  return ids;
}

/// Random per-device rules over the fleet's space: priority ties, env
/// readers, cross-device readers, rules on a dimension the space lacks
/// and rules for a device that is not registered.
policy::FsmPolicy RandomPolicy(Rng& rng, const StateSpace& space,
                               const std::vector<DeviceId>& ids) {
  const std::vector<policy::Posture> postures = {
      core::TrustPosture(), core::MonitorPosture(), core::QuarantinePosture()};
  std::vector<std::size_t> env_dims;
  for (std::size_t i = 0; i < space.DimensionCount(); ++i) {
    if (space.Dim(i).kind == policy::DimensionKind::kEnvVar) {
      env_dims.push_back(i);
    }
  }
  policy::FsmPolicy policy;
  policy.SetDefault(postures[rng.NextBelow(2)]);
  std::vector<DeviceId> targets = ids;
  targets.push_back(4242);  // not registered
  int n = 0;
  for (const DeviceId id : targets) {
    const auto rules = rng.NextBelow(4);
    for (std::uint64_t r = 0; r < rules; ++r) {
      policy::PolicyRule rule;
      rule.name = "r";
      rule.name += std::to_string(n++);
      rule.device = id;
      const auto dims = 1 + rng.NextBelow(2);
      for (std::uint64_t d = 0; d < dims; ++d) {
        const std::size_t idx =
            rng.NextBool(0.4) ? env_dims[rng.NextBelow(env_dims.size())]
                              : rng.NextBelow(space.DimensionCount());
        const auto& dim = space.Dim(idx);
        std::set<std::string> values;
        for (const auto& v : dim.values) {
          if (rng.NextBool(0.4)) values.insert(v);
        }
        if (values.empty()) {
          values.insert(dim.values[rng.NextBelow(dim.values.size())]);
        }
        rule.when.AndIn(dim.name, std::move(values));
      }
      if (rng.NextBool(0.1)) rule.when.And("ctx:ghost", "compromised");
      rule.posture = postures[rng.NextBelow(postures.size())];
      rule.priority = static_cast<int>(rng.NextBelow(3));
      policy.Add(std::move(rule));
    }
  }
  return policy;
}

/// Advances to `until`. With `full`, every device is invalidated before
/// each simulator instant, so each sweep in that run evaluates every
/// device of its scope: the pre-incremental controller.
void Advance(core::Deployment& dep, SimTime until, bool full) {
  sim::Simulator& sim = dep.sim();
  while (full && sim.NextEventTime() <= until) {
    dep.controller().InvalidateAll();
    sim.RunUntil(sim.NextEventTime());
  }
  sim.RunUntil(until);
}

/// Everything a sweep can leave behind: postures, µmboxes, the audit
/// trail and the edge switch's flow table.
std::vector<std::string> Observe(core::Deployment& dep) {
  std::vector<std::string> out;
  IoTSecController& ctl = dep.controller();
  for (const auto& [id, name] : ctl.DeviceNames()) {
    const auto umbox = ctl.UmboxOf(id);
    out.push_back(name + " " + ctl.PostureProfileOf(id) + " umbox=" +
                  (umbox ? std::to_string(*umbox) : "-") +
                  (ctl.Recovering(id) ? " recovering" : ""));
  }
  for (const auto& entry : ctl.audit().Entries()) {
    out.push_back(entry.ToString());
  }
  for (const auto& entry : dep.edge().flow_table().Entries()) {
    std::string line = "flow prio=" + std::to_string(entry.priority) +
                       " " + entry.match.ToString() + " v" +
                       std::to_string(entry.version) + " cookie=" +
                       std::to_string(entry.cookie);
    for (const auto& action : entry.actions) {
      line += " a" + std::to_string(static_cast<int>(action.type)) + ":" +
              std::to_string(action.out_port) + ":" +
              std::to_string(action.umbox);
    }
    out.push_back(line);
  }
  const auto& stats = ctl.stats();
  out.push_back("stats changes=" + std::to_string(stats.posture_changes) +
                " launches=" + std::to_string(stats.umbox_launches) +
                " reconfigs=" + std::to_string(stats.umbox_reconfigs) +
                " flow_ops=" + std::to_string(stats.flow_ops) +
                " failures=" + std::to_string(stats.enforcement_failures) +
                " sweeps=" + std::to_string(stats.policy_evals));
  if (auto* fed = dep.federation()) {
    out.push_back("fed " + std::to_string(fed->CombinedDigest()));
  }
  return out;
}

struct ScenarioRun {
  std::unique_ptr<core::Deployment> dep;
  std::vector<std::vector<std::string>> observations;  // one per step
};

/// One seeded scenario: random policy, then random operator contexts,
/// environment changes, direct view writes, µmbox alerts and policy
/// swaps at random spacings (some inside a pending sweep's latency).
ScenarioRun RunScenario(std::uint64_t seed, bool federated, bool full) {
  const QuietLogs quiet;
  ScenarioRun run;
  run.dep = MakeFleet(federated);
  core::Deployment& dep = *run.dep;
  Rng rng(seed);
  const StateSpace space = dep.BuildStateSpace();
  const auto ids = FleetIds(dep);
  dep.UsePolicy(space, RandomPolicy(rng, space, ids));
  if (full) dep.controller().InvalidateAll();
  dep.Start();

  const auto names = dep.controller().DeviceNames();
  const std::vector<std::string> env_vars = {"smoke", "occupancy",
                                             "window_open", "temperature"};
  for (int step = 0; step < 120; ++step) {
    IoTSecController& ctl = dep.controller();
    const auto& [id, name] = names[rng.NextBelow(names.size())];
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2: {
        const auto& contexts = policy::DefaultSecurityContexts();
        ctl.SetDeviceContext(name, rng.NextBool(0.05)
                                       ? std::string("compromized")
                                       : contexts[rng.NextBelow(
                                             contexts.size())]);
        break;
      }
      case 3:
      case 4:
      case 5: {
        const std::string& var = env_vars[rng.NextBelow(env_vars.size())];
        const double value = var == "temperature"
                                 ? rng.NextDouble() * 50.0
                                 : (rng.NextBool(0.5) ? 1.0 : 0.0);
        dep.environment().SetValue(var, value, dep.Now());
        break;
      }
      case 6: {
        // A view write with no notification: the next sweep, whatever
        // wakes it, must still see it.
        const auto dim = space.IndexOf(StateSpace::StateDim(name));
        const auto& states = space.Dim(*dim).values;
        ctl.view().SetDeviceState(name, states[rng.NextBelow(states.size())]);
        break;
      }
      case 7:
      case 8: {
        if (const auto umbox = ctl.UmboxOf(id)) {
          dataplane::Alert alert;
          alert.element = "test";
          alert.kind = "signature";
          alert.detail = "seeded alert";
          ctl.OnUmboxAlert(*umbox, alert);
        }
        break;
      }
      default: {
        if (rng.NextBool(0.4)) {
          dep.UsePolicy(space, RandomPolicy(rng, space, ids));
        }
        break;
      }
    }
    const SimDuration gap =
        static_cast<SimDuration>(rng.NextInRange(100, 8000)) * kMicrosecond;
    Advance(dep, dep.Now() + gap, full);
    run.observations.push_back(Observe(dep));
  }
  Advance(dep, dep.Now() + kSecond, full);
  run.observations.push_back(Observe(dep));
  return run;
}

void ExpectSameRun(const ScenarioRun& scoped, const ScenarioRun& full) {
  ASSERT_EQ(scoped.observations.size(), full.observations.size());
  for (std::size_t step = 0; step < full.observations.size(); ++step) {
    const auto& a = scoped.observations[step];
    const auto& b = full.observations[step];
    const auto n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a[i], b[i]) << "step " << step << " line " << i;
    }
    ASSERT_EQ(a.size(), b.size()) << "step " << step;
  }
}

/// The full sweep's order, checked on its own (the reference run shares
/// the visiting code): the posture changes one sweep makes — same
/// instant, same scope — name devices in ascending id order.
void ExpectSweepsVisitInIdOrder(core::Deployment& dep) {
  std::map<std::string, DeviceId> id_of;
  for (const auto& [id, name] : dep.controller().DeviceNames()) {
    id_of[name] = id;
  }
  auto* fed = dep.federation();
  std::map<std::pair<SimTime, int>, DeviceId> last;
  int changes = 0;
  for (const auto& entry : dep.controller().audit().Entries()) {
    if (entry.category != AuditCategory::kPosture) continue;
    ++changes;
    const DeviceId id = id_of.at(entry.device);
    const int scope = fed != nullptr ? fed->SegmentOf(id) : 0;
    const auto [it, first] = last.try_emplace({entry.at, scope}, id);
    if (!first) {
      EXPECT_LT(it->second, id) << "sweep at " << entry.at << " visited "
                                << entry.device << " out of id order";
      it->second = id;
    }
  }
  EXPECT_GT(changes, 0);
}

class ScopedSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(ScopedSweepTest, MatchesEvaluatingEveryDevice) {
  const auto [seed, federated] = GetParam();
  const ScenarioRun scoped = RunScenario(seed, federated, /*full=*/false);
  const ScenarioRun full = RunScenario(seed, federated, /*full=*/true);
  ExpectSameRun(scoped, full);
  ExpectSweepsVisitInIdOrder(*scoped.dep);

  // Not vacuous: postures moved, and the scoped run did less work.
  const auto& s = scoped.dep->controller().stats();
  const auto& f = full.dep->controller().stats();
  EXPECT_GT(s.posture_changes, 0u);
  EXPECT_GT(s.env_events, 0u);
  EXPECT_LT(s.devices_evaluated, f.devices_evaluated);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ScopedSweepTest,
    ::testing::Combine(::testing::Values(1, 7, 42, 1234, 9001, 31337),
                       ::testing::Bool()));

TEST(ScopedSweepTest, UnsettledDevicesAreRetriedOnceCapacityFrees) {
  // Four cameras monitored on a host with room for three: the fourth
  // launch fails (fail-closed isolation) and the device settles there.
  const QuietLogs quiet;
  core::DeploymentOptions opts;
  opts.host_capacity = 3;
  core::Deployment dep(opts);
  for (const char* name : {"c1", "c2", "c3", "c4"}) dep.AddCamera(name);
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule trust;
  trust.name = "trust-c1-when-suspicious";
  trust.when = policy::StatePredicate::Eq("ctx:c1", "suspicious");
  trust.device = dep.Find("c1")->id();
  trust.posture = core::TrustPosture();
  policy.Add(trust);
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  IoTSecController& ctl = dep.controller();
  const DeviceId c4 = dep.Find("c4")->id();
  EXPECT_FALSE(ctl.UmboxOf(c4).has_value());
  EXPECT_GE(ctl.stats().enforcement_failures, 1u);

  // c1 drops to trust and stops its µmbox. The freed slot re-queues c4,
  // which reads no key that changed; the sweep reaches it after c1 and
  // it launches.
  ctl.SetDeviceContext("c1", "suspicious");
  dep.RunFor(kSecond);
  EXPECT_EQ(ctl.PostureProfileOf(dep.Find("c1")->id()), "trust");
  EXPECT_TRUE(ctl.UmboxOf(c4).has_value());
  EXPECT_EQ(ctl.PostureProfileOf(c4), "monitor");
}

TEST(ScopedSweepTest, LateRegistrationReevaluatesEveryDevice) {
  core::Deployment dep;
  dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  auto* bulb = dep.AddLightBulb("bulb");
  // Any wakeup now evaluates the newcomer too.
  const auto before = dep.controller().stats().devices_evaluated;
  dep.controller().SetDeviceContext("cam", "suspicious");
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.controller().stats().devices_evaluated, before + 2);
  EXPECT_EQ(dep.controller().PostureProfileOf(bulb->id()), "trust");
}

}  // namespace
}  // namespace iotsec::control
