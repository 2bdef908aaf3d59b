// Tests for the global view, hierarchy model, and the controller's
// posture machinery over a full Deployment.
#include <gtest/gtest.h>

#include "control/hierarchy.h"
#include "control/view.h"
#include "core/iotsec.h"

namespace iotsec::control {
namespace {

TEST(GlobalViewTest, VersionedUpdatesAndContextKeys) {
  GlobalView view;
  EXPECT_EQ(view.Version(), 0u);
  view.SetDeviceState("cam", "idle");
  view.SetDeviceContext("cam", "normal");
  view.SetEnvLevel("smoke", "off");
  EXPECT_EQ(view.Version(), 3u);
  // Idempotent writes do not bump the version.
  view.SetDeviceState("cam", "idle");
  EXPECT_EQ(view.Version(), 3u);

  EXPECT_EQ(view.Get("device.cam.state").value(), "idle");
  EXPECT_EQ(view.Get("device.cam.context").value(), "normal");
  EXPECT_EQ(view.Get("env.smoke").value(), "off");
  EXPECT_FALSE(view.Get("device.ghost.state").has_value());
  EXPECT_FALSE(view.Get("bogus-key").has_value());
}

TEST(GlobalViewTest, ToSystemStateProjection) {
  GlobalView view;
  view.SetDeviceContext("alarm", "suspicious");
  view.SetDeviceState("alarm", "alarm");
  view.SetEnvLevel("smoke", "on");

  policy::StateSpace space;
  space.AddDimension({"ctx:alarm", policy::DimensionKind::kDeviceContext, 1,
                      policy::DefaultSecurityContexts()});
  space.AddDimension({"dev:alarm", policy::DimensionKind::kDeviceState, 1,
                      {"ok", "alarm"}});
  space.AddDimension({"env:smoke", policy::DimensionKind::kEnvVar,
                      kInvalidDevice, {"off", "on"}});
  space.AddDimension({"env:unknown", policy::DimensionKind::kEnvVar,
                      kInvalidDevice, {"a", "b"}});

  const auto state = view.ToSystemState(space);
  EXPECT_EQ(space.ValueOf(state, 0), "suspicious");
  EXPECT_EQ(space.ValueOf(state, 1), "alarm");
  EXPECT_EQ(space.ValueOf(state, 2), "on");
  EXPECT_EQ(space.ValueOf(state, 3), "a") << "unknown values default to 0";
}

TEST(PartitionTest, GroupsByInteraction) {
  const std::vector<std::string> devices = {"a", "b", "c", "d", "e"};
  const std::vector<std::pair<std::string, std::string>> edges = {
      {"a", "b"}, {"b", "c"}, {"d", "e"}};
  auto partitions = PartitionByInteraction(devices, edges);
  ASSERT_EQ(partitions.size(), 2u);
  std::size_t sizes[2] = {partitions[0].size(), partitions[1].size()};
  std::sort(std::begin(sizes), std::end(sizes));
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 3u);

  // No edges: all singletons.
  EXPECT_EQ(PartitionByInteraction(devices, {}).size(), 5u);
}

TEST(PartitionTest, SelfAndDuplicateEdgesCreateNoPhantomPartitions) {
  const std::vector<std::string> devices = {"a", "b", "c"};
  // Self-edges and duplicates (either orientation) must neither merge
  // unrelated devices nor create extra groups.
  const std::vector<std::pair<std::string, std::string>> edges = {
      {"a", "a"}, {"a", "b"}, {"b", "a"}, {"a", "b"}, {"c", "c"}};
  const auto partitions = PartitionByInteraction(devices, edges);
  ASSERT_EQ(partitions.size(), 2u);
  EXPECT_EQ(partitions[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(partitions[1], (std::vector<std::string>{"c"}));
}

TEST(PartitionTest, UnknownDeviceEdgesAreIgnored) {
  const std::vector<std::string> devices = {"a", "b"};
  // Edges naming unregistered devices must not materialize them, and an
  // unknown intermediary must not bridge two known devices.
  const auto partitions = PartitionByInteraction(
      devices, {{"a", "ghost"}, {"ghost", "b"}, {"phantom", "phantom"}});
  ASSERT_EQ(partitions.size(), 2u);
  EXPECT_EQ(partitions[0], (std::vector<std::string>{"a"}));
  EXPECT_EQ(partitions[1], (std::vector<std::string>{"b"}));
  for (const auto& group : partitions) {
    for (const auto& name : group) {
      EXPECT_TRUE(name == "a" || name == "b") << "phantom device " << name;
    }
  }
}

TEST(PartitionTest, DeterministicOrderUnderEdgePermutation) {
  const std::vector<std::string> devices = {"e", "d", "c", "b", "a"};
  // Two components — {e,d} and {c,a} — with b isolated.
  const auto reference =
      PartitionByInteraction(devices, {{"d", "e"}, {"a", "c"}});
  ASSERT_EQ(reference.size(), 3u);
  // Groups ordered by smallest member *input index*; members keep input
  // order. "e" comes first because it is devices[0].
  EXPECT_EQ(reference[0], (std::vector<std::string>{"e", "d"}));
  EXPECT_EQ(reference[1], (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(reference[2], (std::vector<std::string>{"b"}));
  // Any edge permutation / orientation / duplication yields the same
  // output — the federation derives segment numbering from it.
  const std::vector<std::vector<std::pair<std::string, std::string>>>
      variants = {{{"a", "c"}, {"d", "e"}},
                  {{"c", "a"}, {"e", "d"}},
                  {{"d", "e"}, {"d", "e"}, {"a", "c"}, {"c", "a"}}};
  for (const auto& variant : variants) {
    EXPECT_EQ(PartitionByInteraction(devices, variant), reference);
  }
}

TEST(EventProcessorTest, FifoQueueingDelays) {
  sim::Simulator sim;
  EventProcessor proc(sim, /*service_time=*/10 * kMillisecond);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    proc.Submit([&](SimTime t) { done.push_back(t); });
  }
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], 10 * kMillisecond);
  EXPECT_EQ(done[1], 20 * kMillisecond);
  EXPECT_EQ(done[2], 30 * kMillisecond);
  EXPECT_EQ(proc.Processed(), 3u);
}

TEST(HierarchyTest, HierarchicalBeatsFlatUnderLoad) {
  HierarchyScenario scenario;
  scenario.num_devices = 200;
  scenario.num_partitions = 20;
  // 200 x 150 Hz = 30k events/s against a 60us server (~16.6k/s cap):
  // the flat controller saturates, per-partition locals do not.
  scenario.event_rate_per_device_hz = 150.0;
  scenario.duration = 10 * kSecond;
  scenario.cross_partition_fraction = 0.05;

  const auto flat = RunFlat(scenario);
  const auto hier = RunHierarchical(scenario);
  ASSERT_GT(flat.events, 0u);
  ASSERT_GT(hier.events, 0u);
  // Flat: 200 * 50 = 10k events/s against a 60us server (~16.6k/s cap) —
  // heavy queueing. Hierarchical: each local server sees 1/20 the load.
  EXPECT_LT(hier.latency_us.Percentile(99), flat.latency_us.Percentile(99));
  EXPECT_LT(hier.latency_us.Mean(), flat.latency_us.Mean());
  EXPECT_LT(hier.escalated, hier.events);
}

TEST(HierarchyTest, LowLoadBothFine) {
  HierarchyScenario scenario;
  scenario.num_devices = 10;
  scenario.event_rate_per_device_hz = 1.0;
  scenario.duration = 10 * kSecond;
  const auto flat = RunFlat(scenario);
  const auto hier = RunHierarchical(scenario);
  // Under light load, both are dominated by RTT; flat pays the global
  // RTT on every event, hierarchical mostly the (smaller) local RTT.
  EXPECT_LT(hier.latency_us.Mean(), flat.latency_us.Mean());
  EXPECT_LT(flat.latency_us.Percentile(99), 10000.0) << "no queueing blowup";
}

// ------------------------------------------------ Controller integration

TEST(ControllerTest, ContextEscalationOnAlerts) {
  core::Deployment dep;
  auto* wemo = dep.AddSmartPlug("wemo", "oven_power",
                                {devices::Vulnerability::kBackdoor});

  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), policy);
  dep.Start();
  dep.RunFor(kSecond);

  // Vulnerable device starts as "unpatched".
  EXPECT_EQ(dep.controller().view().DeviceContext("wemo").value(),
            "unpatched");

  // Backdoor commands trip the signature µmbox; alerts escalate context.
  for (int i = 0; i < 4; ++i) {
    dep.attacker().SendIotCommand(wemo->spec().ip, wemo->spec().mac,
                                  proto::IotCommand::kTurnOn, std::nullopt,
                                  /*backdoor=*/true, nullptr);
    dep.RunFor(kSecond);
  }
  EXPECT_EQ(dep.controller().view().DeviceContext("wemo").value(),
            "compromised");
  EXPECT_GT(dep.controller().stats().alerts, 0u);
}

TEST(ControllerTest, PostureChangeLaunchesAndReconfiguresUmbox) {
  core::Deployment dep;
  auto* cam = dep.AddCamera("cam");

  policy::StateSpace space = dep.BuildStateSpace();
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  policy::PolicyRule quarantine;
  quarantine.name = "quarantine-compromised";
  quarantine.when = policy::StatePredicate::Eq("ctx:cam", "compromised");
  quarantine.device = cam->id();
  quarantine.posture = core::QuarantinePosture();
  quarantine.priority = 10;
  policy.Add(quarantine);
  dep.UsePolicy(std::move(space), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);

  // Initial posture: monitor, with a µmbox launched and diversion flows.
  ASSERT_TRUE(dep.controller().UmboxOf(cam->id()).has_value());
  EXPECT_EQ(dep.controller().PostureProfileOf(cam->id()), "monitor");
  EXPECT_EQ(dep.controller().stats().umbox_launches, 1u);

  // Operator marks the camera compromised: hot reconfig to quarantine.
  dep.controller().SetDeviceContext("cam", "compromised");
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.controller().PostureProfileOf(cam->id()), "quarantine");
  EXPECT_EQ(dep.controller().stats().umbox_reconfigs, 1u);
  EXPECT_EQ(dep.controller().stats().umbox_launches, 1u)
      << "reconfig must not relaunch";

  // Quarantined: the camera no longer answers HTTP.
  int status = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                         [&](const proto::HttpResponse& resp) {
                           status = resp.status;
                         });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(status, 0) << "no response should escape quarantine";
}

TEST(ControllerTest, EnvironmentChangesReachTheView) {
  core::Deployment dep;
  dep.AddFireAlarm("protect");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), policy);
  dep.Start();
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.controller().view().EnvLevel("smoke").value(), "off");

  dep.environment().SetValue("temperature", 70.0, dep.sim().Now());
  dep.RunFor(5 * kSecond);
  EXPECT_EQ(dep.controller().view().EnvLevel("smoke").value(), "on");
  EXPECT_EQ(dep.controller().view().DeviceState("protect").value(), "alarm");
}

TEST(ControllerTest, RegisteredDeviceStatesStayInTheirDomains) {
  core::Deployment dep;
  dep.AddCamera("cam");
  dep.AddSmartPlug("plug", "oven_power");
  dep.AddThermostat("thermo");
  dep.AddFireAlarm("alarm");
  dep.AddWindow("window");
  dep.AddSmartLock("lock");
  dep.AddLightBulb("bulb");
  dep.AddLightSensor("sensor");
  dep.AddSmartOven("oven");
  dep.AddMotionSensor("motion");
  const policy::StateSpace space = dep.BuildStateSpace();
  const auto expect_in_domain = [&](const char* when) {
    for (const auto& [id, name] : dep.controller().DeviceNames()) {
      const auto value = dep.controller().view().DeviceState(name);
      ASSERT_TRUE(value.has_value()) << name << " " << when;
      const auto dim = space.IndexOf(policy::StateSpace::StateDim(name));
      ASSERT_TRUE(dim.has_value()) << name;
      EXPECT_TRUE(space.Dim(*dim).IndexOf(*value).has_value())
          << name << " reads '" << *value << "' " << when;
    }
  };
  expect_in_domain("at registration");
  // Quarantined from boot: the view keeps what it was seeded with.
  policy::FsmPolicy policy;
  policy.SetDefault(core::QuarantinePosture());
  dep.UsePolicy(space, std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  expect_in_domain("after a quarantined run");
}

TEST(ControllerTest, RejectedUmboxConfigSettlesInIsolation) {
  core::DeploymentOptions opts;
  opts.rollout.stages = {1000};
  opts.rollout.stage_hold = 100 * kMillisecond;
  core::Deployment dep(opts);
  auto* bulb = dep.AddLightBulb("bulb");
  dep.AddLightBulb("other");
  policy::Posture unlaunchable;
  unlaunchable.profile = "unlaunchable";
  unlaunchable.umbox_config = "x :: NoSuchElement()\n";
  policy::PolicyRule rule;
  rule.name = "unlaunchable";
  // Reads the bulb's own context, so every write to it re-evaluates the
  // bulb.
  rule.when.AndIn("ctx:bulb", {"normal", "suspicious"});
  rule.device = bulb->id();
  rule.posture = unlaunchable;
  rule.priority = 1;
  // Same config text, but nothing to divert: needs no µmbox.
  policy::PolicyRule untunneled = rule;
  untunneled.name = "untunneled";
  untunneled.when = {};
  untunneled.when.AndIn("ctx:bulb", {"unpatched"});
  untunneled.posture.profile = "untunneled";
  untunneled.posture.tunnel = false;
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  policy.Add(rule);
  policy.Add(untunneled);
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  learn::CrowdRepo repo;
  dep.controller().AttachCrowdRepo(&repo);
  dep.Start();
  dep.RunFor(100 * kMillisecond);

  auto& ctl = dep.controller();
  const auto& stats = ctl.stats();
  ASSERT_EQ(stats.enforcement_failures, 1u);
  EXPECT_FALSE(ctl.UmboxOf(bulb->id()).has_value());
  const auto flow_ops = stats.flow_ops;
  const auto posture_changes = stats.posture_changes;
  const auto sweeps = stats.policy_evals;
  // Sweeps with the bulb dirty (its own context) and with it clean (the
  // other bulb's context): nothing changes its config, so nothing retries.
  for (int i = 0; i < 10; ++i) {
    const char* context = i % 2 == 0 ? "suspicious" : "normal";
    ctl.SetDeviceContext("bulb", context);
    ctl.SetDeviceContext("other", context);
    dep.RunFor(50 * kMillisecond);
  }
  EXPECT_GE(stats.policy_evals, sweeps + 10);
  EXPECT_EQ(stats.enforcement_failures, 1u);
  EXPECT_EQ(stats.flow_ops, flow_ops) << "quarantine entries reinstalled";
  EXPECT_EQ(stats.posture_changes, posture_changes);

  // A new posture applies at once and lifts the isolation; coming back
  // fails (and settles) once more.
  ctl.SetDeviceContext("bulb", "compromised");
  dep.RunFor(50 * kMillisecond);
  EXPECT_EQ(ctl.PostureProfileOf(bulb->id()), "trust");
  EXPECT_GT(stats.flow_ops, flow_ops);
  ctl.SetDeviceContext("bulb", "normal");
  dep.RunFor(50 * kMillisecond);
  EXPECT_EQ(stats.enforcement_failures, 2u);

  // A new crowd ruleset for the bulb's SKU changes its config: one more
  // try, then settled again.
  learn::SignatureReport report;
  report.sku = bulb->spec().sku;
  report.rule_text =
      "block udp any any -> any 5009 (msg:\"reboot\"; sid:9400; "
      "iotcmd:reboot; )";
  const auto id = repo.Publish(report).id;
  for (const auto* voter : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
    repo.Vote(id, voter, true);
  }
  dep.RunFor(500 * kMillisecond);
  ASSERT_EQ(dep.rollout()->VersionOf(bulb->id()), 1u);
  EXPECT_EQ(stats.enforcement_failures, 3u);
  ctl.SetDeviceContext("bulb", "suspicious");
  dep.RunFor(50 * kMillisecond);
  EXPECT_EQ(stats.enforcement_failures, 3u);

  // An untunneled posture with the same config text is a new posture
  // too: it applies and lifts the isolation.
  const auto settled_ops = stats.flow_ops;
  ctl.SetDeviceContext("bulb", "unpatched");
  dep.RunFor(50 * kMillisecond);
  EXPECT_EQ(ctl.PostureProfileOf(bulb->id()), "untunneled");
  EXPECT_GT(stats.flow_ops, settled_ops);
  EXPECT_EQ(stats.enforcement_failures, 3u);
}

}  // namespace
}  // namespace iotsec::control
