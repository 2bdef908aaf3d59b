// Overload soak: admission control under sustained pressure.
//
// Three contracts from the overload-control design:
//   1. Fail closed, never open — under 2x offered load plus a fault
//      plan, an enforcing deployment still never lets attacker traffic
//      through (shedding degrades service, not security).
//   2. Brownout recovery is monotonic: pressure release walks the level
//      back down one step at a time, and shed launches are retried.
//   3. Decisions are deterministic: the admission decision digest is
//      bit-identical across {1, 2, 8} shards for the same scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/iotsec.h"
#include "obs/obs.h"

namespace iotsec {
namespace {

/// (from, to) admission level transitions, in recorder order.
std::vector<std::pair<int, int>> LevelTransitions() {
  std::vector<std::pair<int, int>> out;
  for (const auto& ev : obs::FlightRecorder::Global().Dump()) {
    if (ev.type != obs::TraceEventType::kAdmissionTransition) continue;
    out.emplace_back(static_cast<int>(ev.a >> 8),
                     static_cast<int>(ev.a & 0xff));
  }
  return out;
}

policy::Posture AclGuard(core::Deployment& dep) {
  policy::Posture posture;
  posture.profile = "acl_guard";
  posture.umbox_config = "acl :: IpFilter(deny=" +
                         dep.attacker().ip().ToString() +
                         "/32, default=allow)\n";
  return posture;
}

struct OverloadResult {
  std::uint64_t digest = 0;
  std::uint64_t samples = 0;
  std::uint64_t transitions = 0;
  std::uint64_t deferred_restarts = 0;
  std::uint64_t backpressure_drops = 0;
  std::uint64_t pool_exhausted = 0;
  std::uint64_t probes = 0;
  int violations = 0;
  std::vector<std::pair<int, int>> levels;
};

/// A saturated cluster (8 µmbox-hungry devices on 6 slots) under attack
/// probes and a seed-fixed fault plan, with admission enforcing.
OverloadResult RunOverload(int shards) {
  obs::FlightRecorder::Global().Clear();

  core::DeploymentOptions opts;
  opts.shards = shards;
  opts.cluster_hosts = 2;
  opts.host_capacity = 3;  // 6 slots < 8 devices: permanent saturation
  opts.admission.mode = control::AdmissionMode::kEnforce;
  opts.admission.pool_capacity = 4096;
  core::Deployment dep(opts);

  std::vector<devices::Camera*> cams;
  for (int i = 0; i < 4; ++i) {
    cams.push_back(dep.AddCamera("cam" + std::to_string(i)));
  }
  dep.AddSmartPlug("plug0", "plug0_power");
  dep.AddThermostat("thermo0");
  dep.AddMotionSensor("motion0");
  dep.AddLightBulb("bulb0");

  policy::FsmPolicy policy;
  policy.SetDefault(AclGuard(dep));
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(1 * kSecond);

  fault::PlanConfig cfg;
  cfg.start = dep.Now();
  cfg.horizon = 4 * kSecond;
  cfg.umbox_crash_rate_hz = 0.4;
  cfg.link_flap_rate_hz = 0.1;
  for (auto* cam : cams) cfg.devices.push_back(cam->id());
  cfg.links = dep.chaos().LinkCount();
  dep.chaos().Schedule(dep.chaos().BuildPlan(cfg));

  OverloadResult result;
  std::size_t next = 0;
  auto probe_ticker = dep.sim().Every(100 * kMillisecond, [&] {
    auto* cam = cams[next++ % cams.size()];
    ++result.probes;
    dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                           [&](const proto::HttpResponse& r) {
                             if (r.status == 200) ++result.violations;
                           });
  });
  dep.RunFor(cfg.horizon + 3 * kSecond);
  probe_ticker.Cancel();

  const auto* adm = dep.admission();
  result.digest = adm->DecisionDigest();
  result.samples = adm->stats().samples;
  result.transitions = adm->stats().transitions;
  result.deferred_restarts = adm->stats().deferred_restarts;
  result.backpressure_drops = adm->stats().backpressure_drops;
  result.pool_exhausted = adm->stats().pool_exhausted_samples;
  result.levels = LevelTransitions();
  return result;
}

TEST(OverloadTest, FailClosedUnderSaturationAndFaults) {
  const OverloadResult r = RunOverload(/*shards=*/2);
  EXPECT_EQ(r.violations, 0);  // degraded, never breached
  EXPECT_GT(r.probes, 60u);
  EXPECT_GT(r.samples, 100u);
  // The saturated cluster must actually engage the machinery: levels
  // moved, restarts were deferred, ingress was shed.
  EXPECT_GE(r.transitions, 2u);
  EXPECT_GE(r.deferred_restarts, 1u);
  EXPECT_GE(r.backpressure_drops, 1u);
  // Admission keeps the pool inside its budget.
  EXPECT_EQ(r.pool_exhausted, 0u);
  // Every transition walks the ladder one step at a time.
  for (const auto& [from, to] : r.levels) {
    EXPECT_EQ(std::abs(from - to), 1)
        << "level jumped " << from << " -> " << to;
  }
}

TEST(OverloadTest, DecisionTraceBitIdenticalAcrossShardCounts) {
  const OverloadResult ref = RunOverload(/*shards=*/1);
  for (const int shards : {2, 8}) {
    const OverloadResult got = RunOverload(shards);
    EXPECT_EQ(got.digest, ref.digest) << "shards=" << shards;
    EXPECT_EQ(got.samples, ref.samples) << "shards=" << shards;
    EXPECT_EQ(got.transitions, ref.transitions) << "shards=" << shards;
    EXPECT_EQ(got.deferred_restarts, ref.deferred_restarts)
        << "shards=" << shards;
    EXPECT_EQ(got.backpressure_drops, ref.backpressure_drops)
        << "shards=" << shards;
    EXPECT_EQ(got.levels, ref.levels) << "shards=" << shards;
    EXPECT_EQ(got.violations, ref.violations) << "shards=" << shards;
  }
}

TEST(OverloadTest, ShedLaunchQuarantinesThenRetriesWhenPressureDrops) {
  // One shard: the test thread is bound to shard 0's pool, so the
  // packets held below are the pool signal.
  core::DeploymentOptions opts;
  opts.admission.mode = control::AdmissionMode::kEnforce;
  opts.admission.pool_capacity = 200;
  core::Deployment dep(opts);
  auto* cam = dep.AddCamera("cam");

  // Trust by default; a compromise verdict demands an enforcing µmbox.
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  policy::PolicyRule rule;
  rule.name = "compromised-acl";
  rule.when.AndIn("ctx:cam", {"compromised"});
  rule.device = cam->id();
  rule.posture = AclGuard(dep);
  rule.priority = 10;
  policy.Add(rule);
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(100 * kMillisecond);
  ASSERT_EQ(dep.admission()->level(), control::BrownoutLevel::kNormal);

  // Synthetic pool pressure: hold 3x the budget in live packets.
  std::vector<net::PacketPtr> held;
  for (int i = 0; i < 600; ++i) held.push_back(net::MakePacket(Bytes(64)));
  dep.RunFor(100 * kMillisecond);
  ASSERT_GE(dep.admission()->level(), control::BrownoutLevel::kShed);

  // The posture change arrives mid-brownout: the launch is shed and the
  // camera is quarantined instead — fail closed, not fail open.
  dep.controller().SetDeviceContext("cam", "compromised");
  dep.RunFor(100 * kMillisecond);
  EXPECT_GE(dep.admission()->stats().shed_launches, 1u);
  EXPECT_FALSE(dep.controller().UmboxOf(cam->id()).has_value());
  EXPECT_GT(dep.admission()->stats().pool_exhausted_samples, 0u);

  // Pressure release: the level walks back down and the controller
  // re-evaluates the shed device, which now launches.
  held.clear();
  dep.RunFor(1 * kSecond);
  EXPECT_EQ(dep.admission()->level(), control::BrownoutLevel::kNormal);
  EXPECT_TRUE(dep.controller().UmboxOf(cam->id()).has_value());
  EXPECT_EQ(dep.controller().PostureProfileOf(cam->id()), "acl_guard");
}

/// A started one-shard deployment under kEnforce with a 200-packet pool
/// budget: "cam" wants acl_guard once compromised, "cam2" reads its own
/// context and stays on Trust. Both start on Trust.
struct ShedFixture {
  std::unique_ptr<core::Deployment> dep;
  devices::Camera* cam = nullptr;
  std::vector<net::PacketPtr> held;

  ShedFixture() {
    core::DeploymentOptions opts;
    opts.admission.mode = control::AdmissionMode::kEnforce;
    opts.admission.pool_capacity = 200;
    dep = std::make_unique<core::Deployment>(opts);
    cam = dep->AddCamera("cam");
    auto* cam2 = dep->AddCamera("cam2");
    policy::FsmPolicy policy;
    policy.SetDefault(core::TrustPosture());
    policy::PolicyRule rule;
    rule.name = "compromised-acl";
    rule.when.AndIn("ctx:cam", {"compromised"});
    rule.device = cam->id();
    rule.posture = AclGuard(*dep);
    policy.Add(rule);
    policy::PolicyRule watch;
    watch.name = "cam2-suspicious";
    watch.when.AndIn("ctx:cam2", {"suspicious"});
    watch.device = cam2->id();
    watch.posture = core::TrustPosture();
    policy.Add(watch);
    dep->UsePolicy(dep->BuildStateSpace(), std::move(policy));
    dep->Start();
    dep->RunFor(100 * kMillisecond);
  }

  /// Holds 3x the pool budget in live packets until Release().
  void Pressure() {
    for (int i = 0; i < 600; ++i) held.push_back(net::MakePacket(Bytes(64)));
    dep->RunFor(100 * kMillisecond);
  }
  void Release() {
    held.clear();
    dep->RunFor(1 * kSecond);
  }
};

TEST(OverloadTest, ShedLaunchStaysSettledThroughUnrelatedSweeps) {
  ShedFixture f;
  f.Pressure();
  ASSERT_GE(f.dep->admission()->level(), control::BrownoutLevel::kShed);
  auto& ctl = f.dep->controller();
  ctl.SetDeviceContext("cam", "compromised");
  f.dep->RunFor(100 * kMillisecond);
  const auto& admission = f.dep->admission()->stats();
  ASSERT_EQ(admission.shed_launches, 1u);
  EXPECT_EQ(ctl.PostureProfileOf(f.cam->id()), "isolated");

  // Sweeps woken by the other camera alone, still under pressure: the
  // shed launch is not retried.
  const auto flow_ops = ctl.stats().flow_ops;
  const auto sweeps = ctl.stats().policy_evals;
  for (int i = 0; i < 4; ++i) {
    ctl.SetDeviceContext("cam2", i % 2 == 0 ? "suspicious" : "normal");
    f.dep->RunFor(50 * kMillisecond);
  }
  ASSERT_GE(f.dep->admission()->level(), control::BrownoutLevel::kShed);
  EXPECT_GE(ctl.stats().policy_evals, sweeps + 4);
  EXPECT_EQ(admission.shed_launches, 1u);
  EXPECT_EQ(ctl.stats().flow_ops, flow_ops) << "quarantine reinstalled";

  // A level drop is the shed launch's own retry.
  f.Release();
  EXPECT_EQ(f.dep->admission()->level(), control::BrownoutLevel::kNormal);
  EXPECT_TRUE(ctl.UmboxOf(f.cam->id()).has_value());
  EXPECT_EQ(ctl.PostureProfileOf(f.cam->id()), "acl_guard");
}

TEST(OverloadTest, ShedDeviceBackOnTrustAnswersOncePressureDrops) {
  ShedFixture f;
  f.Pressure();
  auto& ctl = f.dep->controller();
  ctl.SetDeviceContext("cam", "compromised");
  f.dep->RunFor(100 * kMillisecond);
  ASSERT_EQ(f.dep->admission()->stats().shed_launches, 1u);

  // Back to Trust, the posture it enforced before the shed launch.
  ctl.SetDeviceContext("cam", "normal");
  f.dep->RunFor(100 * kMillisecond);
  EXPECT_EQ(ctl.PostureProfileOf(f.cam->id()), "trust");

  f.Release();
  EXPECT_EQ(f.dep->admission()->level(), control::BrownoutLevel::kNormal);
  int status = 0;
  f.dep->attacker().HttpGet(f.cam->spec().ip, f.cam->spec().mac, "/",
                            std::nullopt, [&](const proto::HttpResponse& r) {
                              status = r.status;
                            });
  f.dep->RunFor(2 * kSecond);
  EXPECT_EQ(status, 200);
  EXPECT_FALSE(ctl.UmboxOf(f.cam->id()).has_value());
  EXPECT_EQ(f.dep->admission()->stats().shed_launches, 1u);
}

// Admission samples once per sample_period through idle stretches too:
// RunFor ends a run at every sample instant, so the idle-quantum skip
// never jumps one, at any shard count.
TEST(OverloadTest, IdleDeploymentSamplesEveryPeriod) {
  constexpr SimDuration kElapsed = 500 * kMillisecond;
  for (const int shards : {1, 2, 8}) {
    core::DeploymentOptions opts;
    opts.shards = shards;
    opts.admission.mode = control::AdmissionMode::kEnforce;
    opts.admission.sample_period = 10 * kMillisecond;
    core::Deployment dep(opts);
    dep.AddCamera("cam");
    dep.Start();
    dep.RunFor(kElapsed / 2);
    dep.RunFor(kElapsed / 2);
    EXPECT_EQ(dep.admission()->stats().samples,
              kElapsed / opts.admission.sample_period)
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace iotsec
