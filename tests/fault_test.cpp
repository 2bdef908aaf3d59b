// FaultInjector: plan determinism, scripted faults against a live
// deployment, link flaps driving the real loss machinery, and
// control-channel degradation. Plus the HealthMonitor's detection logic
// in isolation.
#include <gtest/gtest.h>

#include "control/health.h"
#include "core/iotsec.h"

namespace iotsec {
namespace {

fault::PlanConfig SoakPlan() {
  fault::PlanConfig cfg;
  cfg.horizon = 30 * kSecond;
  cfg.umbox_crash_rate_hz = 0.5;
  cfg.host_crash_rate_hz = 0.05;
  cfg.link_flap_rate_hz = 0.2;
  cfg.control_degrade_rate_hz = 0.1;
  cfg.devices = {10, 11, 12};
  cfg.hosts = 3;
  cfg.links = 5;
  return cfg;
}

TEST(FaultPlanTest, SameSeedSamePlanBitForBit) {
  sim::Simulator sim;
  fault::FaultInjector a(sim, /*seed=*/42);
  fault::FaultInjector b(sim, /*seed=*/42);
  const auto plan_a = a.BuildPlan(SoakPlan());
  const auto plan_b = b.BuildPlan(SoakPlan());
  ASSERT_FALSE(plan_a.empty());
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].ToString(), plan_b[i].ToString());
  }
  // Sorted by time.
  for (std::size_t i = 1; i < plan_a.size(); ++i) {
    EXPECT_LE(plan_a[i - 1].at, plan_a[i].at);
  }
  // Building twice from the same injector is also stable (const).
  const auto plan_a2 = a.BuildPlan(SoakPlan());
  ASSERT_EQ(plan_a.size(), plan_a2.size());
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].ToString(), plan_a2[i].ToString());
  }
}

TEST(FaultPlanTest, DifferentSeedDifferentPlan) {
  sim::Simulator sim;
  fault::FaultInjector a(sim, 42);
  fault::FaultInjector b(sim, 43);
  const auto plan_a = a.BuildPlan(SoakPlan());
  const auto plan_b = b.BuildPlan(SoakPlan());
  bool differs = plan_a.size() != plan_b.size();
  for (std::size_t i = 0; !differs && i < plan_a.size(); ++i) {
    differs = plan_a[i].ToString() != plan_b[i].ToString();
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, ZeroRatesEmptyPlan) {
  sim::Simulator sim;
  fault::FaultInjector inj(sim, 1);
  fault::PlanConfig cfg;
  cfg.umbox_crash_rate_hz = 0.0;
  EXPECT_TRUE(inj.BuildPlan(cfg).empty());
}

TEST(FaultInjectTest, ScriptedUmboxCrashIsDetectedAndCounted) {
  core::Deployment dep;
  auto* cam = dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  ASSERT_TRUE(dep.controller().UmboxOf(cam->id()).has_value());

  dep.chaos().CrashUmboxOf(2 * kSecond, cam->id());
  dep.RunFor(5 * kSecond);

  EXPECT_EQ(dep.chaos().stats().umbox_crashes, 1u);
  EXPECT_GE(dep.controller().stats().detected_failures, 1u);

  // A fault aimed at a device with no µmbox is skipped, not an error.
  dep.chaos().Inject([] {
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::kUmboxCrash;
    ev.device = 9999;
    return ev;
  }());
  EXPECT_EQ(dep.chaos().stats().skipped, 1u);
}

TEST(FaultInjectTest, LinkFlapDrivesDeploymentLossCounters) {
  core::DeploymentOptions opts;
  opts.with_iotsec = false;
  core::Deployment dep(opts);
  auto* cam = dep.AddCamera("cam");
  dep.Start();
  ASSERT_GT(dep.chaos().LinkCount(), 0u);
  ASSERT_EQ(dep.chaos().LinkCount(), dep.LinkCount());

  // Total loss on every link for a window covering the probe burst.
  for (std::size_t i = 0; i < dep.chaos().LinkCount(); ++i) {
    dep.chaos().FlapLink(kSecond, i, 2 * kSecond, /*loss_rate=*/1.0);
  }
  dep.RunFor(kSecond + 500 * kMillisecond);  // inside the flap window
  int during = 0;
  for (int i = 0; i < 5; ++i) {
    dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                           [&](const proto::HttpResponse& r) {
                             if (r.status == 200) ++during;
                           });
  }
  dep.RunFor(kSecond);  // still inside the window
  EXPECT_EQ(during, 0) << "loss_rate=1.0 must blackhole the probe";
  EXPECT_GT(dep.AggregateLinkStats().lost, 0u)
      << "flap losses must surface in the deployment-level link stats";

  // After the window the base (lossless) rate is restored.
  dep.RunFor(2 * kSecond);
  int after = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                         [&](const proto::HttpResponse& r) {
                           if (r.status == 200) ++after;
                         });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(after, 1) << "flap must heal back to the base loss rate";
  EXPECT_EQ(dep.chaos().stats().link_flaps, dep.chaos().LinkCount());
}

TEST(FaultInjectTest, ControlDegradeDropsHeartbeats) {
  core::Deployment dep;
  dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  const auto base_drops = dep.controller().stats().control_drops;

  // Total control loss for 2s: every heartbeat in the window is dropped.
  dep.chaos().DegradeControl(2 * kSecond, 2 * kSecond, /*drop_rate=*/1.0,
                             /*extra_delay=*/0);
  dep.RunFor(4 * kSecond);
  EXPECT_GT(dep.controller().stats().control_drops, base_drops);
  EXPECT_EQ(dep.chaos().stats().control_degrades, 1u);

  // With the default 300ms detection timeout, a 2s silent window makes
  // the controller declare the (healthy) guard dead — the classic
  // false positive under control-plane partition. It must recover it
  // like any real failure rather than wedge.
  dep.RunFor(10 * kSecond);
  const auto& stats = dep.controller().stats();
  EXPECT_GE(stats.detected_failures, 1u);
  EXPECT_EQ(stats.detected_failures, stats.recovery_restarts +
                                         stats.recovery_failovers +
                                         stats.recovery_give_ups);
}

TEST(HealthMonitorTest, DetectsSilentUmboxExactlyOnce) {
  control::HealthMonitor mon(300 * kMillisecond);
  mon.TrackHost(1, 0);
  mon.TrackUmbox(7, 1, 0);

  // Host keeps reporting but stops listing µmbox 7.
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) {
    t += 100 * kMillisecond;
    mon.OnHeartbeat(1, {}, t);
    auto failures = mon.Check(t);
    EXPECT_TRUE(failures.hosts.empty());
    if (t <= 300 * kMillisecond) {
      EXPECT_TRUE(failures.umboxes.empty()) << "within timeout at t=" << t;
    }
  }
  // By now the failure must have fired exactly once and been untracked.
  EXPECT_EQ(mon.TrackedUmboxes(), 0u);
  auto again = mon.Check(t + kSecond);
  EXPECT_TRUE(again.umboxes.empty()) << "failures fire exactly once";
}

TEST(HealthMonitorTest, SilentHostTakesItsUmboxesWithIt) {
  control::HealthMonitor mon(300 * kMillisecond);
  mon.TrackHost(1, 0);
  mon.TrackUmbox(7, 1, 0);
  mon.TrackUmbox(8, 1, 0);

  auto failures = mon.Check(kSecond);
  ASSERT_EQ(failures.hosts.size(), 1u);
  EXPECT_EQ(failures.hosts[0].host, 1u);
  EXPECT_EQ(failures.hosts[0].umboxes.size(), 2u);
  EXPECT_TRUE(failures.umboxes.empty())
      << "instances lost with their host are not double-reported";

  // A late heartbeat revives the host's record.
  mon.OnHeartbeat(1, {}, 2 * kSecond);
  EXPECT_TRUE(mon.HostAlive(1));
}

}  // namespace
}  // namespace iotsec
