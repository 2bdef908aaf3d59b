// Automatic recovery: the controller's detect → quarantine → restart /
// failover / give-up state machine, MTTR accounting, and the fail-closed
// invariant while a guard is down.
#include <gtest/gtest.h>

#include "core/iotsec.h"

namespace iotsec {
namespace {

int Probe(core::Deployment& dep, devices::Device* dev,
          SimDuration wait = 2 * kSecond) {
  int status = 0;
  dep.attacker().HttpGet(dev->spec().ip, dev->spec().mac, "/", std::nullopt,
                         [&](const proto::HttpResponse& r) {
                           status = r.status;
                         });
  dep.RunFor(wait);
  return status;
}

std::size_t HostIndexOf(core::Deployment& dep, DeviceId device) {
  const auto umbox = dep.controller().UmboxOf(device);
  EXPECT_TRUE(umbox.has_value());
  dataplane::UmboxHost* host = dep.cluster().HostOf(*umbox);
  EXPECT_NE(host, nullptr);
  const auto& hosts = dep.cluster().hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i] == host) return i;
  }
  ADD_FAILURE() << "host not in cluster";
  return 0;
}

TEST(RecoveryTest, UmboxCrashRestartsInPlace) {
  core::Deployment dep;
  auto* cam = dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);

  // Healthy guard: monitored traffic flows.
  EXPECT_EQ(Probe(dep, cam), 200);
  const auto umbox_before = dep.controller().UmboxOf(cam->id());
  ASSERT_TRUE(umbox_before.has_value());

  // Kill the guard. Until replacement is ready, the device must be dark
  // (first the crashed box eats the tunnel traffic, then the quarantine
  // drop rules take over) — no packet reaches it unfiltered.
  dep.chaos().CrashUmboxOf(dep.sim().Now() + kMillisecond, cam->id());
  dep.RunFor(10 * kMillisecond);
  EXPECT_EQ(Probe(dep, cam, 50 * kMillisecond), 0)
      << "pre-detection: tunnel to a crashed box must blackhole";

  // Detection + backoff + micro-VM boot comfortably fit in 2s.
  dep.RunFor(2 * kSecond);
  const auto& stats = dep.controller().stats();
  EXPECT_EQ(stats.detected_failures, 1u);
  EXPECT_EQ(stats.recovery_restarts, 1u);
  EXPECT_EQ(stats.recovery_failovers, 0u);
  EXPECT_EQ(stats.recovery_give_ups, 0u);
  EXPECT_EQ(stats.mttr_samples, 1u);
  EXPECT_GT(stats.MeanMttrMs(), 0.0);
  EXPECT_FALSE(dep.controller().Recovering(cam->id()));

  // Same instance, restarted in place, enforcing again.
  EXPECT_EQ(dep.controller().UmboxOf(cam->id()), umbox_before);
  EXPECT_EQ(Probe(dep, cam), 200);

  // The outage left an audit trail.
  EXPECT_FALSE(
      dep.controller().audit().Of(control::AuditCategory::kRecovery).empty());
}

TEST(RecoveryTest, HostCrashFailsOverToSurvivor) {
  core::DeploymentOptions opts;
  opts.cluster_hosts = 2;
  core::Deployment dep(opts);
  auto* cam = dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  ASSERT_EQ(Probe(dep, cam), 200);

  const std::size_t victim = HostIndexOf(dep, cam->id());
  dep.chaos().CrashHost(dep.sim().Now() + kMillisecond, victim);
  dep.RunFor(3 * kSecond);

  const auto& stats = dep.controller().stats();
  EXPECT_EQ(stats.host_failures, 1u);
  EXPECT_EQ(stats.detected_failures, 1u);
  EXPECT_EQ(stats.recovery_failovers, 1u);
  EXPECT_EQ(stats.recovery_restarts, 0u);

  // The replacement lives on the surviving host.
  const auto umbox = dep.controller().UmboxOf(cam->id());
  ASSERT_TRUE(umbox.has_value());
  dataplane::UmboxHost* now_on = dep.cluster().HostOf(*umbox);
  ASSERT_NE(now_on, nullptr);
  EXPECT_NE(now_on, dep.cluster().hosts()[victim]);
  EXPECT_EQ(dep.cluster().AliveHosts(), 1);
  EXPECT_EQ(Probe(dep, cam), 200);
}

TEST(RecoveryTest, GivesUpWhenNoHostSurvives) {
  core::DeploymentOptions opts;
  opts.cluster_hosts = 1;
  opts.controller.max_restart_attempts = 2;
  core::Deployment dep(opts);
  auto* cam = dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  ASSERT_EQ(Probe(dep, cam), 200);

  dep.chaos().CrashHost(dep.sim().Now() + kMillisecond, 0);
  dep.RunFor(30 * kSecond);  // detection + both backoffs + give-up

  const auto& stats = dep.controller().stats();
  EXPECT_EQ(stats.detected_failures, 1u);
  EXPECT_EQ(stats.recovery_give_ups, 1u);
  EXPECT_EQ(stats.recovery_restarts + stats.recovery_failovers, 0u);
  EXPECT_FALSE(dep.controller().Recovering(cam->id()));
  EXPECT_FALSE(dep.controller().UmboxOf(cam->id()).has_value());

  // Abandoned but fail-closed: the device stays dark, not wide open.
  EXPECT_EQ(Probe(dep, cam), 0);
}

TEST(RecoveryTest, BackoffIsDeterministicPerSeed) {
  // Two identical runs, same recovery seed: identical recovery outcomes
  // and identical MTTR (jitter comes from a seeded stream).
  auto run = [](std::uint64_t seed) {
    core::DeploymentOptions opts;
    opts.controller.recovery_seed = seed;
    core::Deployment dep(opts);
    auto* cam = dep.AddCamera("cam");
    policy::FsmPolicy policy;
    policy.SetDefault(core::MonitorPosture());
    dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
    dep.Start();
    dep.RunFor(kSecond);
    dep.chaos().CrashUmboxOf(dep.sim().Now() + kMillisecond, cam->id());
    dep.RunFor(5 * kSecond);
    return dep.controller().stats().mttr_total;
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(1234);
  EXPECT_GT(a, 0u);
  EXPECT_EQ(a, b);
  // Different seed jitters differently (overwhelmingly likely).
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace iotsec
