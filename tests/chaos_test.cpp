// Chaos soak: a deployment under a randomized fault plan (µmbox crashes,
// a host kill, link flaps, control-channel degradation) must (a) never
// let an attacker packet through while any guard is down — the paper's
// enforcement promise cannot have outage-shaped holes — and (b) converge
// back to full enforcement with every detected failure accounted for:
//   detected_failures == restarts + failovers + give_ups.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/iotsec.h"

namespace iotsec {
namespace {

/// Deny the attacker's address, allow everything else. With this posture
/// a probe from the attacker gets zero replies while the guard is up
/// (filtered) AND while it is down (crashed box / quarantine drop rules),
/// so "any 200 ever" is exactly an invariant violation.
policy::Posture AclGuardPosture(net::Ipv4Address attacker_ip) {
  policy::Posture p;
  p.profile = "acl_guard";
  p.umbox_config = "acl :: IpFilter(deny=" + attacker_ip.ToString() +
                   "/32, default=allow)\n";
  return p;
}

TEST(ChaosTest, SoakConvergesWithFailClosedInvariant) {
  core::DeploymentOptions opts;
  opts.cluster_hosts = 3;
  core::Deployment dep(opts);

  std::vector<devices::Camera*> cams;
  for (int i = 0; i < 6; ++i) {
    cams.push_back(dep.AddCamera("cam" + std::to_string(i)));
  }
  policy::FsmPolicy policy;
  policy.SetDefault(AclGuardPosture(dep.attacker().ip()));
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(2 * kSecond);
  for (auto* cam : cams) {
    ASSERT_TRUE(dep.controller().UmboxOf(cam->id()).has_value());
  }

  // Randomized fault plan plus one scripted mid-soak host kill.
  fault::PlanConfig cfg;
  cfg.start = dep.sim().Now();
  cfg.horizon = 30 * kSecond;
  cfg.umbox_crash_rate_hz = 0.5;
  cfg.link_flap_rate_hz = 0.1;
  cfg.control_degrade_rate_hz = 0.05;
  for (auto* cam : cams) cfg.devices.push_back(cam->id());
  cfg.links = dep.chaos().LinkCount();
  const auto plan = dep.chaos().BuildPlan(cfg);
  ASSERT_FALSE(plan.empty());
  dep.chaos().Schedule(plan);
  dep.chaos().CrashHost(cfg.start + 10 * kSecond, 1);

  // Continuous attack pressure: probe a rotating target every 250ms.
  // The invariant is checked at every instant of the soak, not just at
  // the end — any reply at all is a hole in enforcement.
  int violations = 0;
  std::uint64_t probes = 0;
  std::size_t next = 0;
  dep.sim().Every(250 * kMillisecond, [&] {
    auto* cam = cams[next++ % cams.size()];
    ++probes;
    dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/",
                           std::nullopt, [&](const proto::HttpResponse& r) {
                             if (r.status == 200) ++violations;
                           });
  });

  // Soak, then settle long enough for every recovery chain to finish.
  dep.RunFor(cfg.horizon + 15 * kSecond);

  EXPECT_EQ(violations, 0)
      << "an attacker packet got through while a guard was down";
  EXPECT_GT(probes, 100u);

  // Faults actually happened.
  const auto& chaos = dep.chaos().stats();
  EXPECT_GE(chaos.umbox_crashes, 1u);
  EXPECT_EQ(chaos.host_crashes, 1u);

  // Positive control: the guards really were on the datapath (device
  // telemetry flows through them), so "no replies" is enforcement, not
  // a dead harness.
  std::uint64_t processed = 0;
  for (const auto* host : dep.cluster().hosts()) {
    processed += host->AggregatedUmboxStats().processed;
  }
  EXPECT_GT(processed, 0u);

  // Accounting: every detected failure reached exactly one terminal.
  const auto& stats = dep.controller().stats();
  EXPECT_GE(stats.detected_failures, 1u);
  EXPECT_GE(stats.host_failures, 1u);
  EXPECT_EQ(stats.detected_failures, stats.recovery_restarts +
                                         stats.recovery_failovers +
                                         stats.recovery_give_ups);

  // Convergence: with two surviving hosts nothing is abandoned; every
  // device ends the soak guarded by a running µmbox.
  EXPECT_EQ(stats.recovery_give_ups, 0u);
  EXPECT_EQ(dep.cluster().AliveHosts(), 2);
  for (auto* cam : cams) {
    EXPECT_FALSE(dep.controller().Recovering(cam->id()));
    const auto umbox = dep.controller().UmboxOf(cam->id());
    ASSERT_TRUE(umbox.has_value()) << cam->spec().name;
    dataplane::Umbox* box = dep.cluster().Find(*umbox);
    ASSERT_NE(box, nullptr) << cam->spec().name;
    EXPECT_EQ(box->state(), dataplane::UmboxState::kRunning);
  }
  EXPECT_GT(stats.mttr_samples, 0u);
  EXPECT_GT(stats.MeanMttrMs(), 0.0);
}

TEST(ChaosTest, SoakIsReproducibleBitForBit) {
  // The same chaos seed must produce the same fault plan and the same
  // end-of-run accounting — replayability is what makes chaos results
  // debuggable.
  auto run = [](std::uint64_t seed) {
    core::DeploymentOptions opts;
    opts.cluster_hosts = 2;
    opts.chaos_seed = seed;
    core::Deployment dep(opts);
    auto* cam = dep.AddCamera("cam");
    policy::FsmPolicy policy;
    policy.SetDefault(AclGuardPosture(dep.attacker().ip()));
    dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
    dep.Start();
    dep.RunFor(kSecond);

    fault::PlanConfig cfg;
    cfg.start = dep.sim().Now();
    cfg.horizon = 20 * kSecond;
    cfg.umbox_crash_rate_hz = 0.4;
    cfg.devices = {cam->id()};
    std::string fingerprint;
    for (const auto& ev : dep.chaos().BuildPlan(cfg)) {
      fingerprint += ev.ToString();
      fingerprint += '\n';
    }
    dep.chaos().Schedule(dep.chaos().BuildPlan(cfg));
    dep.RunFor(cfg.horizon + 10 * kSecond);
    const auto& s = dep.controller().stats();
    fingerprint += "detected=" + std::to_string(s.detected_failures) +
                   " restarts=" + std::to_string(s.recovery_restarts) +
                   " mttr=" + std::to_string(s.mttr_total);
    return fingerprint;
  };
  const auto a = run(99);
  const auto b = run(99);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, run(100));
}

}  // namespace
}  // namespace iotsec
