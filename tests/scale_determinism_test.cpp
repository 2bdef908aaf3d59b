// Cross-shard determinism: the whole point of the lockstep-quantum
// engine is that shard count is a *performance* knob, never a
// *behavior* knob. These tests run identical scenarios at 1, 2 and 8
// shards — including under a randomized fault plan — and require
// bit-identical digests of everything observable: the flight-recorder
// timeline, environment end-state, aggregate link counters, and (for
// the fleet) every delivered frame's bytes and delivery time.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/iotsec.h"
#include "core/postures.h"
#include "core/sharded_fleet.h"
#include "obs/obs.h"

namespace iotsec {
namespace {

/// Order-independent fold of the global flight-recorder timeline:
/// (sim_time, type, a, b) per event, seq and thread id excluded — those
/// encode which worker recorded first, which legitimately varies with
/// shard count while the simulated facts may not.
std::uint64_t RecorderDigest() {
  std::uint64_t digest = 0;
  for (const auto& ev : obs::FlightRecorder::Global().Dump()) {
    std::uint64_t h =
        hash::MixPair(ev.sim_time, static_cast<std::uint64_t>(ev.type));
    h = hash::MixPair(h, (static_cast<std::uint64_t>(ev.a) << 32) ^ ev.b);
    digest += h;
  }
  return digest;
}

struct ScenarioResult {
  std::uint64_t digest = 0;
  int violations = 0;
  std::uint64_t probes = 0;
};

/// A deployment soak with device diversity, attack pressure and a
/// randomized (but seed-fixed) fault plan. Everything observable is
/// folded into one digest.
ScenarioResult RunScenario(int shards, bool threads) {
  obs::FlightRecorder::Global().Clear();

  core::DeploymentOptions opts;
  opts.shards = shards;
  opts.shard_threads = threads;
  opts.cluster_hosts = 2;
  core::Deployment dep(opts);

  std::vector<devices::Camera*> cams;
  for (int i = 0; i < 4; ++i) {
    cams.push_back(dep.AddCamera("cam" + std::to_string(i)));
  }
  dep.AddSmartPlug("plug0", "plug0_power");
  dep.AddThermostat("thermo0");
  dep.AddMotionSensor("motion0");
  dep.AddLightBulb("bulb0");

  policy::Posture posture;
  posture.profile = "acl_guard";
  posture.umbox_config = "acl :: IpFilter(deny=" +
                         dep.attacker().ip().ToString() +
                         "/32, default=allow)\n";
  policy::FsmPolicy policy;
  policy.SetDefault(posture);
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(2 * kSecond);

  // Seed-fixed fault plan: µmbox crashes, link flaps, control-channel
  // degradation, plus one scripted host kill.
  fault::PlanConfig cfg;
  cfg.start = dep.Now();
  cfg.horizon = 6 * kSecond;
  cfg.umbox_crash_rate_hz = 0.4;
  cfg.link_flap_rate_hz = 0.2;
  cfg.control_degrade_rate_hz = 0.05;
  for (auto* cam : cams) cfg.devices.push_back(cam->id());
  cfg.links = dep.chaos().LinkCount();
  dep.chaos().Schedule(dep.chaos().BuildPlan(cfg));
  dep.chaos().CrashHost(cfg.start + 3 * kSecond, 1);

  // Attack pressure against a rotating target (shard 0's clock).
  ScenarioResult result;
  std::size_t next = 0;
  auto probe_ticker = dep.sim().Every(500 * kMillisecond, [&] {
    auto* cam = cams[next++ % cams.size()];
    ++result.probes;
    dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                           [&](const proto::HttpResponse& r) {
                             if (r.status == 200) ++result.violations;
                           });
  });

  dep.RunFor(cfg.horizon + 5 * kSecond);
  probe_ticker.Cancel();

  // Digest: recorder timeline + environment end-state + link totals.
  std::uint64_t digest = RecorderDigest();
  for (const auto& [name, level] : dep.environment().SnapshotLevels()) {
    digest = hash::MixPair(
        digest, hash::MixPair(hash::Fnv1a(name),
                              static_cast<std::uint64_t>(level)));
  }
  const auto net = dep.AggregateLinkStats();
  digest = hash::MixPair(digest, net.packets);
  digest = hash::MixPair(digest, net.bytes);
  digest = hash::MixPair(digest, net.queue_drops);
  digest = hash::MixPair(digest, net.lost);
  digest = hash::MixPair(digest, static_cast<std::uint64_t>(result.violations));
  result.digest = digest;
  return result;
}

TEST(ScaleDeterminismTest, DeploymentDigestInvariantAcrossShardCounts) {
  const ScenarioResult ref = RunScenario(/*shards=*/1, /*threads=*/true);
  EXPECT_GT(ref.probes, 15u);
  EXPECT_EQ(ref.violations, 0);

  for (const int shards : {2, 8}) {
    const ScenarioResult got = RunScenario(shards, /*threads=*/true);
    EXPECT_EQ(got.digest, ref.digest) << "shards=" << shards;
    EXPECT_EQ(got.violations, ref.violations) << "shards=" << shards;
    EXPECT_EQ(got.probes, ref.probes) << "shards=" << shards;
  }
}

TEST(ScaleDeterminismTest, ThreadedMatchesInlineAtDeploymentLevel) {
  const ScenarioResult threaded = RunScenario(/*shards=*/2, /*threads=*/true);
  const ScenarioResult inline_run =
      RunScenario(/*shards=*/2, /*threads=*/false);
  EXPECT_EQ(threaded.digest, inline_run.digest);
}

/// Guarded HTTP: every device sits behind the Monitor posture, so each
/// GET and its reply cross the tunnel (pooled encap/decap buffers), the
/// µmbox chain and the signature matcher (in-place HTTP views), on
/// threaded shards. Bare, ~1.4 kB and unauthenticated "/admin" GETs
/// rotate over the fleet; every reply, the recorder timeline (DPI alerts
/// included) and the link totals fold into the digest.
struct GuardedRun {
  std::uint64_t digest = 0;
  std::uint64_t answered = 0;
  std::uint64_t tunneled = 0;
  std::uint64_t alerts = 0;
};

GuardedRun RunGuardedHttp(int shards) {
  obs::FlightRecorder::Global().Clear();
  core::DeploymentOptions opts;
  opts.shards = shards;
  opts.shard_threads = true;
  opts.cluster_hosts = 2;
  core::Deployment dep(opts);
  std::vector<devices::Device*> devs;
  for (int i = 0; i < 3; ++i) {
    devs.push_back(dep.AddCamera("cam" + std::to_string(i)));
  }
  devs.push_back(dep.AddSmartPlug("plug0", "plug0_power"));
  devs.push_back(dep.AddThermostat("thermo0"));
  devs.push_back(dep.AddMotionSensor("motion0"));
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(2 * kSecond);

  std::string pad = "/?pad=";
  for (int i = 0; i < 1311; ++i) {
    pad += "abcdefghijklmnopqrstuvwxyz0123456789"[(i * 7) % 36];
  }
  const std::string paths[] = {"/", pad, "/admin"};
  std::uint64_t replies = 0;
  std::uint64_t digest = 0;
  std::size_t sent = 0;
  auto ticker = dep.sim().Every(10 * kMillisecond, [&] {
    const devices::DeviceSpec& spec = devs[sent % devs.size()]->spec();
    const std::string& path = paths[(sent / devs.size()) % 3];
    ++sent;
    dep.attacker().HttpGet(spec.ip, spec.mac, path, std::nullopt,
                           [&](const proto::HttpResponse& r) {
                             ++replies;
                             digest += hash::MixPair(
                                 static_cast<std::uint64_t>(r.status),
                                 hash::Fnv1a(r.body));
                           });
  });
  dep.RunFor(4 * kSecond);
  ticker.Cancel();
  dep.RunFor(1 * kSecond);

  digest = hash::MixPair(digest, RecorderDigest());
  const auto net = dep.AggregateLinkStats();
  digest = hash::MixPair(digest, net.packets);
  digest = hash::MixPair(digest, net.bytes);
  digest = hash::MixPair(digest, net.queue_drops);
  digest = hash::MixPair(digest, net.lost);
  digest = hash::MixPair(digest, replies);
  digest = hash::MixPair(digest, sent);
  GuardedRun run;
  run.digest = digest;
  run.answered = replies;
  run.tunneled = dep.edge().stats().tunneled;
  run.alerts = dep.controller().stats().alerts;
  return run;
}

TEST(ScaleDeterminismTest, GuardedHttpDigestInvariantAcrossShardCounts) {
  const GuardedRun ref = RunGuardedHttp(/*shards=*/1);
  EXPECT_GT(ref.answered, 300u);
  EXPECT_GE(ref.tunneled, 2 * ref.answered);  // request and reply diverted
  EXPECT_GT(ref.alerts, 0u);                  // sid 1002 on "/admin"
  for (const int shards : {2, 8}) {
    const GuardedRun got = RunGuardedHttp(shards);
    EXPECT_EQ(got.digest, ref.digest) << "shards=" << shards;
    EXPECT_EQ(got.answered, ref.answered) << "shards=" << shards;
    EXPECT_EQ(got.alerts, ref.alerts) << "shards=" << shards;
  }
}

TEST(ScaleDeterminismTest, FleetDigestInvariantAcrossShardCounts) {
  std::uint64_t ref_digest = 0;
  std::uint64_t ref_delivered = 0;
  for (const int shards : {1, 2, 4, 8}) {
    core::FleetOptions opt;
    opt.devices = 2000;
    opt.shards = shards;
    opt.packets_per_device = 3;
    core::ShardedFleet fleet(opt);
    const core::FleetResult r = fleet.Run();
    EXPECT_EQ(r.late_posts, 0u) << "shards=" << shards;
    EXPECT_GT(r.delivered, 0u);
    EXPECT_EQ(r.processed, r.injected) << "shards=" << shards;
    if (shards == 1) {
      ref_digest = r.digest;
      ref_delivered = r.delivered;
      continue;
    }
    EXPECT_EQ(r.digest, ref_digest) << "shards=" << shards;
    EXPECT_EQ(r.delivered, ref_delivered) << "shards=" << shards;
    EXPECT_GT(r.cross_shard_events, 0u) << "shards=" << shards;
  }
}

TEST(ScaleDeterminismTest, FleetThreadsOffMatchesThreadsOn) {
  core::FleetOptions opt;
  opt.devices = 1000;
  opt.shards = 4;
  opt.packets_per_device = 2;
  std::uint64_t digests[2];
  for (const bool threads : {true, false}) {
    opt.threads = threads;
    core::ShardedFleet fleet(opt);
    digests[threads ? 0 : 1] = fleet.Run().digest;
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace iotsec
