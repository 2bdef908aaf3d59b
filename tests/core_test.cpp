// Tests for the public facade: Deployment building, posture builders,
// state-space construction.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/iotsec.h"

namespace iotsec::core {
namespace {

TEST(PostureBuilderTest, AllPosturesProduceValidGraphs) {
  sim::Simulator sim;
  dataplane::ElementContext ctx;
  ctx.sim = &sim;
  const std::vector<policy::Posture> postures = {
      MonitorPosture(),
      QuarantinePosture(),
      FirewallPosture(net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 24)),
      PasswordProxyPosture(net::Ipv4Address(10, 0, 0, 5), "admin", "pass",
                           "admin", "admin"),
      ContextGatePosture(proto::IotCommand::kTurnOn, "device.cam.state",
                         "person_detected"),
      DnsGuardPosture(net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 24)),
  };
  for (const auto& posture : postures) {
    SCOPED_TRACE(posture.profile);
    std::string error;
    auto graph = dataplane::MboxGraph::Build(posture.umbox_config, ctx, &error);
    EXPECT_NE(graph, nullptr) << error;
    EXPECT_TRUE(posture.tunnel);
  }
  EXPECT_FALSE(TrustPosture().tunnel);
  EXPECT_TRUE(TrustPosture().umbox_config.empty());
}

TEST(DeploymentTest, SpecsAreUniqueAndWellFormed) {
  Deployment dep;
  auto* cam = dep.AddCamera("cam");
  auto* plug = dep.AddSmartPlug("plug", "oven_power");
  auto* bulb = dep.AddLightBulb("bulb");
  EXPECT_NE(cam->spec().ip, plug->spec().ip);
  EXPECT_NE(plug->spec().ip, bulb->spec().ip);
  EXPECT_NE(cam->spec().mac, plug->spec().mac);
  EXPECT_NE(cam->id(), plug->id());
  EXPECT_TRUE(dep.lan_prefix().Contains(cam->spec().ip));
  EXPECT_EQ(cam->spec().hub_ip, dep.controller().hub_ip());
  EXPECT_EQ(dep.registry().Count(), 3u);
  EXPECT_EQ(dep.Find("plug"), plug);
  EXPECT_EQ(dep.Find("nope"), nullptr);
}

TEST(DeploymentTest, RejectsFewerThanOneShard) {
  for (const int shards : {0, -1}) {
    DeploymentOptions opts;
    opts.shards = shards;
    EXPECT_THROW(Deployment{opts}, std::invalid_argument)
        << "shards=" << shards;
  }
  Deployment dep;  // the default engine is one shard
  ASSERT_NE(dep.shard_set(), nullptr);
  EXPECT_EQ(dep.shard_set()->shard_count(), 1);
}

TEST(DeploymentTest, LinkTotalsAreReadBetweenRuns) {
  Deployment dep;
  auto* cam = dep.AddCamera("cam");
  dep.Start();
  int status = 0;
  dep.attacker().HttpGet(
      cam->spec().ip, cam->spec().mac, "/", std::nullopt,
      [&](const proto::HttpResponse& r) { status = r.status; });
  bool threw = false;
  dep.sim().After(kMillisecond, [&] {
    try {
      (void)dep.AggregateLinkStats();
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  dep.RunFor(kSecond);
  EXPECT_TRUE(threw) << "mid-quantum link counters belong to the shards";
  EXPECT_NE(status, 0);
  EXPECT_GT(dep.AggregateLinkStats().packets, 0u);
}

// Deployments sharing a thread each draw packets from their own pool,
// whichever was built last, and either may be destroyed first while the
// other still has packets in flight.
TEST(DeploymentTest, DeploymentsOnOneThreadKeepTheirOwnPools) {
  auto a = std::make_unique<Deployment>();
  net::PacketPool* const pool_a = &net::PacketPool::Current();
  auto b = std::make_unique<Deployment>();
  net::PacketPool* const pool_b = &net::PacketPool::Current();
  ASSERT_NE(pool_a, pool_b);
  int answered = 0;
  for (auto [dep, pool] : {std::pair{a.get(), pool_a}, {b.get(), pool_b}}) {
    auto* cam = dep->AddCamera("cam");
    dep->Start();
    dep->sim().Every(10 * kMillisecond, [dep, cam, pool, &answered] {
      EXPECT_EQ(&net::PacketPool::Current(), pool);
      dep->attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/",
                              std::nullopt,
                              [&answered](const proto::HttpResponse&) {
                                ++answered;
                              });
    });
  }
  // Runs end mid-exchange, so each deployment holds packets between runs.
  for (int i = 0; i < 5; ++i) {
    a->RunFor(25 * kMillisecond + 3);
    b->RunFor(25 * kMillisecond + 3);
  }
  EXPECT_GT(answered, 0);
  b.reset();  // the later deployment first
  const int before = answered;
  a->RunFor(50 * kMillisecond);
  EXPECT_GT(answered, before);
  a.reset();
}

TEST(DeploymentTest, AddressesStayUniqueAndExhaustionThrows) {
  Deployment dep;
  // Move the hub into the range devices are handed: it must be skipped.
  const net::Ipv4Address hub(10, 0, 1, 7);
  dep.controller().SetHubAddress(dep.controller().hub_mac(), hub);
  std::set<std::uint32_t> seen;
  std::vector<net::Ipv4Address> ips;
  for (int i = 0; i < 300; ++i) {
    const std::string name = "dev" + std::to_string(i);
    devices::Device* device = i % 2 == 0 ? static_cast<devices::Device*>(
                                               dep.AddCamera(name))
                                         : dep.AddLightBulb(name);
    const net::Ipv4Address ip = device->spec().ip;
    EXPECT_TRUE(dep.lan_prefix().Contains(ip)) << ip.ToString();
    EXPECT_NE(ip, hub);
    EXPECT_NE(ip, dep.attacker().ip());
    EXPECT_TRUE(seen.insert(ip.value()).second) << ip.ToString();
    ips.push_back(ip);
  }
  // Devices #1-#190 keep the addresses the /24 allocator gave them; #191
  // steps over the attacker.
  EXPECT_EQ(ips[0], net::Ipv4Address(10, 0, 0, 10));
  EXPECT_EQ(ips[189], net::Ipv4Address(10, 0, 0, 199));
  EXPECT_EQ(ips[190], net::Ipv4Address(10, 0, 0, 201));
  EXPECT_EQ(ips[299], net::Ipv4Address(10, 0, 1, 55));

  // The /16 holds 65 525 offsets from .10 up to the broadcast address;
  // the attacker's and the hub's are skipped.
  std::size_t handed = seen.size();
  EXPECT_THROW(
      {
        for (;;) {
          dep.MakeSpec("spare", devices::DeviceClass::kLightBulb);
          ++handed;
        }
      },
      std::length_error);
  EXPECT_EQ(handed, 65525u - 2u);
  EXPECT_THROW(dep.MakeSpec("late", devices::DeviceClass::kLightBulb),
               std::length_error);
}

TEST(DeploymentTest, BuildStateSpaceCoversDevicesAndEnv) {
  Deployment dep;
  dep.AddCamera("cam");
  dep.AddFireAlarm("protect");
  const auto space = dep.BuildStateSpace();
  // 2 devices x (ctx + state) + 8 env vars.
  EXPECT_EQ(space.DimensionCount(), 2 * 2 + 8u);
  EXPECT_TRUE(space.IndexOf("ctx:cam").has_value());
  EXPECT_TRUE(space.IndexOf("dev:protect").has_value());
  EXPECT_TRUE(space.IndexOf("env:smoke").has_value());
  // Device state dims carry the class's model states.
  const auto dev_cam = space.IndexOf("dev:cam");
  ASSERT_TRUE(dev_cam.has_value());
  const auto& dim = space.Dim(*dev_cam);
  EXPECT_NE(std::find(dim.values.begin(), dim.values.end(),
                      "person_detected"),
            dim.values.end());
}

TEST(DeploymentTest, TelemetryFlowsWithoutPolicy) {
  // Even with an empty policy (all defaults), devices report state and
  // the controller's view converges.
  Deployment dep;
  dep.AddSmartPlug("plug", "oven_power");
  policy::FsmPolicy policy;
  policy.SetDefault(TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.controller().view().DeviceState("plug").value_or(""), "off");

  dep.Find("plug")->Actuate(proto::IotCommand::kTurnOn);
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.controller().view().DeviceState("plug").value_or(""), "on");
}

TEST(DeploymentTest, TrustPostureLeavesTrafficDirect) {
  Deployment dep;
  auto* cam = dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  EXPECT_FALSE(dep.controller().UmboxOf(cam->id()).has_value());
  int status = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                         [&](const proto::HttpResponse& r) {
                           status = r.status;
                         });
  dep.RunFor(kSecond);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(dep.edge().stats().tunneled, 0u);
}

TEST(DeploymentTest, WanAttackerGetsGateway) {
  DeploymentOptions opts;
  opts.wan_attacker = true;
  Deployment dep(opts);
  EXPECT_NE(dep.gateway(), nullptr);
  DeploymentOptions lan;
  Deployment dep2(lan);
  EXPECT_EQ(dep2.gateway(), nullptr);
}

TEST(DeploymentTest, MultipleClusterHostsBalanceUmboxes) {
  DeploymentOptions opts;
  opts.cluster_hosts = 2;
  opts.host_capacity = 4;
  Deployment dep(opts);
  for (int i = 0; i < 6; ++i) {
    dep.AddLightBulb("bulb" + std::to_string(i));
  }
  policy::FsmPolicy policy;
  policy.SetDefault(MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.cluster().TotalLoad(), 6);
  // Least-loaded placement splits 3/3.
  EXPECT_EQ(dep.cluster().hosts()[0]->load(), 3);
  EXPECT_EQ(dep.cluster().hosts()[1]->load(), 3);
}

// Admission control is always there: a default deployment monitors it
// (samples and levels) but never acts on a launch, a restart or a frame,
// and installs no ingress gate.
TEST(DeploymentTest, DefaultAdmissionMonitorsAndNeverActs) {
  constexpr SimDuration kElapsed = 500 * kMillisecond;
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    DeploymentOptions opts;
    opts.shards = shards;
    opts.host_capacity = 4;  // 3 µmboxes on 4 slots: 750‰ cluster load
    Deployment dep(opts);
    std::vector<devices::Camera*> cams;
    for (int i = 0; i < 4; ++i) {
      cams.push_back(dep.AddCamera("cam" + std::to_string(i)));
    }
    // Monitor for everyone; the last camera is trusted until compromised.
    policy::FsmPolicy policy;
    policy.SetDefault(MonitorPosture());
    policy::PolicyRule rule;
    rule.name = "cam3-trusted";
    rule.when.AndIn("ctx:cam3", {"normal"});
    rule.device = cams[3]->id();
    rule.posture = TrustPosture();
    rule.priority = 10;
    policy.Add(rule);
    dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
    dep.Start();

    const control::AdmissionController* admission = dep.admission();
    ASSERT_NE(admission, nullptr);
    EXPECT_EQ(admission->config().mode, control::AdmissionMode::kMonitor);
    EXPECT_FALSE(dep.edge().has_ingress_gate());

    dep.RunFor(kElapsed / 2);
    ASSERT_FALSE(dep.controller().UmboxOf(cams[3]->id()).has_value());
    // The level follows the load: an enforcing controller would shed the
    // next launch here.
    EXPECT_GE(admission->level(), control::BrownoutLevel::kShed);

    dep.controller().SetDeviceContext("cam3", "compromised");
    dep.RunFor(kElapsed / 2);
    EXPECT_TRUE(dep.controller().UmboxOf(cams[3]->id()).has_value());
    EXPECT_EQ(dep.controller().PostureProfileOf(cams[3]->id()),
              MonitorPosture().profile);

    const auto& stats = admission->stats();
    EXPECT_EQ(stats.samples, kElapsed / opts.admission.sample_period);
    EXPECT_GT(stats.transitions, 0u);
    EXPECT_EQ(stats.shed_launches, 0u);
    EXPECT_EQ(stats.deferred_restarts, 0u);
    EXPECT_EQ(stats.backpressure_drops, 0u);
    EXPECT_NE(admission->DecisionDigest(), 0u)
        << "transitions fold into the digest";
    EXPECT_EQ(dep.edge().stats().admission_drops, 0u);
  }
}

}  // namespace
}  // namespace iotsec::core
