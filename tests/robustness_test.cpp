// Failure injection: how every layer behaves when something goes wrong —
// cluster exhaustion, malformed input on every ingestion path, missing
// handlers, unknown ids. Nothing here should crash, leak enforcement, or
// silently misroute.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/iotsec.h"

namespace iotsec {
namespace {

/// The versions of `device`'s priority-100 posture entries on `sw` (its
/// diversion or its isolation drops), one per entry.
std::vector<std::uint64_t> PostureEntryVersions(sdn::Switch& sw,
                                                DeviceId device) {
  std::vector<std::uint64_t> versions;
  for (const sdn::FlowEntry& e : sw.flow_table().Entries()) {
    if (e.cookie == 0x1000000ull + device) versions.push_back(e.version);
  }
  return versions;
}

/// The HTTP status `device` answers an attacker GET with (0: no answer).
int HttpStatus(core::Deployment& dep, devices::Device* device) {
  int status = 0;
  dep.attacker().HttpGet(device->spec().ip, device->spec().mac, "/",
                         std::nullopt, [&](const proto::HttpResponse& r) {
                           status = r.status;
                         });
  dep.RunFor(2 * kSecond);
  return status;
}

/// Each camera: Monitor, also while suspicious (a rule that reads its own
/// context and keeps its posture), and Trust once compromised.
policy::FsmPolicy MonitorUntilCompromised(core::Deployment& dep,
                                          const std::vector<std::string>& cams) {
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  for (const std::string& cam : cams) {
    policy::PolicyRule watch;
    watch.name = cam + "-suspicious";
    watch.when = policy::StatePredicate::Eq("ctx:" + cam, "suspicious");
    watch.device = dep.Find(cam)->id();
    watch.posture = core::MonitorPosture();
    policy.Add(watch);
    policy::PolicyRule trust;
    trust.name = cam + "-compromised";
    trust.when = policy::StatePredicate::Eq("ctx:" + cam, "compromised");
    trust.device = dep.Find(cam)->id();
    trust.posture = core::TrustPosture();
    policy.Add(trust);
  }
  return policy;
}

TEST(FailClosedTest, ClusterExhaustionIsolatesTheDevice) {
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    core::DeploymentOptions opts;
    opts.shards = shards;
    opts.cluster_hosts = 1;
    opts.host_capacity = 1;  // room for exactly one µmbox
    core::Deployment dep(opts);
    auto* cam1 = dep.AddCamera("cam1");
    auto* cam2 = dep.AddCamera("cam2");
    dep.UsePolicy(dep.BuildStateSpace(),
                  MonitorUntilCompromised(dep, {"cam1", "cam2"}));
    dep.Start();
    dep.RunFor(kSecond);

    // One camera got its µmbox; the other could not be enforced and must
    // be isolated, not left wide open.
    auto& ctl = dep.controller();
    const bool cam1_has = ctl.UmboxOf(cam1->id()).has_value();
    const bool cam2_has = ctl.UmboxOf(cam2->id()).has_value();
    EXPECT_NE(cam1_has, cam2_has);
    const auto& stats = ctl.stats();
    EXPECT_EQ(stats.enforcement_failures, 1u);

    auto* enforced = cam1_has ? cam1 : cam2;
    auto* isolated = cam1_has ? cam2 : cam1;
    EXPECT_EQ(ctl.PostureProfileOf(isolated->id()), "isolated");
    EXPECT_EQ(HttpStatus(dep, enforced), 200);
    EXPECT_EQ(HttpStatus(dep, isolated), 0)
        << "fail-closed device must be unreachable";

    // Sweeps driven by the enforced camera's context and by the isolated
    // camera's own, all leaving both on Monitor: the isolation stands as
    // installed, with no failure counted twice.
    const auto flow_ops = stats.flow_ops;
    const auto versions = PostureEntryVersions(dep.edge(), isolated->id());
    ASSERT_EQ(versions.size(), 2u);
    const auto sweeps = stats.policy_evals;
    for (int i = 0; i < 4; ++i) {
      const char* context = i % 2 == 0 ? "suspicious" : "normal";
      ctl.SetDeviceContext(enforced->spec().name, context);
      dep.RunFor(50 * kMillisecond);
      ctl.SetDeviceContext(isolated->spec().name, context);
      dep.RunFor(50 * kMillisecond);
    }
    EXPECT_GE(stats.policy_evals, sweeps + 8);
    EXPECT_EQ(stats.enforcement_failures, 1u);
    EXPECT_EQ(stats.flow_ops, flow_ops) << "isolation reinstalled";
    EXPECT_EQ(PostureEntryVersions(dep.edge(), isolated->id()), versions);
    EXPECT_EQ(HttpStatus(dep, isolated), 0);

    // The enforced camera drops to Trust and frees the slot: the isolated
    // camera launches with no context change of its own.
    ctl.SetDeviceContext(enforced->spec().name, "compromised");
    dep.RunFor(kSecond);
    EXPECT_EQ(ctl.PostureProfileOf(enforced->id()), "trust");
    EXPECT_TRUE(ctl.UmboxOf(isolated->id()).has_value());
    EXPECT_EQ(ctl.PostureProfileOf(isolated->id()), "monitor");
    EXPECT_EQ(stats.enforcement_failures, 1u);
    EXPECT_EQ(HttpStatus(dep, isolated), 200);
  }
}

// The cluster-exhaustion case again, with Trust as the default: a camera
// isolated on its way to Monitor that returns to Trust, the posture it
// last enforced, is released and answers again.
TEST(FailClosedTest, ReturningToTheEnforcedPostureLiftsTheIsolation) {
  core::DeploymentOptions opts;
  opts.cluster_hosts = 1;
  opts.host_capacity = 1;
  core::Deployment dep(opts);
  auto* cam1 = dep.AddCamera("cam1");
  auto* cam2 = dep.AddCamera("cam2");
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  for (const auto* cam : {cam1, cam2}) {
    policy::PolicyRule rule;
    rule.name = cam->spec().name + "-suspicious";
    rule.when = policy::StatePredicate::Eq("ctx:" + cam->spec().name,
                                           "suspicious");
    rule.device = cam->id();
    rule.posture = core::MonitorPosture();
    policy.Add(rule);
  }
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  auto& ctl = dep.controller();
  ctl.SetDeviceContext("cam1", "suspicious");  // takes the one slot
  dep.RunFor(100 * kMillisecond);
  ctl.SetDeviceContext("cam2", "suspicious");  // finds none
  dep.RunFor(100 * kMillisecond);
  ASSERT_TRUE(ctl.UmboxOf(cam1->id()).has_value());
  ASSERT_EQ(ctl.stats().enforcement_failures, 1u);
  EXPECT_EQ(PostureEntryVersions(dep.edge(), cam2->id()).size(), 2u);
  EXPECT_EQ(HttpStatus(dep, cam2), 0);

  ctl.SetDeviceContext("cam2", "normal");
  dep.RunFor(100 * kMillisecond);
  EXPECT_EQ(ctl.PostureProfileOf(cam2->id()), "trust");
  EXPECT_TRUE(PostureEntryVersions(dep.edge(), cam2->id()).empty())
      << "drop entries outlived the isolation";
  EXPECT_EQ(HttpStatus(dep, cam2), 200);
  EXPECT_EQ(ctl.stats().enforcement_failures, 1u);
}

/// A standalone controller with no cluster (SetCluster never called) and
/// two bulbs on one switch.
struct NoClusterFixture {
  sim::Simulator sim;
  control::IoTSecController controller{sim};
  sdn::Switch sw{1, sim};
  std::vector<std::unique_ptr<devices::LightBulb>> bulbs;

  NoClusterFixture() {
    controller.ManageSwitch(&sw, -1);
    for (const DeviceId id : {7u, 8u}) {
      devices::DeviceSpec spec;
      spec.id = id;
      spec.name = id == 7 ? "bulb" : "other";
      spec.cls = devices::DeviceClass::kLightBulb;
      spec.mac = net::MacAddress::FromId(id);
      spec.ip = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(id));
      bulbs.push_back(std::make_unique<devices::LightBulb>(spec, sim, nullptr));
      controller.RegisterDevice(bulbs.back().get(), &sw, static_cast<int>(id));
    }
  }

  /// "bulb" enforces `when_suspicious` while its context reads suspicious
  /// and `otherwise` else; "other" is always trusted.
  void Start(const policy::Posture& otherwise,
             const policy::Posture& when_suspicious) {
    policy::FsmPolicy policy;
    policy.SetDefault(core::TrustPosture());
    policy::PolicyRule base;
    base.name = "bulb";
    base.device = 7;
    base.posture = otherwise;
    policy.Add(base);
    policy::PolicyRule suspicious = base;
    suspicious.name = "bulb-suspicious";
    suspicious.when = policy::StatePredicate::Eq("ctx:bulb", "suspicious");
    suspicious.posture = when_suspicious;
    suspicious.priority = 1;
    policy.Add(suspicious);
    policy::StateSpace space;
    for (const auto& bulb : bulbs) {
      space.AddDimension({policy::StateSpace::ContextDim(bulb->spec().name),
                          policy::DimensionKind::kDeviceContext, bulb->id(),
                          policy::DefaultSecurityContexts()});
    }
    controller.SetPolicy(std::move(space), std::move(policy));
    controller.Start();
    sim.RunFor(10 * kMillisecond);
  }

  /// Five sweeps, each woken by `device`'s context alone.
  void Flip(const std::string& device) {
    for (int i = 0; i < 5; ++i) {
      controller.SetDeviceContext(device, i % 2 == 0 ? "suspicious" : "normal");
      sim.RunFor(10 * kMillisecond);
    }
  }
};

// No cluster means no µmbox for a tunnel posture: the device is isolated
// at the switch, once, however many sweeps follow.
TEST(FailClosedTest, NoClusterIsolatesTheDevice) {
  NoClusterFixture f;
  f.Start(core::MonitorPosture(), core::MonitorPosture());
  const DeviceId bulb = 7;
  const auto& stats = f.controller.stats();
  EXPECT_EQ(stats.enforcement_failures, 1u);
  EXPECT_FALSE(f.controller.UmboxOf(bulb).has_value());
  EXPECT_EQ(f.controller.PostureProfileOf(bulb), "isolated");
  bool drops_from = false;
  bool drops_to = false;
  const net::Ipv4Prefix host(net::Ipv4Address(10, 0, 0, 7), 32);
  for (const sdn::FlowEntry& e : f.sw.flow_table().Entries()) {
    if (e.cookie != 0x1000000ull + bulb) continue;
    EXPECT_EQ(e.priority, 100);
    ASSERT_EQ(e.actions.size(), 1u);
    EXPECT_EQ(e.actions[0].type, sdn::ActionType::kDrop);
    if (e.match.ip_src == host) drops_from = true;
    if (e.match.ip_dst == host) drops_to = true;
  }
  EXPECT_TRUE(drops_from) << "no drop entry for frames from the device";
  EXPECT_TRUE(drops_to) << "no drop entry for frames to the device";

  // Sweeps woken by the other bulb's context and by the bulb's own, its
  // posture unchanged throughout.
  const auto flow_ops = stats.flow_ops;
  const auto versions = PostureEntryVersions(f.sw, bulb);
  const auto sweeps = stats.policy_evals;
  f.Flip("other");
  f.Flip("bulb");
  EXPECT_GE(stats.policy_evals, sweeps + 10);
  EXPECT_EQ(stats.enforcement_failures, 1u);
  EXPECT_EQ(stats.flow_ops, flow_ops) << "isolation reinstalled";
  EXPECT_EQ(PostureEntryVersions(f.sw, bulb), versions);
}

// Trust by default, Monitor while suspicious: the bulb is isolated on its
// way to Monitor, and lifted once its posture returns to Trust, the one
// it last enforced.
TEST(FailClosedTest, NoClusterIsolationLiftsWhenThePostureReturns) {
  NoClusterFixture f;
  f.Start(core::TrustPosture(), core::MonitorPosture());
  const DeviceId bulb = 7;
  const auto& stats = f.controller.stats();
  EXPECT_EQ(stats.enforcement_failures, 0u);
  f.controller.SetDeviceContext("bulb", "suspicious");
  f.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(stats.enforcement_failures, 1u);
  EXPECT_EQ(f.controller.PostureProfileOf(bulb), "isolated");
  const auto flow_ops = stats.flow_ops;
  const auto versions = PostureEntryVersions(f.sw, bulb);
  EXPECT_EQ(versions.size(), 2u);

  const auto sweeps = stats.policy_evals;
  f.Flip("other");
  EXPECT_GE(stats.policy_evals, sweeps + 5);
  EXPECT_EQ(stats.enforcement_failures, 1u);
  EXPECT_EQ(stats.flow_ops, flow_ops) << "isolation reinstalled";
  EXPECT_EQ(PostureEntryVersions(f.sw, bulb), versions);

  f.controller.SetDeviceContext("bulb", "normal");
  f.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(f.controller.PostureProfileOf(bulb), "trust");
  EXPECT_TRUE(PostureEntryVersions(f.sw, bulb).empty())
      << "drop entries outlived the isolation";
  EXPECT_EQ(stats.enforcement_failures, 1u);
}

TEST(RobustnessTest, ControllerIgnoresGarbageTelemetry) {
  core::Deployment dep;
  dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  const auto version = dep.controller().view().Version();

  // Garbage frames straight into the controller's Receive path.
  dep.controller().Receive(net::MakePacket(Bytes{1, 2, 3}), 0);
  dep.controller().Receive(net::MakePacket(Bytes{}), 0);
  // A syntactically valid event from an unknown source IP.
  proto::IotCtlMessage ev;
  ev.type = proto::IotMsgType::kEvent;
  ev.Add(proto::IotTag::kSensor, "state");
  ev.Add(proto::IotTag::kReading, "evil");
  dep.controller().Receive(
      net::MakePacket(proto::BuildUdpFrame(
          net::MacAddress::FromId(66), dep.controller().hub_mac(),
          net::Ipv4Address(66, 66, 66, 66), dep.controller().hub_ip(),
          proto::kIotCtlPort, proto::kIotCtlPort, ev.Serialize())),
      0);
  dep.RunFor(kSecond);
  EXPECT_EQ(dep.controller().view().Version(), version)
      << "unattributable telemetry must not mutate the view";
}

TEST(RobustnessTest, UmboxHostToleratesGarbageAndUnknownVnis) {
  sim::Simulator sim;
  dataplane::UmboxHost host(1, sim);
  // Garbage, non-tunnel, and wrong-direction frames: ignored.
  host.Receive(net::MakePacket(Bytes{9, 9, 9}), 0);
  host.Receive(net::MakePacket(proto::BuildUdpFrame(
                   net::MacAddress::FromId(1), net::MacAddress::FromId(2),
                   net::Ipv4Address(1, 1, 1, 1), net::Ipv4Address(2, 2, 2, 2),
                   1, 2, ToBytes("not a tunnel"))),
               0);
  // Valid tunnel to a VNI that does not exist.
  proto::TunnelHeader th;
  th.vni = 777;
  th.direction = proto::TunnelDirection::kToUmbox;
  Bytes inner = proto::BuildUdpFrame(
      net::MacAddress::FromId(1), net::MacAddress::FromId(2),
      net::Ipv4Address(1, 1, 1, 1), net::Ipv4Address(2, 2, 2, 2), 1, 2,
      ToBytes("x"));
  host.Receive(net::MakePacket(proto::Encapsulate(
                   net::MacAddress::FromId(3), net::MacAddress::Broadcast(),
                   th, inner)),
               0);
  sim.Run();
  EXPECT_EQ(host.stats().no_such_umbox, 1u);
  EXPECT_EQ(host.stats().returned, 0u);
  EXPECT_FALSE(host.Stop(777));
}

TEST(RobustnessTest, SwitchWithoutHandlerDropsPacketIns) {
  sim::Simulator sim;
  sdn::Switch sw(1, sim, sdn::Switch::MissBehavior::kToController);
  net::Link link(sim, {});
  sw.AttachLink(&link, 0);
  link.Send(1, net::MakePacket(proto::BuildUdpFrame(
                  net::MacAddress::FromId(1), net::MacAddress::FromId(2),
                  net::Ipv4Address(1, 1, 1, 1), net::Ipv4Address(2, 2, 2, 2),
                  1, 2, ToBytes("x"))));
  sim.Run();
  EXPECT_EQ(sw.stats().drops, 1u);
}

TEST(RobustnessTest, TruncatedTunnelFramesDoNotCrashTheSwitch) {
  sim::Simulator sim;
  sdn::Switch sw(1, sim, sdn::Switch::MissBehavior::kDrop);
  net::Link link(sim, {});
  sw.AttachLink(&link, 0);
  // An Ethernet header claiming tunnel ethertype but with a truncated
  // tunnel payload.
  Bytes frame;
  ByteWriter w(frame);
  proto::EthernetHeader eth{net::MacAddress::FromId(1),
                            net::MacAddress::FromId(2),
                            proto::EtherType::kTunnel};
  eth.Serialize(w);
  w.U8(0x01);  // half a VNI
  link.Send(1, net::MakePacket(frame));
  sim.Run();
  EXPECT_EQ(sw.stats().frames, 1u);
}

TEST(RobustnessTest, DeviceSurvivesProtocolConfusion) {
  // Frames that lie about their protocol must not wedge a device.
  core::DeploymentOptions opts;
  opts.with_iotsec = false;
  core::Deployment dep(opts);
  auto* cam = dep.AddCamera("cam");
  dep.Start();

  // HTTP bytes on the IoTCtl port, IoTCtl bytes on the HTTP port, and
  // random noise on both.
  proto::HttpRequest req;
  dep.attacker().SendFrame(proto::BuildUdpFrame(
      dep.attacker().mac(), cam->spec().mac, dep.attacker().ip(),
      cam->spec().ip, 4000, proto::kIotCtlPort, req.Serialize()));
  proto::IotCtlMessage msg;
  msg.command = proto::IotCommand::kStatus;
  proto::TcpHeader tcp;
  tcp.src_port = 4001;
  tcp.dst_port = 80;
  tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
  dep.attacker().SendFrame(proto::BuildTcpFrame(
      dep.attacker().mac(), cam->spec().mac, dep.attacker().ip(),
      cam->spec().ip, tcp, msg.Serialize()));
  dep.attacker().SendFrame(proto::BuildUdpFrame(
      dep.attacker().mac(), cam->spec().mac, dep.attacker().ip(),
      cam->spec().ip, 4002, proto::kDnsPort, ToBytes("definitely not dns")));
  dep.RunFor(kSecond);

  // The camera still answers a well-formed request afterwards.
  int status = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                         [&](const proto::HttpResponse& r) {
                           status = r.status;
                         });
  dep.RunFor(kSecond);
  EXPECT_EQ(status, 200);
}

TEST(RobustnessTest, ReconfigureToInvalidConfigKeepsEnforcing) {
  core::Deployment dep;
  auto* wemo = dep.AddSmartPlug("wemo", "oven_power",
                                {devices::Vulnerability::kBackdoor});
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);
  const auto umbox_id = dep.controller().UmboxOf(wemo->id());
  ASSERT_TRUE(umbox_id.has_value());
  dataplane::Umbox* box = dep.cluster().Find(*umbox_id);
  ASSERT_NE(box, nullptr);

  std::string error;
  EXPECT_FALSE(box->Reconfigure("x :: Broken(", &error));
  // The old (blocking) graph is still live.
  dep.attacker().SendIotCommand(wemo->spec().ip, wemo->spec().mac,
                                proto::IotCommand::kTurnOn, std::nullopt,
                                true, nullptr);
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(wemo->State(), "off");
}

}  // namespace
}  // namespace iotsec
