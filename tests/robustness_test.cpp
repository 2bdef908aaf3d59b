// Failure injection: how every layer behaves when something goes wrong —
// cluster exhaustion, malformed input on every ingestion path, missing
// handlers, unknown ids. Nothing here should crash, leak enforcement, or
// silently misroute.
#include <gtest/gtest.h>

#include "core/iotsec.h"

namespace iotsec {
namespace {

TEST(FailClosedTest, ClusterExhaustionIsolatesTheDevice) {
  core::DeploymentOptions opts;
  opts.cluster_hosts = 1;
  opts.host_capacity = 1;  // room for exactly one µmbox
  core::Deployment dep(opts);
  auto* cam1 = dep.AddCamera("cam1");
  auto* cam2 = dep.AddCamera("cam2");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);

  // One camera got its µmbox; the other could not be enforced and must
  // be isolated, not left wide open.
  const bool cam1_has = dep.controller().UmboxOf(cam1->id()).has_value();
  const bool cam2_has = dep.controller().UmboxOf(cam2->id()).has_value();
  EXPECT_NE(cam1_has, cam2_has);
  EXPECT_EQ(dep.controller().stats().enforcement_failures, 1u);

  auto* enforced = cam1_has ? cam1 : cam2;
  auto* isolated = cam1_has ? cam2 : cam1;

  int enforced_status = 0;
  dep.attacker().HttpGet(enforced->spec().ip, enforced->spec().mac, "/",
                         std::nullopt, [&](const proto::HttpResponse& r) {
                           enforced_status = r.status;
                         });
  int isolated_status = 0;
  dep.attacker().HttpGet(isolated->spec().ip, isolated->spec().mac, "/",
                         std::nullopt, [&](const proto::HttpResponse& r) {
                           isolated_status = r.status;
                         });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(enforced_status, 200);
  EXPECT_EQ(isolated_status, 0) << "fail-closed device must be unreachable";
}

// A controller with no cluster (SetCluster never called) cannot launch
// the µmbox a tunnel posture needs: the device is isolated at the switch.
TEST(FailClosedTest, NoClusterIsolatesTheDevice) {
  sim::Simulator sim;
  control::IoTSecController controller(sim);
  sdn::Switch sw(1, sim);
  controller.ManageSwitch(&sw, -1);
  devices::DeviceSpec spec;
  spec.id = 7;
  spec.name = "bulb";
  spec.cls = devices::DeviceClass::kLightBulb;
  spec.mac = net::MacAddress::FromId(7);
  spec.ip = net::Ipv4Address(10, 0, 0, 7);
  devices::LightBulb bulb(spec, sim, nullptr);
  controller.RegisterDevice(&bulb, &sw, 3);
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  controller.SetPolicy(policy::StateSpace{}, std::move(policy));
  controller.Start();
  sim.RunFor(10 * kMillisecond);

  EXPECT_EQ(controller.stats().enforcement_failures, 1u);
  EXPECT_FALSE(controller.UmboxOf(spec.id).has_value());
  bool drops_from = false;
  bool drops_to = false;
  const net::Ipv4Prefix host(spec.ip, 32);
  for (const sdn::FlowEntry& e : sw.flow_table().Entries()) {
    if (e.cookie != 0x1000000ull + spec.id) continue;
    EXPECT_EQ(e.priority, 100);
    ASSERT_EQ(e.actions.size(), 1u);
    EXPECT_EQ(e.actions[0].type, sdn::ActionType::kDrop);
    if (e.match.ip_src == host) drops_from = true;
    if (e.match.ip_dst == host) drops_to = true;
  }
  EXPECT_TRUE(drops_from) << "no drop entry for frames from the device";
  EXPECT_TRUE(drops_to) << "no drop entry for frames to the device";
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
