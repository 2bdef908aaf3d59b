// Multi-switch campus topology: devices on a remote edge switch are
// steered across a trunk to the µmbox cluster on the core switch and
// back. Exercises tunnel transit forwarding, cross-switch L2 delivery,
// and enforcement for devices that are not co-located with the cluster.
//
// Topology:
//
//   attacker --- [edge sw2] ===trunk=== [core sw1] --- umbox host
//   camera  ----/                          \---- controller
#include <gtest/gtest.h>

#include "core/iotsec.h"

namespace iotsec {
namespace {

using net::Ipv4Address;
using net::MacAddress;

struct Campus {
  sim::Simulator sim;
  std::unique_ptr<env::Environment> env = env::MakeSmartHomeEnvironment();
  sdn::Switch core{1, sim};
  sdn::Switch edge{2, sim};
  std::vector<std::unique_ptr<net::Link>> links;
  control::IoTSecController controller{sim};
  dataplane::UmboxHost host{1, sim};
  dataplane::Cluster cluster;
  devices::DeviceRegistry registry;
  std::unique_ptr<devices::Attacker> attacker;
  devices::Camera* cam = nullptr;
  devices::SmartPlug* wemo = nullptr;
  int trunk_on_core = -1;
  int trunk_on_edge = -1;

  net::Link* NewLink() {
    links.push_back(std::make_unique<net::Link>(sim, net::LinkConfig{}));
    return links.back().get();
  }

  Campus() {
    env->AttachTo(sim);

    // Trunk between the switches.
    auto* trunk = NewLink();
    trunk_on_core = core.AttachLink(trunk, 0);
    trunk_on_edge = edge.AttachLink(trunk, 1);

    // Cluster host and controller on the core.
    auto* host_link = NewLink();
    const int host_port = core.AttachLink(host_link, 0);
    host.ConnectUplink(host_link, 1);
    cluster.AddHost(&host);
    auto* ctrl_link = NewLink();
    const int ctrl_port = core.AttachLink(ctrl_link, 0);
    ctrl_link->Attach(1, &controller, 0);
    controller.RegisterEndpoint(controller.hub_mac(), &core, ctrl_port);
    controller.RegisterEndpoint(controller.hub_mac(), &edge, trunk_on_edge);

    controller.ManageSwitch(&core, host_port);
    controller.ManageSwitch(&edge, trunk_on_edge);
    controller.SetCluster(&cluster);
    controller.BindEnvironment(env.get());

    // Camera on the core, Wemo (backdoored) on the remote edge.
    cam = AddDevice<devices::Camera>(
        "cam", devices::DeviceClass::kCamera, core, 10, {});
    wemo = AddDevice<devices::SmartPlug>(
        "wemo", devices::DeviceClass::kSmartPlug, edge, 11,
        std::set<devices::Vulnerability>{devices::Vulnerability::kBackdoor},
        "oven_power");

    // Cross-switch L2 + inter-switch routing: each switch knows which
    // port leads to the other's MACs and to the other switch itself
    // (the deployment's wiring step). A remote device is an endpoint
    // behind the trunk, so it gets a forwarding entry there too.
    controller.RegisterEndpoint(wemo->spec().mac, &core, trunk_on_core);
    controller.RegisterEndpoint(cam->spec().mac, &edge, trunk_on_edge);
    core.SetSwitchPort(edge.id(), trunk_on_core);
    edge.SetSwitchPort(core.id(), trunk_on_edge);

    // Attacker on the edge switch.
    attacker = std::make_unique<devices::Attacker>(
        MacAddress::FromId(999), Ipv4Address(10, 0, 0, 200), sim);
    auto* alink = NewLink();
    attacker->ConnectUplink(alink, 0);
    const int aport = edge.AttachLink(alink, 1);
    controller.RegisterEndpoint(attacker->mac(), &edge, aport);
    controller.RegisterEndpoint(attacker->mac(), &core, trunk_on_core);
  }

  template <typename T, typename... Args>
  T* AddDevice(const std::string& name, devices::DeviceClass cls,
               sdn::Switch& sw, DeviceId id, std::set<devices::Vulnerability> vulns,
               Args&&... args) {
    devices::DeviceSpec spec;
    spec.id = id;
    spec.name = name;
    spec.cls = cls;
    spec.mac = MacAddress::FromId(id);
    spec.ip = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(id));
    spec.vulns = std::move(vulns);
    spec.hub_ip = controller.hub_ip();
    spec.hub_mac = controller.hub_mac();
    auto dev = std::make_unique<T>(spec, sim, env.get(),
                                   std::forward<Args>(args)...);
    T* ptr = static_cast<T*>(registry.Add(std::move(dev)));
    auto* link = NewLink();
    ptr->ConnectUplink(link, 0);
    const int port = sw.AttachLink(link, 1);
    controller.RegisterDevice(ptr, &sw, port);
    return ptr;
  }

  void Start(policy::FsmPolicy policy) {
    policy::StateSpace space;
    for (const auto* d : registry.All()) {
      space.AddDimension({policy::StateSpace::ContextDim(d->spec().name),
                          policy::DimensionKind::kDeviceContext, d->id(),
                          policy::DefaultSecurityContexts()});
    }
    controller.SetPolicy(std::move(space), std::move(policy));
    registry.StartAll();
    controller.Start();
    sim.RunFor(kSecond);
  }
};

TEST(MultiSwitchTest, RemoteDeviceTrafficSteeredAcrossTrunk) {
  Campus campus;
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  campus.Start(std::move(policy));

  // Both devices got µmboxes on the core-attached host.
  ASSERT_TRUE(campus.controller.UmboxOf(campus.cam->id()).has_value());
  ASSERT_TRUE(campus.controller.UmboxOf(campus.wemo->id()).has_value());
  EXPECT_EQ(campus.host.load(), 2);

  // A legit command to the remote Wemo crosses: edge (tunnel) -> trunk ->
  // core (transit entry) -> host -> back across to the device.
  std::string result;
  campus.attacker->SendIotCommand(
      campus.wemo->spec().ip, campus.wemo->spec().mac,
      proto::IotCommand::kTurnOn, campus.wemo->spec().credential, false,
      [&](const proto::IotCtlMessage& resp) {
        result = resp.Find(proto::IotTag::kResultCode).value_or("");
      });
  campus.sim.RunFor(2 * kSecond);
  EXPECT_EQ(result, "ok");
  EXPECT_EQ(campus.wemo->State(), "on");
  EXPECT_GT(campus.edge.stats().tunneled, 0u) << "edge diverts";
  EXPECT_GT(campus.host.stats().tunneled_in, 0u) << "host receives";
  EXPECT_GT(campus.edge.stats().decapsulated, 0u)
      << "verdicts return to the originating edge";
}

TEST(MultiSwitchTest, BackdoorBlockedOnRemoteEdge) {
  Campus campus;
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  campus.Start(std::move(policy));

  campus.attacker->SendIotCommand(campus.wemo->spec().ip,
                                  campus.wemo->spec().mac,
                                  proto::IotCommand::kTurnOn, std::nullopt,
                                  /*backdoor=*/true, nullptr);
  campus.sim.RunFor(2 * kSecond);
  EXPECT_EQ(campus.wemo->State(), "off")
      << "enforcement must hold for devices a trunk away from the cluster";
  EXPECT_GT(campus.controller.stats().alerts, 0u);
}

TEST(MultiSwitchTest, CrossSwitchHttpWorksThroughMonitors) {
  Campus campus;
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  campus.Start(std::move(policy));

  // Attacker (edge) probes the camera (core): request crosses the trunk,
  // gets diverted at the core, and the response makes it all the way
  // back.
  int status = 0;
  campus.attacker->HttpGet(campus.cam->spec().ip, campus.cam->spec().mac,
                           "/", std::nullopt,
                           [&](const proto::HttpResponse& r) {
                             status = r.status;
                           });
  campus.sim.RunFor(2 * kSecond);
  EXPECT_EQ(status, 200);
}

TEST(MultiSwitchTest, RemoteTelemetryReachesController) {
  Campus campus;
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  campus.Start(std::move(policy));
  campus.wemo->Actuate(proto::IotCommand::kTurnOn);
  campus.sim.RunFor(2 * kSecond);
  EXPECT_EQ(campus.controller.view().DeviceState("wemo").value_or(""), "on");
}

}  // namespace
}  // namespace iotsec
