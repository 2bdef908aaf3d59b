// Proactive endpoint forwarding and the bounded PacketIn path.
//
// Every endpoint the controller knows (devices, the hub, the attacker or
// WAN gateway, trunks toward other switches) gets a priority-1 dst-MAC
// entry, so traffic between known endpoints never reaches the
// controller. Posture entries (priority 100) must still outrank those
// entries, and what does miss the table (unknown destinations) goes
// through a per-ingress-port token bucket.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/iotsec.h"

namespace iotsec {
namespace {

/// Packets counted by `sw`'s priority-1 entry for `mac` (-1: no entry).
std::int64_t EndpointPackets(const sdn::Switch& sw,
                             const net::MacAddress& mac) {
  for (const sdn::FlowEntry& e : sw.flow_table().Entries()) {
    if (e.priority == 1 && e.match.eth_dst == mac) {
      return static_cast<std::int64_t>(e.packets);
    }
  }
  return -1;
}

/// Entries on `sw` whose destination match is `mac`.
int EntriesFor(const sdn::Switch& sw, const net::MacAddress& mac) {
  int n = 0;
  for (const sdn::FlowEntry& e : sw.flow_table().Entries()) {
    if (e.match.eth_dst == mac) ++n;
  }
  return n;
}

/// Packets counted by the device's priority-100 posture entries.
std::uint64_t PosturePackets(const sdn::Switch& sw, DeviceId device) {
  std::uint64_t n = 0;
  for (const sdn::FlowEntry& e : sw.flow_table().Entries()) {
    if (e.priority == 100 && e.cookie == 0x1000000ull + device) {
      n += e.packets;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Registration: MAC aliasing fails loudly, late endpoints get entries.

TEST(MacAliasTest, DeviceOnAnotherPortOfTheSameSwitchThrows) {
  core::Deployment dep;
  devices::LightBulb* bulb = dep.AddLightBulb("bulb");
  const int port = dep.edge().PortOfMac(bulb->spec().mac);
  ASSERT_GE(port, 0);
  EXPECT_THROW(
      dep.controller().RegisterDevice(bulb, &dep.edge(), port + 1),
      std::invalid_argument);
  // The failed call changed nothing.
  EXPECT_EQ(dep.edge().PortOfMac(bulb->spec().mac), port);
}

TEST(MacAliasTest, EndpointOnAnotherPortOfTheSameSwitchThrows) {
  core::Deployment dep;
  devices::LightBulb* bulb = dep.AddLightBulb("bulb");
  const int port = dep.edge().PortOfMac(bulb->spec().mac);
  auto& ctl = dep.controller();
  EXPECT_THROW(ctl.RegisterEndpoint(bulb->spec().mac, &dep.edge(), port + 1),
               std::invalid_argument);
  const int hub_port = dep.edge().PortOfMac(ctl.hub_mac());
  ASSERT_GE(hub_port, 0);
  EXPECT_THROW(ctl.RegisterEndpoint(ctl.hub_mac(), &dep.edge(), hub_port + 1),
               std::invalid_argument);
  EXPECT_EQ(dep.edge().PortOfMac(ctl.hub_mac()), hub_port);
}

TEST(MacAliasTest, RebindingToTheSamePortIsAllowed) {
  core::Deployment dep;
  devices::LightBulb* bulb = dep.AddLightBulb("bulb");
  const int port = dep.edge().PortOfMac(bulb->spec().mac);
  auto& ctl = dep.controller();
  EXPECT_NO_THROW(ctl.RegisterDevice(bulb, &dep.edge(), port));
  EXPECT_NO_THROW(ctl.RegisterEndpoint(bulb->spec().mac, &dep.edge(), port));
  const int hub_port = dep.edge().PortOfMac(ctl.hub_mac());
  EXPECT_NO_THROW(ctl.RegisterEndpoint(ctl.hub_mac(), &dep.edge(), hub_port));
  dep.Start();
  // One entry per bound MAC however often, and as what, it was
  // registered.
  EXPECT_EQ(EntriesFor(dep.edge(), ctl.hub_mac()), 1);
  EXPECT_EQ(EntriesFor(dep.edge(), bulb->spec().mac), 1);
  // Re-registering after Start installs nothing more.
  EXPECT_NO_THROW(ctl.RegisterDevice(bulb, &dep.edge(), port));
  EXPECT_NO_THROW(ctl.RegisterEndpoint(ctl.hub_mac(), &dep.edge(), hub_port));
  dep.RunFor(10 * kMillisecond);
  EXPECT_EQ(EntriesFor(dep.edge(), ctl.hub_mac()), 1);
  EXPECT_EQ(EntriesFor(dep.edge(), bulb->spec().mac), 1);
}

TEST(MacAliasTest, EndpointThenDeviceOnOnePortGetsOneEntry) {
  sim::Simulator sim;
  control::IoTSecController controller(sim);
  sdn::Switch sw(1, sim);
  controller.ManageSwitch(&sw, -1);
  devices::DeviceSpec spec;
  spec.id = 1;
  spec.name = "bulb";
  spec.cls = devices::DeviceClass::kLightBulb;
  spec.mac = net::MacAddress::FromId(1);
  spec.ip = net::Ipv4Address(10, 0, 0, 1);
  devices::LightBulb bulb(spec, sim, nullptr);
  controller.RegisterEndpoint(spec.mac, &sw, 3);
  controller.RegisterDevice(&bulb, &sw, 3);
  controller.Start();
  sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(EntriesFor(sw, spec.mac), 1);
  EXPECT_EQ(EndpointPackets(sw, spec.mac), 0);
}

TEST(RegistrationTest, LateRegistrationInstallsItsEntryAtOnce) {
  core::Deployment dep;
  dep.AddLightBulb("early");
  dep.Start();
  dep.RunFor(10 * kMillisecond);
  devices::LightBulb* late = dep.AddLightBulb("late");
  EXPECT_GE(EndpointPackets(dep.edge(), late->spec().mac), 0);
}

// ---------------------------------------------------------------------------
// Posture entries outrank endpoint entries.

/// A µmbox config no element factory accepts: launching it fails, so the
/// controller falls back to fail-closed drop entries for the device.
policy::Posture UnlaunchablePosture() {
  policy::Posture p;
  p.profile = "unlaunchable";
  p.umbox_config = "x :: NoSuchElement()\n";
  return p;
}

struct PrecedenceObservation {
  // Dropped devices: what reached the attacker, the hub and the
  // endpoint entries, and where the frames died instead.
  std::uint64_t dropped_attacker_bytes = 0;
  std::int64_t dropped_endpoint_packets = 0;
  std::string quarantined_hub_state;
  std::string isolated_hub_state;
  // What the view held for them at registration.
  std::string quarantined_registered_state;
  std::string isolated_registered_state;
  std::uint64_t quarantine_chain_packets = 0;
  std::uint64_t isolation_drop_packets = 0;
  // Monitor device.
  std::uint64_t monitor_attacker_bytes = 0;
  std::int64_t monitor_endpoint_packets = 0;
  std::uint64_t monitor_chain_packets = 0;
  std::string monitored_hub_state;
  // Trust device.
  int trust_status = 0;
  SimDuration trust_rtt = 0;
  std::int64_t trust_attacker_entry_packets = 0;
  std::int64_t trust_hub_entry_packets = 0;
  std::string trusted_hub_state;
  std::uint64_t trust_packet_ins = 0;

  bool operator==(const PrecedenceObservation&) const = default;
};

PrecedenceObservation RunPrecedence(int shards) {
  core::DeploymentOptions opts;
  opts.shards = shards;
  opts.shard_threads = true;
  core::Deployment dep(opts);
  devices::LightBulb* quarantined = dep.AddLightBulb("quarantined");
  devices::LightBulb* isolated = dep.AddLightBulb("isolated");
  devices::LightBulb* monitored = dep.AddLightBulb("monitored");
  devices::LightBulb* trusted = dep.AddLightBulb("trusted");
  const auto hub_state = [&](devices::Device* device) {
    return dep.controller()
        .view()
        .DeviceState(device->spec().name)
        .value_or("?");
  };
  PrecedenceObservation obs;
  obs.quarantined_registered_state = hub_state(quarantined);
  obs.isolated_registered_state = hub_state(isolated);

  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  policy.Add({"q", {}, quarantined->id(), core::QuarantinePosture(), 1});
  policy.Add({"i", {}, isolated->id(), UnlaunchablePosture(), 1});
  policy.Add({"m", {}, monitored->id(), core::MonitorPosture(), 1});
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);  // µmboxes booted, initial telemetry settled

  auto& ctl = dep.controller();
  auto& sw = dep.edge();
  auto& attacker = dep.attacker();
  const auto attacker_mac = attacker.mac();
  const auto hub_mac = ctl.hub_mac();
  EXPECT_GE(ctl.stats().enforcement_failures, 1u);
  EXPECT_FALSE(ctl.UmboxOf(isolated->id()).has_value());
  const auto chain_packets = [&](devices::Device* device) -> std::uint64_t {
    const auto id = ctl.UmboxOf(device->id());
    if (!id) return 0;
    dataplane::Umbox* box = dep.cluster().Find(*id);
    if (box == nullptr || box->graph() == nullptr) return 0;
    const auto* count =
        dynamic_cast<const dataplane::Counter*>(box->graph()->Find("count"));
    return count != nullptr ? count->Packets() : 0;
  };
  // Each device on its own shard: keepalives to the attacker every 10 ms
  // and one state change, which is telemetry to the hub.
  const auto talk = [&](devices::LightBulb* bulb) {
    dep.SimFor(bulb->id()).After(kMillisecond, [bulb, &attacker] {
      bulb->StartCloudKeepalive(attacker.ip(), attacker.mac(),
                                10 * kMillisecond);
      bulb->Actuate(proto::IotCommand::kTurnOn);
    });
  };
  // Quarantined (µmbox discard) and isolated (drop entries) devices.
  {
    const std::uint64_t bytes0 = attacker.BytesReceived();
    const std::int64_t entry0 = EndpointPackets(sw, attacker_mac) +
                                EndpointPackets(sw, hub_mac);
    const std::uint64_t chain0 = chain_packets(quarantined);
    const std::uint64_t drop0 = PosturePackets(sw, isolated->id());
    talk(quarantined);
    talk(isolated);
    dep.RunFor(200 * kMillisecond);
    obs.dropped_attacker_bytes = attacker.BytesReceived() - bytes0;
    obs.dropped_endpoint_packets = EndpointPackets(sw, attacker_mac) +
                                   EndpointPackets(sw, hub_mac) - entry0;
    obs.quarantine_chain_packets = chain_packets(quarantined) - chain0;
    obs.isolation_drop_packets = PosturePackets(sw, isolated->id()) - drop0;
    obs.quarantined_hub_state = hub_state(quarantined);
    obs.isolated_hub_state = hub_state(isolated);
  }
  // Monitor device: still tunneled to its µmbox; verdicts come back
  // through decapsulation, not through the endpoint entries.
  {
    const std::uint64_t bytes0 = attacker.BytesReceived();
    const std::int64_t entry0 = EndpointPackets(sw, attacker_mac) +
                                EndpointPackets(sw, hub_mac);
    const std::uint64_t chain0 = chain_packets(monitored);
    talk(monitored);
    dep.RunFor(200 * kMillisecond);
    obs.monitor_attacker_bytes = attacker.BytesReceived() - bytes0;
    obs.monitor_endpoint_packets = EndpointPackets(sw, attacker_mac) +
                                   EndpointPackets(sw, hub_mac) - entry0;
    obs.monitor_chain_packets = chain_packets(monitored) - chain0;
    obs.monitored_hub_state = hub_state(monitored);
  }
  // Trust device: the reply to the attacker and the telemetry to the hub
  // ride the endpoint entries; the controller sees neither.
  {
    const std::uint64_t packet_ins0 = ctl.stats().packet_ins;
    const std::int64_t attacker0 = EndpointPackets(sw, attacker_mac);
    const std::int64_t hub0 = EndpointPackets(sw, hub_mac);
    const SimTime sent = dep.Now();
    SimTime answered = 0;
    attacker.HttpGet(trusted->spec().ip, trusted->spec().mac, "/",
                     std::nullopt, [&](const proto::HttpResponse& r) {
                       obs.trust_status = r.status;
                       answered = dep.sim().Now();
                     });
    dep.SimFor(trusted->id()).After(kMillisecond, [trusted] {
      trusted->Actuate(proto::IotCommand::kTurnOn);
    });
    dep.RunFor(100 * kMillisecond);
    obs.trust_rtt = answered > sent ? answered - sent : 0;
    obs.trust_attacker_entry_packets =
        EndpointPackets(sw, attacker_mac) - attacker0;
    obs.trust_hub_entry_packets = EndpointPackets(sw, hub_mac) - hub0;
    obs.trusted_hub_state = hub_state(trusted);
    obs.trust_packet_ins = ctl.stats().packet_ins - packet_ins0;
  }
  return obs;
}

void ExpectPrecedence(const PrecedenceObservation& obs) {
  EXPECT_EQ(obs.dropped_attacker_bytes, 0u);
  EXPECT_EQ(obs.dropped_endpoint_packets, 0);
  // No telemetry from either reached the hub: the view still holds what
  // it held at registration, and never the "on" they reported.
  EXPECT_EQ(obs.quarantined_hub_state, obs.quarantined_registered_state);
  EXPECT_EQ(obs.isolated_hub_state, obs.isolated_registered_state);
  EXPECT_NE(obs.quarantined_hub_state, "on");
  EXPECT_NE(obs.isolated_hub_state, "on");
  EXPECT_GT(obs.quarantine_chain_packets, 0u) << "discarded in its µmbox";
  EXPECT_GT(obs.isolation_drop_packets, 0u) << "dropped by its entries";

  EXPECT_GT(obs.monitor_attacker_bytes, 0u);
  EXPECT_EQ(obs.monitor_endpoint_packets, 0);
  EXPECT_GT(obs.monitor_chain_packets, 0u);
  EXPECT_EQ(obs.monitored_hub_state, "on");

  EXPECT_EQ(obs.trust_status, 404);  // a bulb serves no pages, but answers
  EXPECT_GT(obs.trust_rtt, 0u);
  EXPECT_EQ(obs.trust_attacker_entry_packets, 1);
  EXPECT_EQ(obs.trust_hub_entry_packets, 1);
  EXPECT_EQ(obs.trusted_hub_state, "on");
  EXPECT_EQ(obs.trust_packet_ins, 0u);
}

TEST(PosturePrecedenceTest, PostureEntriesOutrankEndpointEntriesOneShard) {
  ExpectPrecedence(RunPrecedence(1));
}

TEST(PosturePrecedenceTest, TwoThreadedShardsMatchOneShard) {
  const PrecedenceObservation two = RunPrecedence(2);
  ExpectPrecedence(two);
  EXPECT_TRUE(two == RunPrecedence(1));
}

// ---------------------------------------------------------------------------
// A MAC spray costs the controller at most burst + rate·t.

struct SprayResult {
  std::uint64_t packet_ins = 0;
  std::uint64_t packet_in_drops = 0;
  std::uint64_t obs_drops = 0;
  std::uint64_t misses = 0;
  std::uint64_t peer_frames_in = 0;
  std::vector<int> statuses;
  std::vector<SimDuration> rtts;
};

// The controller's PacketIn gate (kPacketInRatePps, kPacketInBurst in
// controller.cpp). The spray's lower bound on admissions below fails if
// these drift from it.
constexpr double kGateRatePps = 1000.0;
constexpr double kGateBurst = 100.0;
constexpr int kSprayFrames = 4000;
constexpr SimDuration kSprayGap = 50 * kMicrosecond;
constexpr int kProbeFrames = 20;

/// The sprayer sends `spray` frames, one every kSprayGap, each to a fresh
/// unknown MAC. The probe port sends kProbeFrames frames to a MAC that
/// only the switch's MAC table knows (so they, too, take PacketIn) while
/// the attacker runs HTTP exchanges with a third device.
SprayResult RunSpray(int spray) {
  core::Deployment dep;
  devices::LightBulb* sprayer = dep.AddLightBulb("sprayer");
  devices::LightBulb* probe = dep.AddLightBulb("probe");
  devices::LightBulb* peer = dep.AddLightBulb("peer");
  policy::FsmPolicy policy;
  policy.SetDefault(core::TrustPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(100 * kMillisecond);

  sdn::Switch& sw = dep.edge();
  const int spray_port = sw.PortOfMac(sprayer->spec().mac);
  const int probe_port = sw.PortOfMac(probe->spec().mac);
  // Known to the switch, not registered with the controller: no entry.
  const auto bound_only = net::MacAddress::FromId(0xB0B0);
  sw.SetMacPort(bound_only, sw.PortOfMac(peer->spec().mac));
  const std::uint64_t peer_frames0 = peer->stats().frames_in;

  const auto& ctl = dep.controller();
  const std::uint64_t packet_ins0 = ctl.stats().packet_ins;
  const std::uint64_t drops0 = ctl.stats().packet_in_drops;
  const std::uint64_t obs0 = obs::M().ctl_packet_in_drops->Value();
  const std::uint64_t misses0 = sw.stats().misses;

  const SimTime t0 = dep.Now() + kMillisecond;
  const auto inject = [&dep, &sw](SimTime at, const devices::Device* from,
                                  int port, net::MacAddress dst) {
    dep.sim().At(at, [&sw, from, port, dst] {
      const std::vector<std::uint8_t> payload(16, 0x5a);
      sw.Receive(net::MakePacket(proto::BuildUdpFrame(
                     from->spec().mac, dst, from->spec().ip,
                     net::Ipv4Address(10, 9, 9, 9), 40000, 9, payload)),
                 port);
    });
  };
  for (int k = 0; k < spray; ++k) {
    inject(t0 + static_cast<SimTime>(k) * kSprayGap, sprayer, spray_port,
           net::MacAddress::FromId(0x5000000 + static_cast<std::uint64_t>(k)));
  }
  for (int k = 0; k < kProbeFrames; ++k) {
    inject(t0 + static_cast<SimTime>(k) * 5 * kMillisecond, probe, probe_port,
           bound_only);
  }

  SprayResult result;
  result.statuses.assign(20, 0);
  result.rtts.assign(20, 0);
  for (int i = 0; i < 20; ++i) {
    const SimTime at = t0 + static_cast<SimTime>(i) * 10 * kMillisecond;
    dep.sim().At(at, [&dep, &result, peer, i, at] {
      dep.attacker().HttpGet(
          peer->spec().ip, peer->spec().mac, "/", std::nullopt,
          [&dep, &result, i, at](const proto::HttpResponse& r) {
            result.statuses[static_cast<std::size_t>(i)] = r.status;
            result.rtts[static_cast<std::size_t>(i)] = dep.sim().Now() - at;
          });
    });
  }
  dep.RunFor(500 * kMillisecond);

  result.packet_ins = ctl.stats().packet_ins - packet_ins0;
  result.packet_in_drops = ctl.stats().packet_in_drops - drops0;
  result.obs_drops = obs::M().ctl_packet_in_drops->Value() - obs0;
  result.misses = sw.stats().misses - misses0;
  result.peer_frames_in = peer->stats().frames_in - peer_frames0;
  return result;
}

TEST(PacketInGateTest, MacSprayIsBoundedByTheBucket) {
  const SprayResult quiet = RunSpray(0);
  const SprayResult spray = RunSpray(kSprayFrames);

  // Every sprayed frame missed the table and went up; nothing else did
  // but the probe's frames.
  EXPECT_EQ(spray.misses,
            static_cast<std::uint64_t>(kSprayFrames + kProbeFrames));
  EXPECT_EQ(spray.packet_ins, spray.misses);

  // Controller work on the sprayer's port: at most burst + rate·t over
  // the spray's span t, and not much less (the gate does not over-drop).
  const double span_s = static_cast<double>((kSprayFrames - 1) * kSprayGap) /
                        static_cast<double>(kSecond);
  const double bound = kGateBurst + kGateRatePps * span_s;
  ASSERT_LT(bound, kSprayFrames / 4) << "the spray must overrun the gate";
  // Every upcall is admitted or dropped, and the probe's all pass (below),
  // so the drops are exactly the sprayer's upcalls the bucket refused.
  ASSERT_GE(spray.packet_ins, spray.packet_in_drops + kProbeFrames);
  const std::uint64_t admitted =
      spray.packet_ins - spray.packet_in_drops - kProbeFrames;
  EXPECT_LE(static_cast<double>(admitted), bound);
  EXPECT_GE(static_cast<double>(admitted), bound - 2.0);
  EXPECT_EQ(spray.obs_drops, spray.packet_in_drops);

  // Other ports are unaffected: the probe's PacketIns all pass the gate
  // and are forwarded by MAC table, and the attacker's exchanges with the
  // peer keep their answers and their exact RTTs.
  EXPECT_EQ(quiet.packet_in_drops, 0u);
  EXPECT_EQ(quiet.packet_ins, static_cast<std::uint64_t>(kProbeFrames));
  EXPECT_EQ(spray.peer_frames_in, quiet.peer_frames_in);
  EXPECT_EQ(quiet.peer_frames_in, static_cast<std::uint64_t>(kProbeFrames) +
                                          quiet.statuses.size());
  EXPECT_EQ(spray.statuses, quiet.statuses);
  EXPECT_EQ(spray.rtts, quiet.rtts);
  for (const int status : spray.statuses) EXPECT_EQ(status, 404);
}

}  // namespace
}  // namespace iotsec
