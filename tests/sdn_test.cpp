// Tests for flow tables, switch forwarding semantics, and tunneling.
#include <gtest/gtest.h>

#include "proto/frame.h"
#include "sdn/switch.h"

namespace iotsec::sdn {
namespace {

using net::Ipv4Address;
using net::MacAddress;

Bytes UdpWire(Ipv4Address src, Ipv4Address dst, std::uint16_t dport,
              std::string_view payload, MacAddress src_mac = MacAddress::FromId(1),
              MacAddress dst_mac = MacAddress::FromId(2)) {
  return proto::BuildUdpFrame(src_mac, dst_mac, src, dst, 1111, dport,
                              ToBytes(payload));
}

proto::ParsedFrame Parse(const Bytes& wire) {
  auto f = proto::ParseFrame(wire);
  EXPECT_TRUE(f.has_value());
  return *f;
}

TEST(FlowMatchTest, WildcardAndFieldMatching) {
  const Bytes wire = UdpWire(Ipv4Address(10, 0, 0, 5), Ipv4Address(10, 0, 0, 9),
                             5009, "x");
  const auto frame = Parse(wire);

  EXPECT_TRUE(FlowMatch::Any().Matches(frame, 3));

  FlowMatch m;
  m.in_port = 3;
  EXPECT_TRUE(m.Matches(frame, 3));
  EXPECT_FALSE(m.Matches(frame, 4));

  FlowMatch ip = FlowMatch::FromIp(Ipv4Address(10, 0, 0, 5));
  EXPECT_TRUE(ip.Matches(frame, 0));
  EXPECT_FALSE(FlowMatch::FromIp(Ipv4Address(10, 0, 0, 6)).Matches(frame, 0));
  EXPECT_TRUE(FlowMatch::ToIp(Ipv4Address(10, 0, 0, 9)).Matches(frame, 0));

  FlowMatch port;
  port.l4_dst = 5009;
  EXPECT_TRUE(port.Matches(frame, 0));
  port.l4_dst = 80;
  EXPECT_FALSE(port.Matches(frame, 0));

  FlowMatch proto_match;
  proto_match.ip_proto = proto::IpProto::kTcp;
  EXPECT_FALSE(proto_match.Matches(frame, 0));
  proto_match.ip_proto = proto::IpProto::kUdp;
  EXPECT_TRUE(proto_match.Matches(frame, 0));

  FlowMatch mac;
  mac.eth_src = MacAddress::FromId(1);
  EXPECT_TRUE(mac.Matches(frame, 0));
  mac.eth_src = MacAddress::FromId(42);
  EXPECT_FALSE(mac.Matches(frame, 0));
}

TEST(FlowTableTest, PriorityOrderAndTies) {
  FlowTable table;
  FlowEntry low;
  low.priority = 1;
  low.cookie = 1;
  FlowEntry high;
  high.priority = 100;
  high.match = FlowMatch::FromIp(Ipv4Address(10, 0, 0, 5));
  high.cookie = 2;
  table.Install(low);
  table.Install(high);

  const Bytes hit = UdpWire(Ipv4Address(10, 0, 0, 5), Ipv4Address(1, 1, 1, 1),
                            9, "x");
  const Bytes miss = UdpWire(Ipv4Address(10, 0, 0, 6), Ipv4Address(1, 1, 1, 1),
                             9, "x");
  EXPECT_EQ(table.Lookup(Parse(hit), 0)->cookie, 2u);
  EXPECT_EQ(table.Lookup(Parse(miss), 0)->cookie, 1u);

  // Equal priority: earliest installed wins.
  FlowTable tie;
  FlowEntry a;
  a.priority = 5;
  a.cookie = 10;
  FlowEntry b;
  b.priority = 5;
  b.cookie = 20;
  tie.Install(a);
  tie.Install(b);
  EXPECT_EQ(tie.Lookup(Parse(hit), 0)->cookie, 10u);
}

TEST(FlowTableTest, RemoveByCookieAndVersionSweep) {
  FlowTable table;
  for (int i = 0; i < 6; ++i) {
    FlowEntry e;
    e.priority = i;
    e.cookie = static_cast<std::uint64_t>(i % 2);
    e.version = static_cast<std::uint64_t>(i < 3 ? 1 : 2);
    table.Install(e);
  }
  EXPECT_EQ(table.Size(), 6u);
  EXPECT_EQ(table.RemoveByCookie(1), 3u);
  EXPECT_EQ(table.Size(), 3u);
  EXPECT_EQ(table.RemoveOlderThan(2), 2u);  // versions 1 swept
  EXPECT_EQ(table.Size(), 1u);
}

TEST(FlowTableTest, CountersAccumulate) {
  FlowTable table;
  FlowEntry e;
  e.priority = 1;
  table.Install(e);
  const Bytes wire = UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                             9, "abc");
  const auto frame = Parse(wire);
  (void)table.Lookup(frame, 0, wire.size());
  (void)table.Lookup(frame, 0, wire.size());
  EXPECT_EQ(table.Entries()[0].packets, 2u);
  EXPECT_EQ(table.Entries()[0].bytes, 2 * wire.size());
}

// Installs a match-everything entry whose cookie is its install index.
std::size_t InstallAny(FlowTable& table, int priority, std::uint64_t cookie,
                       std::uint64_t version = 0) {
  FlowEntry e;
  e.priority = priority;
  e.cookie = cookie;
  e.version = version;
  return table.Install(e);
}

void ExpectRankOrder(const FlowTable& table) {
  const auto& entries = table.Entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const FlowEntry& a = entries[i - 1];
    const FlowEntry& b = entries[i];
    ASSERT_TRUE(a.priority > b.priority ||
                (a.priority == b.priority && a.cookie < b.cookie))
        << "rank " << i << ": (" << a.priority << ", " << a.cookie
        << ") before (" << b.priority << ", " << b.cookie << ")";
  }
}

TEST(FlowTableTest, InstallBurstSettlesInRankOrder) {
  const Bytes wire = UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                             9, "x");
  FlowTable table;
  std::uint64_t next = 0;
  // A settled table, then a burst with no read in between. Priorities
  // repeat, so ties fall both inside the burst and against settled
  // entries; the burst is long enough that an unstable sort reorders it.
  for (const int priority : {7, 3, 3, 1}) {
    EXPECT_EQ(InstallAny(table, priority, next), next);
    ++next;
  }
  ASSERT_EQ(table.Entries().size(), 4u);
  for (int i = 0; i < 96; ++i) {
    EXPECT_EQ(InstallAny(table, (i * 5) % 9, next), next);
    ++next;
  }
  EXPECT_EQ(table.Size(), 100u);
  // The lookup settles the burst: of the priority-8 matches, the
  // earliest-installed wins (cookie 4 + the first i with i*5 % 9 == 8).
  EXPECT_EQ(table.Lookup(Parse(wire), 0)->cookie, 4u + 7u);
  ExpectRankOrder(table);
  ASSERT_EQ(table.Entries().size(), 100u);

  // A second burst lands behind every settled entry of its priority.
  for (int i = 0; i < 20; ++i) InstallAny(table, 8 - (i % 3) * 4, next++);
  EXPECT_EQ(table.Lookup(Parse(wire), 0)->cookie, 4u + 7u);
  ExpectRankOrder(table);
  EXPECT_EQ(table.Size(), 120u);
}

TEST(FlowTableTest, RemoveByCookieTakesPendingEntries) {
  FlowTable table;
  InstallAny(table, 5, 9);
  InstallAny(table, 2, 1);
  ASSERT_EQ(table.Entries().size(), 2u);
  InstallAny(table, 4, 9);  // pending from here on
  InstallAny(table, 6, 2);
  InstallAny(table, 1, 9);
  const std::uint64_t before = table.generation();
  EXPECT_EQ(table.RemoveByCookie(9), 3u);
  EXPECT_GT(table.generation(), before);
  EXPECT_EQ(table.Size(), 2u);
  ASSERT_EQ(table.Entries().size(), 2u);
  EXPECT_EQ(table.Entries()[0].cookie, 2u);
  EXPECT_EQ(table.Entries()[1].cookie, 1u);
  EXPECT_EQ(table.RemoveByCookie(9), 0u);
}

TEST(FlowTableTest, RemovingAnAbsentCookieLeavesGenerationAlone) {
  FlowTable table;
  InstallAny(table, 5, 1, /*version=*/1);
  InstallAny(table, 5, 2, /*version=*/2);
  InstallAny(table, 3, 3, /*version=*/2);  // all three still pending
  std::uint64_t generation = table.generation();
  EXPECT_EQ(table.RemoveByCookie(42), 0u);
  EXPECT_EQ(table.generation(), generation);
  EXPECT_EQ(table.Size(), 3u);

  // Cookies emptied by either removal path count as absent afterwards.
  EXPECT_EQ(table.RemoveByCookie(2), 1u);
  EXPECT_EQ(table.RemoveOlderThan(2), 1u);  // cookie 1's only entry
  generation = table.generation();
  EXPECT_EQ(table.RemoveByCookie(2), 0u);
  EXPECT_EQ(table.RemoveByCookie(1), 0u);
  EXPECT_EQ(table.generation(), generation);
  EXPECT_EQ(table.RemoveByCookie(3), 1u);
  EXPECT_EQ(table.Size(), 0u);
}

TEST(FlowTableTest, SizeCountsPendingEntriesAndClearDropsThem) {
  const Bytes wire = UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                             9, "x");
  FlowTable table;
  InstallAny(table, 1, 1);
  ASSERT_NE(table.Lookup(Parse(wire), 0), nullptr);
  InstallAny(table, 2, 2);
  InstallAny(table, 3, 3);
  EXPECT_EQ(table.Size(), 3u);

  const std::uint64_t before = table.generation();
  table.Clear();
  EXPECT_GT(table.generation(), before);
  EXPECT_EQ(table.Size(), 0u);
  EXPECT_TRUE(table.Entries().empty());
  EXPECT_EQ(table.Lookup(Parse(wire), 0), nullptr);
  const std::uint64_t cleared = table.generation();
  EXPECT_EQ(table.RemoveByCookie(3), 0u);
  EXPECT_EQ(table.generation(), cleared);

  // Sequence numbers keep counting across Clear.
  EXPECT_EQ(InstallAny(table, 4, 4), 3u);
  EXPECT_EQ(table.Size(), 1u);
  EXPECT_EQ(table.Lookup(Parse(wire), 0)->cookie, 4u);
}

// ------------------------------------------------------------- Switch

class Collector final : public net::PacketSink {
 public:
  void Receive(net::PacketPtr pkt, int port) override {
    packets.push_back(std::move(pkt));
    (void)port;
  }
  std::vector<net::PacketPtr> packets;
};

struct SwitchRig {
  sim::Simulator sim;
  Switch sw{7, sim, Switch::MissBehavior::kDrop};
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<Collector>> sinks;

  /// Adds a port with a collector hanging off it; returns the port index.
  int AddPort() {
    links.push_back(std::make_unique<net::Link>(sim, net::LinkConfig{}));
    sinks.push_back(std::make_unique<Collector>());
    const int port = sw.AttachLink(links.back().get(), 0);
    links.back()->Attach(1, sinks.back().get(), 0);
    return port;
  }

  void InjectOn(int port, Bytes wire) {
    // Send from the far end of that port's link toward the switch.
    links[static_cast<std::size_t>(port)]->Send(1, net::MakePacket(std::move(wire)));
  }
};

TEST(SwitchTest, OutputActionForwards) {
  SwitchRig rig;
  const int p0 = rig.AddPort();
  const int p1 = rig.AddPort();

  FlowEntry e;
  e.priority = 10;
  e.match.in_port = p0;
  e.actions = {FlowAction::Output(p1)};
  rig.sw.flow_table().Install(e);

  rig.InjectOn(p0, UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                           9, "fwd"));
  rig.sim.Run();
  EXPECT_EQ(rig.sinks[static_cast<std::size_t>(p1)]->packets.size(), 1u);
  EXPECT_EQ(rig.sinks[static_cast<std::size_t>(p0)]->packets.size(), 0u);
  EXPECT_EQ(rig.sw.stats().frames, 1u);
}

TEST(SwitchTest, DropAndMissBehavior) {
  SwitchRig rig;
  const int p0 = rig.AddPort();
  rig.AddPort();

  // No entries, kDrop: everything vanishes.
  rig.InjectOn(p0, UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                           9, "x"));
  rig.sim.Run();
  EXPECT_EQ(rig.sw.stats().misses, 1u);
  EXPECT_EQ(rig.sw.stats().drops, 1u);

  // Flood mode: copies to every port but ingress.
  rig.sw.SetMissBehavior(Switch::MissBehavior::kFlood);
  rig.InjectOn(p0, UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                           9, "x"));
  rig.sim.Run();
  EXPECT_EQ(rig.sinks[1]->packets.size(), 1u);
  EXPECT_EQ(rig.sinks[0]->packets.size(), 0u);
}

class PacketInCollector final : public PacketInHandler {
 public:
  void OnPacketIn(SwitchId sw, int in_port, net::PacketPtr pkt) override {
    events.emplace_back(sw, in_port);
    packets.push_back(std::move(pkt));
  }
  std::vector<std::pair<SwitchId, int>> events;
  std::vector<net::PacketPtr> packets;
};

TEST(SwitchTest, PacketInOnMiss) {
  SwitchRig rig;
  const int p0 = rig.AddPort();
  PacketInCollector handler;
  rig.sw.SetPacketInHandler(&handler);
  rig.sw.SetMissBehavior(Switch::MissBehavior::kToController);

  rig.InjectOn(p0, UdpWire(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2),
                           9, "tocontroller"));
  rig.sim.Run();
  ASSERT_EQ(handler.events.size(), 1u);
  EXPECT_EQ(handler.events[0].first, 7u);
  EXPECT_EQ(handler.events[0].second, p0);
}

TEST(SwitchTest, TunnelDivertAndReturn) {
  SwitchRig rig;
  const int device_port = rig.AddPort();
  const int cluster_port = rig.AddPort();
  const int peer_port = rig.AddPort();

  const auto device_ip = Ipv4Address(10, 0, 0, 5);
  const auto peer_mac = MacAddress::FromId(2);
  rig.sw.SetMacPort(peer_mac, peer_port);

  FlowEntry divert;
  divert.priority = 100;
  divert.match = FlowMatch::FromIp(device_ip);
  divert.actions = {FlowAction::Tunnel(/*umbox=*/55, cluster_port)};
  rig.sw.flow_table().Install(divert);

  // Device emits a frame: it must arrive at the cluster port encapsulated.
  rig.InjectOn(device_port,
               UdpWire(device_ip, Ipv4Address(10, 0, 0, 9), 5009, "diverted"));
  rig.sim.Run();
  auto& cluster_sink = *rig.sinks[static_cast<std::size_t>(cluster_port)];
  ASSERT_EQ(cluster_sink.packets.size(), 1u);
  auto decap = proto::Decapsulate(cluster_sink.packets[0]->data());
  ASSERT_TRUE(decap.has_value());
  EXPECT_EQ(decap->header.vni, 55u);
  EXPECT_EQ(decap->header.origin_switch, 7u);
  EXPECT_EQ(decap->header.direction, proto::TunnelDirection::kToUmbox);
  EXPECT_EQ(rig.sw.stats().tunneled, 1u);

  // The µmbox verdict comes back: switch decapsulates and delivers to the
  // destination MAC's port.
  proto::TunnelHeader th;
  th.vni = 55;
  th.direction = proto::TunnelDirection::kFromUmbox;
  th.origin_switch = 7;
  Bytes verdict = proto::Encapsulate(
      MacAddress::FromId(0xee), MacAddress::Broadcast(), th, decap->inner);
  rig.InjectOn(cluster_port, verdict);
  rig.sim.Run();
  auto& peer_sink = *rig.sinks[static_cast<std::size_t>(peer_port)];
  ASSERT_EQ(peer_sink.packets.size(), 1u);
  EXPECT_EQ(rig.sw.stats().decapsulated, 1u);
  auto inner = proto::ParseFrame(peer_sink.packets[0]->data());
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(ToString(inner->payload), "diverted");
}

TEST(SwitchTest, MalformedFrameDropped) {
  SwitchRig rig;
  const int p0 = rig.AddPort();
  rig.InjectOn(p0, Bytes{1, 2, 3});
  rig.sim.Run();
  EXPECT_EQ(rig.sw.stats().drops, 1u);
}

}  // namespace
}  // namespace iotsec::sdn
