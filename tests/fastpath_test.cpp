// Fast-path correctness: cached lookup ≡ classifier ≡ first-match scan
// over Entries() (property test),
// generation invalidation, parse-once header caching, pooled packets and
// gated tracing.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "common/rng.h"
#include "net/packet.h"
#include "proto/frame.h"
#include "proto/tunnel.h"
#include "sdn/flow_key.h"
#include "sdn/flow_table.h"
#include "sdn/microflow_cache.h"
#include "sdn/switch.h"
#include "sim/simulator.h"

namespace iotsec {
namespace {

using net::Ipv4Address;
using net::MacAddress;

/// Reference classification: the first entry of Entries() (rank order)
/// whose match accepts the frame.
const sdn::FlowEntry* FirstMatch(const sdn::FlowTable& table,
                                 const proto::ParsedFrame& frame,
                                 int in_port) {
  for (const sdn::FlowEntry& e : table.Entries()) {
    if (e.match.Matches(frame, in_port)) return &e;
  }
  return nullptr;
}

/// A UDP frame; one in four is carried as TCP and one in eight wrapped
/// in a tunnel header (non-IP at the outer layer).
Bytes RandomFrame(Rng& rng) {
  const auto src_mac =
      MacAddress::FromId(static_cast<std::uint32_t>(rng.NextBelow(8)));
  const auto dst_mac =
      MacAddress::FromId(static_cast<std::uint32_t>(rng.NextBelow(8)));
  const Ipv4Address src(10, 0, 0,
                        static_cast<std::uint8_t>(rng.NextBelow(16)));
  const Ipv4Address dst(10, 0, 0,
                        static_cast<std::uint8_t>(rng.NextBelow(16)));
  const auto sport = static_cast<std::uint16_t>(1000 + rng.NextBelow(8));
  const auto dport = static_cast<std::uint16_t>(1000 + rng.NextBelow(8));
  const std::uint8_t payload[] = {0xab, 0xcd};
  const auto kind = rng.NextBelow(8);
  if (kind < 2) {
    proto::TcpHeader tcp;
    tcp.src_port = sport;
    tcp.dst_port = dport;
    return proto::BuildTcpFrame(src_mac, dst_mac, src, dst, tcp, payload);
  }
  const Bytes udp =
      proto::BuildUdpFrame(src_mac, dst_mac, src, dst, sport, dport, payload);
  if (kind > 2) return udp;
  proto::TunnelHeader th;
  th.vni = 3;
  return proto::Encapsulate(src_mac, dst_mac, th, udp);
}

sdn::FlowEntry RandomEntry(Rng& rng, std::uint64_t cookie,
                           std::uint64_t version) {
  sdn::FlowEntry entry;
  entry.priority = static_cast<int>(rng.NextBelow(8));
  entry.cookie = cookie;
  entry.version = version;
  entry.actions.push_back(sdn::FlowAction::Output(0));
  auto& m = entry.match;
  // Each field wildcarded or pinned independently, drawing from the same
  // small value pools as RandomFrame so matches actually occur.
  if (rng.NextBool(0.3)) m.in_port = static_cast<int>(rng.NextBelow(4));
  if (rng.NextBool(0.3)) {
    m.eth_src = MacAddress::FromId(static_cast<std::uint32_t>(rng.NextBelow(8)));
  }
  if (rng.NextBool(0.3)) {
    m.eth_dst = MacAddress::FromId(static_cast<std::uint32_t>(rng.NextBelow(8)));
  }
  if (rng.NextBool(0.2)) {
    m.ethertype = rng.NextBool(0.8) ? proto::EtherType::kIpv4
                                    : proto::EtherType::kTunnel;
  }
  // Prefix lengths 0-32; below /24 the 10.0.0.x pools all collapse into
  // one network, so short prefixes overlap heavily.
  if (rng.NextBool(0.4)) {
    m.ip_src = net::Ipv4Prefix(
        Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.NextBelow(16))),
        static_cast<int>(rng.NextBelow(33)));
  }
  if (rng.NextBool(0.4)) {
    m.ip_dst = net::Ipv4Prefix(
        Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.NextBelow(16))),
        static_cast<int>(rng.NextBelow(33)));
  }
  if (rng.NextBool(0.2)) {
    m.ip_proto = rng.NextBool(0.5) ? proto::IpProto::kUdp
                                   : proto::IpProto::kTcp;
  }
  if (rng.NextBool(0.3)) {
    m.l4_src = static_cast<std::uint16_t>(1000 + rng.NextBelow(8));
  }
  if (rng.NextBool(0.3)) {
    m.l4_dst = static_cast<std::uint16_t>(1000 + rng.NextBelow(8));
  }
  return entry;
}

// The core semantic-equivalence property: across randomized rule tables,
// randomized frames, and randomized mutation sequences (install, remove by
// cookie, version sweep, clear), both the classifier and the cache-fronted
// lookup return exactly the entry a first-match scan over Entries()
// returns — including cached negatives — and byte accounting lands on
// that entry.
TEST(MicroflowCacheProperty, CacheEquivalentToFirstMatchScanUnderMutation) {
  Rng rng(0xfa57);
  for (int round = 0; round < 30; ++round) {
    sdn::FlowTable table;
    sdn::MicroflowCache cache(256);  // small: exercises collisions too
    std::uint64_t next_cookie = 1;
    std::uint64_t version = 1;
    for (int i = 0; i < 24; ++i) {
      table.Install(RandomEntry(rng, next_cookie++, version));
    }
    // A bounded working set of flows, so the steady state revisits the
    // same exact flows and the cache actually serves hits.
    std::vector<Bytes> flows;
    for (int i = 0; i < 12; ++i) flows.push_back(RandomFrame(rng));
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> counts;
    for (int step = 0; step < 600; ++step) {
      // Mutate the table ~10% of the time.
      if (rng.NextBool(0.10)) {
        switch (rng.NextBelow(4)) {
          case 0:
            table.Install(RandomEntry(rng, next_cookie++, version));
            break;
          case 1:
            table.RemoveByCookie(1 + rng.NextBelow(next_cookie));
            break;
          case 2:
            ++version;
            // Reinstall a few entries at the new version, sweep the rest.
            for (int i = 0; i < 4; ++i) {
              table.Install(RandomEntry(rng, next_cookie++, version));
            }
            table.RemoveOlderThan(version);
            break;
          case 3:
            if (rng.NextBool(0.1)) table.Clear();
            break;
        }
      }
      const Bytes& bytes = flows[rng.NextBelow(flows.size())];
      const auto frame = proto::ParseFrame(bytes);
      ASSERT_TRUE(frame.has_value());
      const int in_port = static_cast<int>(rng.NextBelow(4));
      // Only the cached lookup accounts bytes, so counters are
      // attributed once per step.
      const sdn::FlowEntry* scanned = FirstMatch(table, *frame, in_port);
      const sdn::FlowEntry* classified = table.Lookup(*frame, in_port, 0);
      const sdn::FlowEntry* cached =
          table.LookupCached(cache, *frame, in_port, bytes.size());
      ASSERT_EQ(classified, scanned)
          << "round " << round << " step " << step
          << " gen " << table.generation();
      ASSERT_EQ(cached, scanned)
          << "round " << round << " step " << step
          << " gen " << table.generation();
      if (scanned != nullptr) {
        ++counts[scanned->cookie].first;
        counts[scanned->cookie].second += bytes.size();
      }
    }
    for (const sdn::FlowEntry& e : table.Entries()) {
      EXPECT_EQ(e.packets, counts[e.cookie].first) << "cookie " << e.cookie;
      EXPECT_EQ(e.bytes, counts[e.cookie].second) << "cookie " << e.cookie;
    }
    // The steady-state phase above must actually exercise the cache.
    EXPECT_GT(cache.stats().hits, 0u);
  }
}

TEST(MicroflowCache, InvalidatedByInstallRemoveAndClear) {
  sdn::FlowTable table;
  sdn::MicroflowCache cache;

  sdn::FlowEntry low;
  low.priority = 1;
  low.cookie = 7;
  low.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 0, 1), 32);
  low.actions.push_back(sdn::FlowAction::Output(1));
  table.Install(low);

  const Bytes bytes = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 9),
      Ipv4Address(10, 0, 0, 1), 1111, 2222, {});
  const auto frame = proto::ParseFrame(bytes);
  ASSERT_TRUE(frame.has_value());

  const sdn::FlowEntry* first = table.LookupCached(cache, *frame, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->cookie, 7u);
  EXPECT_EQ(table.LookupCached(cache, *frame, 0), first);
  EXPECT_GE(cache.stats().hits, 1u);

  // A higher-priority install must take effect immediately (a stale hit
  // would keep steering to cookie 7).
  sdn::FlowEntry high;
  high.priority = 9;
  high.cookie = 8;
  high.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 0, 1), 32);
  high.actions.push_back(sdn::FlowAction::Drop());
  table.Install(high);
  const sdn::FlowEntry* after_install = table.LookupCached(cache, *frame, 0);
  ASSERT_NE(after_install, nullptr);
  EXPECT_EQ(after_install->cookie, 8u);

  // Removing the winner falls back to the remaining entry.
  table.RemoveByCookie(8);
  const sdn::FlowEntry* after_remove = table.LookupCached(cache, *frame, 0);
  ASSERT_NE(after_remove, nullptr);
  EXPECT_EQ(after_remove->cookie, 7u);

  // Clearing the table turns the cached positive into a miss.
  table.Clear();
  EXPECT_EQ(table.LookupCached(cache, *frame, 0), nullptr);
  EXPECT_GT(cache.stats().stale, 0u);
}

TEST(MicroflowCache, CachesNegativeVerdicts) {
  sdn::FlowTable table;  // empty: everything misses
  sdn::MicroflowCache cache;
  const Bytes bytes = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1000, 2000, {});
  const auto frame = proto::ParseFrame(bytes);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(table.LookupCached(cache, *frame, 0), nullptr);
  EXPECT_EQ(table.LookupCached(cache, *frame, 0), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Until the table changes, the negative is served from the cache; once
  // a matching entry lands, the generation bump exposes it.
  sdn::FlowEntry any;
  any.priority = 0;
  any.cookie = 42;
  any.actions.push_back(sdn::FlowAction::Flood());
  table.Install(any);
  const sdn::FlowEntry* entry = table.LookupCached(cache, *frame, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->cookie, 42u);
}

TEST(MicroflowCache, FlowKeyCoversAllMatchFields) {
  // Two frames differing only in L4 source port must produce different
  // keys (a shared key would let one flow's verdict answer for another).
  const Bytes a = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1000, 2000, {});
  const Bytes b = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1001, 2000, {});
  const auto fa = proto::ParseFrame(a);
  const auto fb = proto::ParseFrame(b);
  ASSERT_TRUE(fa && fb);
  EXPECT_FALSE(sdn::FlowKey::FromFrame(*fa, 0) ==
               sdn::FlowKey::FromFrame(*fb, 0));
  // Same frame on different ingress ports is also a different flow.
  EXPECT_FALSE(sdn::FlowKey::FromFrame(*fa, 0) ==
               sdn::FlowKey::FromFrame(*fa, 1));
  EXPECT_TRUE(sdn::FlowKey::FromFrame(*fa, 0) ==
              sdn::FlowKey::FromFrame(*fa, 0));
}

TEST(ParseOnce, CachedViewMatchesFreshParseAndInvalidatesOnMutation) {
  auto pkt = net::MakePacket(proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1234, 5678, {}));
  const auto* first = pkt->Parsed();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->ip->src, Ipv4Address(10, 0, 0, 3));
  EXPECT_EQ(first->udp->dst_port, 5678);
  // Second call serves the identical cached object.
  EXPECT_EQ(pkt->Parsed(), first);

  // Mutating the bytes invalidates the view; the next parse sees the
  // rewritten frame.
  pkt->SetData(proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 9),
      Ipv4Address(10, 0, 0, 4), 1234, 5678, {}));
  const auto* second = pkt->Parsed();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->ip->src, Ipv4Address(10, 0, 0, 9));

  // MutableData() also invalidates (truncate to garbage -> parse fails).
  pkt->MutableData().resize(3);
  EXPECT_EQ(pkt->Parsed(), nullptr);
}

TEST(ParseOnce, ClonesReparseAgainstTheirOwnBuffer) {
  auto pkt = net::MakePacket(proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 3),
      Ipv4Address(10, 0, 0, 4), 1234, 5678, {}));
  const auto* frame = pkt->Parsed();
  ASSERT_NE(frame, nullptr);
  auto clone = net::ClonePacket(*pkt);
  const auto* cloned_frame = clone->Parsed();
  ASSERT_NE(cloned_frame, nullptr);
  EXPECT_NE(cloned_frame, frame);  // distinct cached views
  // The clone's payload span must point into the clone's own buffer.
  const auto* base = clone->data().data();
  EXPECT_GE(cloned_frame->payload.data(), base);
  EXPECT_LE(cloned_frame->payload.data() + cloned_frame->payload.size(),
            base + clone->data().size());
  EXPECT_EQ(cloned_frame->ip->src, frame->ip->src);
}

TEST(PacketPool, RecyclesReleasedPackets) {
  auto& pool = net::PacketPool::Global();
  auto pkt = net::MakePacket(Bytes{1, 2, 3});
  net::Packet* raw = pkt.get();
  pkt->Trace("hop");
  const std::size_t before = pool.FreeCount();
  pkt.reset();  // releases to the pool's free list
  ASSERT_EQ(pool.FreeCount(), before + 1);
  // The next acquire reuses the released object, fully reset.
  auto reused = net::MakePacket(Bytes{9});
  EXPECT_EQ(reused.get(), raw);
  EXPECT_EQ(reused->size(), 1u);
  EXPECT_TRUE(reused->trace().empty());
  EXPECT_EQ(reused->ingress_port, -1);
}

TEST(PacketTracing, DisabledTracingRecordsNothing) {
  net::SetPacketTracing(false);
  auto pkt = net::MakePacket(Bytes{1, 2, 3});
  pkt->Trace("switch:1");
  auto clone = net::ClonePacket(*pkt);
  clone->CopyTraceFrom(*pkt);
  EXPECT_TRUE(pkt->trace().empty());
  EXPECT_TRUE(clone->trace().empty());
  net::SetPacketTracing(true);
  pkt->Trace("switch:1");
  ASSERT_EQ(pkt->trace().size(), 1u);
  EXPECT_EQ(pkt->trace()[0], "switch:1");
}

// End-to-end: a switch forwarding by cache serves repeat traffic from the
// microflow cache and reacts immediately to FlowMods.
TEST(SwitchFastPath, CacheHitsAndFlowModInvalidation) {
  sim::Simulator sim;
  sdn::Switch sw(1, sim, sdn::Switch::MissBehavior::kDrop);
  net::Link out_link(sim);
  struct CountingSink : net::PacketSink {
    int received = 0;
    void Receive(net::PacketPtr, int) override { ++received; }
  } sink;
  const int out_port = sw.AttachLink(&out_link, 0);
  out_link.Attach(1, &sink, 0);

  sdn::FlowEntry fwd;
  fwd.priority = 5;
  fwd.cookie = 1;
  fwd.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 0, 2), 32);
  fwd.actions.push_back(sdn::FlowAction::Output(out_port));
  sw.flow_table().Install(fwd);

  const Bytes bytes = proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 1),
      Ipv4Address(10, 0, 0, 2), 4000, 5000, {});
  for (int i = 0; i < 10; ++i) {
    sw.Receive(net::MakePacket(bytes), 5);
  }
  sim.Run();
  EXPECT_EQ(sink.received, 10);
  EXPECT_GE(sw.microflow_cache().stats().hits, 9u);

  // FlowMod: higher-priority drop entry must win on the very next packet.
  sdn::FlowEntry drop;
  drop.priority = 9;
  drop.cookie = 2;
  drop.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 0, 2), 32);
  drop.actions.push_back(sdn::FlowAction::Drop());
  sw.flow_table().Install(drop);
  const auto drops_before = sw.stats().drops;
  sw.Receive(net::MakePacket(bytes), 5);
  sim.Run();
  EXPECT_EQ(sink.received, 10);
  EXPECT_EQ(sw.stats().drops, drops_before + 1);
}

}  // namespace
}  // namespace iotsec
