// Allocation guard for the guarded packet path: once warm, the DPI
// verdict on an HTTP frame (builtin ruleset, including the content-less
// http_path/http_auth_absent rule), the in-place HTTP request view, and a
// tunnel round trip through pooled packets (switch encap, host decap, host
// encap, switch decap) must not touch the heap; nor may a link's send
// and delivery, bound or not. A µmbox launch is not a packet-path cost,
// but a warm one is bounded too: it must not parse its ruleset again.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "core/postures.h"
#include "dataplane/graph.h"
#include "net/link.h"
#include "net/packet.h"
#include "proto/frame.h"
#include "proto/http.h"
#include "proto/tunnel.h"
#include "sig/compiled_ruleset.h"
#include "sig/corpus.h"
#include "sim/shard_set.h"

namespace iotsec {
namespace {

using net::Ipv4Address;
using net::MacAddress;

constexpr int kWarmup = 4;
constexpr int kIters = 200;

/// A GET as a client puts it on the wire (request line plus Host).
Bytes GetFrame(const std::string& path) {
  proto::HttpRequest req;
  req.path = path;
  req.SetHeader("Host", "10.0.0.12");
  proto::TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 80;
  tcp.seq = 1;
  tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
  return proto::BuildTcpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 200),
                              Ipv4Address(10, 0, 0, 12), tcp, req.Serialize());
}

/// A ~1.4 kB frame: the padded GETs a fleet's clients send.
Bytes PaddedGetFrame() {
  std::string path = "/?pad=";
  for (int i = 0; i < 1311; ++i) {
    path += "abcdefghijklmnopqrstuvwxyz0123456789"[i % 36];
  }
  return GetFrame(path);
}

TEST(PacketPathAllocTest, BuiltinRulesetEvaluateAllocatesNothing) {
  const sig::CompiledRuleset rules(sig::BuiltinRules());
  sig::EvalScratch scratch;
  const Bytes bare = GetFrame("/");
  const Bytes padded = PaddedGetFrame();
  ASSERT_GT(padded.size(), 1390u);
  for (const Bytes* wire : {&bare, &padded}) {
    SCOPED_TRACE(wire->size());
    const auto frame = proto::ParseFrame(*wire);
    ASSERT_TRUE(frame.has_value());
    for (int i = 0; i < kWarmup; ++i) (void)rules.Evaluate(*frame, scratch);
    const std::uint64_t before = News();
    bool matched = false;
    for (int i = 0; i < kIters; ++i) {
      matched = rules.Evaluate(*frame, scratch).Matched() || matched;
    }
    EXPECT_EQ(News() - before, 0u);
    EXPECT_FALSE(matched);
  }
}

TEST(PacketPathAllocTest, WarmMonitorBuildParsesNoRules) {
  // While one Monitor chain is alive, the next launch of the same config
  // finds its compile by text: no ruleset parse, no canonical rule text,
  // and no copy of the compile's rule list (26 blocks measured).
  // Re-parsing the builtin corpus alone costs well over 100 blocks.
  constexpr std::uint64_t kMaxBlocks = 32;
  const std::string config = core::MonitorPosture().umbox_config;
  const dataplane::ElementContext ctx;
  std::string error;
  const auto first = dataplane::MboxGraph::Build(config, ctx, &error);
  ASSERT_NE(first, nullptr) << error;
  const std::uint64_t before = News();
  const auto second = dataplane::MboxGraph::Build(config, ctx, &error);
  const std::uint64_t blocks = News() - before;
  ASSERT_NE(second, nullptr) << error;
  EXPECT_LE(blocks, kMaxBlocks);
}

TEST(PacketPathAllocTest, RequestViewParseAndHeaderAllocateNothing) {
  const Bytes padded = PaddedGetFrame();
  const auto frame = proto::ParseFrame(padded);
  ASSERT_TRUE(frame.has_value());
  const std::uint64_t before = News();
  std::size_t seen = 0;
  for (int i = 0; i < kIters; ++i) {
    const auto req = proto::HttpRequestView::Parse(frame->payload);
    ASSERT_TRUE(req.has_value());
    seen += req->path.size();
    const auto host = req->Header("host");
    ASSERT_TRUE(host.has_value());
    seen += host->size();
    EXPECT_FALSE(req->Header("Authorization").has_value());
  }
  EXPECT_EQ(News() - before, 0u);
  EXPECT_GT(seen, 0u);
}

TEST(PacketPathAllocTest, PooledTunnelRoundTripAllocatesNothing) {
  const bool tracing = net::Packet::TracingEnabled();
  net::SetPacketTracing(false);
  net::PacketPool pool;
  net::PacketPool::BindToThisThread(&pool);
  const Bytes wire = PaddedGetFrame();
  proto::TunnelHeader to_umbox;
  to_umbox.vni = 7;
  to_umbox.origin_switch = 1;
  proto::TunnelHeader from_umbox = to_umbox;
  from_umbox.direction = proto::TunnelDirection::kFromUmbox;
  const MacAddress switch_mac = MacAddress::FromId(0xffff01);
  const MacAddress host_mac = MacAddress::FromId(0xee0001);

  std::size_t delivered_ok = 0;
  auto round_trip = [&] {
    auto device_pkt = net::MakePacket();
    device_pkt->MutableData().assign(wire.begin(), wire.end());
    // Edge switch: divert into the tunnel.
    auto to_host = net::TunnelEncap(*device_pkt, switch_mac,
                                    MacAddress::Broadcast(), to_umbox);
    device_pkt.reset();
    // µmbox host: unwrap for the chain.
    const auto in = proto::Decapsulate(to_host->data());
    ASSERT_TRUE(in.has_value());
    auto at_umbox = net::TunnelDecap(*to_host, in->inner);
    to_host.reset();
    // µmbox host: wrap the verdict frame for the return trip.
    auto back = net::TunnelEncap(*at_umbox, host_mac, MacAddress::Broadcast(),
                                 from_umbox);
    at_umbox.reset();
    // Origin switch: unwrap and deliver.
    const auto out = proto::Decapsulate(back->data());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->header.direction, proto::TunnelDirection::kFromUmbox);
    auto delivered = net::TunnelDecap(*back, out->inner);
    back.reset();
    delivered_ok += delivered->data() == wire ? 1 : 0;
  };
  for (int i = 0; i < kWarmup; ++i) round_trip();
  const std::uint64_t before = News();
  for (int i = 0; i < kIters; ++i) round_trip();
  EXPECT_EQ(News() - before, 0u);
  EXPECT_EQ(delivered_ok, static_cast<std::size_t>(kWarmup + kIters));

  net::PacketPool::BindToThisThread(nullptr);
  net::SetPacketTracing(tracing);
}

// Counts arrivals and keeps no reference.
class CountingSink final : public net::PacketSink {
 public:
  void Receive(net::PacketPtr pkt, int port) override {
    (void)port;
    bytes += pkt->size();
    ++packets;
  }
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

TEST(PacketPathAllocTest, LinkSendAndDeliveryAllocateNothing) {
  const net::PacketPtr bare = net::MakePacket(GetFrame("/"));
  const net::PacketPtr padded = net::MakePacket(PaddedGetFrame());
  for (const bool bound : {false, true}) {
    SCOPED_TRACE(bound ? "bound" : "unbound");
    sim::ShardSet::Options options;
    options.shards = 2;
    options.use_threads = false;
    sim::ShardSet set(options);
    net::Link link(set.sim(0));
    if (bound) link.BindShards(&set, 0, 1);
    CountingSink sink;
    link.Attach(0, &sink, 0);
    link.Attach(1, &sink, 1);
    // Bursts in both directions, so packets queue behind the wire.
    auto round = [&] {
      for (int i = 0; i < 8; ++i) {
        link.Send(0, bare);
        link.Send(0, padded);
        link.Send(1, padded);
      }
      set.RunFor(10 * kMillisecond);
    };
    for (int i = 0; i < kWarmup; ++i) round();
    const std::uint64_t before = News();
    for (int i = 0; i < kIters; ++i) round();
    EXPECT_EQ(News() - before, 0u);
    EXPECT_EQ(sink.packets, 24u * (kWarmup + kIters));
    EXPECT_EQ(link.stats(0).drops + link.stats(1).drops, 0u);
  }
}

TEST(PacketPathAllocTest, LinkQueueRingGrowsWithBacklogNotLimit) {
  // ShardedFleet-sized limit: a ring preallocated to it would hold 8 MB
  // per direction.
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.queue_limit = 1 << 20;
  net::Link link(sim, cfg);
  CountingSink sink;
  link.Attach(1, &sink, 0);
  const net::PacketPtr pkt = net::MakePacket(PaddedGetFrame());

  for (int i = 0; i < 5; ++i) link.Send(0, pkt);  // one on the wire, 4 wait
  EXPECT_GE(link.queue_capacity(0), 4u);
  EXPECT_LE(link.queue_capacity(0), 8u);
  EXPECT_EQ(link.queue_capacity(1), 0u) << "an idle direction holds nothing";
  sim.Run();

  // A deeper backlog grows the ring to within 2x of it, and draining
  // keeps the ring for reuse instead of shrinking and regrowing.
  for (int i = 0; i < 1001; ++i) link.Send(0, pkt);
  EXPECT_GE(link.queue_capacity(0), 1000u);
  EXPECT_LE(link.queue_capacity(0), 2000u);
  sim.Run();
  EXPECT_EQ(sink.packets, 1006u);
  EXPECT_EQ(link.stats(0).drops, 0u);
  EXPECT_LE(link.queue_capacity(0), 2000u);
}

}  // namespace
}  // namespace iotsec
