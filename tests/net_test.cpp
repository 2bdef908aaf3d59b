// Tests for links and the connection tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <type_traits>
#include <vector>

#include "net/link.h"
#include "proto/conn_track.h"
#include "proto/frame.h"
#include "sim/shard_set.h"
#include "sim/simulator.h"

namespace iotsec {
namespace {

using net::Ipv4Address;
using net::MacAddress;

// The dotted-quad formatter prints what "%u.%u.%u.%u" does for every
// digit-count boundary an octet can sit on.
TEST(AddressTest, Ipv4ToStringMatchesPrintf) {
  const unsigned octets[] = {0, 9, 10, 99, 100, 255};
  for (const unsigned a : octets) {
    for (const unsigned b : octets) {
      for (const unsigned c : octets) {
        for (const unsigned d : octets) {
          char expected[16];
          std::snprintf(expected, sizeof expected, "%u.%u.%u.%u", a, b, c, d);
          const Ipv4Address addr(static_cast<std::uint8_t>(a),
                                 static_cast<std::uint8_t>(b),
                                 static_cast<std::uint8_t>(c),
                                 static_cast<std::uint8_t>(d));
          EXPECT_EQ(addr.ToString(), expected);
          EXPECT_EQ(Ipv4Address::Parse(addr.ToString()), addr);
        }
      }
    }
  }
}

class Collector final : public net::PacketSink {
 public:
  void Receive(net::PacketPtr pkt, int port) override {
    packets.push_back(std::move(pkt));
    ports.push_back(port);
  }
  std::vector<net::PacketPtr> packets;
  std::vector<int> ports;
};

TEST(LinkTest, DeliversAfterLatency) {
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.latency = kMillisecond;
  cfg.bandwidth_bps = 1e9;
  net::Link link(sim, cfg);
  Collector sink;
  link.Attach(1, &sink, 7);

  auto pkt = net::MakePacket(Bytes(100, 0xaa));
  link.Send(0, pkt);
  sim.RunUntil(kMillisecond - 1);
  EXPECT_TRUE(sink.packets.empty());
  sim.RunFor(10 * kMillisecond);
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.ports[0], 7);
  EXPECT_EQ(sink.packets[0]->size(), 100u);
}

TEST(LinkTest, SerializationDelayScalesWithSize) {
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.latency = 0;
  cfg.bandwidth_bps = 8000.0;  // 1000 bytes/sec
  net::Link link(sim, cfg);
  Collector sink;
  link.Attach(1, &sink, 0);

  link.Send(0, net::MakePacket(Bytes(500, 1)));  // 0.5s to serialize
  sim.RunUntil(499 * kMillisecond);
  EXPECT_TRUE(sink.packets.empty());
  sim.RunUntil(501 * kMillisecond);
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(LinkTest, FifoOrderAndQueueing) {
  sim::Simulator sim;
  net::Link link(sim, {});
  Collector sink;
  link.Attach(1, &sink, 0);
  for (int i = 0; i < 5; ++i) {
    link.Send(0, net::MakePacket(Bytes(static_cast<std::size_t>(i + 1), 0)));
  }
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.packets[static_cast<std::size_t>(i)]->size(),
              static_cast<std::size_t>(i + 1));
  }
}

TEST(LinkTest, DropsWhenQueueFull) {
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.queue_limit = 2;
  cfg.bandwidth_bps = 1000.0;  // slow, so the queue fills
  net::Link link(sim, cfg);
  Collector sink;
  link.Attach(1, &sink, 0);
  for (int i = 0; i < 10; ++i) {
    link.Send(0, net::MakePacket(Bytes(100, 0)));
  }
  sim.Run();
  EXPECT_GT(link.stats(0).drops, 0u);
  EXPECT_LT(sink.packets.size(), 10u);
}

TEST(LinkTest, FullDuplexIndependentDirections) {
  sim::Simulator sim;
  net::Link link(sim, {});
  Collector left;
  Collector right;
  link.Attach(0, &left, 0);
  link.Attach(1, &right, 0);
  link.Send(0, net::MakePacket(Bytes(10, 1)));
  link.Send(1, net::MakePacket(Bytes(20, 2)));
  sim.Run();
  ASSERT_EQ(left.packets.size(), 1u);
  ASSERT_EQ(right.packets.size(), 1u);
  EXPECT_EQ(left.packets[0]->size(), 20u);
  EXPECT_EQ(right.packets[0]->size(), 10u);
}

TEST(LinkTest, StatsCountAcceptedPacketsAndMatchOnceDrained) {
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.queue_limit = 3;
  cfg.bandwidth_bps = 8000.0;  // 1 ms per byte
  net::Link link(sim, cfg);
  Collector sink;
  link.Attach(1, &sink, 0);
  for (int i = 0; i < 6; ++i) link.Send(0, net::MakePacket(Bytes(10, 0)));
  // One on the wire, three queued, two dropped: all four accepted
  // packets count at once, long before they are serialized.
  EXPECT_EQ(link.stats(0).packets, 4u);
  EXPECT_EQ(link.stats(0).bytes, 40u);
  EXPECT_EQ(link.stats(0).drops, 2u);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 4u);
  EXPECT_EQ(link.stats(0).packets, 4u);
}

TEST(LinkTest, QueueLeavesAtStartTime) {
  // 100 bytes at 8 kbit/s serialize in exactly 100 ms. A send landing on
  // a start time sees that packet gone from the queue.
  sim::Simulator sim;
  net::LinkConfig cfg;
  cfg.latency = 0;
  cfg.queue_limit = 1;
  cfg.bandwidth_bps = 8000.0;
  net::Link link(sim, cfg);
  Collector sink;
  link.Attach(1, &sink, 0);
  link.Send(0, net::MakePacket(Bytes(100, 0)));  // on the wire until 100 ms
  link.Send(0, net::MakePacket(Bytes(100, 1)));  // queued, starts at 100 ms
  link.Send(0, net::MakePacket(Bytes(100, 2)));  // queue full: dropped
  EXPECT_EQ(link.stats(0).drops, 1u);
  sim.RunUntil(100 * kMillisecond);
  link.Send(0, net::MakePacket(Bytes(100, 3)));  // the queued one started
  EXPECT_EQ(link.stats(0).drops, 1u);
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.packets[2]->data()[0], 3);
  EXPECT_EQ(sim.Now(), 300 * kMillisecond);
}

// ------------------------------------------- Link vs. two-event reference

// Serialization delay, as both link models compute it.
SimDuration TxDelay(std::size_t bytes, double bandwidth_bps) {
  return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                  bandwidth_bps * kSecond);
}

// The link model the analytic net::Link replaced, kept as the reference
// it must match: a direction holds a FIFO of packets, and every
// transmission schedules a transmit-complete event that starts the next
// one, besides the delivery.
class TwoEventLink {
 public:
  TwoEventLink(sim::Simulator& simulator, net::LinkConfig config)
      : sim_(simulator), config_(config), loss_rng_(config.loss_seed) {}

  void Attach(int end, net::PacketSink* sink, int port) {
    ends_[end] = {sink, port};
  }

  void BindShards(sim::ShardSet* set, int end0_shard, int end1_shard) {
    shards_ = set;
    end_shard_[0] = end0_shard;
    end_shard_[1] = end1_shard;
    for (int d = 0; d < 2; ++d) {
      dirs_[d].rng = Rng(config_.loss_seed ^ static_cast<std::uint64_t>(d + 1));
    }
  }

  void Send(int from_end, net::PacketPtr pkt) {
    Direction& dir = dirs_[from_end];
    if (SimOf(from_end).Now() == dir.tx_end) ++dir.ties;
    if (config_.loss_rate > 0.0) {
      Rng& rng = shards_ ? dir.rng : loss_rng_;
      if (rng.NextBool(config_.loss_rate)) {
        ++dir.stats.lost;
        return;
      }
    }
    if (dir.queue.size() >= config_.queue_limit) {
      ++dir.stats.drops;
      return;
    }
    dir.queue.push_back(std::move(pkt));
    if (!dir.transmitting) StartTransmit(from_end);
  }

  [[nodiscard]] const net::LinkStats& stats(int direction) const {
    return dirs_[direction].stats;
  }
  /// Sends that landed exactly when a transmission completed.
  [[nodiscard]] int ties() const { return dirs_[0].ties + dirs_[1].ties; }

 private:
  struct Direction {
    std::deque<net::PacketPtr> queue;
    bool transmitting = false;
    SimTime tx_end = ~SimTime{0};
    int ties = 0;  // per direction: each runs on its own shard
    net::LinkStats stats;
    Rng rng;
  };

  sim::Simulator& SimOf(int direction) {
    return shards_ ? shards_->sim(end_shard_[direction]) : sim_;
  }

  void StartTransmit(int direction) {
    Direction& dir = dirs_[direction];
    if (dir.queue.empty()) {
      dir.transmitting = false;
      return;
    }
    dir.transmitting = true;
    net::PacketPtr pkt = dir.queue.front();
    dir.queue.pop_front();
    const SimDuration tx_delay = TxDelay(pkt->size(), config_.bandwidth_bps);
    ++dir.stats.packets;
    dir.stats.bytes += pkt->size();

    const int to_end = 1 - direction;
    sim::Simulator& src_sim = SimOf(direction);
    dir.tx_end = src_sim.Now() + tx_delay;
    src_sim.After(tx_delay, [this, direction] { StartTransmit(direction); });
    const SimTime deliver_at = dir.tx_end + config_.latency;
    auto deliver = [this, to_end, pkt]() mutable {
      ends_[to_end].sink->Receive(std::move(pkt), ends_[to_end].port);
    };
    if (shards_) {
      shards_->Post(end_shard_[to_end], deliver_at, std::move(deliver));
    } else {
      src_sim.At(deliver_at, std::move(deliver));
    }
  }

  sim::Simulator& sim_;
  net::LinkConfig config_;
  Rng loss_rng_;
  struct Endpoint {
    net::PacketSink* sink = nullptr;
    int port = 0;
  } ends_[2];
  Direction dirs_[2];
  sim::ShardSet* shards_ = nullptr;
  int end_shard_[2] = {0, 0};
};

constexpr SimDuration kQuantum = 5 * kMicrosecond;

struct SendOp {
  SimTime at;
  int from;
  std::size_t size;
};

struct Schedule {
  net::LinkConfig config;
  std::vector<SendOp> sends;  // packet id = index
};

// Random traffic for one link: bursts at one instant, sends landing
// exactly where the previous packet would leave the wire, and random
// gaps, in both directions.
Schedule MakeSchedule(std::uint64_t seed) {
  Rng rng(seed);
  Schedule s;
  const double bandwidths[] = {8e6, 1e7, 6.4e7, 1e8, 3.3e8, 1e9};
  s.config.bandwidth_bps = bandwidths[rng.NextBelow(std::size(bandwidths))];
  s.config.latency =
      kQuantum + static_cast<SimDuration>(rng.NextBelow(20 * kMicrosecond));
  s.config.queue_limit = 1 + rng.NextBelow(8);
  s.config.loss_rate = rng.NextBelow(4) == 0 ? 0.2 : 0.0;
  s.config.loss_seed = rng.NextU64();
  SimTime now[2] = {kMicrosecond, kMicrosecond};
  SimTime busy_until[2] = {0, 0};  // ignoring drops and losses
  const int n = static_cast<int>(rng.NextInRange(60, 160));
  for (int i = 0; i < n; ++i) {
    const int from = static_cast<int>(rng.NextBelow(2));
    const std::size_t size = 4 + rng.NextBelow(253);
    const SimDuration tx = TxDelay(size, s.config.bandwidth_bps);
    const std::uint64_t kind = rng.NextBelow(10);
    if (kind >= 6) {
      now[from] += rng.NextBelow(2 * tx + 1);
    } else if (kind >= 3) {
      now[from] = std::max(now[from], busy_until[from]);
    }  // else the same instant as this direction's previous send
    busy_until[from] = std::max(now[from], busy_until[from]) + tx;
    s.sends.push_back({now[from], from, size});
  }
  return s;
}

struct Delivery {
  SimTime at;
  std::uint32_t id;
  bool operator==(const Delivery&) const = default;
};

class Recorder final : public net::PacketSink {
 public:
  explicit Recorder(sim::Simulator* clock) : clock_(clock) {}
  void Receive(net::PacketPtr pkt, int port) override {
    (void)port;
    std::uint32_t id = 0;
    std::memcpy(&id, pkt->data().data(), sizeof id);
    log.push_back({clock_->Now(), id});
  }
  std::vector<Delivery> log;

 private:
  sim::Simulator* clock_;
};

struct Outcome {
  std::vector<Delivery> delivered[2];  // by receiving end
  net::LinkStats stats[2];             // by direction
  int ties = 0;
};

// Runs `schedule` through a link of type L on a threaded 2-shard set:
// bound with its ends on shards 0 and 1, or unbound on shard 1.
template <class L>
Outcome Drive(const Schedule& schedule, bool bound) {
  std::vector<net::PacketPtr> packets;
  for (std::size_t i = 0; i < schedule.sends.size(); ++i) {
    Bytes data(schedule.sends[i].size, static_cast<std::uint8_t>(i));
    const auto id = static_cast<std::uint32_t>(i);
    std::memcpy(data.data(), &id, sizeof id);
    packets.push_back(net::MakePacket(std::move(data)));
  }

  sim::ShardSet::Options options;
  options.shards = 2;
  options.quantum = kQuantum;
  sim::ShardSet set(options);
  const int end_shard[2] = {bound ? 0 : 1, 1};
  L link(set.sim(1), schedule.config);
  if (bound) link.BindShards(&set, end_shard[0], end_shard[1]);
  Recorder at_end[2] = {Recorder(&set.sim(end_shard[0])),
                        Recorder(&set.sim(end_shard[1]))};
  link.Attach(0, &at_end[0], 0);
  link.Attach(1, &at_end[1], 0);

  SimTime last = 0;
  for (std::size_t i = 0; i < schedule.sends.size(); ++i) {
    const SendOp& op = schedule.sends[i];
    sim::Simulator& src = set.sim(end_shard[op.from]);
    net::PacketPtr pkt = packets[i];
    // Re-posted at its own instant, so a send runs after every event
    // already due then — a transmit completion included.
    src.At(op.at, [&src, &link, from = op.from, pkt]() mutable {
      src.At(src.Now(), [&link, from, pkt]() mutable {
        link.Send(from, std::move(pkt));
      });
    });
    last = std::max(last, op.at);
  }
  set.RunUntil(last + kSecond);

  Outcome out;
  for (int e = 0; e < 2; ++e) {
    out.delivered[e] = std::move(at_end[e].log);
    out.stats[e] = link.stats(e);
  }
  if constexpr (std::is_same_v<L, TwoEventLink>) out.ties = link.ties();
  EXPECT_EQ(set.late_posts(), 0u);
  return out;
}

TEST(LinkEquivalenceTest, MatchesTwoEventReferenceOnRandomSchedules) {
  int ties = 0;
  std::uint64_t drops = 0;
  std::uint64_t lost = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const Schedule schedule = MakeSchedule(seed);
    for (const bool bound : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " bound " << bound);
      const Outcome ref = Drive<TwoEventLink>(schedule, bound);
      const Outcome got = Drive<net::Link>(schedule, bound);
      std::size_t delivered = 0;
      for (int d = 0; d < 2; ++d) {
        EXPECT_EQ(got.delivered[d], ref.delivered[d]) << "end " << d;
        EXPECT_EQ(got.stats[d].packets, ref.stats[d].packets);
        EXPECT_EQ(got.stats[d].bytes, ref.stats[d].bytes);
        EXPECT_EQ(got.stats[d].drops, ref.stats[d].drops);
        EXPECT_EQ(got.stats[d].lost, ref.stats[d].lost);
        delivered += ref.delivered[d].size();
        drops += ref.stats[d].drops;
        lost += ref.stats[d].lost;
      }
      EXPECT_EQ(delivered + ref.stats[0].drops + ref.stats[1].drops +
                    ref.stats[0].lost + ref.stats[1].lost,
                schedule.sends.size());
      ties += ref.ties;
    }
  }
  // The schedules reach the cases that matter: a full queue, random
  // loss, and sends at the very instant a transmission completes.
  EXPECT_GT(drops, 100u);
  EXPECT_GT(lost, 100u);
  EXPECT_GT(ties, 100);
}

// ---------------------------------------------------------- ConnTracker

proto::ParsedFrame TcpFrame(Ipv4Address src, Ipv4Address dst,
                            std::uint16_t sport, std::uint16_t dport,
                            std::uint8_t flags, Bytes& storage) {
  proto::TcpHeader tcp;
  tcp.src_port = sport;
  tcp.dst_port = dport;
  tcp.flags = flags;
  storage = proto::BuildTcpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                                 src, dst, tcp, {});
  return *proto::ParseFrame(storage);
}

TEST(ConnTrackerTest, TcpHandshakeProgression) {
  proto::ConnectionTracker tracker;
  const Ipv4Address client(10, 0, 0, 5);
  const Ipv4Address server(10, 0, 0, 9);
  Bytes b1, b2, b3;
  using proto::TcpFlags;

  auto syn = TcpFrame(client, server, 1000, 80, TcpFlags::kSyn, b1);
  EXPECT_EQ(tracker.Update(syn, 0), proto::ConnState::kSynSent);

  auto synack = TcpFrame(server, client, 80, 1000,
                         TcpFlags::kSyn | TcpFlags::kAck, b2);
  EXPECT_EQ(tracker.Update(synack, kMillisecond),
            proto::ConnState::kSynReceived);

  auto ack = TcpFrame(client, server, 1000, 80, TcpFlags::kAck, b3);
  EXPECT_EQ(tracker.Update(ack, 2 * kMillisecond),
            proto::ConnState::kEstablished);
  EXPECT_EQ(tracker.ActiveConnections(), 1u);
}

TEST(ConnTrackerTest, MidStreamPacketForUnknownFlowIgnored) {
  proto::ConnectionTracker tracker;
  Bytes b;
  auto data = TcpFrame(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 5, 6,
                       proto::TcpFlags::kPsh | proto::TcpFlags::kAck, b);
  EXPECT_EQ(tracker.Update(data, 0), proto::ConnState::kNone);
  EXPECT_EQ(tracker.ActiveConnections(), 0u);
}

TEST(ConnTrackerTest, ReplyDetection) {
  proto::ConnectionTracker tracker;
  const Ipv4Address inside(10, 0, 0, 5);
  const Ipv4Address outside(99, 9, 9, 9);
  Bytes b1, b2, b3;
  auto syn = TcpFrame(inside, outside, 2000, 443, proto::TcpFlags::kSyn, b1);
  tracker.Update(syn, 0);

  auto reply = TcpFrame(outside, inside, 443, 2000,
                        proto::TcpFlags::kSyn | proto::TcpFlags::kAck, b2);
  EXPECT_TRUE(tracker.IsReplyToTracked(reply, kMillisecond));

  // Same direction as the initiator: not a reply.
  auto more = TcpFrame(inside, outside, 2000, 443, proto::TcpFlags::kAck, b3);
  EXPECT_FALSE(tracker.IsReplyToTracked(more, kMillisecond));

  // A different flow entirely: not a reply.
  Bytes b4;
  auto other = TcpFrame(outside, inside, 443, 2001,
                        proto::TcpFlags::kSyn | proto::TcpFlags::kAck, b4);
  EXPECT_FALSE(tracker.IsReplyToTracked(other, kMillisecond));
}

TEST(ConnTrackerTest, RstClosesConnection) {
  proto::ConnectionTracker tracker;
  const Ipv4Address a(10, 0, 0, 1);
  const Ipv4Address b(10, 0, 0, 2);
  Bytes b1, b2;
  tracker.Update(TcpFrame(a, b, 1, 2, proto::TcpFlags::kSyn, b1), 0);
  EXPECT_EQ(tracker.Update(TcpFrame(a, b, 1, 2, proto::TcpFlags::kRst, b2), 1),
            proto::ConnState::kClosed);
  EXPECT_EQ(tracker.ActiveConnections(), 0u);
}

TEST(ConnTrackerTest, UdpExchangeTracksAndTimesOut) {
  proto::ConnectionTracker::Config cfg;
  cfg.udp_idle_timeout = kSecond;
  proto::ConnectionTracker tracker(cfg);
  const Ipv4Address a(10, 0, 0, 1);
  const Ipv4Address b(10, 0, 0, 2);
  Bytes storage = proto::BuildUdpFrame(MacAddress::FromId(1),
                                       MacAddress::FromId(2), a, b, 111, 222,
                                       ToBytes("x"));
  auto frame = *proto::ParseFrame(storage);
  EXPECT_EQ(tracker.Update(frame, 0), proto::ConnState::kEstablished);

  Bytes reply_storage = proto::BuildUdpFrame(
      MacAddress::FromId(2), MacAddress::FromId(1), b, a, 222, 111,
      ToBytes("y"));
  auto reply = *proto::ParseFrame(reply_storage);
  EXPECT_TRUE(tracker.IsReplyToTracked(reply, 100 * kMillisecond));
  // After the idle timeout the flow is forgotten.
  EXPECT_FALSE(tracker.IsReplyToTracked(reply, 10 * kSecond));
}

proto::ParsedFrame UdpFrame(Ipv4Address src, Ipv4Address dst,
                            std::uint16_t sport, std::uint16_t dport,
                            Bytes& storage) {
  storage = proto::BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                                 src, dst, sport, dport, ToBytes("x"));
  return *proto::ParseFrame(storage);
}

// Opens kMaxEntries flows from distinct inside hosts at `now`.
void FillTable(proto::ConnectionTracker& tracker, proto::IpProto protocol,
               SimTime now) {
  const Ipv4Address server(99, 9, 9, 9);
  Bytes storage;
  for (std::uint32_t i = 0; i < proto::ConnectionTracker::kMaxEntries; ++i) {
    const Ipv4Address host(0x0A000001u + i);
    const auto frame =
        protocol == proto::IpProto::kTcp
            ? TcpFrame(host, server, 4000, 80, proto::TcpFlags::kSyn, storage)
            : UdpFrame(host, server, 4000, 53, storage);
    ASSERT_NE(tracker.Update(frame, now), proto::ConnState::kNone);
  }
  ASSERT_EQ(tracker.ActiveConnections(),
            proto::ConnectionTracker::kMaxEntries);
}

TEST(ConnTrackerTest, FullTableRefusesNewFlowsAndKeepsTrackedOnes) {
  proto::ConnectionTracker tracker;
  const Ipv4Address inside(10, 0, 0, 1);  // first host FillTable opens
  const Ipv4Address server(99, 9, 9, 9);
  const Ipv4Address newcomer(172, 16, 0, 1);
  FillTable(tracker, proto::IpProto::kTcp, 0);
  Bytes b1, b2, b3, b4, b5;

  // A new flow finds the table full: it is refused and counted, and its
  // reply is not admitted (fail closed).
  const auto syn =
      TcpFrame(newcomer, server, 5000, 80, proto::TcpFlags::kSyn, b1);
  EXPECT_EQ(tracker.Update(syn, kSecond), proto::ConnState::kNone);
  EXPECT_EQ(tracker.RefusedFlows(), 1u);
  const auto synack = TcpFrame(server, newcomer, 80, 5000,
                               proto::TcpFlags::kSyn | proto::TcpFlags::kAck,
                               b2);
  EXPECT_FALSE(tracker.IsReplyToTracked(synack, kSecond));
  EXPECT_EQ(tracker.Update(UdpFrame(newcomer, server, 5001, 53, b3),
                           2 * kSecond),
            proto::ConnState::kNone);
  EXPECT_EQ(tracker.RefusedFlows(), 2u);
  EXPECT_EQ(tracker.ActiveConnections(),
            proto::ConnectionTracker::kMaxEntries);

  // A flow tracked before the table filled still sees its replies.
  const auto reply = TcpFrame(server, inside, 80, 4000,
                              proto::TcpFlags::kSyn | proto::TcpFlags::kAck,
                              b4);
  EXPECT_TRUE(tracker.IsReplyToTracked(reply, 2 * kSecond));
  EXPECT_EQ(tracker.Update(reply, 2 * kSecond),
            proto::ConnState::kSynReceived);
  EXPECT_EQ(tracker.Update(TcpFrame(inside, server, 4000, 80,
                                    proto::TcpFlags::kAck, b5),
                           2 * kSecond),
            proto::ConnState::kEstablished);
  EXPECT_EQ(tracker.RefusedFlows(), 2u);
}

TEST(ConnTrackerTest, IdleUdpFlowsMakeRoomInAFullTable) {
  proto::ConnectionTracker tracker;
  const Ipv4Address newcomer(172, 16, 0, 1);
  const Ipv4Address server(99, 9, 9, 9);
  FillTable(tracker, proto::IpProto::kUdp, 0);
  Bytes b1;

  // Every UDP flow is idle past its 30 s timeout, though well inside the
  // TCP one: the sweep expires each entry by its own protocol.
  const auto syn =
      TcpFrame(newcomer, server, 5000, 80, proto::TcpFlags::kSyn, b1);
  EXPECT_EQ(tracker.Update(syn, 31 * kSecond), proto::ConnState::kSynSent);
  EXPECT_EQ(tracker.RefusedFlows(), 0u);
  EXPECT_EQ(tracker.ActiveConnections(), 1u);
}

TEST(ConnTrackerTest, FullTableIsSweptAtMostOncePerInterval) {
  constexpr SimDuration kInterval =
      proto::ConnectionTracker::kFullSweepInterval;
  proto::ConnectionTracker tracker;
  const Ipv4Address newcomer(172, 16, 0, 1);
  const Ipv4Address server(99, 9, 9, 9);
  FillTable(tracker, proto::IpProto::kUdp, 0);
  Bytes b1, b2, b3;

  // A sweep just before the UDP timeout finds nothing to expire...
  const SimTime first = 30 * kSecond - kInterval / 2;
  EXPECT_EQ(tracker.Update(UdpFrame(newcomer, server, 1, 53, b1), first),
            proto::ConnState::kNone);
  // ...and no second sweep runs within the interval, though the flows
  // have since gone idle: the new flow is refused without a scan.
  const SimTime idle = 30 * kSecond + kInterval / 4;
  EXPECT_EQ(tracker.Update(UdpFrame(newcomer, server, 2, 53, b2), idle),
            proto::ConnState::kNone);
  EXPECT_EQ(tracker.RefusedFlows(), 2u);
  EXPECT_EQ(tracker.ActiveConnections(),
            proto::ConnectionTracker::kMaxEntries);
  // Once the interval has passed, the next new flow sweeps and fits.
  EXPECT_EQ(tracker.Update(UdpFrame(newcomer, server, 3, 53, b3),
                           first + kInterval),
            proto::ConnState::kEstablished);
  EXPECT_EQ(tracker.ActiveConnections(), 1u);
}

TEST(ConnTrackerTest, FlowOpenedAfterASweepStillExpires) {
  proto::ConnectionTracker tracker;
  const Ipv4Address inside(10, 0, 0, 1);  // first host FillTable opens
  const Ipv4Address server(99, 9, 9, 9);
  const Ipv4Address newcomer(172, 16, 0, 1);
  FillTable(tracker, proto::IpProto::kTcp, 0);
  Bytes b1, b2, b3, b4, b5;

  // A sweep over fresh TCP flows frees nothing, and none of them can go
  // idle for five minutes.
  EXPECT_EQ(tracker.Update(UdpFrame(newcomer, server, 1, 53, b1), kSecond),
            proto::ConnState::kNone);
  // A reset frees one entry, and a UDP flow takes it...
  EXPECT_EQ(tracker.Update(TcpFrame(inside, server, 4000, 80,
                                    proto::TcpFlags::kRst, b2),
                           2 * kSecond),
            proto::ConnState::kClosed);
  EXPECT_EQ(tracker.Update(UdpFrame(newcomer, server, 2, 53, b3),
                           2 * kSecond),
            proto::ConnState::kEstablished);
  EXPECT_EQ(tracker.Update(UdpFrame(newcomer, server, 3, 53, b4),
                           3 * kSecond),
            proto::ConnState::kNone);
  // ...and once it is idle past 30 s, the next new flow sweeps it out.
  EXPECT_EQ(tracker.Update(UdpFrame(newcomer, server, 4, 53, b5),
                           33 * kSecond),
            proto::ConnState::kEstablished);
  EXPECT_EQ(tracker.RefusedFlows(), 2u);
  EXPECT_EQ(tracker.ActiveConnections(),
            proto::ConnectionTracker::kMaxEntries);
}

TEST(ConnTrackerTest, FinFinClosesGracefully) {
  proto::ConnectionTracker tracker;
  const Ipv4Address a(10, 0, 0, 1);
  const Ipv4Address b(10, 0, 0, 2);
  using proto::TcpFlags;
  Bytes s1, s2, s3, s4, s5;
  tracker.Update(TcpFrame(a, b, 1, 2, TcpFlags::kSyn, s1), 0);
  tracker.Update(TcpFrame(b, a, 2, 1, TcpFlags::kSyn | TcpFlags::kAck, s2), 1);
  tracker.Update(TcpFrame(a, b, 1, 2, TcpFlags::kAck, s3), 2);
  EXPECT_EQ(tracker.Update(
                TcpFrame(a, b, 1, 2, TcpFlags::kFin | TcpFlags::kAck, s4), 3),
            proto::ConnState::kFinWait);
  EXPECT_EQ(tracker.Update(
                TcpFrame(b, a, 2, 1, TcpFlags::kFin | TcpFlags::kAck, s5), 4),
            proto::ConnState::kClosed);
  EXPECT_EQ(tracker.ActiveConnections(), 0u);
}

}  // namespace
}  // namespace iotsec
