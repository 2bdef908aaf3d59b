// Boot-queue accounting, crash semantics and host-level aggregation:
// boot-time drops are exactly the boot-queue overflow, and a crashed
// instance must behave like a dead box until Restart().
#include <gtest/gtest.h>

#include "dataplane/cluster.h"
#include "dataplane/umbox.h"
#include "proto/frame.h"

namespace iotsec::dataplane {
namespace {

using net::Ipv4Address;
using net::MacAddress;

net::PacketPtr UdpPacket(const Bytes& payload) {
  return net::MakePacket(proto::BuildUdpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(1, 1, 1, 1),
      Ipv4Address(2, 2, 2, 2), 40000, 9, payload));
}

ElementContext Ctx(sim::Simulator& sim) {
  ElementContext ctx;
  ctx.sim = &sim;
  return ctx;
}

std::unique_ptr<Umbox> MakeBox(sim::Simulator& sim, UmboxSpec spec) {
  if (spec.config_text.empty()) spec.config_text = "c :: Counter()\n";
  std::string error;
  auto box = Umbox::Create(std::move(spec), Ctx(sim), &error);
  EXPECT_NE(box, nullptr) << error;
  return box;
}

TEST(BootQueueTest, OverflowBeyondLimitCountsQueueFullDrops) {
  sim::Simulator sim;
  UmboxSpec spec;
  spec.id = 1;
  spec.boot_queue_limit = 3;
  auto box = MakeBox(sim, spec);
  std::vector<net::PacketPtr> out;
  box->SetEgress([&](net::PacketPtr p) { out.push_back(std::move(p)); });

  box->Boot();
  for (int i = 0; i < 5; ++i) box->Process(UdpPacket(ToBytes("x")));

  EXPECT_EQ(box->stats().queued_during_boot, 3u);
  EXPECT_EQ(box->stats().dropped_during_boot, 2u)
      << "every packet past the limit is dropped and counted";

  sim.RunFor(BootLatency(spec.boot) + kMillisecond);
  EXPECT_EQ(out.size(), 3u) << "only the queued packets drain";
  EXPECT_EQ(box->stats().processed, 3u);
}

TEST(BootQueueTest, StoppingMidBootCancelsTheReadyTimer) {
  // The ready-timer holds the instance; a stop inside the boot window
  // destroys it, and no timer may fire on freed memory (the sanitizer
  // build reports it if one does). The restart supersedes the first
  // boot's timer.
  sim::Simulator sim;
  UmboxHost host(1, sim, 4);
  UmboxSpec spec;
  spec.id = 7;
  spec.config_text = "c :: Counter()\n";
  std::string error;
  Umbox* box = host.Launch(spec, Ctx(sim), &error);
  ASSERT_NE(box, nullptr) << error;
  ASSERT_TRUE(box->Restart(spec.config_text, &error)) << error;
  EXPECT_EQ(sim.PendingEvents(), 1u);
  ASSERT_TRUE(host.Stop(spec.id));
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.RunFor(2 * BootLatency(spec.boot));
  EXPECT_EQ(host.Find(spec.id), nullptr);
}

TEST(DelayLifecycleTest, TearingDownAChainDiscardsHeldPackets) {
  // A Delay element's timers capture the element. Swapping the graph or
  // stopping the µmbox destroys it with packets still held, and no timer
  // may fire into freed memory (the sanitizer build reports it if one
  // does).
  sim::Simulator sim;
  UmboxHost host(1, sim, 4);
  UmboxSpec spec;
  spec.id = 11;
  spec.config_text = "d :: Delay(ms=50)\n";
  std::string error;
  Umbox* box = host.Launch(spec, Ctx(sim), &error);
  ASSERT_NE(box, nullptr) << error;
  std::vector<net::PacketPtr> out;
  box->SetEgress([&](net::PacketPtr p) { out.push_back(std::move(p)); });
  sim.RunFor(BootLatency(spec.boot) + kMillisecond);
  ASSERT_EQ(box->state(), UmboxState::kRunning);

  for (int i = 0; i < 3; ++i) box->Process(UdpPacket(ToBytes("held")));
  EXPECT_EQ(sim.PendingEvents(), 3u);
  ASSERT_TRUE(box->Reconfigure("d :: Delay(ms=20)\n", &error)) << error;
  EXPECT_EQ(sim.PendingEvents(), 0u) << "the old graph's timers are gone";
  box->Process(UdpPacket(ToBytes("after")));
  sim.RunFor(100 * kMillisecond);
  ASSERT_EQ(out.size(), 1u) << "only the new graph's packet leaves";

  box->Process(UdpPacket(ToBytes("held")));
  box->Process(UdpPacket(ToBytes("held")));
  sim.RunFor(10 * kMillisecond);
  ASSERT_TRUE(host.Stop(spec.id));
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.RunFor(100 * kMillisecond);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(host.Find(spec.id), nullptr);
}

TEST(CrashTest, CrashLosesQueueAndDropsTraffic) {
  sim::Simulator sim;
  UmboxSpec spec;
  spec.id = 3;
  auto box = MakeBox(sim, spec);
  std::vector<net::PacketPtr> out;
  box->SetEgress([&](net::PacketPtr p) { out.push_back(std::move(p)); });

  box->Boot();
  box->Process(UdpPacket(ToBytes("queued")));
  box->Crash();
  EXPECT_EQ(box->state(), UmboxState::kCrashed);
  EXPECT_EQ(box->stats().crashes, 1u);
  EXPECT_EQ(box->stats().dropped_crashed, 1u) << "boot queue is lost";

  // The in-flight boot must not resurrect the instance.
  sim.RunFor(BootLatency(spec.boot) + kMillisecond);
  EXPECT_EQ(box->state(), UmboxState::kCrashed);
  EXPECT_TRUE(out.empty());

  // Traffic at a crashed box is dropped and counted.
  box->Process(UdpPacket(ToBytes("x")));
  EXPECT_EQ(box->stats().dropped_crashed, 2u);

  // Crash is idempotent.
  box->Crash();
  EXPECT_EQ(box->stats().crashes, 1u);

  // Restart() is the way back.
  std::string error;
  bool ready = false;
  ASSERT_TRUE(box->Restart(box->spec().config_text, &error,
                           [&] { ready = true; }));
  sim.RunFor(BootLatency(spec.boot) + kMillisecond);
  EXPECT_TRUE(ready);
  EXPECT_EQ(box->state(), UmboxState::kRunning);
  box->Process(UdpPacket(ToBytes("alive")));
  EXPECT_EQ(out.size(), 1u);
}

TEST(CrashTest, HostCrashKillsEveryInstanceAndGoesSilent) {
  sim::Simulator sim;
  UmboxHost host(1, sim, /*capacity=*/4);
  std::string error;
  for (UmboxId id = 1; id <= 3; ++id) {
    UmboxSpec spec;
    spec.id = id;
    spec.config_text = "c :: Counter()\n";
    ASSERT_NE(host.Launch(spec, Ctx(sim), &error), nullptr) << error;
  }
  sim.RunFor(kSecond);
  ASSERT_TRUE(host.alive());

  host.Crash();
  EXPECT_FALSE(host.alive());
  EXPECT_EQ(host.Find(1), nullptr) << "a dead host serves nothing";
  EXPECT_EQ(host.AggregatedUmboxStats().crashes, 3u);

  // Launch on a dead host fails; tunneled traffic blackholes.
  UmboxSpec spec;
  spec.id = 9;
  spec.config_text = "c :: Counter()\n";
  EXPECT_EQ(host.Launch(spec, Ctx(sim), &error), nullptr);
  host.Receive(UdpPacket(ToBytes("x")), 0);
  EXPECT_EQ(host.stats().dropped_while_dead, 1u);

  // A dead host is excluded from placement.
  Cluster cluster;
  cluster.AddHost(&host);
  EXPECT_EQ(cluster.PickHost(), nullptr);
  EXPECT_EQ(cluster.AliveHosts(), 0);
}

TEST(CrashTest, HostAggregatesBootQueueDrops) {
  sim::Simulator sim;
  UmboxHost host(1, sim, /*capacity=*/4);
  std::string error;
  UmboxSpec spec;
  spec.id = 1;
  spec.config_text = "c :: Counter()\n";
  spec.boot_queue_limit = 1;
  Umbox* box = host.Launch(spec, Ctx(sim), &error);
  ASSERT_NE(box, nullptr) << error;
  box->Process(UdpPacket(ToBytes("a")));
  box->Process(UdpPacket(ToBytes("b")));

  const auto totals = host.AggregatedUmboxStats();
  EXPECT_EQ(totals.queued_during_boot, 1u);
  EXPECT_EQ(totals.dropped_during_boot, 1u);
}

TEST(HeartbeatTest, AliveHostsReportNonCrashedBoxes) {
  sim::Simulator sim;
  UmboxHost host(1, sim, /*capacity=*/4);
  std::string error;
  for (UmboxId id = 1; id <= 2; ++id) {
    UmboxSpec spec;
    spec.id = id;
    spec.config_text = "c :: Counter()\n";
    ASSERT_NE(host.Launch(spec, Ctx(sim), &error), nullptr) << error;
  }
  std::vector<std::vector<UmboxId>> reports;
  host.StartHeartbeats(
      [&](ServerId, std::vector<UmboxId> running) {
        reports.push_back(std::move(running));
      },
      100 * kMillisecond);

  sim.RunFor(250 * kMillisecond);
  ASSERT_GE(reports.size(), 2u);
  EXPECT_EQ(reports.back().size(), 2u);

  ASSERT_TRUE(host.CrashUmbox(1));
  EXPECT_FALSE(host.CrashUmbox(1)) << "already crashed";
  EXPECT_FALSE(host.CrashUmbox(99)) << "unknown id";
  reports.clear();
  sim.RunFor(150 * kMillisecond);
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.back().size(), 1u)
      << "a crashed box disappears from the liveness report";

  // A dead host stops heartbeating entirely.
  const auto sent_before = host.stats().heartbeats_sent;
  host.Crash();
  reports.clear();
  sim.RunFor(kSecond);
  EXPECT_TRUE(reports.empty());
  EXPECT_EQ(host.stats().heartbeats_sent, sent_before);
}

}  // namespace
}  // namespace iotsec::dataplane
