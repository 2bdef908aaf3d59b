// Tests for the sharded execution engine: SPSC mailboxes, the ShardSet
// lockstep scheduler (idle-shard skip, worker park/unpark), barrier-phase
// environment sync, the PendingEvents live count, shard-bound packet
// pools, and microflow-cache generation wraparound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/deployment.h"
#include "net/packet.h"
#include "sdn/flow_table.h"
#include "sdn/microflow_cache.h"
#include "sdn/shard_map.h"
#include "sim/mailbox.h"
#include "sim/shard_set.h"
#include "sim/simulator.h"

namespace iotsec {
namespace {

// ---------------------------------------------------------------------------
// Simulator::PendingEvents vs cancelled-but-unpopped corpses.

TEST(SimulatorPendingTest, CancelDecrementsLiveCount) {
  sim::Simulator s;
  auto h1 = s.At(100, [] {});
  auto h2 = s.At(200, [] {});
  s.At(300, [] {});
  EXPECT_EQ(s.PendingEvents(), 3u);

  h1.Cancel();
  EXPECT_EQ(s.PendingEvents(), 2u);
  // Cancel is idempotent: a second call must not double-count.
  h1.Cancel();
  EXPECT_EQ(s.PendingEvents(), 2u);

  h2.Cancel();
  EXPECT_EQ(s.PendingEvents(), 1u);

  // Popping the corpses restores the invariant queue.size == live count.
  s.RunUntil(1000);
  EXPECT_EQ(s.PendingEvents(), 0u);
}

TEST(SimulatorPendingTest, RecurringTickNotMiscounted) {
  sim::Simulator s;
  int fires = 0;
  auto every = s.Every(10, [&] { ++fires; });
  s.RunUntil(35);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(s.PendingEvents(), 1u);  // the next tick
  every.Cancel();
  EXPECT_EQ(s.PendingEvents(), 0u);
  s.RunUntil(100);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(s.PendingEvents(), 0u);
}

// Stop() from inside a ticker ends the run loop only: the ticker stays
// queued, its handle stays pending, and a later Cancel() accounts for the
// queued tick exactly once (it used to be dropped while still reading
// pending, and the Cancel() then wrapped PendingEvents() below zero).
TEST(SimulatorPendingTest, StopInsideTickerKeepsItCancellable) {
  sim::Simulator s;
  int fires = 0;
  auto ticker = s.Every(10, [&] {
    ++fires;
    s.Stop();
  });
  s.Run();  // a ticker never drains the queue: only Stop() ends this
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(s.Now(), 10u);
  EXPECT_TRUE(ticker.Pending());
  EXPECT_EQ(s.PendingEvents(), 1u);

  s.Run();  // a fresh run resumes the ticker
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(s.Now(), 20u);
  EXPECT_EQ(s.PendingEvents(), 1u);

  ticker.Cancel();
  EXPECT_FALSE(ticker.Pending());
  EXPECT_EQ(s.PendingEvents(), 0u);
  s.Run();  // pops the cancelled tick and drains
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(s.PendingEvents(), 0u);
}

TEST(SimulatorPendingTest, HandleOutlivesSimulator) {
  sim::EventHandle h;
  {
    sim::Simulator s;
    h = s.At(50, [] {});
  }
  h.Cancel();  // must not touch freed simulator state
  EXPECT_FALSE(h.Pending());
}

// ---------------------------------------------------------------------------
// SPSC mailbox.

TEST(MailboxTest, DrainReturnsPushedEvents) {
  sim::SpscMailbox box;
  for (int i = 0; i < 10; ++i) {
    box.Push({/*when=*/static_cast<SimTime>(100 + i), /*src=*/0,
              /*src_seq=*/static_cast<std::uint64_t>(i), [] {}});
  }
  std::vector<sim::CrossShardEvent> out;
  box.Drain(out);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].src_seq,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(box.Empty());
}

TEST(MailboxTest, OverflowSpillsWithoutLoss) {
  sim::SpscMailbox box(/*capacity=*/8);
  constexpr int kEvents = 100;  // far past the ring capacity
  for (int i = 0; i < kEvents; ++i) {
    box.Push({/*when=*/1, /*src=*/0, /*src_seq=*/static_cast<std::uint64_t>(i),
              [] {}});
  }
  EXPECT_GT(box.OverflowCount(), 0u);
  std::vector<sim::CrossShardEvent> out;
  box.Drain(out);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kEvents));
  std::vector<bool> seen(kEvents, false);
  for (const auto& ev : out) seen[static_cast<std::size_t>(ev.src_seq)] = true;
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_TRUE(seen[static_cast<std::size_t>(i)]) << i;
  }
}

// ---------------------------------------------------------------------------
// ShardSet lockstep scheduling.

TEST(ShardSetTest, PostBeforeRunSchedulesDirectly) {
  sim::ShardSet::Options opt;
  opt.shards = 2;
  opt.use_threads = false;
  sim::ShardSet set(opt);
  int fired = 0;
  set.Post(1, 50, [&] { ++fired; });
  set.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(set.cross_shard_events(), 0u);  // direct schedule, no mailbox
}

TEST(ShardSetTest, CrossShardPostDeliversThroughMailbox) {
  sim::ShardSet::Options opt;
  opt.shards = 2;
  opt.quantum = 100;
  opt.use_threads = false;
  sim::ShardSet set(opt);
  std::vector<SimTime> fired_at;
  // Shard 0 event posts to shard 1 one quantum out.
  set.sim(0).At(10, [&] {
    set.Post(1, set.sim(0).Now() + 100, [&] {
      fired_at.push_back(set.sim(1).Now());
    });
  });
  set.RunUntil(1000);
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_EQ(fired_at[0], 110u);
  EXPECT_EQ(set.cross_shard_events(), 1u);
  EXPECT_EQ(set.late_posts(), 0u);
}

TEST(ShardSetTest, LatePostClampedAndCounted) {
  sim::ShardSet::Options opt;
  opt.shards = 2;
  opt.quantum = 100;
  opt.use_threads = false;
  sim::ShardSet set(opt);
  SimTime fired_at = 0;
  set.sim(0).At(10, [&] {
    // Violates the lookahead contract: asks for delivery inside the
    // current quantum. Must be clamped to the quantum end, not lost.
    set.Post(1, 20, [&] { fired_at = set.sim(1).Now(); });
  });
  set.RunUntil(500);
  EXPECT_EQ(fired_at, 100u);
  EXPECT_EQ(set.late_posts(), 1u);
}

TEST(ShardSetTest, IdleQuantaSkippedButEventsStillFire) {
  sim::ShardSet::Options opt;
  opt.shards = 2;
  opt.quantum = 100;
  opt.use_threads = false;
  sim::ShardSet set(opt);
  std::vector<int> order;
  set.sim(0).At(1000000, [&] { order.push_back(0); });
  set.sim(1).At(2000000, [&] { order.push_back(1); });
  set.RunUntil(3000000);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(set.Now(), 3000000u);
  // The whole idle span must not have been walked quantum by quantum.
  EXPECT_LT(set.quanta_run(), 100u);
}

// The core determinism property at engine level: same program, same
// seed-derived schedule => identical delivery order, threads or not.
TEST(ShardSetTest, ThreadedMatchesInlineDeliveryOrder) {
  const auto run = [](bool threads) {
    sim::ShardSet::Options opt;
    opt.shards = 4;
    opt.quantum = 100;
    opt.use_threads = threads;
    sim::ShardSet set(opt);
    std::vector<std::uint64_t> log;
    // Every shard posts to every other shard at staggered times; shard 0
    // records deliveries (only shard 0's thread touches the log).
    for (int src = 0; src < 4; ++src) {
      for (int i = 0; i < 20; ++i) {
        const auto when = static_cast<SimTime>(10 + 7 * i + src);
        set.sim(src).At(when, [&set, &log, src, i] {
          const auto now = set.sim(src).Now();
          set.Post(0, now + 100,
                   [&set, &log, src, i] {
                     log.push_back((static_cast<std::uint64_t>(
                                        set.sim(0).Now())
                                    << 16) |
                                   (static_cast<std::uint64_t>(src) << 8) |
                                   static_cast<std::uint64_t>(i));
                   });
        });
      }
    }
    set.RunUntil(10000);
    return log;
  };
  const auto inline_log = run(false);
  const auto threaded_log = run(true);
  EXPECT_EQ(inline_log.size(), 80u);
  EXPECT_EQ(inline_log, threaded_log);
}

// ---------------------------------------------------------------------------
// Idle-shard skip: a threaded quantum wakes only the workers whose shard
// has an event due by the quantum end. Each case runs threaded and inline
// and must produce the same per-shard delivery log.

struct IdleRun {
  std::vector<std::vector<SimTime>> fired;  // [shard]: fire times
  // Shard 1's delivery count as seen by each barrier hook.
  std::vector<std::pair<SimTime, std::size_t>> shard1_at_barrier;
  std::vector<SimTime> clocks;  // [shard]: Now() after the run
  std::uint64_t wakeups = 0;
  std::uint64_t quanta = 0;
  std::uint64_t late_posts = 0;
  std::uint64_t cross = 0;
};

/// A 2-shard set with quantum 100: `setup(set, fired)` schedules the
/// case's events, then the set runs to `deadline`. Each shard appends only
/// to its own `fired` slot.
template <typename Setup>
IdleRun RunIdleCase(bool threads, SimTime deadline, Setup setup) {
  sim::ShardSet::Options opt;
  opt.shards = 2;
  opt.quantum = 100;
  opt.use_threads = threads;
  sim::ShardSet set(opt);
  IdleRun run;
  run.fired.resize(2);
  setup(set, run.fired);
  set.RunUntil(deadline, [&](SimTime now) {
    run.shard1_at_barrier.emplace_back(now, run.fired[1].size());
  });
  run.clocks = {set.sim(0).Now(), set.sim(1).Now()};
  run.wakeups = set.worker_wakeups();
  run.quanta = set.quanta_run();
  run.late_posts = set.late_posts();
  run.cross = set.cross_shard_events();
  return run;
}

/// Logs every firing on `shard` into its slot.
auto Recorder(sim::ShardSet& set, std::vector<std::vector<SimTime>>& fired,
              int shard) {
  return [&set, &fired, shard] {
    fired[static_cast<std::size_t>(shard)].push_back(set.sim(shard).Now());
  };
}

/// Shard 0 busy every 50 ns from t=10 to the deadline, so no quantum is
/// skipped as globally idle.
void BusyShard0(sim::ShardSet& set, std::vector<std::vector<SimTime>>& fired,
                SimTime deadline) {
  for (SimTime t = 10; t < deadline; t += 50) {
    set.sim(0).At(t, Recorder(set, fired, 0));
  }
}

void ExpectSameDeliveries(const IdleRun& threaded, const IdleRun& inline_run) {
  EXPECT_EQ(threaded.fired, inline_run.fired);
  EXPECT_EQ(threaded.shard1_at_barrier, inline_run.shard1_at_barrier);
  EXPECT_EQ(threaded.clocks, inline_run.clocks);
  EXPECT_EQ(threaded.quanta, inline_run.quanta);
  EXPECT_EQ(inline_run.wakeups, 0u);  // inline mode has no workers
}

TEST(ShardSetIdleSkipTest, QuantumWithOnlyShard0WorkWakesNoWorker) {
  const auto setup = [](sim::ShardSet& set, auto& fired) {
    BusyShard0(set, fired, 1000);
  };
  const IdleRun threaded = RunIdleCase(true, 1000, setup);
  const IdleRun inline_run = RunIdleCase(false, 1000, setup);
  ExpectSameDeliveries(threaded, inline_run);
  EXPECT_EQ(threaded.fired[0].size(), 20u);
  EXPECT_EQ(threaded.quanta, 10u);
  EXPECT_EQ(threaded.wakeups, 0u);
  // The idle shard's clock still kept pace with the lockstep clock.
  EXPECT_EQ(threaded.clocks[1], 1000u);
}

TEST(ShardSetIdleSkipTest, EventAtExactQuantumEndFiresInThatQuantum) {
  const auto setup = [](sim::ShardSet& set, auto& fired) {
    BusyShard0(set, fired, 300);
    set.sim(1).At(100, Recorder(set, fired, 1));  // first quantum's end
  };
  const IdleRun threaded = RunIdleCase(true, 300, setup);
  const IdleRun inline_run = RunIdleCase(false, 300, setup);
  ExpectSameDeliveries(threaded, inline_run);
  ASSERT_EQ(threaded.fired[1], std::vector<SimTime>{100});
  ASSERT_FALSE(threaded.shard1_at_barrier.empty());
  EXPECT_EQ(threaded.shard1_at_barrier.front(),
            (std::pair<SimTime, std::size_t>{100, 1}));
  EXPECT_EQ(threaded.wakeups, 1u);
}

TEST(ShardSetIdleSkipTest, CancelledEventAtFrontOfIdleShardIsHarmless) {
  const auto setup = [](sim::ShardSet& set, auto& fired) {
    BusyShard0(set, fired, 1000);
    // A cancelled event keeps its heap entry until popped: the one at 30
    // sits at the front of the otherwise idle shard, the one at 700 after
    // its last live event.
    set.sim(1).At(30, Recorder(set, fired, 1)).Cancel();
    set.sim(1).At(450, Recorder(set, fired, 1));
    set.sim(1).At(700, Recorder(set, fired, 1)).Cancel();
  };
  const IdleRun threaded = RunIdleCase(true, 1000, setup);
  const IdleRun inline_run = RunIdleCase(false, 1000, setup);
  ExpectSameDeliveries(threaded, inline_run);
  EXPECT_EQ(threaded.fired[1], std::vector<SimTime>{450});
  // One wake per quantum holding an entry, cancelled or not.
  EXPECT_EQ(threaded.wakeups, 3u);
}

TEST(ShardSetIdleSkipTest, CrossShardPostIntoIdleShardKeepsDeliveryTime) {
  const auto setup = [](sim::ShardSet& set, auto& fired) {
    BusyShard0(set, fired, 1000);
    set.sim(0).At(10, [&set, &fired] {
      set.Post(1, set.sim(0).Now() + 100, Recorder(set, fired, 1));
    });
  };
  const IdleRun threaded = RunIdleCase(true, 1000, setup);
  const IdleRun inline_run = RunIdleCase(false, 1000, setup);
  ExpectSameDeliveries(threaded, inline_run);
  EXPECT_EQ(threaded.fired[1], std::vector<SimTime>{110});
  EXPECT_EQ(threaded.cross, 1u);
  EXPECT_EQ(threaded.late_posts, 0u);
  EXPECT_EQ(threaded.wakeups, 1u);
}

// ---------------------------------------------------------------------------
// Worker park/unpark: thousands of one-quantum runs with driver work in
// between. Short gaps are caught by a spinning worker; the long ones
// outlast the spin budget so workers park and must be woken from
// std::atomic::wait. Must finish (no lost wake-up) with the inline digest.

std::uint64_t MixDigest(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ull;
}

std::uint64_t ParkStressDigest(int shards, bool threads) {
  constexpr SimDuration kQuantum = 100;
  sim::ShardSet::Options opt;
  opt.shards = shards;
  opt.quantum = kQuantum;
  opt.use_threads = threads;
  sim::ShardSet set(opt);
  struct alignas(64) Acc {
    std::uint64_t v = 0;
  };
  std::vector<Acc> acc(static_cast<std::size_t>(shards));
  // Shard s ticks every (s % 3 + 1) quanta, so the set of idle shards
  // changes from quantum to quantum; every tick posts to the next shard.
  for (int s = 0; s < shards; ++s) {
    const auto period = static_cast<SimDuration>(s % 3 + 1) * kQuantum;
    set.sim(s).Every(period, [&set, &acc, s, shards] {
      const SimTime now = set.sim(s).Now();
      auto& mine = acc[static_cast<std::size_t>(s)].v;
      mine = MixDigest(mine, now);
      const int dst = (s + 1) % shards;
      set.Post(dst, now + kQuantum + static_cast<SimDuration>(s),
               [&set, &acc, dst, s] {
                 auto& theirs = acc[static_cast<std::size_t>(dst)].v;
                 theirs = MixDigest(theirs, set.sim(dst).Now() * 64 +
                                                static_cast<SimTime>(s));
               });
    });
  }
  for (int i = 0; i < 3000; ++i) {
    set.RunFor(kQuantum);
    if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(set.late_posts(), 0u);
  EXPECT_EQ(set.Now(), 3000 * kQuantum);
  if (threads) {
    EXPECT_GT(set.worker_wakeups(), 0u);
  }
  std::uint64_t digest = set.cross_shard_events();
  for (const Acc& a : acc) digest = MixDigest(digest, a.v);
  return digest;
}

TEST(ShardSetParkTest, ManyShortRunsMatchInlineAtTwoShards) {
  EXPECT_EQ(ParkStressDigest(2, true), ParkStressDigest(2, false));
}

TEST(ShardSetParkTest, ManyShortRunsMatchInlineOversubscribed) {
  // More shards than hardware threads: workers park at once instead of
  // spinning. Capped so the shards^2 mailboxes stay small on big hosts.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const int shards = static_cast<int>(std::min(2 * cores, 16u));
  EXPECT_EQ(ParkStressDigest(shards, true), ParkStressDigest(shards, false));
}

// ---------------------------------------------------------------------------
// Barrier-phase environment sync: devices on different shards writing the
// same variable at the same sim time are applied to the owner in the
// canonical (time, name, value) order, whatever the shard count.

std::vector<std::pair<SimTime, int>> ConflictingEnvWrites(int shards,
                                                          bool threads) {
  core::DeploymentOptions opts;
  opts.shards = shards;
  opts.shard_threads = threads;
  core::Deployment dep(opts);
  std::vector<devices::SmartPlug*> plugs;
  for (int i = 0; i < 6; ++i) {
    plugs.push_back(dep.AddSmartPlug("plug" + std::to_string(i), "oven_power"));
  }
  // Two plugs on different shards at both 2 and 8 shards.
  devices::SmartPlug* a = nullptr;
  devices::SmartPlug* b = nullptr;
  for (std::size_t i = 0; i < plugs.size() && b == nullptr; ++i) {
    for (std::size_t j = i + 1; j < plugs.size() && b == nullptr; ++j) {
      const DeviceId x = plugs[i]->id();
      const DeviceId y = plugs[j]->id();
      if (sdn::ShardOfDevice(x, 2) != sdn::ShardOfDevice(y, 2) &&
          sdn::ShardOfDevice(x, 8) != sdn::ShardOfDevice(y, 8)) {
        a = plugs[i];
        b = plugs[j];
      }
    }
  }
  EXPECT_NE(b, nullptr);
  if (b == nullptr) return {};

  std::vector<std::pair<SimTime, int>> owner_log;
  dep.environment().Subscribe([&owner_log](const env::LevelChange& c) {
    if (c.variable == "oven_power") owner_log.emplace_back(c.at, c.new_level);
  });
  dep.Start();
  dep.RunFor(10 * kMillisecond);
  // Round r: at the same instant a turns the oven on and b turns it off
  // (or the reverse), then on odd rounds b alone turns it off 3 µs later.
  // Which write is scheduled first alternates, so on one shard the
  // execution order disagrees with the shard-index order of the buffers.
  const auto actuate = [&dep](devices::SmartPlug* plug, SimTime at, bool on) {
    dep.SimFor(plug->id()).At(at, [plug, on] {
      plug->Actuate(on ? proto::IotCommand::kTurnOn
                       : proto::IotCommand::kTurnOff);
    });
  };
  for (int r = 0; r < 8; ++r) {
    const SimTime at = dep.Now() + 5 * kMillisecond;
    const bool a_on = r % 3 != 0;
    if (r % 2 == 0) {
      actuate(a, at, a_on);
      actuate(b, at, !a_on);
    } else {
      actuate(b, at, !a_on);
      actuate(a, at, a_on);
    }
    if (r % 2 == 1) actuate(b, at + 3 * kMicrosecond, false);
    dep.RunFor(10 * kMillisecond);
  }
  owner_log.emplace_back(dep.Now(), dep.environment().Level("oven_power"));
  return owner_log;
}

TEST(ShardEnvSyncTest, SameTimeWritesFromTwoShardsApplyCanonically) {
  const auto ref = ConflictingEnvWrites(1, false);
  // Every conflicting round ends "on" (the canonical order applies the
  // larger value last); odd rounds then switch it off again.
  ASSERT_GE(ref.size(), 8u);
  EXPECT_EQ(ref.back().second, 0);
  for (const int shards : {1, 2, 8}) {
    for (const bool threads : {false, true}) {
      EXPECT_EQ(ConflictingEnvWrites(shards, threads), ref)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ShardMapTest, StableAndBalanced) {
  // Placement must be a pure function of the id...
  EXPECT_EQ(sdn::ShardOfDevice(42, 8), sdn::ShardOfDevice(42, 8));
  EXPECT_EQ(sdn::ShardOfDevice(42, 1), 0);
  // ...and sequential ids must spread across shards (the hash exists so
  // id-assignment order doesn't pile devices onto one worker).
  std::vector<int> counts(8, 0);
  for (DeviceId id = 0; id < 8000; ++id) {
    const int s = sdn::ShardOfDevice(id, 8);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 8);
    ++counts[static_cast<std::size_t>(s)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

// ---------------------------------------------------------------------------
// PacketPool thread binding.

TEST(PacketPoolShardTest, ForeignReleaseDeletesInsteadOfRecycling) {
  net::PacketPool pool;
  net::PacketPool::BindToThisThread(&pool);
  auto pkt = net::MakePacket(Bytes{1, 2, 3});

  // Drop the last reference on a thread NOT bound to this pool: the
  // packet must be freed outright (touching the foreign free list would
  // race), and counted.
  std::thread other([p = std::move(pkt)]() mutable { p.reset(); });
  other.join();

  EXPECT_EQ(pool.ForeignReleases(), 1u);
  EXPECT_EQ(pool.FreeCount(), 0u);

  // Same-thread release recycles as before.
  auto pkt2 = net::MakePacket(Bytes{4, 5});
  pkt2.reset();
  EXPECT_EQ(pool.FreeCount(), 1u);
  EXPECT_EQ(pool.ForeignReleases(), 1u);
  net::PacketPool::BindToThisThread(nullptr);
}

TEST(PacketPoolShardTest, CurrentFollowsBinding) {
  EXPECT_EQ(&net::PacketPool::Current(), &net::PacketPool::Global());
  net::PacketPool pool;
  net::PacketPool::BindToThisThread(&pool);
  EXPECT_EQ(&net::PacketPool::Current(), &pool);
  net::PacketPool::BindToThisThread(nullptr);
  EXPECT_EQ(&net::PacketPool::Current(), &net::PacketPool::Global());
}

// ---------------------------------------------------------------------------
// Microflow cache generation wraparound.

TEST(MicroflowGenerationTest, WraparoundDoesNotServeStaleEntry) {
  sdn::MicroflowCache cache(64);
  sdn::FlowKey key;
  key.in_port = 7;
  key.ip_src = 0x0a000001;
  sdn::FlowEntry entry;

  // A verdict recorded under the all-ones generation...
  const std::uint64_t gen_max = ~std::uint64_t{0};
  cache.Insert(key, key.Hash(), &entry, gen_max);
  const sdn::FlowEntry* out = nullptr;
  EXPECT_TRUE(cache.Find(key, key.Hash(), gen_max, &out));
  EXPECT_EQ(out, &entry);

  // ...must read as stale at generation 0 (a wrapped counter), never as
  // a hit against a table that has since changed.
  out = nullptr;
  EXPECT_FALSE(cache.Find(key, key.Hash(), 0, &out));
  EXPECT_EQ(cache.stats().stale, 1u);

  // Re-inserting under the new generation heals the slot.
  cache.Insert(key, key.Hash(), &entry, 0);
  EXPECT_TRUE(cache.Find(key, key.Hash(), 0, &out));
  EXPECT_EQ(out, &entry);
}

TEST(MicroflowGenerationTest, ResizeClearsAndRoundsUp) {
  sdn::MicroflowCache cache(64);
  sdn::FlowKey key;
  key.in_port = 3;
  sdn::FlowEntry entry;
  cache.Insert(key, key.Hash(), &entry, 1);
  const sdn::FlowEntry* out = nullptr;
  ASSERT_TRUE(cache.Find(key, key.Hash(), 1, &out));

  cache.Resize(1000);  // -> 1024 slots, all verdicts dropped
  EXPECT_EQ(cache.SlotCount(), 1024u);
  EXPECT_FALSE(cache.Find(key, key.Hash(), 1, &out));
}

}  // namespace
}  // namespace iotsec
