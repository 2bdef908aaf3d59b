// Allocation guard for the event core: scheduling and firing an event
// whose callback fits sim::Callback's inline buffer must not touch the
// heap, plus the slot-pool properties that make that safe (stale handles,
// (time, seq) order across slot reuse and cancellation).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

// Counting replacements for the global allocation functions. Every
// allocation in the process bumps the counter; tests read it around the
// code under test only.
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace iotsec {
namespace {

std::uint64_t News() { return g_news.load(std::memory_order_relaxed); }

// Stand-in for net::Link: its delivery lambda captures `this`, the
// destination end and the packet (a shared_ptr).
struct FakeLink {
  int delivered = 0;
  void Deliver(int end, const std::shared_ptr<int>& pkt) {
    delivered += end + *pkt;
  }
};

auto MakeDelivery(FakeLink* link, int to_end, std::shared_ptr<int> pkt) {
  return [link, to_end, pkt = std::move(pkt)] { link->Deliver(to_end, pkt); };
}
static_assert(sim::Callback::kStoredInline<decltype(MakeDelivery(
                  nullptr, 0, nullptr))>);

TEST(SimAllocTest, SteadyStateScheduleAndFireAllocatesNothing) {
  sim::Simulator s;
  FakeLink link;
  const auto pkt = std::make_shared<int>(1);
  // Keeps kDepth events queued at distinct times; each round fires the
  // one at the front and schedules one at the back.
  constexpr int kDepth = 64;
  for (int i = 1; i <= kDepth; ++i) {
    s.After(static_cast<SimDuration>(i), MakeDelivery(&link, 0, pkt));
  }
  auto round = [&] {
    s.RunUntil(s.NextEventTime());
    s.After(kDepth, MakeDelivery(&link, 1, pkt));
  };
  for (int i = 0; i < 2 * kDepth; ++i) round();  // warm the pool

  const int delivered_before = link.delivered;
  const std::uint64_t before = News();
  constexpr int kRounds = 1000;
  for (int i = 0; i < kRounds; ++i) round();
  EXPECT_EQ(News() - before, 0u);
  EXPECT_EQ(link.delivered - delivered_before, 2 * kRounds);  // end 1 + *pkt
  EXPECT_EQ(s.PendingEvents(), static_cast<std::size_t>(kDepth));
}

TEST(SimAllocTest, RecurringTickAllocatesNothing) {
  sim::Simulator s;
  int ticks = 0;
  auto ticker = s.Every(10, [&ticks] { ++ticks; });
  s.RunFor(100);  // warm-up
  const std::uint64_t before = News();
  s.RunFor(10000);
  EXPECT_EQ(News() - before, 0u);
  EXPECT_EQ(ticks, 1010);
  ticker.Cancel();
}

TEST(SimAllocTest, OversizedCaptureFallsBackToHeap) {
  sim::Simulator s;
  std::array<char, 2 * sim::Callback::kInlineSize> big{};
  big.front() = 'a';
  big.back() = 'z';
  std::string seen;
  auto fn = [big, &seen] { seen = {big.front(), big.back()}; };
  static_assert(!sim::Callback::kStoredInline<decltype(fn)>);
  s.After(1, fn);
  s.Run();  // warms the pool for the measured event
  const std::uint64_t before = News();
  s.After(1, fn);
  EXPECT_EQ(News() - before, 1u);  // exactly the spilled capture
  seen.clear();
  s.Run();
  EXPECT_EQ(seen, "az");
}

TEST(SimAllocTest, MoveOnlyCaptureFires) {
  sim::Simulator s;
  int got = 0;
  auto owned = std::make_unique<int>(42);
  s.After(1, [p = std::move(owned), &got] { got = *p; });
  s.Run();
  EXPECT_EQ(got, 42);

  // An already-wrapped move-only Callback passes through by move.
  sim::Callback cb = [p = std::make_unique<int>(7), &got] { got = *p; };
  sim::Callback moved = std::move(cb);
  s.After(1, std::move(moved));
  s.Run();
  EXPECT_EQ(got, 7);
}

TEST(SimAllocTest, StaleHandleCannotTouchReusedSlot) {
  sim::Simulator s;
  int first = 0;
  int second = 0;
  auto stale = s.At(10, [&first] { ++first; });
  s.Run();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(stale.Pending());

  // The freed slot is reused by the next event.
  auto fresh = s.At(20, [&second] { ++second; });
  EXPECT_FALSE(stale.Pending());
  EXPECT_TRUE(fresh.Pending());
  stale.Cancel();  // must not cancel the new occupant
  EXPECT_TRUE(fresh.Pending());
  EXPECT_EQ(s.PendingEvents(), 1u);
  s.Run();
  EXPECT_EQ(second, 1);

  // Same for a slot recycled after a cancellation.
  auto cancelled = s.At(30, [&first] { ++first; });
  cancelled.Cancel();
  s.Run();  // pops the cancelled entry, freeing its slot
  auto reuse = s.At(40, [&second] { ++second; });
  cancelled.Cancel();
  EXPECT_FALSE(cancelled.Pending());
  EXPECT_TRUE(reuse.Pending());
  s.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

// Randomised model check of the ordering contract: with many events on a
// few distinct times, cancellations, slot reuse and events scheduled from
// inside callbacks, firing order is exactly (time, insertion order) over
// the events left uncancelled.
TEST(SimAllocTest, EqualTimesFireInInsertionOrderAcrossReuse) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    sim::Simulator s;
    struct Expected {
      SimTime when;
      std::uint64_t order;  // global insertion order
      int id;
    };
    std::vector<Expected> expected;
    std::vector<sim::EventHandle> handles;
    std::vector<int> fired;
    std::uint64_t inserted = 0;
    int next_id = 0;

    // Schedules one event at `when` (clamped like At()); some of them
    // schedule a follow-up at their own firing time.
    std::function<void(SimTime, bool)> add = [&](SimTime when,
                                                 bool may_chain) {
      when = std::max(when, s.Now());
      const int id = next_id++;
      const bool chain = may_chain && rng.NextBool(0.2);
      handles.push_back(s.At(when, [&, id, chain] {
        fired.push_back(id);
        if (chain) add(s.Now(), false);
      }));
      expected.push_back({when, inserted++, id});
    };

    std::vector<bool> cancelled;
    for (int round = 0; round < 20; ++round) {
      const SimTime base = s.Now();
      for (int i = 0; i < 50; ++i) {
        add(base + 10 * rng.NextBelow(4), true);
      }
      cancelled.resize(handles.size(), false);
      for (std::size_t id = 0; id < handles.size(); ++id) {
        if (handles[id].Pending() && rng.NextBool(0.15)) {
          handles[id].Cancel();
          cancelled[id] = true;
        }
      }
      s.RunFor(15 + rng.NextBelow(30));
    }
    s.Run();
    cancelled.resize(handles.size(), false);

    std::vector<Expected> live;
    for (const auto& e : expected) {
      if (!cancelled[static_cast<std::size_t>(e.id)]) live.push_back(e);
    }
    std::sort(live.begin(), live.end(),
              [](const Expected& a, const Expected& b) {
                return std::tie(a.when, a.order) < std::tie(b.when, b.order);
              });
    ASSERT_EQ(live.size(), fired.size()) << "seed " << seed;
    for (std::size_t i = 0; i < fired.size(); ++i) {
      ASSERT_EQ(fired[i], live[i].id) << "seed " << seed << " position " << i;
    }
    EXPECT_LT(live.size(), expected.size());  // some were cancelled
    EXPECT_EQ(s.PendingEvents(), 0u);
  }
}

}  // namespace
}  // namespace iotsec
