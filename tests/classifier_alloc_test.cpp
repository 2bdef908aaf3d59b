// Allocation guard for the flow-table classifier: once its index is
// built, FlowTable::Lookup (hit or miss, IP or tunnel frame) and the
// cache-fronted LookupCached must not touch the heap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "proto/frame.h"
#include "proto/tunnel.h"
#include "sdn/flow_table.h"
#include "sdn/microflow_cache.h"

// Counting replacements for the global allocation functions. Every
// allocation in the process bumps the counter; tests read it around the
// code under test only.
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// Out of line (like the operator delete below), so GCC's
// -Wmismatched-new-delete never sees a malloc() or free() inlined against
// the other half of a new/delete pair and misreports a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
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
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace iotsec {
namespace {

using net::Ipv4Address;
using net::MacAddress;

std::uint64_t News() { return g_news.load(std::memory_order_relaxed); }

/// The shapes a deployment's edge table holds: per-device /32 steering,
/// port-pinned source rules, a tunnel transit rule and a table-miss
/// catch-all, i.e. several subtables with and without IP fields.
sdn::FlowTable MakeTable() {
  sdn::FlowTable table;
  for (std::uint8_t i = 0; i < 64; ++i) {
    sdn::FlowEntry steer;
    steer.priority = 100;
    steer.cookie = i;
    steer.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 1, i), 32);
    steer.actions.push_back(sdn::FlowAction::Output(1));
    table.Install(steer);

    sdn::FlowEntry pinned;
    pinned.priority = 200;
    pinned.cookie = 1000 + i;
    pinned.match.in_port = 2;
    pinned.match.ip_src = net::Ipv4Prefix(Ipv4Address(10, 0, 2, i), 32);
    pinned.actions.push_back(sdn::FlowAction::Drop());
    table.Install(pinned);
  }
  sdn::FlowEntry transit;
  transit.priority = 150;
  transit.match.ethertype = proto::EtherType::kTunnel;
  transit.actions.push_back(sdn::FlowAction::Output(3));
  table.Install(transit);
  sdn::FlowEntry subnet;
  subnet.priority = 50;
  subnet.match.ip_dst = net::Ipv4Prefix(Ipv4Address(10, 0, 0, 0), 16);
  subnet.actions.push_back(sdn::FlowAction::ToController());
  table.Install(subnet);
  return table;
}

TEST(ClassifierAllocTest, LookupOnBuiltIndexAllocatesNothing) {
  const sdn::FlowTable table = MakeTable();
  std::vector<Bytes> wires;
  for (std::uint8_t i = 0; i < 8; ++i) {
    // Steered hit, port-pinned hit (on port 2), subnet fallback, miss.
    wires.push_back(proto::BuildUdpFrame(
        MacAddress::FromId(1), MacAddress::FromId(2),
        Ipv4Address(10, 0, 2, i), Ipv4Address(10, 0, 1, i), 5000, 80, {}));
    wires.push_back(proto::BuildUdpFrame(
        MacAddress::FromId(1), MacAddress::FromId(2),
        Ipv4Address(10, 9, 0, 1), Ipv4Address(10, 0, 7, i), 5000, 80, {}));
    wires.push_back(proto::BuildUdpFrame(
        MacAddress::FromId(1), MacAddress::FromId(2),
        Ipv4Address(10, 9, 0, 1), Ipv4Address(172, 16, 0, i), 5000, 80, {}));
  }
  proto::TunnelHeader th;
  th.vni = 9;
  wires.push_back(proto::Encapsulate(MacAddress::FromId(3),
                                     MacAddress::Broadcast(), th, wires[0]));
  std::vector<proto::ParsedFrame> frames;
  for (const Bytes& w : wires) frames.push_back(*proto::ParseFrame(w));

  std::size_t matched = 0;
  for (const auto& f : frames) {  // builds the index
    matched += table.Lookup(f, 2, 0) != nullptr ? 1 : 0;
  }
  ASSERT_GT(matched, 0u);

  const std::uint64_t before = News();
  std::size_t hits = 0;
  for (int round = 0; round < 200; ++round) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const int port = static_cast<int>(i % 3);
      hits += table.Lookup(frames[i], port, wires[i].size()) != nullptr;
    }
  }
  EXPECT_EQ(News() - before, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, 200 * frames.size());  // misses were exercised too
}

TEST(ClassifierAllocTest, CachedLookupAllocatesNothing) {
  const sdn::FlowTable table = MakeTable();
  sdn::MicroflowCache cache(64);  // small: misses and evictions recur
  std::vector<Bytes> wires;
  for (std::uint8_t i = 0; i < 96; ++i) {
    wires.push_back(proto::BuildUdpFrame(
        MacAddress::FromId(1), MacAddress::FromId(2),
        Ipv4Address(10, 0, 2, i), Ipv4Address(10, 0, 1, i), 5000, 80, {}));
  }
  std::vector<proto::ParsedFrame> frames;
  for (const Bytes& w : wires) frames.push_back(*proto::ParseFrame(w));
  for (const auto& f : frames) (void)table.LookupCached(cache, f, 0);

  const std::uint64_t before = News();
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      (void)table.LookupCached(cache, frames[i], 0, wires[i].size());
    }
  }
  EXPECT_EQ(News() - before, 0u);
  EXPECT_GT(cache.stats().misses, 0u);
}

}  // namespace
}  // namespace iotsec
