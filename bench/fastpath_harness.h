// Shared steady-state forwarding harness for the fast-path benches.
//
// One edge switch with `rules` per-device steering entries (exact /32
// ip_dst matches, the shape the IoTSec controller installs) forwarding a
// bounded working set of `flows` exact flows out one port — the
// cache-friendly steady state every enforcement bench settles into.
// Measured end to end: per-packet allocation, parse, classification,
// action, link transmit through the event loop.
//
// `reference_scan` swaps the switch's classification for the pipeline
// the fast path replaced: parse, then a first-match scan over the flow
// table's Entries() with FlowMatch::Matches, then the matched output.
// It exists only here, as the benches' pre-change baseline.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "proto/frame.h"
#include "sdn/switch.h"
#include "sim/simulator.h"

namespace iotsec::bench {

struct FastPathConfig {
  std::size_t rules = 512;     // installed flow entries
  std::size_t flows = 64;      // distinct flows in the working set
  std::size_t packets = 200000;
  bool microflow = true;       // exact-match cache in front of the classifier
  bool reference_scan = false; // first-match scan instead of Switch::Receive
  bool tracing = false;        // per-hop trace appends
  bool pooling = true;         // pooled packet allocation
};

struct FastPathResult {
  double seconds = 0;
  double pps = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0;
};

/// A sink that swallows delivered frames (the far end of the egress link).
struct NullSink final : net::PacketSink {
  std::uint64_t received = 0;
  void Receive(net::PacketPtr, int) override { ++received; }
};

/// Reference classification: the first entry of Entries() (rank order)
/// whose match accepts the frame.
inline const sdn::FlowEntry* FirstMatch(const sdn::FlowTable& table,
                                        const proto::ParsedFrame& frame,
                                        int in_port) {
  for (const sdn::FlowEntry& e : table.Entries()) {
    if (e.match.Matches(frame, in_port)) return &e;
  }
  return nullptr;
}

/// The pre-change switch pipeline for one frame: trace, parse, first-match
/// scan, count, forward out the matched entry's port.
inline void ScanAndForward(const sdn::FlowTable& table, net::Link& out_link,
                           net::PacketPtr pkt, int in_port) {
  if (net::Packet::TracingEnabled()) pkt->Trace("switch:1");
  const proto::ParsedFrame* frame = pkt->Parsed();
  if (frame == nullptr) return;
  const sdn::FlowEntry* entry = FirstMatch(table, *frame, in_port);
  if (entry == nullptr) return;
  ++entry->packets;
  entry->bytes += pkt->size();
  // Every harness entry is a single output toward the egress link.
  if (entry->actions.front().type == sdn::ActionType::kOutput) {
    out_link.Send(0, std::move(pkt));
  }
}

inline FastPathResult RunFastPathWorkload(const FastPathConfig& cfg) {
  sim::Simulator sim;
  sdn::Switch sw(1, sim, sdn::Switch::MissBehavior::kDrop);
  sw.SetMicroflowEnabled(cfg.microflow);
  net::SetPacketTracing(cfg.tracing);
  net::PacketPool::Global().SetEnabled(cfg.pooling);

  net::LinkConfig link_cfg;
  link_cfg.queue_limit = 4096;
  net::Link out_link(sim, link_cfg);
  NullSink sink;
  const int out_port = sw.AttachLink(&out_link, 0);
  out_link.Attach(1, &sink, 0);

  // Per-device steering entries: all equal priority, so the reference
  // scan walks down to the matching entry.
  for (std::size_t i = 0; i < cfg.rules; ++i) {
    sdn::FlowEntry entry;
    entry.priority = 100;
    entry.cookie = i;
    entry.match.ip_dst = net::Ipv4Prefix(
        net::Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 8),
                         static_cast<std::uint8_t>(i & 0xff)),
        32);
    entry.actions.push_back(sdn::FlowAction::Output(out_port));
    sw.flow_table().Install(entry);
  }

  // Working set: flows spread uniformly across the rule table, so the
  // reference scan's average depth is rules/2.
  std::vector<Bytes> working_set;
  working_set.reserve(cfg.flows);
  const std::uint8_t payload[64] = {};
  for (std::size_t f = 0; f < cfg.flows; ++f) {
    const std::size_t rule = f * cfg.rules / cfg.flows;
    working_set.push_back(proto::BuildUdpFrame(
        net::MacAddress::FromId(static_cast<std::uint32_t>(100 + f)),
        net::MacAddress::FromId(7),
        net::Ipv4Address(10, 2, 0, static_cast<std::uint8_t>(f)),
        net::Ipv4Address(10, 1, static_cast<std::uint8_t>(rule >> 8),
                         static_cast<std::uint8_t>(rule & 0xff)),
        static_cast<std::uint16_t>(20000 + f), 80, payload));
  }

  auto receive = [&](const Bytes& frame) {
    if (cfg.reference_scan) {
      ScanAndForward(sw.flow_table(), out_link, net::MakePacket(frame), 0);
    } else {
      sw.Receive(net::MakePacket(frame), 0);
    }
  };

  // Warm caches (and the pool) before timing.
  for (std::size_t f = 0; f < cfg.flows; ++f) receive(working_set[f]);
  sim.Run();
  sw.microflow_cache().ResetStats();

  constexpr std::size_t kBatch = 512;
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (sent < cfg.packets) {
    const std::size_t batch = std::min(kBatch, cfg.packets - sent);
    for (std::size_t i = 0; i < batch; ++i) {
      receive(working_set[(sent + i) % working_set.size()]);
    }
    sim.Run();  // drain the egress link's transmit events
    sent += batch;
  }
  const auto stop = std::chrono::steady_clock::now();

  // Restore process-wide defaults for whoever runs next.
  net::SetPacketTracing(true);
  net::PacketPool::Global().SetEnabled(true);

  FastPathResult result;
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.pps = result.seconds > 0
                   ? static_cast<double>(cfg.packets) / result.seconds
                   : 0;
  const auto& cs = sw.microflow_cache().stats();
  result.cache_hits = cs.hits;
  result.cache_misses = cs.misses + cs.stale;
  result.cache_hit_rate = cs.HitRate();
  return result;
}

}  // namespace iotsec::bench
