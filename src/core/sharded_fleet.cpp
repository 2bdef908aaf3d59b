#include "core/sharded_fleet.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>

#include "common/bytes.h"
#include "common/hash.h"
#include "obs/obs.h"
#include "proto/frame.h"
#include "sdn/flow_key.h"
#include "sdn/flow_table.h"
#include "sdn/shard_map.h"

namespace iotsec::core {
namespace {

// Edge slices (switch+host+collector groups). Fixed across shard counts
// so digests stay comparable; shards beyond kSlices idle.
constexpr int kSlices = 8;
// Lockstep quantum; also the inter-switch link latency (the
// conservative lookahead bound).
constexpr SimDuration kQuantum = 100 * kMicrosecond;
// Gap between one device's telemetry sends.
constexpr SimDuration kSendInterval = 10 * kMillisecond;
// Fraction of devices that also send one frame per round to another
// slice's aggregator (the cross-shard traffic).
constexpr double kCrossFraction = 0.125;
// Devices come up, µmboxes boot (kProcess), then sends begin.
constexpr SimDuration kFirstSendAt = 50 * kMillisecond;
// Fleet links never drop on queue overflow: which packet a full queue
// sheds depends on same-timestamp arrival order, the one thing the
// barrier drain does not promise across shard counts.
constexpr std::size_t kFleetQueueLimit = std::size_t{1} << 20;

net::Ipv4Address IpOf(DeviceId id) {
  const auto v = static_cast<std::uint32_t>(id);
  return net::Ipv4Address(10, static_cast<std::uint8_t>((v >> 16) & 0xff),
                          static_cast<std::uint8_t>((v >> 8) & 0xff),
                          static_cast<std::uint8_t>(v & 0xff));
}

std::array<std::uint8_t, 8> PayloadFor(DeviceId id, std::uint8_t tag) {
  std::array<std::uint8_t, 8> p{};
  auto v = static_cast<std::uint64_t>(id);
  for (int i = 0; i < 7; ++i) {
    p[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
  p[7] = tag;
  return p;
}

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// Terminal sink for collector and aggregator traffic: folds every
// delivered frame into an order-independent digest. Wrapping ADD of
// per-frame mixes (not XOR — XOR would cancel identical pairs), so the
// fold is invariant under the same-timestamp delivery reorderings
// different shard counts produce, but sensitive to any change in what
// was delivered, when, or with what bytes.
struct ShardedFleet::DigestSink final : public net::PacketSink {
  sim::Simulator* sim = nullptr;
  std::uint64_t digest = 0;
  std::uint64_t count = 0;

  void Receive(net::PacketPtr pkt, int /*port*/) override {
    digest += hash::MixPair(hash::Fnv1a(pkt->data()),
                            static_cast<std::uint64_t>(sim->Now()));
    ++count;
  }
};

struct ShardedFleet::Slice {
  int index = 0;
  sim::Simulator* sim = nullptr;
  std::unique_ptr<sdn::Switch> sw;
  std::unique_ptr<dataplane::UmboxHost> host;
  std::unique_ptr<DigestSink> sink;

  net::MacAddress collector_mac;
  net::Ipv4Address collector_ip;
  DeviceId agg_id = 0;
  net::MacAddress agg_mac;
  net::Ipv4Address agg_ip;

  /// inter_port[t]: port on this switch toward slice t's switch (-1 for
  /// t == index). Inbound frames from slice t arrive on it, which makes
  /// it part of their microflow key.
  std::vector<int> inter_port;
  const sdn::FlowEntry* inbound_entry = nullptr;
  int local_devices = 0;
  std::uint64_t injected = 0;  // touched only by this slice's shard
};

int ShardedFleet::SliceOf(DeviceId id) const {
  return static_cast<int>(id % static_cast<DeviceId>(kSlices));
}

int ShardedFleet::ShardOfSlice(int slice) const {
  return slice % options_.shards;
}

ShardedFleet::ShardedFleet(FleetOptions options) : options_(options) {
  if (options_.devices < 1) options_.devices = 1;
  if (options_.shards < 1) options_.shards = 1;
  if (options_.packets_per_device < 1) options_.packets_per_device = 1;

  pools_.reserve(static_cast<std::size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    pools_.push_back(std::make_unique<net::PacketPool>());
  }
  sim::ShardSet::Options so;
  so.shards = options_.shards;
  so.quantum = kQuantum;
  so.use_threads = options_.threads;
  so.enter_shard = [this](int shard) {
    net::PacketPool::BindToThisThread(
        pools_[static_cast<std::size_t>(shard)].get());
  };
  set_ = std::make_unique<sim::ShardSet>(std::move(so));

  BuildSlices();
  BuildDevices();
  WarmCaches();
}

ShardedFleet::~ShardedFleet() {
  // The ShardSet constructor bound the caller thread to shard 0's pool;
  // that pool dies with us, so restore the global binding.
  net::PacketPool::BindToThisThread(nullptr);
}

void ShardedFleet::BuildSlices() {
  slices_.reserve(static_cast<std::size_t>(kSlices));

  net::LinkConfig cfg;
  cfg.latency = kQuantum;
  cfg.bandwidth_bps = 1e12;  // serialization delay rounds to 0ns
  cfg.queue_limit = kFleetQueueLimit;

  for (int s = 0; s < kSlices; ++s) {
    auto slice = std::make_unique<Slice>();
    slice->index = s;
    slice->sim = &set_->sim(ShardOfSlice(s));
    slice->sw = std::make_unique<sdn::Switch>(
        static_cast<SwitchId>(100 + s), *slice->sim,
        sdn::Switch::MissBehavior::kDrop);
    slice->host = std::make_unique<dataplane::UmboxHost>(
        static_cast<ServerId>(1000 + s), *slice->sim,
        options_.devices / kSlices + 8);
    slice->sink = std::make_unique<DigestSink>();
    slice->sink->sim = slice->sim;

    slice->collector_mac =
        net::MacAddress::FromId(0xC01000u + static_cast<std::uint32_t>(s));
    slice->collector_ip =
        net::Ipv4Address(10, 250, 0, static_cast<std::uint8_t>(s));
    slice->agg_id =
        static_cast<DeviceId>(options_.devices + 1 + s);  // after devices
    slice->agg_mac =
        net::MacAddress::FromId(static_cast<std::uint32_t>(slice->agg_id));
    slice->agg_ip = IpOf(slice->agg_id);
    slice->inter_port.assign(static_cast<std::size_t>(kSlices), -1);

    // Port plan (fixed at every shard count): 0 = µmbox host uplink,
    // 1 = telemetry collector, 2 = aggregator node, 3.. = inter-switch.
    links_.push_back(std::make_unique<net::Link>(*slice->sim, cfg));
    net::Link* host_link = links_.back().get();
    slice->sw->AttachLink(host_link, 0);
    slice->host->ConnectUplink(host_link, 1);

    links_.push_back(std::make_unique<net::Link>(*slice->sim, cfg));
    net::Link* collector_link = links_.back().get();
    slice->sw->AttachLink(collector_link, 0);
    collector_link->Attach(1, slice->sink.get(), 0);

    links_.push_back(std::make_unique<net::Link>(*slice->sim, cfg));
    net::Link* agg_link = links_.back().get();
    slice->sw->AttachLink(agg_link, 0);
    agg_link->Attach(1, slice->sink.get(), 1);

    slice->sw->SetMacPort(slice->collector_mac, 1);
    slice->sw->SetMacPort(slice->agg_mac, 2);
    slices_.push_back(std::move(slice));
  }

  // Inter-switch full mesh, shard-bound: these are the only links whose
  // ends can land on different shards, so their latency (== quantum) is
  // the conservative lookahead bound.
  for (int a = 0; a < kSlices; ++a) {
    for (int b = a + 1; b < kSlices; ++b) {
      links_.push_back(std::make_unique<net::Link>(*slices_[a]->sim, cfg));
      net::Link* l = links_.back().get();
      const int port_a = slices_[a]->sw->AttachLink(l, 0);
      const int port_b = slices_[b]->sw->AttachLink(l, 1);
      l->BindShards(set_.get(), ShardOfSlice(a), ShardOfSlice(b));
      slices_[a]->inter_port[static_cast<std::size_t>(b)] = port_a;
      slices_[b]->inter_port[static_cast<std::size_t>(a)] = port_b;
      slices_[a]->sw->SetMacPort(slices_[b]->agg_mac, port_a);
      slices_[b]->sw->SetMacPort(slices_[a]->agg_mac, port_b);
    }
  }
}

void ShardedFleet::BuildDevices() {
  devices_.resize(static_cast<std::size_t>(options_.devices));
  const auto cross_threshold =
      static_cast<std::uint64_t>(kCrossFraction * 1e6);

  for (int i = 0; i < options_.devices; ++i) {
    FleetDevice& dev = devices_[static_cast<std::size_t>(i)];
    dev.id = static_cast<DeviceId>(i + 1);
    dev.slice = SliceOf(dev.id);
    Slice& slice = *slices_[static_cast<std::size_t>(dev.slice)];
    ++slice.local_devices;
    // Virtual ingress port: a port number the switch has no link on.
    // Receive() only uses in_port for classification, and giving every
    // device its own keeps per-device flow entries exact-match cheap.
    dev.in_port = 100000 + i;

    const net::MacAddress mac =
        net::MacAddress::FromId(static_cast<std::uint32_t>(dev.id));
    const net::Ipv4Address ip = IpOf(dev.id);
    const auto telemetry_payload = PayloadFor(dev.id, /*tag=*/1);
    dev.telemetry_frame = proto::BuildUdpFrame(
        mac, slice.collector_mac, ip, slice.collector_ip,
        /*src_port=*/40000, /*dst_port=*/514, telemetry_payload);

    const std::uint64_t h = sdn::MixDeviceId(dev.id);
    if (h % 1000000 < cross_threshold) {
      const int peer =
          (dev.slice + 1 +
           static_cast<int>(sdn::MixDeviceId(dev.id ^ 0x9E37u) %
                            static_cast<std::uint64_t>(kSlices - 1))) %
          kSlices;
      const Slice& ps = *slices_[static_cast<std::size_t>(peer)];
      const auto cross_payload = PayloadFor(dev.id, /*tag=*/2);
      dev.cross_frame = proto::BuildUdpFrame(mac, ps.agg_mac, ip, ps.agg_ip,
                                             /*src_port=*/40000,
                                             /*dst_port=*/9999, cross_payload);
    }

    // The per-device µmbox: tunnel in by flow entry, Counter chain,
    // tunnel back, then normal L2 forwarding.
    dataplane::UmboxSpec spec;
    spec.id = static_cast<UmboxId>(dev.id);
    spec.device = dev.id;
    spec.config_text = "c :: Counter()\n";
    spec.boot = dataplane::BootModel::kProcess;
    spec.boot_queue_limit = 8;
    spec.shard = ShardOfSlice(dev.slice);
    std::string error;
    const dataplane::ElementContext ctx{slice.sim, nullptr};
    if (slice.host->Launch(std::move(spec), ctx, &error) == nullptr) {
      throw std::runtime_error("fleet umbox launch failed: " + error);
    }

    sdn::FlowMatch from_device;
    from_device.in_port = dev.in_port;
    slice.sw->flow_table().Install(sdn::FlowEntry{
        /*priority=*/100,
        from_device,
        {sdn::FlowAction::Tunnel(static_cast<UmboxId>(dev.id), /*port=*/0)},
        /*version=*/1,
        /*cookie=*/static_cast<std::uint64_t>(dev.id)});
  }

  // One inbound entry per slice: anything addressed to the local
  // aggregator (cross traffic arriving over inter-switch links) goes out
  // the aggregator port.
  for (auto& slice : slices_) {
    sdn::FlowMatch to_aggregator;
    to_aggregator.ip_dst = net::Ipv4Prefix(slice->agg_ip, 32);
    slice->sw->flow_table().Install(sdn::FlowEntry{
        /*priority=*/50,
        to_aggregator,
        {sdn::FlowAction::Output(/*port=*/2)},
        /*version=*/1,
        /*cookie=*/0xA6600000ull + static_cast<std::uint64_t>(slice->index)});
  }
}

void ShardedFleet::WarmCaches() {
  // Entry pointers are only stable once every Install is done (the table
  // keeps a sorted vector), so warming is a separate pass: map cookies to
  // entries with one scan per switch, then insert each device's exact
  // flow keys. Without this, every first packet of a million flows pays
  // the classifier (and the first one an index rebuild).
  std::vector<std::map<std::uint64_t, const sdn::FlowEntry*>> by_cookie(
      slices_.size());
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    Slice& slice = *slices_[s];
    const auto keys = static_cast<std::size_t>(slice.local_devices) * 3 + 16;
    slice.sw->microflow_cache().Resize(RoundUpPow2(keys * 4));
    for (const sdn::FlowEntry& e : slice.sw->flow_table().Entries()) {
      by_cookie[s][e.cookie] = &e;
    }
    slice.inbound_entry =
        by_cookie[s][0xA6600000ull + static_cast<std::uint64_t>(slice.index)];
  }

  for (const FleetDevice& dev : devices_) {
    Slice& slice = *slices_[static_cast<std::size_t>(dev.slice)];
    const std::uint64_t gen = slice.sw->flow_table().generation();
    const sdn::FlowEntry* tunnel_entry =
        by_cookie[static_cast<std::size_t>(dev.slice)]
                 [static_cast<std::uint64_t>(dev.id)];

    const auto telemetry = proto::ParseFrame(dev.telemetry_frame);
    const auto telemetry_key = sdn::FlowKey::FromFrame(*telemetry, dev.in_port);
    slice.sw->microflow_cache().Insert(telemetry_key, telemetry_key.Hash(),
                                       tunnel_entry, gen);

    if (dev.cross_frame.empty()) continue;
    const auto cross = proto::ParseFrame(dev.cross_frame);
    const auto cross_key = sdn::FlowKey::FromFrame(*cross, dev.in_port);
    slice.sw->microflow_cache().Insert(cross_key, cross_key.Hash(),
                                       tunnel_entry, gen);
    // ... and the same frame as the peer slice sees it, arriving on the
    // inter-switch port, resolving to the peer's inbound entry.
    const auto peer_agg =
        static_cast<DeviceId>(cross->ip->dst.value() & 0xFFFFFFu);
    const int peer = static_cast<int>(peer_agg) - options_.devices - 1;
    Slice& ps = *slices_[static_cast<std::size_t>(peer)];
    const auto inbound_key = sdn::FlowKey::FromFrame(
        *cross, ps.inter_port[static_cast<std::size_t>(dev.slice)]);
    ps.sw->microflow_cache().Insert(inbound_key, inbound_key.Hash(),
                                    ps.inbound_entry,
                                    ps.sw->flow_table().generation());
  }
}

FleetResult ShardedFleet::Run() {
  // Send schedule: one self-rescheduling event per device, first firing
  // jittered across a full interval by the device-id hash so arrivals
  // spread over the quanta instead of synchronizing.
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const FleetDevice& dev = devices_[i];
    const SimDuration jitter = static_cast<SimDuration>(
        sdn::MixDeviceId(dev.id ^ 0x7177u) % kSendInterval);
    set_->sim(ShardOfSlice(dev.slice))
        .At(kFirstSendAt + jitter, [this, i] { SendOne(i); });
  }

  const SimDuration horizon =
      kFirstSendAt +
      static_cast<SimDuration>(options_.packets_per_device + 1) *
          kSendInterval +
      10 * kMillisecond;

  const auto wall_start = std::chrono::steady_clock::now();
  set_->RunFor(horizon);
  const auto wall_end = std::chrono::steady_clock::now();

  FleetResult result;
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  for (const auto& slice : slices_) {
    result.injected += slice->injected;
    const auto totals = slice->host->AggregatedUmboxStats();
    result.processed += totals.processed;
    result.per_slice_processed.push_back(totals.processed);
    result.delivered += slice->sink->count;
    result.digest += hash::MixPair(
        slice->sink->digest, static_cast<std::uint64_t>(slice->index) + 1);
  }
  result.cross_shard_events = set_->cross_shard_events();
  result.late_posts = set_->late_posts();
  for (const auto& pool : pools_) {
    result.foreign_releases += pool->ForeignReleases();
  }
  result.packets_per_second =
      result.wall_seconds > 0
          ? static_cast<double>(result.processed) / result.wall_seconds
          : 0.0;
  return result;
}

void ShardedFleet::SendOne(std::size_t dev_index) {
  FleetDevice& dev = devices_[dev_index];
  Slice& slice = *slices_[static_cast<std::size_t>(dev.slice)];

  auto pkt = net::MakePacket(Bytes(dev.telemetry_frame));
  pkt->created_at = slice.sim->Now();
  slice.sw->Receive(std::move(pkt), dev.in_port);
  ++slice.injected;
  if (!dev.cross_frame.empty()) {
    auto cross = net::MakePacket(Bytes(dev.cross_frame));
    cross->created_at = slice.sim->Now();
    slice.sw->Receive(std::move(cross), dev.in_port);
    ++slice.injected;
  }

  if (++dev.sends_done < options_.packets_per_device) {
    slice.sim->At(slice.sim->Now() + kSendInterval,
                  [this, dev_index] { SendOne(dev_index); });
  }
}

}  // namespace iotsec::core
