#include "layers.h"

#include <algorithm>
#include <chrono>

#include "common/rng.h"
#include "sim/shard_set.h"

namespace e2ebench {

using namespace iotsec;

namespace {

// Defeats dead-code elimination of replayed calls.
volatile std::uint64_t g_sink = 0;

/// Median over five timed batches of `iters` calls, in ns per call.
template <typename Fn>
double NsPerCall(std::size_t iters, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    batches.push_back(ns / static_cast<double>(iters));
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t CounterDelta(const obs::RegistrySnapshot& after,
                           const obs::RegistrySnapshot& before,
                           const std::string& name) {
  const auto a = after.counters.find(name);
  const auto b = before.counters.find(name);
  const std::uint64_t av = a == after.counters.end() ? 0 : a->second;
  const std::uint64_t bv = b == before.counters.end() ? 0 : b->second;
  return av - bv;
}

/// Spans only record while sampling is on, which the traced run turns on
/// right before its traffic phase, so histograms need no baseline.
obs::HistogramSnapshot Histogram(const obs::RegistrySnapshot& snap,
                                 const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? obs::HistogramSnapshot{} : it->second;
}

/// Percentile of a span histogram, interpolated linearly inside the
/// bucket that holds the rank (the registry's own Percentile reports the
/// bucket's upper bound, which reads the same on every run).
double SpanPercentile(const obs::HistogramSnapshot& h, double p) {
  if (h.count == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto n = static_cast<double>(h.buckets[i]);
    if (n == 0 || seen + n < rank) {
      seen += n;
      continue;
    }
    const auto lo = static_cast<double>(obs::HistogramLayout::LowerBound(i));
    const auto hi = static_cast<double>(obs::HistogramLayout::UpperBound(i));
    return lo + (hi - lo) * (rank - seen) / n;
  }
  return static_cast<double>(h.max);
}

dataplane::UmboxHost& OnlyHost(core::Deployment& dep) {
  return *dep.cluster().hosts().front();
}

std::uint64_t BootQueued(core::Deployment& dep) {
  std::uint64_t total = 0;
  for (const dataplane::UmboxHost* host : dep.cluster().hosts()) {
    total += host->AggregatedUmboxStats().queued_during_boot;
  }
  return total;
}

// Simulator::At plus one pop at a steady queue depth.
double SchedulerNs(std::size_t depth) {
  sim::Simulator sim;
  Rng rng(7);
  auto delay = [&rng] { return 1 + rng.NextBelow(10 * kMillisecond); };
  for (std::size_t i = 0; i < depth; ++i) sim.After(delay(), [] {});
  return NsPerCall(200000, [&](std::size_t) {
    sim.After(delay(), [] { g_sink = g_sink + 1; });
    sim.RunUntil(sim.NextEventTime());
  });
}

// One lockstep quantum of a 2-shard threaded set with an event per shard
// per quantum (empty quanta would be skipped).
double QuantumNs(SimDuration quantum) {
  sim::ShardSet::Options so;
  so.shards = 2;
  so.quantum = quantum;
  so.use_threads = true;
  sim::ShardSet set(std::move(so));
  for (int s = 0; s < set.shard_count(); ++s) {
    set.sim(s).Every(quantum, [] {});
  }
  constexpr std::uint64_t kQuanta = 20000;
  const auto start = std::chrono::steady_clock::now();
  set.RunFor(kQuanta * quantum);
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return ns / static_cast<double>(std::max<std::uint64_t>(1, set.quanta_run()));
}

/// Frames the workload sends, for replay probes: a bare request, a padded
/// request (bare == padded when the workload has none) and a reply.
struct SampleFrames {
  iotsec::Bytes bare;
  iotsec::Bytes padded;
  iotsec::Bytes reply;
  int request_port = -1;  // edge ingress port of requests (attacker)
  int reply_port = -1;    // edge ingress port of replies (device)
  double padded_share = 0;  // share of requests that are padded
};

SampleFrames CaptureFrames(Fleet& fleet, const Schedule& schedule) {
  core::Deployment& dep = *fleet.dep;
  const devices::DeviceSpec& dev = fleet.devices[0]->spec();
  const net::MacAddress client_mac = dep.attacker().mac();
  const net::Ipv4Address client_ip = dep.attacker().ip();
  // Same bytes Attacker::HttpGet puts on the wire.
  auto request = [&](const std::string& path) {
    proto::HttpRequest req;
    req.method = "GET";
    req.path = path;
    req.SetHeader("Host", dev.ip.ToString());
    proto::TcpHeader tcp;
    tcp.src_port = 40000;
    tcp.dst_port = 80;
    tcp.seq = 1;
    tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
    return proto::BuildTcpFrame(client_mac, dev.mac, client_ip, dev.ip, tcp,
                                req.Serialize());
  };
  SampleFrames frames;
  frames.bare = request("/");
  frames.padded = schedule.pads.empty() ? frames.bare
                                        : request(schedule.pads.front());
  proto::HttpResponse resp;
  resp.status = 404;
  resp.reason = "Not Found";
  proto::TcpHeader tcp;
  tcp.src_port = 80;
  tcp.dst_port = 40000;
  tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
  frames.reply = proto::BuildTcpFrame(dev.mac, client_mac, dev.ip, client_ip,
                                      tcp, resp.Serialize());
  frames.request_port = dep.edge().PortOfMac(client_mac);
  frames.reply_port = dep.edge().PortOfMac(dev.mac);
  std::size_t padded = 0;
  for (const Request& r : schedule.requests) padded += r.pad != 0 ? 1 : 0;
  frames.padded_share =
      schedule.requests.empty()
          ? 0.0
          : static_cast<double>(padded) /
                static_cast<double>(schedule.requests.size());
  return frames;
}

}  // namespace

LayerBaseline CaptureBaseline(Fleet& fleet) {
  core::Deployment& dep = *fleet.dep;
  LayerBaseline b;
  b.registry = obs::MetricsRegistry::Global().Snapshot();
  b.edge = dep.edge().stats();
  b.table_generation = dep.edge().flow_table().generation();
  b.ctl = dep.controller().stats();
  b.audit_records = dep.controller().audit().TotalRecorded();
  b.links = dep.AggregateLinkStats();
  b.host = OnlyHost(dep).stats();
  b.boot_queued = BootQueued(dep);
  if (sim::ShardSet* shards = dep.shard_set()) {
    b.quanta = shards->quanta_run();
    b.cross_events = shards->cross_shard_events();
    b.late_posts = shards->late_posts();
  }
  return b;
}

Metrics MeasureLayers(Fleet& fleet, const Schedule& schedule,
                      const DriveResult& drive, const LayerBaseline& before) {
  core::Deployment& dep = *fleet.dep;
  control::IoTSecController& ctl = dep.controller();
  // Counts first: the replay probes below touch the same registry.
  const obs::RegistrySnapshot reg = obs::MetricsRegistry::Global().Snapshot();
  auto counter = [&](const char* name) {
    return static_cast<double>(CounterDelta(reg, before.registry, name));
  };
  const sdn::Switch::Stats& edge = dep.edge().stats();
  const control::IoTSecController::Stats& cs = ctl.stats();
  const core::Deployment::NetworkTotals links = dep.AggregateLinkStats();
  const dataplane::UmboxHost::Stats& host = OnlyHost(dep).stats();
  const double exchanges = static_cast<double>(drive.exchanges);
  const double wall_ns = drive.wall_s * 1e9;
  auto per_exchange = [&](double v) { return Ratio(v, exchanges); };
  auto delta = [](std::uint64_t after, std::uint64_t b) {
    return static_cast<double>(after - b);
  };

  const double events = static_cast<double>(drive.events);
  double quanta = 0, cross = 0, late = 0;
  if (sim::ShardSet* shards = dep.shard_set()) {
    quanta = delta(shards->quanta_run(), before.quanta);
    cross = delta(shards->cross_shard_events(), before.cross_events);
    late = delta(shards->late_posts(), before.late_posts);
  }
  const double frames = delta(edge.frames, before.edge.frames);
  const double reevals = delta(cs.policy_evals, before.ctl.policy_evals);
  const double coalesced =
      delta(cs.reevals_coalesced, before.ctl.reevals_coalesced);
  const double mf_hits = counter("sdn.microflow_hits");
  const double mf_total = mf_hits + counter("sdn.microflow_misses") +
                          counter("sdn.microflow_stale");
  const double pool_reused = counter("fastpath.pool_reused");
  const double pool_total = pool_reused + counter("fastpath.pool_fresh");
  const double sig_hits = counter("sig.cache_hits");
  const double sig_lookups = sig_hits + counter("sig.cache_misses");
  const double parse_full = counter("fastpath.parse_full");
  const double encaps = delta(edge.tunneled, before.edge.tunneled);
  const double decaps = delta(edge.decapsulated, before.edge.decapsulated) +
                        delta(host.tunneled_in, before.host.tunneled_in);
  const obs::HistogramSnapshot chain = Histogram(reg, "dp.chain_ns");
  const obs::HistogramSnapshot scan = Histogram(reg, "sig.scan_ns");

  // ---- Replay probes.
  const double sched_ns = SchedulerNs(static_cast<std::size_t>(
      std::max(1.0, Percentile(drive.queue_depth, 50))));
  const double quantum_ns =
      dep.shard_set() != nullptr ? QuantumNs(dep.shard_set()->quantum()) : 0;

  const SampleFrames sf = CaptureFrames(fleet, schedule);
  auto parse_ns = [](const Bytes& frame) {
    return NsPerCall(100000, [&](std::size_t) {
      g_sink = g_sink + proto::ParseFrame(frame)->payload.size();
    });
  };
  const double parse_small = parse_ns(sf.bare);
  const double parse_mtu = parse_ns(sf.padded);
  proto::TunnelHeader th;
  th.vni = 1;
  th.origin_switch = dep.edge().id();
  const net::MacAddress tunnel_mac = net::MacAddress::FromId(0xffff01);
  const Bytes& tunnel_inner = sf.padded_share > 0 ? sf.padded : sf.bare;
  const double encap_ns = NsPerCall(100000, [&](std::size_t) {
    g_sink = g_sink + proto::Encapsulate(tunnel_mac,
                                         net::MacAddress::Broadcast(), th,
                                         tunnel_inner)
                          .size();
  });
  const Bytes outer = proto::Encapsulate(
      tunnel_mac, net::MacAddress::Broadcast(), th, tunnel_inner);
  const double decap_ns = NsPerCall(100000, [&](std::size_t) {
    g_sink = g_sink + proto::Decapsulate(outer)->inner.size();
  });

  // Classification against the live edge table, on the fast path (a warm
  // private microflow cache) and the linear scan, weighted by the run's
  // measured hit ratio.
  const sdn::FlowTable& table = dep.edge().flow_table();
  const proto::ParsedFrame req = *proto::ParseFrame(sf.bare);
  const proto::ParsedFrame rep = *proto::ParseFrame(sf.reply);
  const double scan_lookup_ns = NsPerCall(100000, [&](std::size_t i) {
    const sdn::FlowEntry* e = i % 2 == 0 ? table.Lookup(req, sf.request_port)
                                         : table.Lookup(rep, sf.reply_port);
    g_sink = g_sink + (e != nullptr ? 1 : 0);
  });
  sdn::MicroflowCache cache;
  const double cached_lookup_ns = NsPerCall(100000, [&](std::size_t i) {
    const sdn::FlowEntry* e =
        i % 2 == 0 ? table.LookupCached(cache, req, sf.request_port)
                   : table.LookupCached(cache, rep, sf.reply_port);
    g_sink = g_sink + (e != nullptr ? 1 : 0);
  });
  const double hit_ratio = Ratio(mf_hits, mf_total);
  const double lookup_ns =
      hit_ratio * cached_lookup_ns + (1 - hit_ratio) * scan_lookup_ns;

  // µmbox launch and hot reconfiguration on a scratch host, with the
  // builtin compile held warm by one extra instance (as in a live run).
  sim::Simulator scratch_sim;
  dataplane::UmboxHost scratch(99, scratch_sim, 1 << 20);
  dataplane::ElementContext ectx;
  ectx.sim = &scratch_sim;
  ectx.context = &ctl.view();
  const std::string monitor = core::MonitorPosture().umbox_config;
  const std::string quarantine = core::QuarantinePosture().umbox_config;
  std::string error;
  UmboxId next_id = 1;
  auto launch = [&]() {
    dataplane::UmboxSpec spec;
    spec.id = next_id++;
    spec.config_text = monitor;
    return scratch.Launch(spec, ectx, &error);
  };
  dataplane::Umbox* warm = launch();
  const double launch_ns = NsPerCall(200, [&](std::size_t) {
    dataplane::Umbox* box = launch();
    if (box != nullptr) scratch.Stop(box->spec().id);
  });
  const double reconfig_ns = NsPerCall(200, [&](std::size_t i) {
    g_sink = g_sink + warm->Reconfigure(i % 2 == 0 ? quarantine : monitor,
                                        &error);
  });

  // Policy evaluation over the live view.
  std::vector<DeviceId> ids;
  for (const devices::Device* d : fleet.devices) ids.push_back(d->id());
  const policy::SystemState state = ctl.view().ToSystemState(fleet.space);
  const double eval_all_ns = NsPerCall(20, [&](std::size_t) {
    g_sink = g_sink +
             ctl.ActivePolicy().EvaluateAll(fleet.space, state, ids).size();
  });
  const double snapshot_ns = NsPerCall(200, [&](std::size_t) {
    g_sink = g_sink + ctl.view().ToSystemState(fleet.space).values.size();
  });

  // ---- Busy shares of the traced drive's wall time.
  const double sim_busy = Ratio(events * sched_ns, wall_ns);
  const double shard_busy = Ratio(quanta * quantum_ns, wall_ns);
  const double parse_mix = sf.padded_share * parse_mtu +
                           (1 - sf.padded_share) * parse_small;
  // Host-side encapsulation of verdict frames happens inside the chain
  // span (the µmbox egress), so it is counted under dp, not here.
  const double proto_busy = Ratio(
      parse_full * parse_mix + encaps * encap_ns + decaps * decap_ns, wall_ns);
  const double sdn_busy = Ratio(frames * lookup_ns, wall_ns);
  const double sig_busy = Ratio(static_cast<double>(scan.sum), wall_ns);
  const double dp_busy = Ratio(
      static_cast<double>(chain.sum) - static_cast<double>(scan.sum), wall_ns);
  const double ctl_busy = Ratio(reevals * (snapshot_ns + eval_all_ns), wall_ns);

  const double link_packets = delta(links.packets, before.links.packets);
  Metrics m = {
      {"sim.events_per_exchange", per_exchange(events)},
      {"sim.ns_per_event", Ratio(wall_ns, events)},
      {"sim.sched_ns", sched_ns},
      {"sim.queue_depth_p50", Percentile(drive.queue_depth, 50)},
      {"sim.queue_depth_max", Percentile(drive.queue_depth, 100)},
      {"sim.busy_share", sim_busy},
      {"shard.quanta_per_exchange", per_exchange(quanta)},
      {"shard.cross_events", cross},
      {"shard.late_posts", late},
      {"shard.busy_share", shard_busy},
      {"net.link_packets_per_exchange", per_exchange(link_packets)},
      {"net.queue_drops", delta(links.queue_drops, before.links.queue_drops)},
      {"net.lost", delta(links.lost, before.links.lost)},
      {"net.pool_live_max", static_cast<double>(drive.pool_live_max)},
      {"net.pool_reuse_ratio", Ratio(pool_reused, pool_total)},
      {"net.pool_foreign_releases", counter("net.pool_foreign_release")},
      {"proto.parse_full_per_exchange", per_exchange(parse_full)},
      {"proto.parse_ns_small", parse_small},
      {"proto.parse_ns_mtu", parse_mtu},
      {"proto.encap_ns", encap_ns},
      {"proto.decap_ns", decap_ns},
      {"proto.busy_share", proto_busy},
      {"sdn.frames_per_exchange", per_exchange(frames)},
      {"sdn.miss_share", Ratio(delta(edge.misses, before.edge.misses), frames)},
      {"sdn.tunnel_share", Ratio(encaps, frames)},
      {"sdn.microflow_hit_ratio", hit_ratio},
      {"sdn.microflow_stale", counter("sdn.microflow_stale")},
      {"sdn.flowmod_ops",
       delta(dep.edge().flow_table().generation(), before.table_generation)},
      {"sdn.lookup_ns", lookup_ns},
      {"sdn.busy_share", sdn_busy},
      {"dp.packets_per_exchange", per_exchange(counter("dp.packets"))},
      {"dp.chain_ns_p50", SpanPercentile(chain, 50)},
      {"dp.chain_ns_p99", SpanPercentile(chain, 99)},
      {"dp.element.SignatureMatcher_ns_p50",
       SpanPercentile(Histogram(reg, "dp.element.SignatureMatcher_ns"), 50)},
      {"dp.element.Counter_ns_p50",
       SpanPercentile(Histogram(reg, "dp.element.Counter_ns"), 50)},
      {"dp.boot_queued",
       static_cast<double>(BootQueued(dep) - before.boot_queued)},
      {"dp.boot_drops", counter("dp.boot_drops")},
      {"dp.launch_ns", launch_ns},
      {"dp.reconfig_ns", reconfig_ns},
      {"dp.busy_share", dp_busy},
      {"sig.evaluations_per_exchange",
       per_exchange(counter("sig.evaluations"))},
      {"sig.scan_bytes_per_exchange", per_exchange(counter("sig.scan_bytes"))},
      {"sig.scan_ns_p50", SpanPercentile(scan, 50)},
      {"sig.scan_ns_p99", SpanPercentile(scan, 99)},
      {"sig.compiles", counter("sig.compiles")},
      {"sig.cache_hit_ratio", Ratio(sig_hits, sig_lookups)},
      {"sig.busy_share", sig_busy},
      {"ctl.reevals", reevals},
      {"ctl.reeval_coalesce_ratio", Ratio(coalesced, coalesced + reevals)},
      {"ctl.posture_changes",
       delta(cs.posture_changes, before.ctl.posture_changes)},
      {"ctl.flow_ops", delta(cs.flow_ops, before.ctl.flow_ops)},
      {"ctl.umbox_launches",
       delta(cs.umbox_launches, before.ctl.umbox_launches)},
      {"ctl.umbox_reconfigs",
       delta(cs.umbox_reconfigs, before.ctl.umbox_reconfigs)},
      {"ctl.alerts", delta(cs.alerts, before.ctl.alerts)},
      {"ctl.packet_ins_per_exchange",
       per_exchange(delta(cs.packet_ins, before.ctl.packet_ins))},
      {"ctl.audit_records",
       delta(ctl.audit().TotalRecorded(), before.audit_records)},
      {"ctl.busy_share", ctl_busy},
      {"policy.eval_all_ns", eval_all_ns},
      {"policy.view_snapshot_ns", snapshot_ns},
      {"attr.unattributed_share", 1 - (sim_busy + shard_busy + proto_busy +
                                       sdn_busy + dp_busy + sig_busy +
                                       ctl_busy)},
  };
  return m;
}

}  // namespace e2ebench
