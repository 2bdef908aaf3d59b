#include "dataplane/cluster.h"

#include <algorithm>

#include "common/log.h"
#include "proto/frame.h"

namespace iotsec::dataplane {

void UmboxHost::ConnectUplink(net::Link* link, int my_end) {
  uplink_ = link;
  uplink_end_ = my_end;
  link->Attach(my_end, this, 0);
}

Umbox* UmboxHost::Launch(UmboxSpec spec, const ElementContext& ctx,
                         std::string* error,
                         std::function<void()> on_ready) {
  if (!alive_) {
    if (error) *error = "host is down";
    return nullptr;
  }
  if (load() >= capacity_) {
    if (error) *error = "host at capacity";
    return nullptr;
  }
  const UmboxId id = spec.id;
  if (boxes_.count(id)) {
    if (error) *error = "duplicate umbox id";
    return nullptr;
  }
  auto box = Umbox::Create(std::move(spec), ctx, error);
  if (!box) return nullptr;
  Umbox* ptr = box.get();
  box->SetAlertSink([this, id](Alert alert) {
    if (alert_sink_) alert_sink_(id, alert);
  });
  // Verdict frames return through this host's tunnel toward the switch
  // the µmbox's traffic last came from (recorded by Receive).
  box->SetEgress([this, id](net::PacketPtr inner) {
    const auto it = origin_switch_.find(id);
    ReturnFrame(id, it == origin_switch_.end() ? 0 : it->second,
                std::move(inner));
  });
  boxes_[id] = std::move(box);
  ptr->Boot(std::move(on_ready));
  return ptr;
}

bool UmboxHost::Stop(UmboxId id) {
  auto it = boxes_.find(id);
  if (it == boxes_.end()) return false;
  it->second->Stop();
  boxes_.erase(it);
  origin_switch_.erase(id);
  return true;
}

Umbox* UmboxHost::Find(UmboxId id) const {
  if (!alive_) return nullptr;
  const auto it = boxes_.find(id);
  return it == boxes_.end() ? nullptr : it->second.get();
}

void UmboxHost::Crash() {
  if (!alive_) return;
  alive_ = false;
  for (auto& [id, box] : boxes_) box->Crash();
}

bool UmboxHost::CrashUmbox(UmboxId id) {
  if (!alive_) return false;
  const auto it = boxes_.find(id);
  if (it == boxes_.end()) return false;
  if (it->second->state() == UmboxState::kCrashed) return false;
  it->second->Crash();
  return true;
}

void UmboxHost::StartHeartbeats(HeartbeatSink sink, SimDuration period) {
  heartbeat_sink_ = std::move(sink);
  if (heartbeat_ticker_.Pending()) heartbeat_ticker_.Cancel();
  heartbeat_ticker_ = sim_.Every(period, [this] {
    if (!alive_ || !heartbeat_sink_) return;  // dead hosts go silent
    std::vector<UmboxId> running;
    running.reserve(boxes_.size());
    for (const auto& [id, box] : boxes_) {
      const UmboxState s = box->state();
      if (s == UmboxState::kCrashed || s == UmboxState::kStopped) continue;
      running.push_back(id);
    }
    ++stats_.heartbeats_sent;
    heartbeat_sink_(id_, std::move(running));
  });
}

UmboxHost::UmboxTotals UmboxHost::AggregatedUmboxStats() const {
  UmboxTotals totals;
  for (const auto& [id, box] : boxes_) {
    const Umbox::Stats& s = box->stats();
    totals.processed += s.processed;
    totals.queued_during_boot += s.queued_during_boot;
    totals.dropped_during_boot += s.dropped_during_boot;
    totals.dropped_crashed += s.dropped_crashed;
    totals.crashes += s.crashes;
    totals.restarts += s.restarts;
  }
  return totals;
}

void UmboxHost::AccumulateBootQueue(int& worst_permille) const {
  for (const auto& [id, box] : boxes_) {
    const std::size_t parked = box->boot_queue_depth();
    const std::size_t limit = box->spec().boot_queue_limit;
    if (limit > 0 && parked > 0) {
      worst_permille = std::max(
          worst_permille, static_cast<int>(parked * 1000 / limit));
    }
  }
}

void UmboxHost::Receive(net::PacketPtr pkt, int port) {
  (void)port;
  if (!alive_) {
    ++stats_.dropped_while_dead;
    return;
  }
  auto decap = proto::Decapsulate(pkt->data());
  if (!decap ||
      decap->header.direction != proto::TunnelDirection::kToUmbox) {
    return;  // hosts only speak tunnel traffic
  }
  ++stats_.tunneled_in;
  const UmboxId vni = decap->header.vni;
  const SwitchId origin = decap->header.origin_switch;
  auto it = boxes_.find(vni);
  if (it == boxes_.end()) {
    ++stats_.no_such_umbox;
    return;
  }
  origin_switch_[vni] = origin;
  it->second->Process(net::TunnelDecap(*pkt, decap->inner));
}

void UmboxHost::ReturnFrame(UmboxId vni, SwitchId origin,
                            net::PacketPtr inner) {
  if (uplink_ == nullptr) return;
  ++stats_.returned;
  proto::TunnelHeader th;
  th.vni = vni;
  th.direction = proto::TunnelDirection::kFromUmbox;
  th.origin_switch = origin;
  const net::MacAddress host_mac = net::MacAddress::FromId(0xee0000 + id_);
  uplink_->Send(uplink_end_,
                net::TunnelEncap(*inner, host_mac,
                                 net::MacAddress::Broadcast(), th));
}

UmboxHost* Cluster::PickHost() const {
  UmboxHost* best = nullptr;
  for (UmboxHost* host : hosts_) {
    if (!host->alive()) continue;
    if (host->load() >= host->capacity()) continue;
    if (best == nullptr || host->load() < best->load()) best = host;
  }
  return best;
}

int Cluster::AliveHosts() const {
  int alive = 0;
  for (const UmboxHost* host : hosts_) alive += host->alive() ? 1 : 0;
  return alive;
}

UmboxHost* Cluster::HostOf(UmboxId id) const {
  for (UmboxHost* host : hosts_) {
    if (host->Find(id) != nullptr) return host;
  }
  return nullptr;
}

Umbox* Cluster::Find(UmboxId id) const {
  for (UmboxHost* host : hosts_) {
    if (Umbox* box = host->Find(id)) return box;
  }
  return nullptr;
}

int Cluster::TotalLoad() const {
  int total = 0;
  for (const UmboxHost* host : hosts_) total += host->load();
  return total;
}

int Cluster::TotalCapacity() const {
  int total = 0;
  for (const UmboxHost* host : hosts_) total += host->capacity();
  return total;
}

}  // namespace iotsec::dataplane
