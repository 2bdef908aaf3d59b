// The on-premise µmbox cluster (or upgraded IoT router).
//
// An UmboxHost is a server at the end of a tunnel from the edge switches:
// it decapsulates diverted traffic, dispatches it to the right µmbox by
// VNI, and returns the surviving frames wrapped in a kFromUmbox tunnel
// toward the originating switch. A Cluster is a pool of hosts with
// capacity-based placement.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/types.h"
#include "dataplane/umbox.h"
#include "net/link.h"
#include "net/packet.h"
#include "proto/tunnel.h"

namespace iotsec::dataplane {

class UmboxHost final : public net::PacketSink {
 public:
  UmboxHost(ServerId id, sim::Simulator& simulator, int capacity = 32)
      : id_(id), sim_(simulator), capacity_(capacity) {}

  [[nodiscard]] ServerId id() const { return id_; }
  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] int load() const { return static_cast<int>(boxes_.size()); }
  [[nodiscard]] bool alive() const { return alive_; }

  /// Connects the host's NIC toward the switch fabric.
  void ConnectUplink(net::Link* link, int my_end);

  /// Places a µmbox on this host and boots it. Returns the instance, or
  /// nullptr if at capacity / bad config.
  Umbox* Launch(UmboxSpec spec, const ElementContext& ctx, std::string* error,
                std::function<void()> on_ready = nullptr);

  /// Stops and removes a µmbox.
  bool Stop(UmboxId id);

  /// nullptr when the host is down — a dead host serves nothing.
  [[nodiscard]] Umbox* Find(UmboxId id) const;

  /// Simulated host failure (fault injection): every hosted µmbox dies
  /// with it, the NIC goes silent (tunneled frames blackhole) and
  /// heartbeats stop, which is how the controller finds out.
  void Crash();

  /// Crashes one hosted µmbox in place (the host survives). Returns
  /// false if the id is unknown, the host is down, or it already crashed.
  bool CrashUmbox(UmboxId id);

  /// Periodic liveness reports to the controller: every `period` an alive
  /// host calls `sink` with the ids of its non-crashed µmboxes. A µmbox
  /// missing from the reports (or a host gone silent) is how failures
  /// are detected — there is no explicit "I died" message.
  using HeartbeatSink = std::function<void(ServerId, std::vector<UmboxId>)>;
  void StartHeartbeats(HeartbeatSink sink, SimDuration period);

  /// Alerts from any hosted µmbox fan into this sink (set by the
  /// controller), tagged with the µmbox id.
  using AlertSink = std::function<void(UmboxId, const Alert&)>;
  void SetAlertSink(AlertSink sink) { alert_sink_ = std::move(sink); }

  // net::PacketSink — tunneled traffic from the switches.
  void Receive(net::PacketPtr pkt, int port) override;

  struct Stats {
    std::uint64_t tunneled_in = 0;
    std::uint64_t returned = 0;
    std::uint64_t no_such_umbox = 0;
    std::uint64_t dropped_while_dead = 0;  // frames that hit a dead host
    std::uint64_t heartbeats_sent = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Sum of the hosted µmboxes' own counters (crashed instances
  /// included), so boot-queue and crash drops surface at host level.
  struct UmboxTotals {
    std::uint64_t processed = 0;
    std::uint64_t queued_during_boot = 0;
    std::uint64_t dropped_during_boot = 0;
    std::uint64_t dropped_crashed = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
  };
  [[nodiscard]] UmboxTotals AggregatedUmboxStats() const;

  /// Adds this host's boot-queue occupancy to an admission snapshot:
  /// `worst_permille` tracks the fullest single µmbox queue as a fraction
  /// of its own limit.
  void AccumulateBootQueue(int& worst_permille) const;

 private:
  void ReturnFrame(UmboxId vni, SwitchId origin, net::PacketPtr inner);

  ServerId id_;
  sim::Simulator& sim_;
  int capacity_;
  net::Link* uplink_ = nullptr;
  int uplink_end_ = 0;
  std::map<UmboxId, std::unique_ptr<Umbox>> boxes_;
  /// Remembers which switch each µmbox's traffic came from so verdict
  /// frames return to the right edge.
  std::map<UmboxId, SwitchId> origin_switch_;
  AlertSink alert_sink_;
  HeartbeatSink heartbeat_sink_;
  sim::EventHandle heartbeat_ticker_;
  bool alive_ = true;
  Stats stats_;
};

/// Pool of hosts with least-loaded placement.
class Cluster {
 public:
  void AddHost(UmboxHost* host) { hosts_.push_back(host); }

  /// Least-loaded *alive* host with spare capacity; nullptr when full
  /// (or when every host is down).
  [[nodiscard]] UmboxHost* PickHost() const;

  [[nodiscard]] int AliveHosts() const;

  [[nodiscard]] UmboxHost* HostOf(UmboxId id) const;
  [[nodiscard]] Umbox* Find(UmboxId id) const;
  [[nodiscard]] const std::vector<UmboxHost*>& hosts() const {
    return hosts_;
  }

  [[nodiscard]] int TotalLoad() const;
  [[nodiscard]] int TotalCapacity() const;

 private:
  std::vector<UmboxHost*> hosts_;
};

}  // namespace iotsec::dataplane
