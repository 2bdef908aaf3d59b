// Simulated SDN edge switch / access point.
//
// Every IoT device's first hop. Forwards by flow table (programmed by the
// controller), falls back to PacketIn on miss (or L2 flooding when running
// "unmanaged" as the traditional-IT baseline), encapsulates diverted
// traffic toward the µmbox cluster, and decapsulates verdict traffic
// coming back.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/link.h"
#include "net/packet.h"
#include "proto/tunnel.h"
#include "sdn/flow_table.h"
#include "sdn/microflow_cache.h"
#include "sim/simulator.h"

namespace iotsec::sdn {

/// One operation inside a batched flow-mod message (see
/// Switch::ApplyFlowMods). The federated control plane buffers these per
/// switch and flushes them as a single message per quantum.
struct FlowMod {
  enum class Op : std::uint8_t { kInstall, kRemoveByCookie };
  Op op = Op::kInstall;
  FlowEntry entry;           // kInstall
  std::uint64_t cookie = 0;  // kRemoveByCookie (mirrors entry.cookie)
};

/// Receives table-miss packets from switches (implemented by controllers).
class PacketInHandler {
 public:
  virtual ~PacketInHandler() = default;
  virtual void OnPacketIn(SwitchId sw, int in_port, net::PacketPtr pkt) = 0;
};

class Switch final : public net::PacketSink {
 public:
  enum class MissBehavior {
    kDrop,          // strict: no controller, no legacy behaviour
    kFlood,         // unmanaged L2 switch (baseline topologies)
    kToController,  // OpenFlow-style PacketIn
  };

  Switch(SwitchId id, sim::Simulator& simulator,
         MissBehavior miss = MissBehavior::kToController)
      : id_(id), sim_(simulator), miss_(miss) {}

  [[nodiscard]] SwitchId id() const { return id_; }

  /// Connects `link` endpoint `their_end`'s *opposite* side to a new port;
  /// returns the port index.
  int AttachLink(net::Link* link, int my_end);

  /// Static L2 table used after tunnel decapsulation and by kOutput-less
  /// forwarding decisions made by the controller.
  void SetMacPort(const net::MacAddress& mac, int port);
  [[nodiscard]] int PortOfMac(const net::MacAddress& mac) const;

  /// Inter-switch topology: which port leads toward another switch.
  /// Returning (kFromUmbox) tunnel frames are decapsulated only at their
  /// origin switch; transit switches forward them here intact.
  void SetSwitchPort(SwitchId sw, int port) { switch_ports_[sw] = port; }
  [[nodiscard]] int PortToSwitch(SwitchId sw) const {
    const auto it = switch_ports_.find(sw);
    return it == switch_ports_.end() ? -1 : it->second;
  }

  void SetPacketInHandler(PacketInHandler* handler) { handler_ = handler; }
  void SetMissBehavior(MissBehavior miss) { miss_ = miss; }

  FlowTable& flow_table() { return table_; }
  [[nodiscard]] const FlowTable& flow_table() const { return table_; }

  /// Applies one batched flow-mod message: ops in order, counted as a
  /// single control-plane message in stats(). Returns the number of
  /// table mutations (installs + entries actually removed).
  std::size_t ApplyFlowMods(const std::vector<FlowMod>& mods);

  /// Exact-match fast path in front of the flow table's classifier.
  /// Enabled by default; benches disable it to measure the classifier.
  void SetMicroflowEnabled(bool enabled) { microflow_enabled_ = enabled; }
  [[nodiscard]] bool microflow_enabled() const { return microflow_enabled_; }
  [[nodiscard]] const MicroflowCache& microflow_cache() const {
    return microflow_cache_;
  }
  MicroflowCache& microflow_cache() { return microflow_cache_; }

  /// Admission backpressure hook: consulted once per received frame
  /// (after parse, before any forwarding decision). Return false to shed
  /// the frame at ingress — counted in stats().admission_drops. The
  /// callback owns all exemption policy (tunnel transit, control-plane
  /// traffic, in-flight replies); the switch stays policy-free.
  using IngressGate =
      std::function<bool(const net::Packet& pkt,
                         const proto::ParsedFrame& frame, int port)>;
  void SetIngressGate(IngressGate gate) { gate_ = std::move(gate); }
  [[nodiscard]] bool has_ingress_gate() const {
    return static_cast<bool>(gate_);
  }

  /// Sends a raw frame out a port (controller PacketOut).
  void Output(net::PacketPtr pkt, int port);

  // net::PacketSink
  void Receive(net::PacketPtr pkt, int port) override;

  struct Stats {
    std::uint64_t frames = 0;
    std::uint64_t misses = 0;
    std::uint64_t drops = 0;
    std::uint64_t tunneled = 0;
    std::uint64_t decapsulated = 0;
    std::uint64_t admission_drops = 0;  // shed by the ingress gate
    std::uint64_t flowmod_batches = 0;  // batched messages applied
    std::uint64_t flowmod_ops = 0;      // ops inside those batches
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] int PortCount() const {
    return static_cast<int>(ports_.size());
  }

 private:
  struct Port {
    net::Link* link = nullptr;
    int link_end = 0;
  };

  void Apply(const FlowEntry& entry, net::PacketPtr pkt, int in_port);
  void Flood(const net::PacketPtr& pkt, int in_port);
  void HandleTunnelReturn(net::PacketPtr pkt);

  SwitchId id_;
  sim::Simulator& sim_;
  MissBehavior miss_;
  std::vector<Port> ports_;
  std::map<net::MacAddress, int> mac_table_;
  std::map<SwitchId, int> switch_ports_;
  FlowTable table_;
  MicroflowCache microflow_cache_;
  bool microflow_enabled_ = true;
  PacketInHandler* handler_ = nullptr;
  IngressGate gate_;
  Stats stats_;
};

}  // namespace iotsec::sdn
