#include "sdn/switch.h"

#include "common/log.h"
#include "obs/obs.h"
#include "proto/frame.h"

namespace iotsec::sdn {

int Switch::AttachLink(net::Link* link, int my_end) {
  const int port = static_cast<int>(ports_.size());
  ports_.push_back(Port{link, my_end});
  link->Attach(my_end, this, port);
  return port;
}

void Switch::SetMacPort(const net::MacAddress& mac, int port) {
  mac_table_[mac] = port;
}

int Switch::PortOfMac(const net::MacAddress& mac) const {
  const auto it = mac_table_.find(mac);
  return it == mac_table_.end() ? -1 : it->second;
}

std::size_t Switch::ApplyFlowMods(const std::vector<FlowMod>& mods) {
  std::size_t mutations = 0;
  for (const FlowMod& mod : mods) {
    if (mod.op == FlowMod::Op::kInstall) {
      table_.Install(mod.entry);
      ++mutations;
    } else {
      mutations += table_.RemoveByCookie(mod.cookie);
    }
  }
  ++stats_.flowmod_batches;
  stats_.flowmod_ops += mods.size();
  return mutations;
}

void Switch::Output(net::PacketPtr pkt, int port) {
  if (port < 0 || port >= static_cast<int>(ports_.size())) return;
  ports_[static_cast<std::size_t>(port)].link->Send(
      ports_[static_cast<std::size_t>(port)].link_end, std::move(pkt));
}

void Switch::Flood(const net::PacketPtr& pkt, int in_port) {
  for (int p = 0; p < static_cast<int>(ports_.size()); ++p) {
    if (p == in_port) continue;
    Output(net::ClonePacket(*pkt), p);
  }
}

void Switch::Receive(net::PacketPtr pkt, int port) {
  ++stats_.frames;
  if (net::Packet::TracingEnabled()) {
    pkt->Trace("switch:" + std::to_string(id_));
  }

  const auto* frame = pkt->Parsed();
  if (frame == nullptr) {
    ++stats_.drops;
    return;
  }

  if (gate_ && !gate_(*pkt, *frame, port)) {
    ++stats_.admission_drops;
    return;
  }

  // Returning µmbox verdict traffic: the *origin* switch decapsulates
  // and delivers by L2 table; transit switches pass the tunnel intact
  // toward the origin (otherwise the origin's diversion rules would
  // re-steer the already-inspected inner frame — a loop).
  if (frame->eth.ethertype == proto::EtherType::kTunnel) {
    auto decap = proto::Decapsulate(pkt->data());
    if (decap &&
        decap->header.direction == proto::TunnelDirection::kFromUmbox) {
      if (decap->header.origin_switch == id_ ||
          decap->header.origin_switch == 0) {
        ++stats_.decapsulated;
        HandleTunnelReturn(net::TunnelDecap(*pkt, decap->inner));
        return;
      }
      const int toward = PortToSwitch(decap->header.origin_switch);
      if (toward >= 0) {
        Output(std::move(pkt), toward);
        return;
      }
      ++stats_.drops;  // unroutable verdict: better dropped than looped
      return;
    }
    // kToUmbox tunnel frames in transit fall through to the flow table
    // (the controller installs transit entries toward the cluster).
  }

  const FlowEntry* entry = nullptr;
  {
    OBS_SPAN(obs::M().sdn_classify_ns);
    entry = microflow_enabled_ ? table_.LookupCached(microflow_cache_, *frame,
                                                     port, pkt->size())
                               : table_.Lookup(*frame, port, pkt->size());
  }
  if (entry != nullptr) {
    Apply(*entry, std::move(pkt), port);
    return;
  }

  ++stats_.misses;
  switch (miss_) {
    case MissBehavior::kDrop:
      ++stats_.drops;
      return;
    case MissBehavior::kFlood:
      Flood(pkt, port);
      return;
    case MissBehavior::kToController:
      if (handler_ != nullptr) {
        handler_->OnPacketIn(id_, port, std::move(pkt));
      } else {
        ++stats_.drops;
      }
      return;
  }
}

void Switch::Apply(const FlowEntry& entry, net::PacketPtr pkt, int in_port) {
  const std::size_t n = entry.actions.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& action = entry.actions[i];
    // The final action may consume the packet instead of cloning it —
    // the single-kOutput entry (the steady-state forwarding case) then
    // moves the packet straight through with zero copies.
    const bool last = i + 1 == n;
    switch (action.type) {
      case ActionType::kOutput:
        Output(last ? std::move(pkt) : net::ClonePacket(*pkt),
               action.out_port);
        break;
      case ActionType::kFlood:
        Flood(pkt, in_port);
        break;
      case ActionType::kDrop:
        ++stats_.drops;
        break;
      case ActionType::kToController:
        if (handler_ != nullptr) {
          handler_->OnPacketIn(id_, in_port,
                               last ? std::move(pkt) : net::ClonePacket(*pkt));
        }
        break;
      case ActionType::kTunnelToUmbox: {
        ++stats_.tunneled;
        proto::TunnelHeader th;
        th.vni = action.umbox;
        th.direction = proto::TunnelDirection::kToUmbox;
        th.origin_switch = id_;
        Output(net::TunnelEncap(*pkt, net::MacAddress::FromId(0xffff00 + id_),
                                net::MacAddress::Broadcast(), th),
               action.out_port);
        break;
      }
    }
  }
}

void Switch::HandleTunnelReturn(net::PacketPtr pkt) {
  const auto* frame = pkt->Parsed();
  if (frame == nullptr) return;
  const int port = PortOfMac(frame->eth.dst);
  if (port >= 0) {
    Output(std::move(pkt), port);
  } else {
    Flood(pkt, /*in_port=*/-1);
  }
}

}  // namespace iotsec::sdn
