#include "devices/attacker.h"

namespace iotsec::devices {

Attacker::Attacker(net::MacAddress mac, net::Ipv4Address ip,
                   sim::Simulator& simulator)
    : mac_(mac), ip_(ip), sim_(simulator) {}

void Attacker::ConnectUplink(net::Link* link, int my_end) {
  uplink_ = link;
  uplink_end_ = my_end;
  link->Attach(my_end, this, 0);
}

void Attacker::SendFrame(Bytes frame) {
  if (uplink_ == nullptr) return;
  SendPacket(net::MakePacket(std::move(frame)));
}

void Attacker::SendPacket(net::PacketPtr pkt) {
  ++frames_out_;
  pkt->created_at = sim_.Now();
  uplink_->Send(uplink_end_, std::move(pkt));
}

void Attacker::HttpGet(
    net::Ipv4Address target_ip, net::MacAddress target_mac, std::string path,
    std::optional<std::pair<std::string, std::string>> auth,
    HttpCallback on_response) {
  const std::uint16_t src_port = NextPort();
  proto::HttpRequest req;
  req.method = "GET";
  req.path = std::move(path);
  req.SetHeader("Host", target_ip.ToString());
  if (auth) {
    req.SetHeader("Authorization",
                  proto::BasicAuthValue(auth->first, auth->second));
  }
  proto::TcpHeader tcp;
  tcp.src_port = src_port;
  tcp.dst_port = 80;
  tcp.seq = 1;
  tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
  pending_http_[src_port] = std::move(on_response);
  if (uplink_ == nullptr) return;
  auto pkt = net::MakePacket();
  Bytes& wire = pkt->MutableData();
  proto::WriteTcpHeaders(wire, mac_, target_mac, ip_, target_ip, tcp,
                         req.SerializedSize());
  req.SerializeTo(wire);
  SendPacket(std::move(pkt));
}

void Attacker::SendIotCommand(net::Ipv4Address target_ip,
                              net::MacAddress target_mac,
                              proto::IotCommand cmd,
                              std::optional<std::string> token, bool backdoor,
                              IotCallback on_response,
                              std::vector<proto::IotTlv> extra_tlvs) {
  proto::IotCtlMessage msg;
  msg.type = proto::IotMsgType::kCommand;
  msg.command = cmd;
  msg.backdoor = backdoor;
  msg.seq = next_seq_++;
  if (token) msg.SetAuthToken(*token);
  for (auto& tlv : extra_tlvs) msg.tlvs.push_back(std::move(tlv));
  if (on_response) pending_iot_[msg.seq] = std::move(on_response);
  SendFrame(proto::BuildUdpFrame(mac_, target_mac, ip_, target_ip,
                                 NextPort(), proto::kIotCtlPort,
                                 msg.Serialize()));
}

void Attacker::BruteForceHttp(
    net::Ipv4Address target_ip, net::MacAddress target_mac,
    std::vector<std::string> passwords,
    std::function<void(std::optional<std::string>)> done,
    SimDuration spacing) {
  // Try candidates sequentially; a 200 stops the search.
  auto state = std::make_shared<std::size_t>(0);
  auto passwords_ptr =
      std::make_shared<std::vector<std::string>>(std::move(passwords));
  auto done_ptr =
      std::make_shared<std::function<void(std::optional<std::string>)>>(
          std::move(done));
  auto try_next = std::make_shared<std::function<void()>>();
  // Ownership of the closure travels with the in-flight probe callback;
  // the closure itself holds only a weak self-reference, so when the
  // search ends (success or exhaustion) nothing keeps it alive.
  *try_next = [this, state, passwords_ptr, done_ptr,
               weak = std::weak_ptr<std::function<void()>>(try_next),
               target_ip, target_mac, spacing] {
    if (*state >= passwords_ptr->size()) {
      (*done_ptr)(std::nullopt);
      return;
    }
    const std::string candidate = (*passwords_ptr)[*state];
    ++*state;
    auto keep = weak.lock();
    HttpGet(target_ip, target_mac, "/admin",
            std::make_pair(std::string("admin"), candidate),
            [this, candidate, done_ptr, keep, spacing](
                const proto::HttpResponse& resp) {
              if (resp.status == 200) {
                (*done_ptr)(candidate);
              } else if (keep) {
                sim_.After(spacing, [keep] { (*keep)(); });
              }
            });
  };
  (*try_next)();
}

void Attacker::DnsAmplify(net::Ipv4Address reflector_ip,
                          net::MacAddress reflector_mac,
                          net::Ipv4Address victim_ip, int count,
                          SimDuration spacing) {
  for (int i = 0; i < count; ++i) {
    sim_.After(spacing * static_cast<SimDuration>(i), [this, reflector_ip,
                                                       reflector_mac,
                                                       victim_ip, i] {
      proto::DnsMessage query;
      query.id = static_cast<std::uint16_t>(i);
      query.questions.push_back({"victim-domain.example",
                                 proto::DnsType::kAny});
      // Spoofed source: responses go to the victim. The Ethernet source
      // stays ours (switches don't check), the IP source lies.
      SendFrame(proto::BuildUdpFrame(mac_, reflector_mac, victim_ip,
                                     reflector_ip, 53000, proto::kDnsPort,
                                     query.Serialize()));
    });
  }
}

void Attacker::Receive(net::PacketPtr pkt, int port) {
  (void)port;
  bytes_in_ += pkt->size();
  const auto* frame = pkt->Parsed();
  if (!frame || !frame->ip) return;
  if (frame->ip->dst != ip_) return;

  if (frame->tcp && !frame->payload.empty()) {
    auto resp = proto::HttpResponse::Parse(frame->payload);
    if (resp) {
      const auto it = pending_http_.find(frame->tcp->dst_port);
      if (it != pending_http_.end()) {
        auto cb = std::move(it->second);
        pending_http_.erase(it);
        cb(*resp);
      }
      return;
    }
  }
  if (frame->udp) {
    if (frame->udp->src_port == proto::kDnsPort) {
      auto dns = proto::DnsMessage::Parse(frame->payload);
      if (dns && dns->is_response) {
        dns_answers_from_.insert(frame->ip->src);
        return;
      }
    }
    auto msg = proto::IotCtlMessage::Parse(frame->payload);
    if (msg && msg->type == proto::IotMsgType::kResponse) {
      const auto it = pending_iot_.find(msg->seq);
      if (it != pending_iot_.end()) {
        auto cb = std::move(it->second);
        pending_iot_.erase(it);
        cb(*msg);
      }
    }
  }
}

void VictimSink::Receive(net::PacketPtr pkt, int port) {
  (void)port;
  const auto* frame = pkt->Parsed();
  if (!frame || !frame->ip || frame->ip->dst != ip_) return;
  bytes_ += pkt->size();
  ++frames_;
}

}  // namespace iotsec::devices
