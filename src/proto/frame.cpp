#include "proto/frame.h"

namespace iotsec::proto {
namespace {

constexpr std::size_t kUdpHeaders =
    EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize;
constexpr std::size_t kTcpHeaders =
    EthernetHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize;

}  // namespace

std::optional<ParsedFrame> ParseFrame(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  auto eth = EthernetHeader::Parse(r);
  if (!eth) return std::nullopt;
  ParsedFrame f;
  f.eth = *eth;
  f.payload = r.Rest();
  if (eth->ethertype != EtherType::kIpv4) return f;

  auto ip = Ipv4Header::Parse(r);
  if (!ip) return f;
  f.ip = *ip;
  f.payload = r.Rest();

  if (ip->protocol == IpProto::kUdp) {
    auto udp = UdpHeader::Parse(r);
    if (udp) {
      f.udp = *udp;
      f.payload = r.Rest();
    }
  } else if (ip->protocol == IpProto::kTcp) {
    auto tcp = TcpHeader::Parse(r);
    if (tcp) {
      f.tcp = *tcp;
      f.payload = r.Rest();
    }
  }
  return f;
}

Bytes BuildUdpFrame(const net::MacAddress& src_mac,
                    const net::MacAddress& dst_mac, net::Ipv4Address src_ip,
                    net::Ipv4Address dst_ip, std::uint16_t src_port,
                    std::uint16_t dst_port,
                    std::span<const std::uint8_t> payload) {
  Bytes out;
  out.reserve(kUdpHeaders + payload.size());
  ByteWriter w(out);
  EthernetHeader eth{dst_mac, src_mac, EtherType::kIpv4};
  eth.Serialize(w);

  Ipv4Header ip;
  ip.protocol = IpProto::kUdp;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + UdpHeader::kSize + payload.size());
  ip.Serialize(w);

  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  udp.Serialize(w);

  w.Raw(payload);
  return out;
}

Bytes BuildTcpFrame(const net::MacAddress& src_mac,
                    const net::MacAddress& dst_mac, net::Ipv4Address src_ip,
                    net::Ipv4Address dst_ip, const TcpHeader& tcp,
                    std::span<const std::uint8_t> payload) {
  Bytes out;
  out.reserve(kTcpHeaders + payload.size());
  ByteWriter w(out);
  EthernetHeader eth{dst_mac, src_mac, EtherType::kIpv4};
  eth.Serialize(w);

  Ipv4Header ip;
  ip.protocol = IpProto::kTcp;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + TcpHeader::kSize + payload.size());
  ip.Serialize(w);

  tcp.Serialize(w);
  w.Raw(payload);
  return out;
}

Bytes ReplacePayload(const ParsedFrame& frame,
                     std::span<const std::uint8_t> new_payload) {
  if (frame.tcp && frame.ip) {
    return BuildTcpFrame(frame.eth.src, frame.eth.dst, frame.ip->src,
                         frame.ip->dst, *frame.tcp, new_payload);
  }
  if (frame.udp && frame.ip) {
    return BuildUdpFrame(frame.eth.src, frame.eth.dst, frame.ip->src,
                         frame.ip->dst, frame.udp->src_port,
                         frame.udp->dst_port, new_payload);
  }
  // L2-only frame: just swap the payload after the Ethernet header.
  Bytes out;
  out.reserve(EthernetHeader::kSize + new_payload.size());
  ByteWriter w(out);
  frame.eth.Serialize(w);
  w.Raw(new_payload);
  return out;
}

}  // namespace iotsec::proto
