// Whole-frame parse/build helpers.
//
// ParsedFrame decodes an Ethernet frame down to the L4 payload in one pass;
// dataplane elements and the switch classifier consume this view instead of
// re-parsing per element.
#pragma once

#include <optional>
#include <span>

#include "common/bytes.h"
#include "proto/ethernet.h"
#include "proto/ipv4.h"
#include "proto/transport.h"

namespace iotsec::proto {

struct ParsedFrame {
  EthernetHeader eth;
  std::optional<Ipv4Header> ip;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  /// View into the original buffer: the L4 payload (or the L3 payload when
  /// no transport header was recognized).
  std::span<const std::uint8_t> payload;

  [[nodiscard]] bool HasIp() const { return ip.has_value(); }
  [[nodiscard]] bool HasUdp() const { return udp.has_value(); }
  [[nodiscard]] bool HasTcp() const { return tcp.has_value(); }

  [[nodiscard]] std::uint16_t SrcPort() const {
    if (udp) return udp->src_port;
    if (tcp) return tcp->src_port;
    return 0;
  }
  [[nodiscard]] std::uint16_t DstPort() const {
    if (udp) return udp->dst_port;
    if (tcp) return tcp->dst_port;
    return 0;
  }
};

/// Parses an Ethernet frame. Returns nullopt only when the Ethernet header
/// itself is malformed; higher layers simply stay disengaged.
std::optional<ParsedFrame> ParseFrame(std::span<const std::uint8_t> data);

/// Builds eth+ipv4+udp+payload with all lengths/checksums computed.
Bytes BuildUdpFrame(const net::MacAddress& src_mac,
                    const net::MacAddress& dst_mac, net::Ipv4Address src_ip,
                    net::Ipv4Address dst_ip, std::uint16_t src_port,
                    std::uint16_t dst_port,
                    std::span<const std::uint8_t> payload);

/// Writes eth+ipv4+tcp headers for a `payload_size`-byte payload into
/// `out`, replacing its contents but keeping its capacity (a pooled
/// packet's buffer). The caller appends exactly `payload_size` payload
/// bytes next, e.g. with HttpRequest::SerializeTo, so a message is
/// serialized straight into the frame.
void WriteTcpHeaders(Bytes& out, const net::MacAddress& src_mac,
                     const net::MacAddress& dst_mac, net::Ipv4Address src_ip,
                     net::Ipv4Address dst_ip, const TcpHeader& tcp,
                     std::size_t payload_size);

/// Builds eth+ipv4+tcp+payload.
Bytes BuildTcpFrame(const net::MacAddress& src_mac,
                    const net::MacAddress& dst_mac, net::Ipv4Address src_ip,
                    net::Ipv4Address dst_ip, const TcpHeader& tcp,
                    std::span<const std::uint8_t> payload);

/// Rewrites the L4 payload of `frame` in place (recomputing lengths and the
/// IPv4 checksum). Used by proxy elements that transform application data.
Bytes ReplacePayload(const ParsedFrame& frame,
                     std::span<const std::uint8_t> new_payload);

}  // namespace iotsec::proto
