// VXLAN-lite tunneling.
//
// The paper's enforcement plane tunnels each device's traffic from its
// first-hop switch/AP to the µmbox cluster (Figure 2). We encapsulate the
// original Ethernet frame inside a new frame whose EtherType is kTunnel,
// carrying a small header with the target µmbox (VNI) and direction.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "common/types.h"
#include "net/address.h"

namespace iotsec::proto {

enum class TunnelDirection : std::uint8_t {
  kToUmbox = 0,    // device/remote traffic diverted for inspection
  kFromUmbox = 1,  // verdict traffic returning to the switch
};

struct TunnelHeader {
  UmboxId vni = 0;  // which µmbox chain should process the inner frame
  TunnelDirection direction = TunnelDirection::kToUmbox;
  /// Edge switch that originated the tunnel (so return traffic can be
  /// routed back to the right place).
  SwitchId origin_switch = 0;

  static constexpr std::size_t kSize = 9;
};

/// Writes `inner` wrapped in an Ethernet frame with EtherType kTunnel into
/// `out`, replacing its contents but keeping its capacity: the switch and
/// the µmbox host write into a pooled packet's recycled buffer.
void EncapsulateInto(Bytes& out, const net::MacAddress& src_mac,
                     const net::MacAddress& dst_mac,
                     const TunnelHeader& header,
                     std::span<const std::uint8_t> inner);

/// EncapsulateInto a fresh buffer.
Bytes Encapsulate(const net::MacAddress& src_mac,
                  const net::MacAddress& dst_mac, const TunnelHeader& header,
                  std::span<const std::uint8_t> inner);

struct DecapsulatedFrame {
  TunnelHeader header;
  /// The original Ethernet frame: a view into the decapsulated buffer,
  /// valid while that buffer is.
  std::span<const std::uint8_t> inner;
};

/// Unwraps a kTunnel frame; nullopt if the frame is not a valid tunnel.
std::optional<DecapsulatedFrame> Decapsulate(
    std::span<const std::uint8_t> data);

}  // namespace iotsec::proto
