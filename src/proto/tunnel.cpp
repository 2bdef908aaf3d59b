#include "proto/tunnel.h"

#include "proto/ethernet.h"

namespace iotsec::proto {

Bytes Encapsulate(const net::MacAddress& src_mac,
                  const net::MacAddress& dst_mac, const TunnelHeader& header,
                  std::span<const std::uint8_t> inner) {
  Bytes out;
  out.reserve(EthernetHeader::kSize + TunnelHeader::kSize + inner.size());
  ByteWriter w(out);
  EthernetHeader eth{dst_mac, src_mac, EtherType::kTunnel};
  eth.Serialize(w);
  w.U32(header.vni);
  w.U8(static_cast<std::uint8_t>(header.direction));
  w.U32(header.origin_switch);
  w.Raw(inner);
  return out;
}

std::optional<DecapsulatedFrame> Decapsulate(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  auto eth = EthernetHeader::Parse(r);
  if (!eth || eth->ethertype != EtherType::kTunnel) return std::nullopt;
  DecapsulatedFrame out;
  out.header.vni = r.U32();
  out.header.direction = static_cast<TunnelDirection>(r.U8());
  out.header.origin_switch = r.U32();
  if (!r.Ok()) return std::nullopt;
  auto rest = r.Rest();
  out.inner.assign(rest.begin(), rest.end());
  return out;
}

}  // namespace iotsec::proto
