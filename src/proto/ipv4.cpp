#include "proto/ipv4.h"

#include <array>

namespace iotsec::proto {

void Ipv4Header::Serialize(ByteWriter& w) const {
  // Built in a fixed array so the checksum covers it without a temporary
  // buffer; bytes 6-7 (flags/fragment offset: never fragmented in the
  // simulator) and 10-11 (checksum placeholder) stay zero.
  std::array<std::uint8_t, kSize> hdr{};
  auto put16 = [&hdr](std::size_t at, std::uint16_t v) {
    hdr[at] = static_cast<std::uint8_t>(v >> 8);
    hdr[at + 1] = static_cast<std::uint8_t>(v);
  };
  hdr[0] = 0x45;  // version 4, IHL 5
  hdr[1] = tos;
  put16(2, total_length);
  put16(4, id);
  hdr[8] = ttl;
  hdr[9] = static_cast<std::uint8_t>(protocol);
  put16(12, static_cast<std::uint16_t>(src.value() >> 16));
  put16(14, static_cast<std::uint16_t>(src.value()));
  put16(16, static_cast<std::uint16_t>(dst.value() >> 16));
  put16(18, static_cast<std::uint16_t>(dst.value()));
  put16(10, InternetChecksum(hdr));
  w.Raw(hdr);
}

std::optional<Ipv4Header> Ipv4Header::Parse(ByteReader& r) {
  auto raw = r.Raw(kSize);
  if (raw.size() != kSize) return std::nullopt;
  if (InternetChecksum(raw) != 0) return std::nullopt;
  ByteReader hr(raw);
  const std::uint8_t ver_ihl = hr.U8();
  if (ver_ihl != 0x45) return std::nullopt;
  Ipv4Header h;
  h.tos = hr.U8();
  h.total_length = hr.U16();
  h.id = hr.U16();
  hr.U16();  // flags/frag
  h.ttl = hr.U8();
  h.protocol = static_cast<IpProto>(hr.U8());
  hr.U16();  // checksum (already verified)
  h.src = net::Ipv4Address(hr.U32());
  h.dst = net::Ipv4Address(hr.U32());
  return h;
}

}  // namespace iotsec::proto
