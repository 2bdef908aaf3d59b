// Compact exact-match flow key for the microflow cache.
//
// Covers every field a FlowMatch can inspect (ingress port, L2 addresses,
// EtherType, IPv4 endpoints/protocol, L4 ports), so two frames with equal
// keys are classified identically by any flow table — the invariant the
// microflow cache rests on (and the one fastpath_test proves by property
// testing against a reference first-match scan). The flow table's
// classifier masks the same key per subtable.
#pragma once

#include <cstdint>

#include "proto/frame.h"

namespace iotsec::sdn {

struct FlowKey {
  std::uint64_t eth_src = 0;  // MAC packed into the low 48 bits
  std::uint64_t eth_dst = 0;
  std::uint32_t ip_src = 0;
  std::uint32_t ip_dst = 0;
  std::int32_t in_port = -1;
  std::uint16_t ethertype = 0;
  std::uint16_t l4_src = 0;
  std::uint16_t l4_dst = 0;
  std::uint8_t ip_proto = 0;
  /// Distinguishes absent layers from zero-valued fields.
  std::uint8_t flags = 0;

  static constexpr std::uint8_t kHasIp = 1 << 0;
  static constexpr std::uint8_t kHasL4 = 1 << 1;

  bool operator==(const FlowKey&) const = default;

  static FlowKey FromFrame(const proto::ParsedFrame& frame, int in_port) {
    FlowKey key;
    key.in_port = in_port;
    key.eth_src = PackMac(frame.eth.src);
    key.eth_dst = PackMac(frame.eth.dst);
    key.ethertype = static_cast<std::uint16_t>(frame.eth.ethertype);
    if (frame.ip) {
      key.flags |= kHasIp;
      key.ip_src = frame.ip->src.value();
      key.ip_dst = frame.ip->dst.value();
      key.ip_proto = static_cast<std::uint8_t>(frame.ip->protocol);
    }
    if (frame.udp || frame.tcp) {
      key.flags |= kHasL4;
      key.l4_src = frame.SrcPort();
      key.l4_dst = frame.DstPort();
    }
    return key;
  }

  /// FNV-1a over the key fields, finished with a 64->64 mix.
  [[nodiscard]] std::uint64_t Hash() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(eth_src);
    mix(eth_dst);
    mix((std::uint64_t{ip_src} << 32) | ip_dst);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(in_port)));
    mix((std::uint64_t{ethertype} << 32) | (std::uint64_t{l4_src} << 16) |
        l4_dst);
    mix((std::uint64_t{ip_proto} << 8) | flags);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
  }

  static std::uint64_t PackMac(const net::MacAddress& mac) {
    std::uint64_t v = 0;
    for (const std::uint8_t b : mac.bytes()) v = (v << 8) | b;
    return v;
  }
};

}  // namespace iotsec::sdn
