#include "net/address.h"

#include <cstdio>

#include "common/strings.h"

namespace iotsec::net {

MacAddress MacAddress::FromId(std::uint32_t id) {
  // 0x02 in the first octet marks the address as locally administered.
  return MacAddress({0x02, 0x00,
                     static_cast<std::uint8_t>(id >> 24),
                     static_cast<std::uint8_t>(id >> 16),
                     static_cast<std::uint8_t>(id >> 8),
                     static_cast<std::uint8_t>(id)});
}

std::optional<MacAddress> MacAddress::Parse(std::string_view s) {
  auto parts = Split(s, ':');
  if (parts.size() != 6) return std::nullopt;
  std::array<std::uint8_t, 6> bytes{};
  for (std::size_t i = 0; i < 6; ++i) {
    if (parts[i].size() != 2) return std::nullopt;
    unsigned v = 0;
    for (char c : parts[i]) {
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return std::nullopt;
    }
    bytes[i] = static_cast<std::uint8_t>(v);
  }
  return MacAddress(bytes);
}

std::string MacAddress::ToString() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", bytes_[0],
                bytes_[1], bytes_[2], bytes_[3], bytes_[4], bytes_[5]);
  return buf;
}

std::optional<Ipv4Address> Ipv4Address::Parse(std::string_view s) {
  auto parts = Split(s, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t v = 0;
  for (const auto& p : parts) {
    std::uint64_t octet = 0;
    if (!ParseUint(p, octet) || octet > 255) return std::nullopt;
    v = (v << 8) | static_cast<std::uint32_t>(octet);
  }
  return Ipv4Address(v);
}

std::string Ipv4Address::ToString() const {
  // Dotted quad without leading zeros (what "%u.%u.%u.%u" prints); at most
  // 15 chars, so the string stays in its small-string buffer.
  char buf[15];
  char* p = buf;
  for (int shift = 24; shift >= 0; shift -= 8) {
    const unsigned octet = (value_ >> shift) & 0xff;
    if (octet >= 100) *p++ = static_cast<char>('0' + octet / 100);
    if (octet >= 10) *p++ = static_cast<char>('0' + octet / 10 % 10);
    *p++ = static_cast<char>('0' + octet % 10);
    if (shift > 0) *p++ = '.';
  }
  return std::string(buf, p);
}

Ipv4Prefix::Ipv4Prefix(Ipv4Address base, int length) : length_(length) {
  if (length_ < 0) length_ = 0;
  if (length_ > 32) length_ = 32;
  mask_ = length_ == 0 ? 0 : ~std::uint32_t{0} << (32 - length_);
  base_ = base.value() & mask_;
}

std::optional<Ipv4Prefix> Ipv4Prefix::Parse(std::string_view s) {
  const auto slash = s.find('/');
  if (slash == std::string_view::npos) {
    auto addr = Ipv4Address::Parse(s);
    if (!addr) return std::nullopt;
    return Ipv4Prefix(*addr, 32);
  }
  auto addr = Ipv4Address::Parse(s.substr(0, slash));
  std::uint64_t len = 0;
  if (!addr || !ParseUint(s.substr(slash + 1), len) || len > 32) {
    return std::nullopt;
  }
  return Ipv4Prefix(*addr, static_cast<int>(len));
}

std::string Ipv4Prefix::ToString() const {
  return Base().ToString() + "/" + std::to_string(length_);
}

}  // namespace iotsec::net
