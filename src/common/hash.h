// The one hash module: every fold, mixer and MAC in src/ calls these
// primitives instead of carrying its own copy.
//
//   * FNV-1a (`Fnv1a`, `Fnv1aU64`) — cheap, order-sensitive byte folds
//     for cache keys, content hashes and pseudonyms. Not collision
//     resistant: never the input to a security decision.
//   * `Fmix64` (murmur3's finalizer) and `SplitMix64` (the splitmix64
//     finalizer) — invertible bijections that scramble a 64-bit value;
//     `MixPair` folds two words through SplitMix64. Digests and cohort
//     hashes are built from these.
//   * `SipHash24` — a keyed PRF, the only primitive here fit to
//     authenticate data (the OTA manifest signature).
//
// Pinned digests, cache keys and pseudonyms are built from these, so
// each function's output is part of the determinism contract: golden
// values live in common_test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace iotsec::hash {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
/// The seed `rollout::HashRuleText` and the crowd pseudonyms fold from:
/// FNV's offset basis (14695981039346656037) with its last digit
/// missing. Kept because rule hashes feed pinned rollout digests.
inline constexpr std::uint64_t kTruncatedFnvOffset = 1469598103934665603ull;
/// 2^64 / golden ratio: splitmix64's increment and MixPair's multiplier.
inline constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

/// FNV-1a over `bytes`, continuing from the running hash `h`.
[[nodiscard]] constexpr std::uint64_t Fnv1a(std::string_view bytes,
                                            std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return h;
}
[[nodiscard]] constexpr std::uint64_t Fnv1a(
    std::span<const std::uint8_t> bytes, std::uint64_t h = kFnvOffset) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * kFnvPrime;
  return h;
}

/// FNV-1a over `v`'s eight little-endian bytes.
[[nodiscard]] constexpr std::uint64_t Fnv1aU64(std::uint64_t v,
                                               std::uint64_t h = kFnvOffset) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (i * 8)) & 0xff)) * kFnvPrime;
  return h;
}

/// murmur3's 64-bit finalizer.
[[nodiscard]] constexpr std::uint64_t Fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

/// splitmix64's output finalizer (the generator adds kGolden to its
/// state before each call).
[[nodiscard]] constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-sensitive two-word fold: SplitMix64(a ^ b * kGolden).
[[nodiscard]] constexpr std::uint64_t MixPair(std::uint64_t a,
                                              std::uint64_t b) {
  return SplitMix64(a ^ (b * kGolden));
}

/// SipHash-2-4 (Aumasson & Bernstein) of `msg` under the 128-bit key
/// (k0, k1), where k0 holds key bytes 0-7 and k1 bytes 8-15, little-endian.
[[nodiscard]] constexpr std::uint64_t SipHash24(std::uint64_t k0,
                                                std::uint64_t k1,
                                                std::string_view msg) {
  std::uint64_t v0 = k0 ^ 0x736f6d6570736575ull;
  std::uint64_t v1 = k1 ^ 0x646f72616e646f6dull;
  std::uint64_t v2 = k0 ^ 0x6c7967656e657261ull;
  std::uint64_t v3 = k1 ^ 0x7465646279746573ull;
  const auto rotl = [](std::uint64_t x, int b) {
    return (x << b) | (x >> (64 - b));
  };
  const auto rounds = [&](int n) {
    for (int i = 0; i < n; ++i) {
      v0 += v1; v1 = rotl(v1, 13); v1 ^= v0; v0 = rotl(v0, 32);
      v2 += v3; v3 = rotl(v3, 16); v3 ^= v2;
      v0 += v3; v3 = rotl(v3, 21); v3 ^= v0;
      v2 += v1; v1 = rotl(v1, 17); v1 ^= v2; v2 = rotl(v2, 32);
    }
  };
  const auto compress = [&](std::uint64_t m) {
    v3 ^= m;
    rounds(2);
    v0 ^= m;
  };
  // Full 8-byte words, then the tail with the length in the top byte.
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    word |= std::uint64_t{static_cast<unsigned char>(msg[i])}
            << (8 * (i % 8));
    if (i % 8 == 7) {
      compress(word);
      word = 0;
    }
  }
  compress(word | (std::uint64_t{msg.size() & 0xff} << 56));
  v2 ^= 0xff;
  rounds(4);
  return v0 ^ v1 ^ v2 ^ v3;
}

}  // namespace iotsec::hash
