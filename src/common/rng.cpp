#include "common/rng.h"

#include <cmath>

#include "common/hash.h"

namespace iotsec {
namespace {

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::Seed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = hash::SplitMix64(sm += hash::kGolden);
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  // Lemire's nearly-divisionless method is overkill here; rejection
  // sampling keeps the distribution exactly uniform.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextExponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

std::size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  double x = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0) return i;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[NextBelow(i)]);
  }
  return p;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace iotsec
