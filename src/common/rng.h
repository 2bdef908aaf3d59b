// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the simulator (workload arrivals, fuzzing,
// attacker timing) draws from an explicitly seeded Rng so that every
// experiment is reproducible bit-for-bit from its seed.
#pragma once

#include <cstdint>
#include <vector>

namespace iotsec {

/// xoshiro256** with a SplitMix64 seeding sequence. Not cryptographic;
/// used only to drive simulation workloads deterministically.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  void Seed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t NextU64();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with probability p of returning true.
  bool NextBool(double p = 0.5);

  /// Exponentially distributed value with the given mean.
  double NextExponential(double mean);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t NextWeighted(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> Permutation(std::size_t n);

  /// Derives an independent child generator (for per-component streams).
  Rng Fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace iotsec
