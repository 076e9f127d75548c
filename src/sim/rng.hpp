// Deterministic random number generation for simulations.
//
// Every stochastic component draws from an Rng that is seeded explicitly,
// so a whole cluster simulation is reproducible from a single seed. The
// helpers below wrap <random> distributions with value semantics.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <random>
#include <vector>

namespace tlb::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}

  /// Derives an independent child stream; children with distinct tags are
  /// statistically independent of each other and of the parent.
  [[nodiscard]] Rng fork(std::uint64_t tag) const {
    // SplitMix64-style mixing of (seed, tag) into a child seed.
    std::uint64_t z = seed_mix_ + 0x9E3779B97F4A7C15ULL * (tag + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    assert(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    assert(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(gen_);
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), gen_);
  }

  /// Raw 64-bit draw.
  std::uint64_t next_u64() { return gen_(); }

 private:
  std::mt19937_64 gen_;
  std::uint64_t seed_mix_ = gen_();  // captures the seed's influence for fork()
};

}  // namespace tlb::sim
