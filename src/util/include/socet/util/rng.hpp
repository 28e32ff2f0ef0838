// Deterministic pseudo-random number generation.
//
// All stochastic pieces of the library (random-pattern ATPG phase, random
// sequential vector generation, synthetic benchmark construction) draw from
// this generator so that every test and benchmark run is reproducible.
#pragma once

#include <cstdint>

namespace socet::util {

/// xoshiro256** — small, fast, and good enough for test-pattern generation.
/// Not cryptographic; determinism and speed are the goals.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed'50ce'7001ULL) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    auto next_seed = [&seed]() {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    for (auto& word : state_) word = next_seed();
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform value in [0, bound).  `bound` must be nonzero.
  std::uint64_t next_below(std::uint64_t bound) {
    // Multiply-shift rejection-free mapping; bias is negligible for the
    // bounds used here (all far below 2^32).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  bool next_bool() { return (next_u64() & 1) != 0; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace socet::util
