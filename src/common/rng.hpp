// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomness in qplace flows through `Rng` (xoshiro256** seeded via
// SplitMix64) so that every topology, workload, and simulation run is
// reproducible bit-for-bit from a single 64-bit seed. We deliberately avoid
// std::mt19937 + std::uniform_*_distribution because their outputs are not
// guaranteed identical across standard-library implementations.
//
// This module is the only place allowed to touch std::random_device /
// std::rand / time-seeded engines: tools/qp_lint.py rule QPL002 flags any
// other use tree-wide (see tests/README.md "Static analysis & sanitizers").
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace qp::common {

/// SplitMix64 step; used to expand a single seed into xoshiro state.
/// Public because tests and seed-derivation helpers use it directly.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 — fast, high-quality, 256-bit state generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x5eed0000c0ffeeULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derives an independent child generator; `label` separates streams.
  [[nodiscard]] Rng fork(std::uint64_t label) noexcept {
    std::uint64_t mix = next() ^ (label * 0x9e3779b97f4a7c15ULL);
    return Rng{mix};
  }

  [[nodiscard]] std::uint64_t next() noexcept {
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

  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Unbiased uniform integer in [0, bound). Throws if bound == 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound);

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean / standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Log-normal such that the *underlying* normal is N(mu, sigma).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Exponential with the given mean (> 0).
  [[nodiscard]] double exponential(double mean);

  /// k distinct indices drawn uniformly from [0, n) (order randomized).
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                                    std::size_t k);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace qp::common
