// Deterministic random number generation for the simulator.
//
// Everything stochastic in the stack (noise processes, property-test inputs,
// workload generators) draws from Xoshiro256** seeded explicitly, so any run
// is reproducible from its seed. We deliberately do not use std::mt19937 in
// library code: its state is large and its stream is not stable across
// standard library implementations for the distributions layered on top.
#pragma once

#include <cstdint>
#include <cmath>

namespace twochains {

/// Xoshiro256** 1.0 (Blackman & Vigna), public-domain algorithm.
class Xoshiro256 {
 public:
  /// Seeds via SplitMix64 so that low-entropy seeds still produce
  /// well-distributed state.
  explicit Xoshiro256(std::uint64_t seed = kDefaultSeed) noexcept;

  /// Default seed: arbitrary constant so unseeded generators are still
  /// deterministic across runs.
  static constexpr std::uint64_t kDefaultSeed = 0x2c41a15'7c0de'5eedull;

  /// Next 64 uniformly distributed bits.
  std::uint64_t Next() noexcept;

  /// Uniform in [0, bound). bound == 0 returns 0. Uses rejection sampling so
  /// the result is exactly uniform.
  std::uint64_t NextBelow(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double NextDouble() noexcept;

  /// True with probability p (clamped to [0,1]).
  bool NextBernoulli(double p) noexcept { return NextDouble() < p; }

  /// Exponential with the given mean (inverse-CDF method).
  double NextExponential(double mean) noexcept;

  /// Pareto (heavy tail) with scale x_m and shape alpha; mean exists only
  /// for alpha > 1. Used by the interference model for preemption spikes.
  double NextPareto(double x_m, double alpha) noexcept;

  /// Zipf-distributed rank in [0, n): P(k) proportional to 1/(k+1)^theta,
  /// so rank 0 is the hottest. theta <= 0 degenerates to uniform; n == 0
  /// returns 0. O(1) per draw via Hoermann & Derflinger rejection
  /// inversion — no O(n) zeta precompute, so one generator can serve many
  /// key spaces. The workload generators use this for hot-key popularity
  /// (theta ~ 0.99-1.2 is the YCSB-style serving mix).
  std::uint64_t NextZipf(std::uint64_t n, double theta) noexcept;

  // std::uniform_random_bit_generator interface so <algorithm> shuffles work.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }
  result_type operator()() noexcept { return Next(); }

 private:
  std::uint64_t s_[4];
};

}  // namespace twochains
