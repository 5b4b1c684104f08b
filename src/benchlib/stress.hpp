// Interference model for the tail-latency experiments (Figs. 11/12).
//
// The paper co-runs `stress-ng --class vm --all 1` pinned to all four
// cores. Its effect on the active-message path decomposes into:
//   * memory-bandwidth contention — DRAM accesses slow down, stochastically
//     and heavy-tailed (row-buffer conflicts, queueing). LLC-stashed
//     message bytes dodge this entirely, which is the asymmetry the figures
//     show ("stashing reduces active message memory bandwidth utilization");
//   * scheduler preemption — the receiver thread occasionally loses the
//     core for a scheduling quantum, adding rare but large delays to both
//     configurations.
// Both processes are seeded-deterministic.
#pragma once

#include <cstdint>

#include "core/fabric.hpp"

namespace twochains::bench {

struct StressConfig {
  std::uint64_t seed = 0x57e55ull;
  /// Mean extra DRAM latency per access (core cycles), exponential.
  double dram_extra_mean_cycles = 200.0;
  /// Frequent large DRAM spikes (row conflicts / queueing behind the
  /// stress workload): probability per access and Pareto tail (cycles).
  /// This is the noise source stashing dodges.
  double dram_spike_probability = 0.05;
  double dram_spike_scale_cycles = 4000.0;
  double dram_spike_alpha = 1.6;
  /// Receiver preemption per message: probability and Pareto delay (us).
  /// Hits stash and non-stash alike; kept moderate so it shapes the spread
  /// without masking the DRAM asymmetry.
  double preempt_probability = 0.002;
  double preempt_scale_us = 2.5;
  double preempt_alpha = 2.2;
  /// Preemption makes a pool core's "idle while sibling backlogged" signal
  /// jittery, so stress raises the receiver wait loop's steal hysteresis
  /// by this much (claims would otherwise thrash on noise). Applied as
  /// `pristine + boost` — idempotent across repeated ApplyStress calls —
  /// and restored exactly by ClearStress.
  std::uint32_t steal_hysteresis_boost = 1;
};

/// Installs the interference hooks on every host of the fabric (seeded
/// per host, in host-index order, so N-host soak runs stay reproducible)
/// and boosts each runtime's steal hysteresis. The pre-stress wait-loop
/// config is snapshotted on the first apply; ClearStress restores it, so
/// apply/clear round-trips leave the fabric byte-exactly as found.
void ApplyStress(core::Fabric& fabric, const StressConfig& config);

/// Removes all interference hooks and restores the wait-loop hysteresis
/// defaults snapshotted by the first ApplyStress (exact round-trip).
void ClearStress(core::Fabric& fabric);

}  // namespace twochains::bench
