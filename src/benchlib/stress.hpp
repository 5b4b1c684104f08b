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

/// Mean extra DRAM latency per access (core cycles), exponential.
inline constexpr double kDramExtraMeanCycles = 200.0;
/// Frequent large DRAM spikes (row conflicts / queueing behind the stress
/// workload): probability per access and Pareto tail (cycles). This is the
/// noise source stashing dodges.
inline constexpr double kDramSpikeProbability = 0.05;
inline constexpr double kDramSpikeScaleCycles = 4000.0;
inline constexpr double kDramSpikeAlpha = 1.6;
/// Pareto delay (us) of one receiver preemption. Hits stash and non-stash
/// alike; kept moderate so it shapes the spread without masking the DRAM
/// asymmetry.
inline constexpr double kPreemptScaleUs = 2.5;
inline constexpr double kPreemptAlpha = 2.2;

struct StressConfig {
  std::uint64_t seed = 0x57e55ull;
  /// Receiver preemption probability per message.
  double preempt_probability = 0.002;
};

/// Installs the interference hooks on every host of the fabric (seeded
/// per host, in host-index order, so N-host soak runs stay reproducible).
/// Applying again replaces the hooks.
void ApplyStress(core::Fabric& fabric, const StressConfig& config);

/// Removes all interference hooks.
void ClearStress(core::Fabric& fabric);

}  // namespace twochains::bench
