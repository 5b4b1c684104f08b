// The benchmark's four workloads. Each run builds its own fabric from the
// shapes defined in workloads.cpp, drives it through public entry points
// only, checks its outputs and ledgers, and reports two kinds of numbers:
// host wall-clock times (noisy) and simulated values (deterministic for a
// given seed, so two runs must agree on them exactly).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tag_profile.hpp"

namespace tcbench {

/// Named simulated values in a fixed order: end-to-end results, then
/// per-layer counters. Compared with == across runs of one seed.
using SimValues = std::vector<std::pair<std::string, double>>;

/// One workload run: set-up, then the measured phase.
struct RunResult {
  // Host wall clock, seconds.
  double fabric_s = 0;   ///< core::Fabric construction (arena zero-fill)
  double package_s = 0;  ///< package compile
  double load_s = 0;     ///< wire-up, package load, namespace sync
  double setup_s = 0;    ///< all of set-up
  double measure_s = 0;  ///< the measured phase
  LayerWall layers;      ///< traced runs only

  std::uint64_t ops = 0;     ///< operations attempted
  /// Operations not completed exactly once with the right result.
  std::uint64_t failed = 0;
  std::uint64_t events = 0;  ///< engine events in the measured phase
  std::vector<std::string> errors;  ///< failed checks
  SimValues sim;
};

struct RunOptions {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< about 1/50 of the full message counts
  /// Engine executor lanes; 0 = the workload's own setting. A traced run
  /// needs 1 (the event hook is not thread-safe).
  std::uint32_t lanes = 0;
  bool traced = false;
  /// Stop after set-up: a cheap extra set-up_s sample.
  bool setup_only = false;
};

/// Names of the workloads, in suite order.
const std::vector<std::string>& WorkloadNames();

/// The engine lanes @p workload runs at by default.
std::uint32_t DefaultLanes(const std::string& workload);

/// Runs @p workload, one of WorkloadNames(), once.
RunResult RunWorkload(const std::string& workload, const RunOptions& options);

/// MiB of simulated host arenas @p workload's fabric allocates.
double ArenaMib(const std::string& workload);

// ------------------------------------------------------------ kv_zipf only

/// Set-up split of kv_zipf, timed on a fabric identical to the one
/// bench::RunKvOpenLoop builds internally (which hides its own phases).
RunResult KvSetupSplit();

/// Highest offered load (M req/s) in [4, 12] whose measured window meets
/// the p99 <= 40 us SLO with every request completed, by bisection.
double KvSloCapacityMops(std::uint64_t seed, std::vector<std::string>* errors);

}  // namespace tcbench
