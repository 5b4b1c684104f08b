// Geometry and latency configuration of the modeled memory hierarchy.
//
// Defaults reproduce the paper's testbed (§VI-C): 4-core Arm server,
// 1 MB dedicated L2 per core, 1 MB L3 shared per 2-core cluster, 8 MB shared
// LLC, DDR4-2666 DRAM, 64 B lines, core clock 2.6 GHz. Level hit latencies
// are modeled in core cycles; DRAM in nanoseconds (converted via the core
// clock). All values are data, so ablation benches can sweep them.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace twochains::cache {

/// One set-associative level.
struct LevelConfig {
  std::string name;
  std::uint64_t size_bytes = 0;
  std::uint32_t ways = 8;
  Cycles hit_cycles = 10;  ///< latency when the lookup hits at this level
};

/// Stream prefetcher knobs.
struct PrefetcherConfig {
  bool enabled = true;
  /// Consecutive-line misses needed before a stream counts as trained.
  std::uint32_t train_misses = 2;
  /// Concurrent streams tracked per core.
  std::uint32_t streams = 8;
  /// Cost of an access covered by a trained stream (data arrived in L2
  /// ahead of use; what remains is the L2-ish fill latency).
  Cycles covered_cycles = 14;
};

struct HierarchyConfig {
  std::uint32_t cores = 4;
  std::uint32_t cores_per_cluster = 2;
  std::uint64_t line_bytes = kCacheLineBytes;

  /// Memory domains (NUMA nodes): cores split into contiguous blocks of
  /// CoresPerDomain(), the LLC splits into one slice per domain (a line is
  /// cached in the slice of its *home* domain — where its bytes live in
  /// the host arena), and DRAM behind each slice is that domain's local
  /// memory. 1 = the paper's single-socket testbed.
  std::uint32_t domains = 1;
  /// Extra cycles when a core's access must be satisfied by another
  /// domain's LLC slice or DRAM (the cross-socket interconnect hop).
  /// Copies already resident in the core's private/cluster levels are
  /// local and never pay it.
  Cycles remote_penalty_cycles = 60;

  std::uint32_t CoresPerDomain() const noexcept {
    const std::uint32_t n = domains == 0 ? 1 : domains;
    return (cores + n - 1) / n;
  }
  /// The domain a core belongs to (contiguous blocks; clamped so every
  /// core maps somewhere even when cores % domains != 0).
  std::uint32_t DomainOfCore(std::uint32_t core) const noexcept {
    const std::uint32_t n = domains == 0 ? 1 : domains;
    const std::uint32_t d = core / CoresPerDomain();
    return d < n ? d : n - 1;
  }

  LevelConfig l1{"L1", KiB(64), 4, 2};
  LevelConfig l2{"L2", MiB(1), 8, 12};
  LevelConfig l3{"L3", MiB(1), 16, 30};
  LevelConfig llc{"LLC", MiB(8), 16, 55};

  /// Loaded DRAM access latency (nanoseconds) before contention.
  double dram_latency_ns = 88.0;

  PrefetcherConfig prefetch{};

  ClockDomain core_clock = kCoreClock;

  /// DRAM latency in core cycles.
  Cycles DramCycles() const noexcept {
    return core_clock.ToCycles(Nanoseconds(dram_latency_ns));
  }
};

/// Where an access was satisfied (for statistics and tests).
enum class HitLevel : std::uint8_t {
  kL1,
  kL2,
  kL3,
  kLLC,
  kPrefetchCovered,
  kDram,
};

/// Kind of access, for statistics; all kinds share the lookup path.
enum class AccessKind : std::uint8_t { kInstFetch, kLoad, kStore };

}  // namespace twochains::cache
