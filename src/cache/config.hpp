// Geometry and latency configuration of the modeled memory hierarchy.
//
// Defaults reproduce the paper's testbed (§VI-C): 4-core Arm server,
// 1 MB dedicated L2 per core, 1 MB L3 shared per 2-core cluster, 8 MB shared
// LLC, DDR4-2666 DRAM, 64 B lines (kCacheLineBytes), core clock 2.6 GHz
// (kCoreClock). Level hit latencies are modeled in core cycles; DRAM in
// nanoseconds, converted once via the core clock. The machine's fixed costs
// are the k* constants below; the config keeps the geometry tests use to
// isolate levels and the core and domain counts the multi-core scenarios
// set.
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

/// Cores sharing one L3 (a cluster).
inline constexpr std::uint32_t kCoresPerCluster = 2;
/// Extra cycles when a core's access must be satisfied by another domain's
/// LLC slice or DRAM (the cross-socket interconnect hop). Copies already
/// resident in the core's private/cluster levels are local and never pay
/// it.
inline constexpr Cycles kRemotePenaltyCycles = 60;
/// Loaded DRAM access latency before contention (DDR4-2666).
inline constexpr double kDramLatencyNs = 88.0;
/// kDramLatencyNs in core cycles (229), what every DRAM fill pays.
inline constexpr Cycles kDramCycles =
    kCoreClock.ToCycles(Nanoseconds(kDramLatencyNs));
/// Consecutive-line misses needed before a prefetch stream counts as
/// trained.
inline constexpr std::uint32_t kPrefetchTrainMisses = 2;
/// Concurrent prefetch streams tracked per core.
inline constexpr std::uint32_t kPrefetchStreams = 8;
/// Cost of an access covered by a trained stream (data arrived in L2
/// ahead of use; what remains is the L2-ish fill latency).
inline constexpr Cycles kPrefetchCoveredCycles = 14;

/// Stream prefetcher switch (the stream model itself is the k* constants
/// above).
struct PrefetcherConfig {
  bool enabled = true;
};

struct HierarchyConfig {
  std::uint32_t cores = 4;

  /// Memory domains (NUMA nodes): cores split into contiguous blocks of
  /// CoresPerDomain(), the LLC splits into one slice per domain (a line is
  /// cached in the slice of its *home* domain — where its bytes live in
  /// the host arena), and DRAM behind each slice is that domain's local
  /// memory. 1 = the paper's single-socket testbed.
  std::uint32_t domains = 1;

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

  PrefetcherConfig prefetch{};
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
