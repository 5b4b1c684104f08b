// The full memory hierarchy of one simulated host.
//
// Private L1/L2 per core, L3 shared per 2-core cluster, one LLC shared by
// all cores, DRAM behind it. Every CPU access (instruction fetch, load,
// store) walks the hierarchy, pays the latency of the level that hits, and
// installs the line upward — so code and data that arrived over the network
// are hot or cold depending on how the NIC delivered them:
//
//   * stash delivery  -> lines installed in the LLC (upper levels
//                        invalidated): post-arrival fetches pay LLC latency;
//   * DRAM delivery   -> lines invalidated everywhere: post-arrival fetches
//                        pay DRAM latency until the stream prefetcher trains.
//
// This asymmetry is the entire mechanism behind Figures 9-12 of the paper.
//
// With HierarchyConfig.domains > 1 the LLC is physically distributed: one
// slice per memory domain, and a line is cached in the slice of its *home*
// domain (where its bytes live in the host arena, resolved through the
// domain mapper the owning net::Host installs). An access that must be
// satisfied by a remote domain's slice or DRAM pays kRemotePenaltyCycles
// on top — the cross-socket hop — while copies already resident in the
// core's private/cluster levels stay free. NIC stash delivery therefore
// lands in the home domain's slice, which is what makes bank placement a
// measurable axis (fig17).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "cache/cache_level.hpp"
#include "cache/config.hpp"
#include "cache/prefetcher.hpp"
#include "common/bitops.hpp"
#include "mem/address.hpp"

namespace twochains::cache {

/// Hit/miss counters, one instance per hierarchy.
struct HierarchyStats {
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t prefetch_covered = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t stash_lines = 0;
  std::uint64_t dma_invalidated_lines = 0;
  /// Accesses satisfied by another domain's LLC slice or DRAM.
  std::uint64_t remote_accesses = 0;
  /// Total cross-domain penalty cycles those accesses paid.
  std::uint64_t remote_penalty_cycles = 0;

  std::uint64_t TotalAccesses() const noexcept {
    return l1_hits + l2_hits + l3_hits + llc_hits + prefetch_covered +
           dram_accesses;
  }
  bool operator==(const HierarchyStats&) const = default;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchyConfig& config);

  const HierarchyConfig& config() const noexcept { return config_; }

  /// CPU access from @p core touching [addr, addr+size). Returns total
  /// latency in core cycles (per-line walk; the level that hits also
  /// reports through @p last_level when non-null, for tests). A single-line
  /// access that hits L1 — most interpreter fetches and stack accesses —
  /// returns inline.
  Cycles Access(std::uint32_t core, mem::VirtAddr addr, std::uint64_t size,
                AccessKind kind, HitLevel* last_level = nullptr) noexcept {
    constexpr std::uint64_t line = kCacheLineBytes;
    if (size != 0 && size <= line && (addr & (line - 1)) + size <= line) {
      return AccessLine(core, AlignDown(addr, line), kind, last_level);
    }
    return AccessLines(core, addr, size, kind, last_level);
  }

  /// Single-line access fast path used by the interpreter (addr need not be
  /// aligned; only the containing line is charged).
  Cycles AccessLine(std::uint32_t core, mem::VirtAddr addr, AccessKind kind,
                    HitLevel* level = nullptr) noexcept {
    assert(core < config_.cores);
    CacheLevel& l1 = l1_[core];
    if (l1.Lookup(addr)) {
      ++stats_.l1_hits;
      if (level) *level = HitLevel::kL1;
      return l1.hit_cycles();
    }
    return MissL1(core, addr, kind, level);
  }

  /// Inbound-DMA delivery with LLC stashing: installs every line of
  /// [addr,+size) into its home domain's LLC slice and invalidates
  /// upper-level copies.
  void StashDeliver(mem::VirtAddr addr, std::uint64_t size) noexcept;

  /// Inbound-DMA delivery to DRAM: invalidates every level (next CPU touch
  /// misses all the way down).
  void DramDeliver(mem::VirtAddr addr, std::uint64_t size) noexcept;

  /// Per-DRAM-access extra cost (core cycles), used by the interference
  /// model to inject memory-bandwidth contention. Called once per DRAM
  /// access; may be stochastic.
  void SetDramContentionHook(std::function<Cycles()> hook) {
    dram_contention_ = std::move(hook);
  }

  /// Resolves an address to its home memory domain (the owning net::Host
  /// wires this to mem::HostMemory::DomainOf). Without a mapper every
  /// address homes in domain 0 — the single-socket behavior.
  void SetDomainMapper(std::function<std::uint32_t(mem::VirtAddr)> mapper) {
    domain_mapper_ = std::move(mapper);
  }

  /// Home domain of @p addr (clamped to the configured domain count; with
  /// one LLC slice that is always 0, so the mapper is not asked).
  std::uint32_t HomeDomainOf(mem::VirtAddr addr) const noexcept {
    const std::uint32_t n = static_cast<std::uint32_t>(llc_.size());
    if (n == 1 || !domain_mapper_) return 0;
    const std::uint32_t d = domain_mapper_(addr);
    return d < n ? d : n - 1;
  }

  /// Drops all cached state and prefetcher training (cold start).
  void Clear() noexcept;

  /// Drops only prefetcher training (e.g. between benchmark phases).
  void ResetPrefetchers() noexcept;

  const HierarchyStats& stats() const noexcept { return stats_; }
  void ResetStats() noexcept { stats_ = {}; }

  /// Test hooks: is this line present at the given level for this core?
  bool ProbeL1(std::uint32_t core, mem::VirtAddr addr) const;
  bool ProbeL2(std::uint32_t core, mem::VirtAddr addr) const;
  bool ProbeL3(std::uint32_t core, mem::VirtAddr addr) const;
  bool ProbeLLC(mem::VirtAddr addr) const;
  /// Test hooks: valid lines in @p core's L1, its L2, and its cluster's L3.
  std::uint64_t PopulationL1(std::uint32_t core) const {
    return l1_[core].PopulationCount();
  }
  std::uint64_t PopulationL2(std::uint32_t core) const {
    return l2_[core].PopulationCount();
  }
  std::uint64_t PopulationL3(std::uint32_t core) const {
    return l3_[ClusterOf(core)].PopulationCount();
  }

 private:
  static std::uint32_t ClusterOf(std::uint32_t core) noexcept {
    return core / kCoresPerCluster;
  }

  /// Access's walk over every line of a multi-line or empty range.
  Cycles AccessLines(std::uint32_t core, mem::VirtAddr addr,
                     std::uint64_t size, AccessKind kind,
                     HitLevel* last_level) noexcept;
  /// AccessLine past an L1 miss: L2, prefetcher, L3, LLC, then DRAM.
  Cycles MissL1(std::uint32_t core, mem::VirtAddr addr, AccessKind kind,
                HitLevel* level) noexcept;
  /// Drops [addr, addr+size) from every L1, L2 and L3 (inbound DMA).
  void InvalidateUpper(mem::VirtAddr addr, std::uint64_t size) noexcept;

  HierarchyConfig config_;
  std::vector<CacheLevel> l1_;   // per core
  std::vector<CacheLevel> l2_;   // per core
  std::vector<CacheLevel> l3_;   // per cluster
  std::vector<CacheLevel> llc_;  // one slice per domain (1 = fully shared)
  std::vector<StreamPrefetcher> prefetchers_;  // per core
  std::function<Cycles()> dram_contention_;
  std::function<std::uint32_t(mem::VirtAddr)> domain_mapper_;
  HierarchyStats stats_;
};

}  // namespace twochains::cache
