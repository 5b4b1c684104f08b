#include "cache/hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace twochains::cache {

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config)
    : config_(config) {
  assert(config_.cores >= 1);
  if (config_.domains == 0) config_.domains = 1;
  if (config_.domains > 1 &&
      config_.CoresPerDomain() % kCoresPerCluster != 0) {
    TC_WARN << "cache: a " << kCoresPerCluster
            << "-core cluster straddles the " << config_.domains
            << "-domain boundary (cores_per_domain="
            << config_.CoresPerDomain()
            << "); L3 sharing across domains is not modeled — expect "
               "cluster-local hits to read as domain-local";
  }
  const std::uint32_t clusters =
      (config_.cores + kCoresPerCluster - 1) / kCoresPerCluster;
  l1_.reserve(config_.cores);
  l2_.reserve(config_.cores);
  prefetchers_.reserve(config_.cores);
  for (std::uint32_t c = 0; c < config_.cores; ++c) {
    l1_.emplace_back(config_.l1);
    l2_.emplace_back(config_.l2);
    prefetchers_.emplace_back(config_.prefetch);
  }
  l3_.reserve(clusters);
  for (std::uint32_t c = 0; c < clusters; ++c) {
    l3_.emplace_back(config_.l3);
  }
  // The LLC is physically distributed across domains: each slice holds the
  // lines homed in its domain, with the total capacity split evenly —
  // then rounded down so the slice keeps the power-of-two set count
  // CacheLevel requires (a 3-domain split of an 8 MiB LLC would
  // otherwise produce a non-power-of-two geometry). A 0-way LLC counts as
  // one way here, as CacheLevel clamps it (with a warning).
  LevelConfig slice = config_.llc;
  const std::uint64_t way_bytes =
      kCacheLineBytes * std::max<std::uint32_t>(slice.ways, 1);
  const std::uint64_t sets = std::bit_floor(std::max<std::uint64_t>(
      config_.llc.size_bytes / config_.domains / way_bytes, 1));
  slice.size_bytes = sets * way_bytes;
  llc_.reserve(config_.domains);
  for (std::uint32_t d = 0; d < config_.domains; ++d) {
    llc_.emplace_back(slice);
  }
}

Cycles CacheHierarchy::MissL1(std::uint32_t core, mem::VirtAddr addr,
                              AccessKind kind, HitLevel* level) noexcept {
  (void)kind;  // loads, stores (write-allocate) and ifetch share the walk
  const std::uint32_t cluster = ClusterOf(core);
  auto& l1 = l1_[core];
  auto& l2 = l2_[core];
  auto& l3 = l3_[cluster];

  // Every level this walk has seen miss is filled with InsertAbsent: its
  // Lookup just missed, so searching the set again would find nothing.
  if (l2.Lookup(addr)) {
    l1.InsertAbsent(addr);
    ++stats_.l2_hits;
    if (level) *level = HitLevel::kL2;
    return l2.hit_cycles();
  }

  // Past the core-private levels the line's home domain matters: a fill
  // from another domain's LLC slice or DRAM crosses the interconnect.
  const std::uint32_t home = HomeDomainOf(addr);
  const bool remote =
      config_.domains > 1 && home != config_.DomainOfCore(core);
  auto& llc = llc_[home];

  // L2 demand miss: the stream prefetcher sees every one of these and, once
  // trained, covers the fill regardless of whether the line would have come
  // from L3, LLC, or DRAM (the engine ran ahead of the demand stream — the
  // cross-domain hop is hidden with the rest of the fill latency).
  const bool covered = prefetchers_[core].OnDemandMiss(addr);
  if (covered) {
    l1.InsertAbsent(addr);
    l2.InsertAbsent(addr);
    llc.Insert(addr);  // prefetch fills percolate into the home slice
    ++stats_.prefetch_covered;
    if (level) *level = HitLevel::kPrefetchCovered;
    return kPrefetchCoveredCycles;
  }

  if (l3.Lookup(addr)) {
    // A copy already resident in the cluster is local however far away the
    // line's home is — caching absorbs the NUMA hop after the first touch.
    l1.InsertAbsent(addr);
    l2.InsertAbsent(addr);
    ++stats_.l3_hits;
    if (level) *level = HitLevel::kL3;
    return l3.hit_cycles();
  }
  if (llc.Lookup(addr)) {
    l1.InsertAbsent(addr);
    l2.InsertAbsent(addr);
    l3.InsertAbsent(addr);
    ++stats_.llc_hits;
    if (level) *level = HitLevel::kLLC;
    Cycles cost = llc.hit_cycles();
    if (remote) {
      cost += kRemotePenaltyCycles;
      ++stats_.remote_accesses;
      stats_.remote_penalty_cycles += kRemotePenaltyCycles;
    }
    return cost;
  }

  // DRAM (the home domain's local memory).
  l1.InsertAbsent(addr);
  l2.InsertAbsent(addr);
  l3.InsertAbsent(addr);
  llc.InsertAbsent(addr);
  ++stats_.dram_accesses;
  if (level) *level = HitLevel::kDram;
  Cycles cost = kDramCycles;
  if (remote) {
    cost += kRemotePenaltyCycles;
    ++stats_.remote_accesses;
    stats_.remote_penalty_cycles += kRemotePenaltyCycles;
  }
  if (dram_contention_) cost += dram_contention_();
  return cost;
}

Cycles CacheHierarchy::AccessLines(std::uint32_t core, mem::VirtAddr addr,
                                   std::uint64_t size, AccessKind kind,
                                   HitLevel* last_level) noexcept {
  if (size == 0) return 0;
  constexpr std::uint64_t line = kCacheLineBytes;
  const std::uint64_t first = AlignDown(addr, line);
  const std::uint64_t last = AlignUp(addr + size, line);
  Cycles total = 0;
  for (std::uint64_t a = first; a < last; a += line) {
    total += AccessLine(core, a, kind, last_level);
  }
  return total;
}

void CacheHierarchy::InvalidateUpper(mem::VirtAddr addr,
                                     std::uint64_t size) noexcept {
  // Levels are independent, so dropping the range level by level leaves
  // the same tags and LRU order as line by line, and a level holding no
  // line (the private caches of an idle core) returns at once.
  for (auto& l1 : l1_) l1.InvalidateRange(addr, size);
  for (auto& l2 : l2_) l2.InvalidateRange(addr, size);
  for (auto& l3 : l3_) l3.InvalidateRange(addr, size);
}

void CacheHierarchy::StashDeliver(mem::VirtAddr addr,
                                  std::uint64_t size) noexcept {
  if (size == 0) return;
  // Upper-level copies are stale after the DMA write. The stash targets
  // each line's home domain's LLC slice — the cache closest to the cores
  // that own the bank when placement is domain-aware.
  InvalidateUpper(addr, size);
  constexpr std::uint64_t line = kCacheLineBytes;
  const std::uint64_t first = AlignDown(addr, line);
  const std::uint64_t last = AlignUp(addr + size, line);
  for (std::uint64_t a = first; a < last; a += line) {
    llc_[HomeDomainOf(a)].Insert(a);
    ++stats_.stash_lines;
  }
}

void CacheHierarchy::DramDeliver(mem::VirtAddr addr,
                                 std::uint64_t size) noexcept {
  if (size == 0) return;
  InvalidateUpper(addr, size);
  // Every slice, not just the home one: lines inserted before a domain
  // mapper was installed may sit in slice 0.
  for (auto& slice : llc_) slice.InvalidateRange(addr, size);
  constexpr std::uint64_t line = kCacheLineBytes;
  stats_.dma_invalidated_lines +=
      (AlignUp(addr + size, line) - AlignDown(addr, line)) / line;
}

void CacheHierarchy::Clear() noexcept {
  for (auto& c : l1_) c.Clear();
  for (auto& c : l2_) c.Clear();
  for (auto& c : l3_) c.Clear();
  for (auto& slice : llc_) slice.Clear();
  ResetPrefetchers();
}

void CacheHierarchy::ResetPrefetchers() noexcept {
  for (auto& p : prefetchers_) p.Reset();
}

bool CacheHierarchy::ProbeL1(std::uint32_t core, mem::VirtAddr addr) const {
  return l1_[core].Probe(addr);
}
bool CacheHierarchy::ProbeL2(std::uint32_t core, mem::VirtAddr addr) const {
  return l2_[core].Probe(addr);
}
bool CacheHierarchy::ProbeL3(std::uint32_t core, mem::VirtAddr addr) const {
  return l3_[ClusterOf(core)].Probe(addr);
}
bool CacheHierarchy::ProbeLLC(mem::VirtAddr addr) const {
  return llc_[HomeDomainOf(addr)].Probe(addr);
}

}  // namespace twochains::cache
