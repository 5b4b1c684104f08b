// Tests for the cache hierarchy timing model: LRU tag behaviour, hierarchy
// walks, stashing vs DRAM delivery, and the stream prefetcher — the
// machinery behind Figures 9-12 of the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <vector>

#include "cache/cache_level.hpp"
#include "cache/config.hpp"
#include "cache/hierarchy.hpp"
#include "cache/prefetcher.hpp"
#include "common/rng.hpp"

namespace twochains::cache {
namespace {

constexpr std::uint64_t kLine = 64;

LevelConfig TinyLevel(std::uint64_t size, std::uint32_t ways, Cycles lat) {
  return LevelConfig{"tiny", size, ways, lat};
}

// ------------------------------------------------------------ CacheLevel

TEST(CacheLevelTest, MissThenHit) {
  CacheLevel c(TinyLevel(KiB(4), 4, 7));
  EXPECT_FALSE(c.Lookup(0x1000));
  c.Insert(0x1000);
  EXPECT_TRUE(c.Lookup(0x1000));
  EXPECT_TRUE(c.Lookup(0x1001));  // same line
  EXPECT_FALSE(c.Lookup(0x1040)); // next line
  EXPECT_EQ(c.hit_cycles(), 7u);
}

TEST(CacheLevelTest, LruEvictionOrder) {
  // 4-way, and addresses chosen to land in the same set: stride = sets*line.
  CacheLevel c(TinyLevel(KiB(4), 4, 1));
  const std::uint64_t stride = c.sets() * kLine;
  // Fill the set with 4 lines.
  for (std::uint64_t i = 0; i < 4; ++i) c.Insert(i * stride);
  // Touch line 0 so line 1 becomes LRU.
  EXPECT_TRUE(c.Lookup(0));
  // Insert a 5th line; line 1 (LRU) must be evicted.
  c.Insert(4 * stride);
  EXPECT_TRUE(c.Probe(0));
  EXPECT_FALSE(c.Probe(1 * stride));
  EXPECT_TRUE(c.Probe(2 * stride));
  EXPECT_TRUE(c.Probe(3 * stride));
  EXPECT_TRUE(c.Probe(4 * stride));
}

TEST(CacheLevelTest, InsertIsIdempotentForPresentLine) {
  CacheLevel c(TinyLevel(KiB(4), 4, 1));
  c.Insert(0x2000);
  c.Insert(0x2000);
  EXPECT_EQ(c.PopulationCount(), 1u);
}

TEST(CacheLevelTest, InvalidateRemovesLine) {
  CacheLevel c(TinyLevel(KiB(4), 4, 1));
  c.Insert(0x3000);
  EXPECT_TRUE(c.Invalidate(0x3000));
  EXPECT_FALSE(c.Probe(0x3000));
  EXPECT_FALSE(c.Invalidate(0x3000));
}

TEST(CacheLevelTest, InvalidateRangeCoversPartialLines) {
  CacheLevel c(TinyLevel(KiB(4), 4, 1));
  c.Insert(0x1000);
  c.Insert(0x1040);
  c.Insert(0x1080);
  // Range [0x1030, 0x1050) touches lines 0x1000 and 0x1040 but not 0x1080.
  c.InvalidateRange(0x1030, 0x20);
  EXPECT_FALSE(c.Probe(0x1000));
  EXPECT_FALSE(c.Probe(0x1040));
  EXPECT_TRUE(c.Probe(0x1080));
}

TEST(CacheLevelTest, ClearEmptiesEverything) {
  CacheLevel c(TinyLevel(KiB(4), 4, 1));
  for (std::uint64_t i = 0; i < 32; ++i) c.Insert(i * kLine);
  EXPECT_GT(c.PopulationCount(), 0u);
  c.Clear();
  EXPECT_EQ(c.PopulationCount(), 0u);
}

TEST(CacheLevelTest, PopulationNeverExceedsCapacity) {
  CacheLevel c(TinyLevel(KiB(4), 4, 1));
  Xoshiro256 rng(42);
  for (int i = 0; i < 10000; ++i) {
    c.Insert(rng.NextBelow(1 << 20) * kLine);
  }
  EXPECT_LE(c.PopulationCount(), KiB(4) / kLine);
}

TEST(CacheLevelTest, ClampsGeometryItCannotModelInEveryBuild) {
  // No ways: one way, so the 4 KiB level is 64 one-line sets.
  CacheLevel no_ways(TinyLevel(KiB(4), 0, 1));
  EXPECT_EQ(no_ways.ways(), 1u);
  EXPECT_EQ(no_ways.sets(), 64u);
  no_ways.Insert(0x1000);
  EXPECT_TRUE(no_ways.Probe(0x1000));

  // Smaller than one set: one set of its ways.
  CacheLevel tiny(TinyLevel(kLine, 4, 1));
  EXPECT_EQ(tiny.sets(), 1u);
  for (std::uint64_t i = 0; i < 6; ++i) tiny.Insert(i * kLine);
  EXPECT_EQ(tiny.PopulationCount(), 4u);

  // Three sets: the largest power of two that fits, and every set it
  // reports fills.
  CacheLevel three(TinyLevel(3 * 4 * kLine, 4, 1));
  EXPECT_EQ(three.sets(), 2u);
  for (std::uint64_t i = 0; i < 64; ++i) three.Insert(i * kLine);
  EXPECT_EQ(three.PopulationCount(), three.sets() * three.ways());

  // More ways than a set's 16-bit counts hold: 65536 ways.
  CacheLevel wide(TinyLevel(65537 * kLine, 65537, 1));
  EXPECT_EQ(wide.ways(), 65536u);
  EXPECT_EQ(wide.sets(), 1u);
  for (std::uint64_t i = 0; i < 6; ++i) wide.Insert(i * kLine);
  EXPECT_EQ(wide.PopulationCount(), 6u);

  // Too many tags to index (a 2 TiB level): refused before any mapping.
  EXPECT_THROW(CacheLevel(TinyLevel(std::uint64_t{1} << 41, 16, 1)),
               std::bad_alloc);

  // A 0-way LLC: its slice geometry is computed with the clamped ways.
  HierarchyConfig cfg;
  cfg.llc.ways = 0;
  CacheHierarchy h(cfg);
  h.AccessLine(0, 0x10000, AccessKind::kLoad);
  EXPECT_TRUE(h.ProbeLLC(0x10000));
}

class CacheLevelPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

// Property: after inserting N distinct lines mapping to one set of a
// W-way cache, exactly the last W survive.
TEST_P(CacheLevelPropertyTest, SetKeepsMostRecentWays) {
  const std::uint32_t ways = GetParam();
  CacheLevel c(TinyLevel(ways * 8 * kLine, ways, 1));  // 8 sets
  const std::uint64_t stride = c.sets() * kLine;
  const int n = static_cast<int>(ways) + 5;
  for (int i = 0; i < n; ++i) c.Insert(static_cast<std::uint64_t>(i) * stride);
  for (int i = 0; i < n; ++i) {
    const bool expect_present = i >= n - static_cast<int>(ways);
    EXPECT_EQ(c.Probe(static_cast<std::uint64_t>(i) * stride), expect_present)
        << "line " << i << " ways=" << ways;
  }
}

TEST_P(CacheLevelPropertyTest, LookupMatchesAReferenceLru) {
  // Lookup answers an MRU-way hit inline and searches the other ways out
  // of line, InsertAbsent skips the search, and Invalidate closes the gap
  // a line leaves; all must keep every set in exact LRU order, and the
  // level's line count must match the reference after every step
  // (invalidations of an empty level return on that count). Each set sees
  // twice its ways in distinct lines, so at every way count sets fill,
  // evict, empty and refill, and a Clear partway restarts every set from
  // empty. The reference is one most-recent-first list per set.
  const std::uint32_t ways = GetParam();
  CacheLevel c(TinyLevel(ways * 8 * kLine, ways, 1));  // 8 sets
  const std::uint64_t lines = 2 * c.sets() * ways;
  std::vector<std::vector<std::uint64_t>> ref(c.sets());
  std::uint64_t population = 0;  // lines across the reference's sets
  Xoshiro256 rng(0x1F0);
  for (int i = 0; i < 20000; ++i) {
    if (i == 10000) {
      c.Clear();
      for (auto& set : ref) set.clear();
      population = 0;
    }
    const std::uint64_t line = rng.NextBelow(lines);
    const mem::VirtAddr addr = line * kLine;  // line 0 is cacheable too
    auto& set = ref[line % c.sets()];
    const auto it = std::find(set.begin(), set.end(), line);
    const bool present = it != set.end();
    if (present) {
      set.erase(it);
      --population;
    }
    const std::uint64_t op = rng.NextBelow(4);
    bool resident = true;  // the line ends the step at MRU
    if (op == 0) {
      ASSERT_EQ(c.Invalidate(addr), present) << "step " << i;
      resident = false;
    } else if (op == 1) {
      ASSERT_EQ(c.Lookup(addr), present) << "step " << i;
      resident = present;
    } else if (op == 2 && !present) {
      c.InsertAbsent(addr);
    } else {
      c.Insert(addr);
    }
    if (resident) {
      set.insert(set.begin(), line);
      ++population;
      if (set.size() > ways) {
        set.pop_back();
        --population;
      }
    }
    ASSERT_EQ(c.PopulationCount(), population) << "step " << i;
  }
  for (std::uint64_t line = 0; line < lines; ++line) {
    const auto& set = ref[line % c.sets()];
    EXPECT_EQ(c.Probe(line * kLine),
              std::find(set.begin(), set.end(), line) != set.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheLevelPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u, 16u));

// ------------------------------------------------------------ Prefetcher

TEST(PrefetcherTest, CoversAfterTraining) {
  PrefetcherConfig cfg;
  StreamPrefetcher p(cfg);
  EXPECT_FALSE(p.OnDemandMiss(0x0));     // run=1
  EXPECT_TRUE(p.OnDemandMiss(0x40));     // run=2: trained, covered
  EXPECT_TRUE(p.OnDemandMiss(0x80));
  EXPECT_EQ(p.covered_count(), 2u);
  EXPECT_EQ(p.trained_streams_formed(), 1u);
}

TEST(PrefetcherTest, NonSequentialMissesNeverCover) {
  PrefetcherConfig cfg;
  StreamPrefetcher p(cfg);
  Xoshiro256 rng(3);
  int covered = 0;
  for (int i = 0; i < 200; ++i) {
    // Random lines with huge stride jumps: no stream should train.
    covered += p.OnDemandMiss(rng.NextBelow(1 << 30) * kLine * 3 + kLine * 7);
  }
  EXPECT_EQ(covered, 0);
}

TEST(PrefetcherTest, TracksMultipleConcurrentStreams) {
  PrefetcherConfig cfg;
  StreamPrefetcher p(cfg);
  // Interleave two streams; both should train and cover.
  EXPECT_FALSE(p.OnDemandMiss(0x0));
  EXPECT_FALSE(p.OnDemandMiss(0x100000));
  EXPECT_TRUE(p.OnDemandMiss(0x40));
  EXPECT_TRUE(p.OnDemandMiss(0x100040));
  EXPECT_TRUE(p.OnDemandMiss(0x80));
  EXPECT_TRUE(p.OnDemandMiss(0x100080));
}

TEST(PrefetcherTest, DisabledNeverCovers) {
  PrefetcherConfig cfg;
  cfg.enabled = false;
  StreamPrefetcher p(cfg);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(p.OnDemandMiss(static_cast<std::uint64_t>(i) * kLine));
  }
}

TEST(PrefetcherTest, ResetForgetsTraining) {
  PrefetcherConfig cfg;
  StreamPrefetcher p(cfg);
  p.OnDemandMiss(0x0);
  p.OnDemandMiss(0x40);
  p.Reset();
  EXPECT_FALSE(p.OnDemandMiss(0x80));  // stream forgotten
}

// ------------------------------------------------------------ Hierarchy

HierarchyConfig SmallHierarchy() {
  HierarchyConfig cfg;
  cfg.cores = 4;
  cfg.l1 = LevelConfig{"L1", KiB(4), 4, 2};
  cfg.l2 = LevelConfig{"L2", KiB(16), 8, 12};
  cfg.l3 = LevelConfig{"L3", KiB(32), 16, 30};
  cfg.llc = LevelConfig{"LLC", KiB(64), 16, 55};
  cfg.prefetch.enabled = false;  // most tests want raw level behaviour
  return cfg;
}

TEST(HierarchyTest, ColdAccessGoesToDram) {
  CacheHierarchy h(SmallHierarchy());
  HitLevel level;
  const Cycles cost = h.AccessLine(0, 0x10000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kDram);
  EXPECT_EQ(cost, kDramCycles);
  EXPECT_EQ(h.stats().dram_accesses, 1u);
}

TEST(HierarchyTest, SecondAccessHitsL1) {
  CacheHierarchy h(SmallHierarchy());
  h.AccessLine(0, 0x10000, AccessKind::kLoad);
  HitLevel level;
  const Cycles cost = h.AccessLine(0, 0x10000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kL1);
  EXPECT_EQ(cost, 2u);
}

TEST(HierarchyTest, OtherCoreHitsSharedLLC) {
  CacheHierarchy h(SmallHierarchy());
  h.AccessLine(0, 0x10000, AccessKind::kLoad);  // fills core 0 path + LLC
  HitLevel level;
  // Core 3 is in the other cluster: misses L1/L2/L3, hits shared LLC.
  const Cycles cost = h.AccessLine(3, 0x10000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kLLC);
  EXPECT_EQ(cost, 55u);
}

TEST(HierarchyTest, ClusterSiblingHitsL3) {
  CacheHierarchy h(SmallHierarchy());
  h.AccessLine(0, 0x10000, AccessKind::kLoad);
  HitLevel level;
  // Core 1 shares the L3 with core 0.
  const Cycles cost = h.AccessLine(1, 0x10000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kL3);
  EXPECT_EQ(cost, 30u);
}

TEST(HierarchyTest, StashDeliverPlacesLinesInLLCOnly) {
  CacheHierarchy h(SmallHierarchy());
  // Warm core 0's caches with the target lines, then deliver: upper levels
  // must be invalidated (stale), LLC populated.
  h.AccessLine(0, 0x20000, AccessKind::kLoad);
  EXPECT_TRUE(h.ProbeL1(0, 0x20000));
  h.StashDeliver(0x20000, 128);
  EXPECT_FALSE(h.ProbeL1(0, 0x20000));
  EXPECT_FALSE(h.ProbeL2(0, 0x20000));
  EXPECT_FALSE(h.ProbeL3(0, 0x20000));
  EXPECT_TRUE(h.ProbeLLC(0x20000));
  EXPECT_TRUE(h.ProbeLLC(0x20040));
  EXPECT_EQ(h.stats().stash_lines, 2u);

  HitLevel level;
  const Cycles cost = h.AccessLine(0, 0x20000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kLLC);
  EXPECT_EQ(cost, 55u);
}

TEST(HierarchyTest, DramDeliverInvalidatesEverywhere) {
  CacheHierarchy h(SmallHierarchy());
  h.AccessLine(0, 0x30000, AccessKind::kLoad);
  h.AccessLine(3, 0x30000, AccessKind::kLoad);
  h.DramDeliver(0x30000, 64);
  EXPECT_FALSE(h.ProbeL1(0, 0x30000));
  EXPECT_FALSE(h.ProbeLLC(0x30000));
  HitLevel level;
  h.AccessLine(0, 0x30000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kDram);
}

TEST(HierarchyTest, DeliveryDropsLinesWhereTheyAreAndFillsNoOtherLevel) {
  // Only core 3 touches the range, so its L1/L2 and cluster 1's L3 hold
  // the lines and cores 0-2's L1/L2 and cluster 0's L3 hold nothing.
  // Either delivery must drop the lines from core 3's levels, leave every
  // other level empty, and count every line of the range.
  constexpr mem::VirtAddr kAddr = 0x50020;  // straddles three lines
  constexpr std::uint64_t kSize = 128;
  const std::vector<mem::VirtAddr> lines = {0x50000, 0x50040, 0x50080};
  for (const bool stash : {true, false}) {
    SCOPED_TRACE(stash ? "StashDeliver" : "DramDeliver");
    CacheHierarchy h(SmallHierarchy());
    h.Access(3, kAddr, kSize, AccessKind::kLoad);
    EXPECT_EQ(h.PopulationL1(3), 3u);
    EXPECT_EQ(h.PopulationL2(3), 3u);
    EXPECT_EQ(h.PopulationL3(3), 3u);
    for (std::uint32_t core = 0; core < 2; ++core) {
      EXPECT_EQ(h.PopulationL3(core), 0u) << "core " << core;
    }
    for (std::uint32_t core = 0; core < 3; ++core) {
      EXPECT_EQ(h.PopulationL1(core), 0u) << "core " << core;
      EXPECT_EQ(h.PopulationL2(core), 0u) << "core " << core;
    }

    if (stash) {
      h.StashDeliver(kAddr, kSize);
    } else {
      h.DramDeliver(kAddr, kSize);
    }
    for (std::uint32_t core = 0; core < 4; ++core) {
      EXPECT_EQ(h.PopulationL1(core), 0u) << "core " << core;
      EXPECT_EQ(h.PopulationL2(core), 0u) << "core " << core;
      EXPECT_EQ(h.PopulationL3(core), 0u) << "core " << core;
    }
    for (const mem::VirtAddr line : lines) {
      EXPECT_FALSE(h.ProbeL1(3, line));
      EXPECT_FALSE(h.ProbeL2(3, line));
      EXPECT_FALSE(h.ProbeL3(3, line));
      EXPECT_EQ(h.ProbeLLC(line), stash);
    }
    EXPECT_EQ(h.stats().stash_lines, stash ? 3u : 0u);
    EXPECT_EQ(h.stats().dma_invalidated_lines, stash ? 0u : 3u);
  }
}

TEST(HierarchyTest, StashedDeliveryIsCheaperThanDramDelivery) {
  // The core claim of the paper in one assertion: reading a freshly
  // delivered message costs less when the NIC stashed it into the LLC.
  auto cfg = SmallHierarchy();
  CacheHierarchy stash(cfg), nostash(cfg);
  stash.StashDeliver(0x40000, 1024);
  nostash.DramDeliver(0x40000, 1024);
  const Cycles stash_cost =
      stash.Access(0, 0x40000, 1024, AccessKind::kLoad);
  const Cycles nostash_cost =
      nostash.Access(0, 0x40000, 1024, AccessKind::kLoad);
  EXPECT_LT(stash_cost, nostash_cost);
  // 16 lines at LLC (55) vs DRAM (229ish): ratio must be substantial.
  EXPECT_GT(static_cast<double>(nostash_cost) /
                static_cast<double>(stash_cost),
            2.0);
}

TEST(HierarchyTest, PrefetcherNarrowsTheStashGapOnLongStreams) {
  // Fig 9's "narrowing": with the prefetcher on, long linear scans converge
  // to similar cost with and without stashing.
  auto cfg = SmallHierarchy();
  cfg.prefetch.enabled = true;
  const std::uint64_t big = KiB(32);
  CacheHierarchy stash(cfg), nostash(cfg);
  stash.StashDeliver(0x80000, big);
  nostash.DramDeliver(0x80000, big);
  const auto stash_cost =
      static_cast<double>(stash.Access(0, 0x80000, big, AccessKind::kLoad));
  const auto nostash_cost = static_cast<double>(
      nostash.Access(0, 0x80000, big, AccessKind::kLoad));
  // Within 25% of each other once the stream is trained.
  EXPECT_LT(nostash_cost / stash_cost, 1.25);
}

TEST(HierarchyTest, MultiLineAccessChargesPerLine) {
  CacheHierarchy h(SmallHierarchy());
  // 256 bytes = 4 lines, all cold -> 4 DRAM accesses.
  h.Access(0, 0x50000, 256, AccessKind::kLoad);
  EXPECT_EQ(h.stats().dram_accesses, 4u);
  // Unaligned range straddling one extra line.
  h.ResetStats();
  h.Access(0, 0x60020, 64, AccessKind::kLoad);  // crosses 2 lines
  EXPECT_EQ(h.stats().TotalAccesses(), 2u);
}

TEST(HierarchyTest, AccessMatchesThePerLineWalk) {
  // Access returns a single-line L1 hit inline. A seeded stream of mixed
  // widths, cores and kinds must cost the same, count the same, and leave
  // the same lines at every level as the plain per-line walk; after this
  // many evictions, equal contents pin the LRU order too.
  HierarchyConfig cfg = SmallHierarchy();
  cfg.prefetch.enabled = true;
  CacheHierarchy fast(cfg);
  CacheHierarchy walk(cfg);
  constexpr mem::VirtAddr kBase = 0x40000;
  constexpr std::uint64_t kSpan = KiB(48);  // past L2, inside the LLC
  Xoshiro256 rng(0xACCE55);
  for (int i = 0; i < 50000; ++i) {
    const auto core = static_cast<std::uint32_t>(rng.NextBelow(cfg.cores));
    const mem::VirtAddr addr = kBase + rng.NextBelow(kSpan);
    const std::uint64_t size = rng.NextBelow(8) == 0
                                   ? 1 + rng.NextBelow(200)
                                   : 1ull << rng.NextBelow(4);
    const auto kind = static_cast<AccessKind>(rng.NextBelow(3));
    Cycles expected = 0;
    for (mem::VirtAddr a = addr & ~(kLine - 1); a < addr + size; a += kLine) {
      expected += walk.AccessLine(core, a, kind);
    }
    ASSERT_EQ(fast.Access(core, addr, size, kind), expected) << "step " << i;
  }
  const HierarchyStats& f = fast.stats();
  const HierarchyStats& w = walk.stats();
  EXPECT_EQ(f.l1_hits, w.l1_hits);
  EXPECT_EQ(f.l2_hits, w.l2_hits);
  EXPECT_EQ(f.l3_hits, w.l3_hits);
  EXPECT_EQ(f.llc_hits, w.llc_hits);
  EXPECT_EQ(f.prefetch_covered, w.prefetch_covered);
  EXPECT_EQ(f.dram_accesses, w.dram_accesses);
  EXPECT_GT(f.l1_hits, 0u);
  EXPECT_GT(f.dram_accesses, 0u);
  for (mem::VirtAddr a = kBase; a < kBase + kSpan + KiB(1); a += kLine) {
    for (std::uint32_t core = 0; core < cfg.cores; ++core) {
      ASSERT_EQ(fast.ProbeL1(core, a), walk.ProbeL1(core, a)) << a;
      ASSERT_EQ(fast.ProbeL2(core, a), walk.ProbeL2(core, a)) << a;
      ASSERT_EQ(fast.ProbeL3(core, a), walk.ProbeL3(core, a)) << a;
    }
    ASSERT_EQ(fast.ProbeLLC(a), walk.ProbeLLC(a)) << a;
  }
}

TEST(HierarchyTest, ZeroSizeAccessFree) {
  CacheHierarchy h(SmallHierarchy());
  EXPECT_EQ(h.Access(0, 0x1000, 0, AccessKind::kLoad), 0u);
  EXPECT_EQ(h.stats().TotalAccesses(), 0u);
}

TEST(HierarchyTest, DramContentionHookAddsCost) {
  CacheHierarchy h(SmallHierarchy());
  h.SetDramContentionHook([] { return Cycles{1000}; });
  HitLevel level;
  const Cycles cost = h.AccessLine(0, 0x90000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kDram);
  EXPECT_EQ(cost, kDramCycles + 1000);
  // LLC hits are immune to DRAM contention — the stashing tail-latency
  // mechanism of Figures 11/12.
  const Cycles again = h.AccessLine(0, 0x90000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kL1);
  EXPECT_EQ(again, 2u);
}

TEST(HierarchyTest, ClearColdStartsEverything) {
  CacheHierarchy h(SmallHierarchy());
  h.AccessLine(0, 0xA0000, AccessKind::kLoad);
  h.Clear();
  HitLevel level;
  h.AccessLine(0, 0xA0000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kDram);
}

TEST(HierarchyTest, PaperGeometryDramCycles) {
  // 88 ns at 2.6 GHz, rounded up to whole cycles.
  EXPECT_NEAR(static_cast<double>(kDramCycles), 88e-9 * 2.6e9, 2.0);
  EXPECT_EQ(kDramCycles, 229u);
}

TEST(HierarchyTest, StoreMissesBehaveLikeLoads) {
  CacheHierarchy h(SmallHierarchy());
  HitLevel level;
  h.AccessLine(0, 0xB0000, AccessKind::kStore, &level);
  EXPECT_EQ(level, HitLevel::kDram);  // write-allocate
  h.AccessLine(0, 0xB0000, AccessKind::kStore, &level);
  EXPECT_EQ(level, HitLevel::kL1);
}

// ------------------------------------------------------------- domains

constexpr mem::VirtAddr kDomain1Base = 0x100000;

/// 4 cores over 2 domains ({0,1} and {2,3}); addresses at or above
/// kDomain1Base home in domain 1.
HierarchyConfig DomainHierarchy() {
  HierarchyConfig cfg = SmallHierarchy();
  cfg.domains = 2;
  return cfg;
}

CacheHierarchy MakeDomainHierarchy(HierarchyConfig cfg = DomainHierarchy()) {
  CacheHierarchy h(cfg);
  h.SetDomainMapper(
      [](mem::VirtAddr a) { return a >= kDomain1Base ? 1u : 0u; });
  return h;
}

TEST(DomainHierarchyTest, DomainOfCoreBlocks) {
  HierarchyConfig cfg = DomainHierarchy();
  EXPECT_EQ(cfg.CoresPerDomain(), 2u);
  EXPECT_EQ(cfg.DomainOfCore(0), 0u);
  EXPECT_EQ(cfg.DomainOfCore(1), 0u);
  EXPECT_EQ(cfg.DomainOfCore(2), 1u);
  EXPECT_EQ(cfg.DomainOfCore(3), 1u);
  // Uneven split: ceil-sized blocks, the last domain takes the remainder.
  cfg.cores = 5;
  EXPECT_EQ(cfg.CoresPerDomain(), 3u);
  EXPECT_EQ(cfg.DomainOfCore(2), 0u);
  EXPECT_EQ(cfg.DomainOfCore(3), 1u);
  EXPECT_EQ(cfg.DomainOfCore(4), 1u);
}

TEST(DomainHierarchyTest, NonPowerOfTwoDomainCountKeepsSliceGeometry) {
  // A 3-domain split of the LLC must still give each slice a
  // power-of-two set count (CacheLevel's requirement): the slice rounds
  // down, and stash/probe/access still work against every domain.
  HierarchyConfig cfg = DomainHierarchy();
  cfg.cores = 6;
  cfg.domains = 3;
  CacheHierarchy h(cfg);
  h.SetDomainMapper([](mem::VirtAddr a) {
    return static_cast<std::uint32_t>(a / 0x100000);
  });
  for (std::uint32_t d = 0; d < 3; ++d) {
    const mem::VirtAddr addr = d * 0x100000ull + 0x40;
    h.StashDeliver(addr, 64);
    EXPECT_TRUE(h.ProbeLLC(addr)) << "domain " << d;
    HitLevel level;
    h.AccessLine(2 * d, addr, AccessKind::kLoad, &level);
    EXPECT_EQ(level, HitLevel::kLLC) << "domain " << d;
  }
}

TEST(DomainHierarchyTest, RemoteDramAccessPaysThePenalty) {
  CacheHierarchy h = MakeDomainHierarchy();
  HitLevel level;
  // Core 0 (domain 0) touches a line homed in domain 1: DRAM + hop.
  const Cycles cost = h.AccessLine(0, kDomain1Base, AccessKind::kLoad,
                                   &level);
  EXPECT_EQ(level, HitLevel::kDram);
  EXPECT_EQ(cost, kDramCycles + kRemotePenaltyCycles);
  EXPECT_EQ(h.stats().remote_accesses, 1u);
  EXPECT_EQ(h.stats().remote_penalty_cycles, kRemotePenaltyCycles);
  // The locally cached copy absorbs the hop: the next touch is a plain
  // L1 hit.
  const Cycles again = h.AccessLine(0, kDomain1Base, AccessKind::kLoad,
                                    &level);
  EXPECT_EQ(level, HitLevel::kL1);
  EXPECT_EQ(again, 2u);
  EXPECT_EQ(h.stats().remote_accesses, 1u);
}

TEST(DomainHierarchyTest, LocalDomainAccessPaysNoPenalty) {
  CacheHierarchy h = MakeDomainHierarchy();
  HitLevel level;
  // Core 2 lives in domain 1 — same-domain DRAM costs the plain latency.
  const Cycles cost = h.AccessLine(2, kDomain1Base, AccessKind::kLoad,
                                   &level);
  EXPECT_EQ(level, HitLevel::kDram);
  EXPECT_EQ(cost, kDramCycles);
  EXPECT_EQ(h.stats().remote_accesses, 0u);
}

TEST(DomainHierarchyTest, StashTargetsTheHomeDomainSlice) {
  CacheHierarchy h = MakeDomainHierarchy();
  h.StashDeliver(kDomain1Base, 128);
  EXPECT_TRUE(h.ProbeLLC(kDomain1Base));
  HitLevel level;
  // Domain-local core: plain LLC hit — the stash landed next to it.
  const Cycles local = h.AccessLine(2, kDomain1Base, AccessKind::kLoad,
                                    &level);
  EXPECT_EQ(level, HitLevel::kLLC);
  EXPECT_EQ(local, h.config().llc.hit_cycles);
  // Remote core reaching into the domain-1 slice: LLC hit + hop.
  const Cycles remote = h.AccessLine(0, kDomain1Base + 64,
                                     AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kLLC);
  EXPECT_EQ(remote, h.config().llc.hit_cycles + kRemotePenaltyCycles);
  EXPECT_EQ(h.stats().remote_accesses, 1u);
}

TEST(DomainHierarchyTest, ClusterCopyIsLocalWhateverTheHome) {
  CacheHierarchy h = MakeDomainHierarchy();
  // Core 0 pulls a domain-1 line (remote DRAM); its cluster sibling core
  // 1 then finds it in the shared L3 — a local copy, no penalty.
  h.AccessLine(0, kDomain1Base, AccessKind::kLoad);
  HitLevel level;
  const Cycles cost = h.AccessLine(1, kDomain1Base, AccessKind::kLoad,
                                   &level);
  EXPECT_EQ(level, HitLevel::kL3);
  EXPECT_EQ(cost, h.config().l3.hit_cycles);
  EXPECT_EQ(h.stats().remote_accesses, 1u);  // only core 0's DRAM pull
}

TEST(DomainHierarchyTest, DramDeliverEvictsTheHomeSlice) {
  CacheHierarchy h = MakeDomainHierarchy();
  h.StashDeliver(kDomain1Base, 64);
  ASSERT_TRUE(h.ProbeLLC(kDomain1Base));
  h.DramDeliver(kDomain1Base, 64);
  EXPECT_FALSE(h.ProbeLLC(kDomain1Base));
  HitLevel level;
  h.AccessLine(2, kDomain1Base, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kDram);
}

TEST(DomainHierarchyTest, SingleDomainNeverChargesThePenalty) {
  // domains=1 with a mapper that claims everything homes in domain 7:
  // the clamp pins it to slice 0 and no access is ever remote.
  CacheHierarchy h(SmallHierarchy());
  h.SetDomainMapper([](mem::VirtAddr) { return 7u; });
  HitLevel level;
  const Cycles cost = h.AccessLine(0, 0x40000, AccessKind::kLoad, &level);
  EXPECT_EQ(level, HitLevel::kDram);
  EXPECT_EQ(cost, kDramCycles);
  EXPECT_EQ(h.stats().remote_accesses, 0u);
}

TEST(DomainHierarchyTest, StashedDrainCheaperWhenDomainLocal) {
  // The fig17 mechanism in one assertion: draining a stash-delivered
  // buffer from the home domain's core beats draining it from across
  // the interconnect.
  CacheHierarchy local = MakeDomainHierarchy();
  CacheHierarchy remote = MakeDomainHierarchy();
  local.StashDeliver(kDomain1Base, 1024);
  remote.StashDeliver(kDomain1Base, 1024);
  const Cycles local_cost =
      local.Access(2, kDomain1Base, 1024, AccessKind::kLoad);
  const Cycles remote_cost =
      remote.Access(0, kDomain1Base, 1024, AccessKind::kLoad);
  EXPECT_LT(local_cost, remote_cost);
  EXPECT_EQ(remote_cost - local_cost,
            16 * kRemotePenaltyCycles);
}

}  // namespace
}  // namespace twochains::cache
