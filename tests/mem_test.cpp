// Unit tests for simulated host memory: allocation, permissions, CPU vs DMA
// access planes, and the RDMA region/rkey registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "mem/address.hpp"
#include "mem/host_memory.hpp"
#include "mem/region.hpp"

namespace twochains::mem {
namespace {

TEST(AddressTest, HostBasesAreDisjoint) {
  EXPECT_EQ(HostBase(0), 1ull << 40);
  EXPECT_EQ(HostBase(1), 2ull << 40);
  EXPECT_EQ(HostOfAddress(HostBase(0)), 0);
  EXPECT_EQ(HostOfAddress(HostBase(1) + 123), 1);
  EXPECT_EQ(HostOfAddress(100), -1);
}

TEST(AddressTest, PermStrings) {
  EXPECT_EQ(PermString(Perm::kNone), "---");
  EXPECT_EQ(PermString(Perm::kRead), "r--");
  EXPECT_EQ(PermString(Perm::kRW), "rw-");
  EXPECT_EQ(PermString(Perm::kRWX), "rwx");
  EXPECT_EQ(PermString(Perm::kRX), "r-x");
}

TEST(AddressTest, PermAlgebra) {
  EXPECT_TRUE(HasPerm(Perm::kRWX, Perm::kExec));
  EXPECT_TRUE(HasPerm(Perm::kRW, Perm::kRead));
  EXPECT_FALSE(HasPerm(Perm::kRW, Perm::kExec));
  EXPECT_FALSE(HasPerm(Perm::kNone, Perm::kRead));
  EXPECT_TRUE(HasPerm(Perm::kRead | Perm::kWrite, Perm::kRW));
}

class HostMemoryTest : public ::testing::Test {
 protected:
  HostMemory mem_{0, MiB(4)};
};

TEST_F(HostMemoryTest, ArenaGeometry) {
  EXPECT_EQ(mem_.base(), HostBase(0));
  EXPECT_EQ(mem_.size(), MiB(4));
  EXPECT_TRUE(mem_.Contains(mem_.base(), MiB(4)));
  EXPECT_FALSE(mem_.Contains(mem_.base(), MiB(4) + 1));
  EXPECT_FALSE(mem_.Contains(mem_.base() - 1, 1));
}

TEST_F(HostMemoryTest, AllocateAlignsAndGrantsPerms) {
  auto a = mem_.Allocate(100, 64, Perm::kRW, "buf");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a % kPageSize, 0u);  // page granular
  EXPECT_EQ(mem_.PagePerms(*a).value(), Perm::kRW);
  EXPECT_EQ(mem_.allocated_bytes(), 100u);
}

TEST_F(HostMemoryTest, AllocationsDoNotOverlap) {
  auto a = mem_.Allocate(KiB(8), 64, Perm::kRW, "a");
  auto b = mem_.Allocate(KiB(8), 64, Perm::kRW, "b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(*b, *a + KiB(8));
}

TEST_F(HostMemoryTest, ZeroSizeAllocationRejected) {
  EXPECT_EQ(mem_.Allocate(0, 8, Perm::kRW, "z").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(HostMemoryTest, NonPow2AlignmentRejected) {
  EXPECT_EQ(mem_.Allocate(64, 3, Perm::kRW, "z").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(HostMemoryTest, ExhaustionIsResourceExhausted) {
  auto a = mem_.Allocate(MiB(8), 64, Perm::kRW, "big");
  EXPECT_EQ(a.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(HostMemoryTest, FreeReleasesAndProtectsNone) {
  auto a = mem_.Allocate(KiB(4), 64, Perm::kRW, "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(mem_.Free(*a).ok());
  EXPECT_EQ(mem_.allocated_bytes(), 0u);
  EXPECT_EQ(mem_.PagePerms(*a).value(), Perm::kNone);
  EXPECT_EQ(mem_.Free(*a).code(), StatusCode::kNotFound);
}

TEST_F(HostMemoryTest, ReadWriteRoundTrip) {
  auto a = mem_.Allocate(256, 64, Perm::kRW, "rw");
  ASSERT_TRUE(a.ok());
  std::array<std::uint8_t, 4> data = {1, 2, 3, 4};
  ASSERT_TRUE(mem_.Write(*a, data).ok());
  std::array<std::uint8_t, 4> out{};
  ASSERT_TRUE(mem_.Read(*a, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(HostMemoryTest, TypedAccessors) {
  auto a = mem_.Allocate(64, 64, Perm::kRW, "t");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(mem_.StoreU64(*a, 0x1122334455667788ull).ok());
  EXPECT_EQ(mem_.LoadU64(*a).value(), 0x1122334455667788ull);
  EXPECT_EQ(mem_.LoadU32(*a).value(), 0x55667788u);   // little endian
  EXPECT_EQ(mem_.LoadU16(*a).value(), 0x7788u);
  EXPECT_EQ(mem_.LoadU8(*a).value(), 0x88u);
  ASSERT_TRUE(mem_.StoreU16(*a + 8, 0xBEEF).ok());
  EXPECT_EQ(mem_.LoadU16(*a + 8).value(), 0xBEEF);
}

TEST_F(HostMemoryTest, WriteToReadOnlyPageDenied) {
  auto a = mem_.Allocate(64, 64, Perm::kRead, "ro");
  ASSERT_TRUE(a.ok());
  std::array<std::uint8_t, 1> b = {9};
  EXPECT_EQ(mem_.Write(*a, b).code(), StatusCode::kPermissionDenied);
  std::array<std::uint8_t, 1> out{};
  EXPECT_TRUE(mem_.Read(*a, out).ok());
}

TEST_F(HostMemoryTest, ReadFromWriteOnlyDenied) {
  auto a = mem_.Allocate(64, 64, Perm::kWrite, "wo");
  ASSERT_TRUE(a.ok());
  std::array<std::uint8_t, 1> out{};
  EXPECT_EQ(mem_.Read(*a, out).code(), StatusCode::kPermissionDenied);
}

TEST_F(HostMemoryTest, ProtectFlipsPermissionsAtPageGranularity) {
  auto a = mem_.Allocate(2 * kPageSize, 64, Perm::kRW, "two-pages");
  ASSERT_TRUE(a.ok());
  // W^X split: first page stays RW, second becomes RX.
  ASSERT_TRUE(mem_.Protect(*a + kPageSize, kPageSize, Perm::kRX).ok());
  EXPECT_EQ(mem_.PagePerms(*a).value(), Perm::kRW);
  EXPECT_EQ(mem_.PagePerms(*a + kPageSize).value(), Perm::kRX);
  // A write spanning both pages must fail (second page not writable).
  std::array<std::uint8_t, 8> data{};
  EXPECT_EQ(mem_.Write(*a + kPageSize - 4, data).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(HostMemoryTest, CheckPermsExecPages) {
  auto a = mem_.Allocate(kPageSize, 64, Perm::kRX, "code");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(mem_.CheckPerms(*a, 100, Perm::kExec).ok());
  ASSERT_TRUE(mem_.Protect(*a, kPageSize, Perm::kRW).ok());
  EXPECT_EQ(mem_.CheckPerms(*a, 100, Perm::kExec).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(HostMemoryTest, OutOfRangeAccess) {
  std::array<std::uint8_t, 16> out{};
  EXPECT_EQ(mem_.Read(mem_.base() + mem_.size() - 8, out).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(mem_.Read(HostBase(3), out).code(), StatusCode::kOutOfRange);
}

TEST_F(HostMemoryTest, DmaBypassesPagePermissions) {
  // DMA plane models the HCA writing registered memory: page perms do not
  // apply (rkey validation guards that path instead).
  auto a = mem_.Allocate(64, 64, Perm::kRead, "dma-target");
  ASSERT_TRUE(a.ok());
  std::array<std::uint8_t, 4> data = {7, 7, 7, 7};
  EXPECT_TRUE(mem_.DmaWrite(*a, data).ok());
  std::array<std::uint8_t, 4> out{};
  EXPECT_TRUE(mem_.DmaRead(*a, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(HostMemoryTest, DmaStillBoundsChecked) {
  std::array<std::uint8_t, 8> buf{};
  EXPECT_EQ(mem_.DmaWrite(mem_.base() + mem_.size(), buf).code(),
            StatusCode::kOutOfRange);
}

TEST_F(HostMemoryTest, RawSpanViewsArena) {
  auto a = mem_.Allocate(64, 64, Perm::kRW, "raw");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(mem_.StoreU8(*a, 0x5A).ok());
  auto span = mem_.RawSpan(*a, 8);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ((*span)[0], 0x5A);
}

// ---------------------------------------------------------------- domains

class DomainMemoryTest : public ::testing::Test {
 protected:
  // 4 MiB arena split into two 2 MiB domain slices.
  static constexpr std::uint64_t kSpan = MiB(2);
  HostMemory mem_{0, MiB(4), 2};

  /// Fills [addr, addr+size) with a non-zero pattern.
  void Scribble(VirtAddr addr, std::uint64_t size) {
    const std::vector<std::uint8_t> pattern(size, 0xA5);
    ASSERT_TRUE(mem_.Write(addr, pattern).ok());
  }

  /// True when every byte of [addr, addr+size) reads zero.
  bool ReadsZero(VirtAddr addr, std::uint64_t size) const {
    std::vector<std::uint8_t> out(size, 0xFF);
    return mem_.Read(addr, out).ok() &&
           std::all_of(out.begin(), out.end(),
                       [](std::uint8_t b) { return b == 0; });
  }
};

TEST_F(DomainMemoryTest, GeometryAndDomainOfBoundaries) {
  EXPECT_EQ(mem_.domains(), 2u);
  EXPECT_EQ(mem_.domain_span(), kSpan);
  // Exact boundary addresses: the last byte of domain 0, the first of
  // domain 1, and the clamp past the arena end.
  EXPECT_EQ(mem_.DomainOf(mem_.base()), 0u);
  EXPECT_EQ(mem_.DomainOf(mem_.base() + kSpan - 1), 0u);
  EXPECT_EQ(mem_.DomainOf(mem_.base() + kSpan), 1u);
  EXPECT_EQ(mem_.DomainOf(mem_.base() + MiB(4) - 1), 1u);
  EXPECT_EQ(mem_.DomainOf(mem_.base() + MiB(64)), 1u);  // clamps to last
  EXPECT_EQ(mem_.DomainOf(0), 0u);                      // below the arena
}

TEST_F(DomainMemoryTest, NonPowerOfTwoDomainCountKeepsSlicesPageAligned) {
  // 3 domains over an 8 KiB request: each slice rounds up to whole pages
  // independently, so boundaries stay page-aligned and every domain can
  // serve at least one page.
  HostMemory mem(2, KiB(8), 3);
  EXPECT_EQ(mem.domains(), 3u);
  EXPECT_EQ(mem.domain_span() % kPageSize, 0u);
  EXPECT_EQ(mem.size(), 3 * mem.domain_span());
  for (DomainId d = 0; d < 3; ++d) {
    auto a = mem.Allocate(KiB(4), 64, Perm::kRW, "page", d);
    ASSERT_TRUE(a.ok()) << "domain " << d;
    EXPECT_EQ(mem.DomainOf(*a), d);
  }
}

TEST_F(DomainMemoryTest, FreshArenaReadsZeroAtEveryDomainEdge) {
  // The arena is lazily zeroed, never filled at construction; the first
  // and last page of every domain slice must still read as zeros.
  HostMemory mem(3, MiB(3) + 100, 3);
  std::vector<std::uint8_t> page(kPageSize);
  for (DomainId d = 0; d < mem.domains(); ++d) {
    const VirtAddr first = mem.base() + d * mem.domain_span();
    const VirtAddr last = first + mem.domain_span() - kPageSize;
    for (const VirtAddr p : {first, last}) {
      page.assign(kPageSize, 0xFF);
      ASSERT_TRUE(mem.DmaRead(p, page).ok());
      EXPECT_EQ(std::count(page.begin(), page.end(), 0),
                static_cast<std::ptrdiff_t>(kPageSize))
          << "domain " << d << " page 0x" << std::hex << p;
    }
  }
}

TEST_F(DomainMemoryTest, SingleDomainDegeneratesToFlatArena) {
  HostMemory flat(1, MiB(4));
  EXPECT_EQ(flat.domains(), 1u);
  EXPECT_EQ(flat.DomainOf(flat.base() + MiB(3)), 0u);
  auto a = flat.Allocate(KiB(4), 64, Perm::kRW, "flat");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, flat.base());
}

TEST_F(DomainMemoryTest, AllocateHonorsHintAndAlignsWithinDomain) {
  auto a = mem_.Allocate(100, 256, Perm::kRW, "d1", /*domain_hint=*/1);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(mem_.DomainOf(*a), 1u);
  EXPECT_EQ(*a % kPageSize, 0u);  // page granular
  EXPECT_EQ(*a % 256, 0u);       // requested alignment
  EXPECT_GE(*a, mem_.base() + kSpan);
  // Large alignment is honored inside the hinted slice too.
  auto b = mem_.Allocate(100, KiB(64), Perm::kRW, "d1-big-align", 1);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(mem_.DomainOf(*b), 1u);
  EXPECT_EQ(*b % KiB(64), 0u);
}

TEST_F(DomainMemoryTest, OversizedHintClampsToLastDomain) {
  auto a = mem_.Allocate(KiB(4), 64, Perm::kRW, "clamped", 99);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(mem_.DomainOf(*a), 1u);
}

TEST_F(DomainMemoryTest, SpillsToNeighborOnExhaustion) {
  // Fill domain 0 completely, then hint at it again: the allocation must
  // land in domain 1 instead of failing.
  auto fill = mem_.Allocate(kSpan, 64, Perm::kRW, "fill-d0", 0);
  ASSERT_TRUE(fill.ok());
  EXPECT_EQ(mem_.DomainOf(*fill), 0u);
  auto spill = mem_.Allocate(KiB(8), 64, Perm::kRW, "spill", 0);
  ASSERT_TRUE(spill.ok());
  EXPECT_EQ(mem_.DomainOf(*spill), 1u);
  // Both slices full -> exhaustion, however the hint points.
  auto fill1 = mem_.Allocate(kSpan - KiB(8), 64, Perm::kRW, "fill-d1", 1);
  ASSERT_TRUE(fill1.ok());
  EXPECT_EQ(mem_.Allocate(KiB(4), 64, Perm::kRW, "none", 0).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(DomainMemoryTest, FreeRestoresTheDomainFreeList) {
  // A full alloc/free cycle restores the slice: the next same-sized
  // allocation in that domain reuses the released pages, which folded
  // back into the bump region and read as zero again.
  auto a = mem_.Allocate(KiB(8), 64, Perm::kRW, "a", 1);
  ASSERT_TRUE(a.ok());
  Scribble(*a, KiB(8));
  ASSERT_TRUE(mem_.Free(*a).ok());
  auto b = mem_.Allocate(KiB(8), 64, Perm::kRW, "b", 1);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);
  EXPECT_EQ(mem_.DomainOf(*b), 1u);
  EXPECT_TRUE(ReadsZero(*b, KiB(8)));
}

TEST_F(DomainMemoryTest, FreeListReusesInteriorHoles) {
  // a | b | c packed in domain 0; freeing b leaves an interior hole that
  // a same-sized allocation must reuse (first fit), without touching the
  // neighbours.
  auto a = mem_.Allocate(KiB(4), 64, Perm::kRW, "a", 0);
  auto b = mem_.Allocate(KiB(8), 64, Perm::kRW, "b", 0);
  auto c = mem_.Allocate(KiB(4), 64, Perm::kRW, "c", 0);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  Scribble(*b, KiB(8));
  ASSERT_TRUE(mem_.Free(*b).ok());
  auto again = mem_.Allocate(KiB(8), 64, Perm::kRW, "b2", 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *b);
  EXPECT_TRUE(ReadsZero(*again, KiB(8)));  // the hole came back zeroed
  // The hole only fits page-granular sizes up to the freed span: a larger
  // request must come from fresh pages past c.
  ASSERT_TRUE(mem_.Free(*again).ok());
  auto bigger = mem_.Allocate(KiB(16), 64, Perm::kRW, "bigger", 0);
  ASSERT_TRUE(bigger.ok());
  EXPECT_GT(*bigger, *c);
}

TEST_F(DomainMemoryTest, FreeCoalescesAdjacentRuns) {
  // Free two adjacent blocks in either order; a request spanning both
  // must fit in the coalesced run.
  auto a = mem_.Allocate(KiB(4), 64, Perm::kRW, "a", 0);
  auto b = mem_.Allocate(KiB(4), 64, Perm::kRW, "b", 0);
  auto c = mem_.Allocate(KiB(4), 64, Perm::kRW, "c", 0);  // pins the bump
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(mem_.Free(*a).ok());
  ASSERT_TRUE(mem_.Free(*b).ok());
  auto merged = mem_.Allocate(KiB(8), 64, Perm::kRW, "merged", 0);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, *a);
}

TEST_F(DomainMemoryTest, SpilledAllocationFreesBackToItsRealDomain) {
  // An allocation that spilled into domain 1 returns to *domain 1's*
  // free list, not the hinted domain's.
  auto fill = mem_.Allocate(kSpan, 64, Perm::kRW, "fill-d0", 0);
  ASSERT_TRUE(fill.ok());
  auto spill = mem_.Allocate(KiB(8), 64, Perm::kRW, "spill", 0);
  ASSERT_TRUE(spill.ok());
  ASSERT_EQ(mem_.DomainOf(*spill), 1u);
  ASSERT_TRUE(mem_.Free(*spill).ok());
  auto d1 = mem_.Allocate(KiB(8), 64, Perm::kRW, "d1", 1);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(*d1, *spill);
}

TEST_F(DomainMemoryTest, PermissionsSurviveTheDomainPlane) {
  // Perms still apply per page regardless of which domain served the
  // allocation.
  auto a = mem_.Allocate(64, 64, Perm::kRead, "ro-d1", 1);
  ASSERT_TRUE(a.ok());
  std::array<std::uint8_t, 1> buf = {1};
  EXPECT_EQ(mem_.Write(*a, buf).code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(mem_.Free(*a).ok());
  EXPECT_EQ(mem_.PagePerms(*a).value(), Perm::kNone);
}

// ---------------------------------------------------------------- regions

class RegionTest : public ::testing::Test {
 protected:
  RegionRegistry reg_;
  static constexpr VirtAddr kBase = 0x1000;
};

TEST_F(RegionTest, RegisterAndValidate) {
  auto key = reg_.RegisterRegion(kBase, 4096, RemoteAccess::kWrite, "mbox");
  ASSERT_TRUE(key.ok());
  EXPECT_NE(key->value, 0u);
  EXPECT_TRUE(reg_.Validate(*key, kBase + 100, 64, RemoteAccess::kWrite).ok());
}

TEST_F(RegionTest, InvalidKeyRejected) {
  auto key = reg_.RegisterRegion(kBase, 4096, RemoteAccess::kWrite, "mbox");
  ASSERT_TRUE(key.ok());
  RKey bogus{key->value ^ 0xFFFF};
  EXPECT_EQ(reg_.Validate(bogus, kBase, 64, RemoteAccess::kWrite).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(RegionTest, RangeMustBeFullyCovered) {
  auto key = reg_.RegisterRegion(kBase, 4096, RemoteAccess::kWrite, "mbox");
  ASSERT_TRUE(key.ok());
  EXPECT_FALSE(reg_.Validate(*key, kBase + 4000, 200, RemoteAccess::kWrite)
                   .ok());  // runs past the end
  EXPECT_FALSE(
      reg_.Validate(*key, kBase - 8, 16, RemoteAccess::kWrite).ok());
}

TEST_F(RegionTest, AccessClassEnforced) {
  auto key = reg_.RegisterRegion(kBase, 4096, RemoteAccess::kRead, "ro");
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(reg_.Validate(*key, kBase, 64, RemoteAccess::kRead).ok());
  EXPECT_EQ(reg_.Validate(*key, kBase, 64, RemoteAccess::kWrite).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(RegionTest, CombinedAccessClasses) {
  auto key = reg_.RegisterRegion(
      kBase, 4096, RemoteAccess::kRead | RemoteAccess::kWrite, "rw");
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(reg_.Validate(*key, kBase, 64, RemoteAccess::kRead).ok());
  EXPECT_TRUE(reg_.Validate(*key, kBase, 64, RemoteAccess::kWrite).ok());
  EXPECT_FALSE(reg_.Validate(*key, kBase, 64, RemoteAccess::kAtomic).ok());
}

TEST_F(RegionTest, ExecutableAccessClassExtension) {
  // §V of the paper proposes extending IBTA with an executable permission;
  // the registry supports it as a first-class access class.
  auto key = reg_.RegisterRegion(kBase, 4096,
                                 RemoteAccess::kWrite | RemoteAccess::kExec,
                                 "injectable");
  ASSERT_TRUE(key.ok());
  EXPECT_TRUE(reg_.Validate(*key, kBase, 64, RemoteAccess::kExec).ok());
}

TEST_F(RegionTest, DeregisterInvalidates) {
  auto key = reg_.RegisterRegion(kBase, 4096, RemoteAccess::kWrite, "mbox");
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(reg_.Deregister(*key).ok());
  EXPECT_EQ(reg_.Validate(*key, kBase, 64, RemoteAccess::kWrite).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(reg_.Deregister(*key).code(), StatusCode::kNotFound);
  EXPECT_EQ(reg_.LiveRegions(), 0u);
}

TEST_F(RegionTest, KeysAreUniquePerRegistration) {
  // Same address + permissions registered repeatedly must yield distinct
  // keys (the serial mixes in), so a stale key from a prior registration
  // cannot authorize access to a new one.
  auto k1 = reg_.RegisterRegion(kBase, 4096, RemoteAccess::kWrite, "a");
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(reg_.Deregister(*k1).ok());
  auto k2 = reg_.RegisterRegion(kBase, 4096, RemoteAccess::kWrite, "b");
  ASSERT_TRUE(k2.ok());
  EXPECT_NE(k1->value, k2->value);
  EXPECT_FALSE(reg_.Validate(*k1, kBase, 64, RemoteAccess::kWrite).ok());
}

TEST_F(RegionTest, ZeroSizeRegionRejected) {
  EXPECT_EQ(
      reg_.RegisterRegion(kBase, 0, RemoteAccess::kRead, "z").status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace twochains::mem
