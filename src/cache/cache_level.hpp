// A single set-associative, LRU cache level (tags only — the simulator
// keeps data in HostMemory; caches model *where* bytes live, not the bytes).
#pragma once

#include <cstddef>
#include <cstdint>

#include "cache/config.hpp"
#include "mem/address.hpp"

namespace twochains::cache {

class CacheLevel {
 public:
  /// Lines are kCacheLineBytes. A geometry the level cannot model (no
  /// ways, more than 65536 ways, or a size that is not a power-of-two
  /// number of sets of ways * kCacheLineBytes) is clamped to 1..65536 ways
  /// and the largest power-of-two set count that fits (at least one), with
  /// a warning. A level needing 2^32 - 1 or more pool keys (a cache of
  /// about 256 GiB) throws std::bad_alloc.
  explicit CacheLevel(const LevelConfig& config);
  /// The tags are one mapping with one owner: a move hands it over, and
  /// there is no copy.
  CacheLevel(CacheLevel&& other) noexcept;
  CacheLevel& operator=(CacheLevel&&) = delete;
  CacheLevel(const CacheLevel&) = delete;
  CacheLevel& operator=(const CacheLevel&) = delete;
  ~CacheLevel();

  /// True (and LRU-updates) if the line containing @p addr is present.
  /// A hit on the MRU way returns inline: moving that line to the front is
  /// a no-op.
  bool Lookup(mem::VirtAddr addr) noexcept {
    const std::uint64_t key = KeyOf(addr);
    SetHead& set = SetOf(key);
    if (set.mru == key) return true;
    return LookupBehindMru(key, set);
  }

  /// Presence check without LRU side effects (for tests).
  bool Probe(mem::VirtAddr addr) const noexcept;

  /// Installs the line containing @p addr, evicting LRU if the set is full.
  void Insert(mem::VirtAddr addr) noexcept {
    if (!Lookup(addr)) InsertAbsent(addr);
  }

  /// Insert for a line the caller knows is absent (its Lookup just missed
  /// and nothing touched this level since): installs it at MRU without
  /// searching the set again.
  void InsertAbsent(mem::VirtAddr addr) noexcept;

  /// Drops the line containing @p addr if present. Returns true if dropped.
  /// An empty level returns at once, and so does an empty set.
  bool Invalidate(mem::VirtAddr addr) noexcept;

  /// Invalidates every line intersecting [addr, addr+size). An empty level
  /// returns at once.
  void InvalidateRange(mem::VirtAddr addr, std::uint64_t size) noexcept;

  /// Drops everything (tests / benchmark cold-start).
  void Clear() noexcept;

  Cycles hit_cycles() const noexcept { return hit_cycles_; }
  std::uint64_t sets() const noexcept { return sets_; }
  std::uint32_t ways() const noexcept { return ways_; }

  /// Number of currently valid lines.
  std::uint64_t PopulationCount() const noexcept { return population_; }

 private:
  /// One set. The MRU line's key sits in the head itself, so an MRU hit
  /// is one load and compare and an empty set (mru 0) answers in one load.
  /// When the set first holds a second line it is given a block of the
  /// level's pool for ways 1..: min(ways - 1, 3) keys, grown once to
  /// ways - 1, most recent first with the valid keys in front. A set keeps
  /// its block until Clear, however many lines it later drops.
  struct SetHead {
    std::uint64_t mru;        // key of the MRU line; 0 = the set is empty
    std::uint32_t block;      // pool index of the block's first key
    std::uint16_t behind;     // valid keys in the block (lines - 1, or 0)
    std::uint16_t capacity;   // keys the block holds; 0 = no block yet
  };

  /// A way holds its line number plus one, so 0 marks an empty way and
  /// line 0 stays cacheable (a 64 B line number is below 2^58: no wrap).
  static std::uint64_t KeyOf(mem::VirtAddr addr) noexcept {
    return addr / kCacheLineBytes + 1;
  }
  SetHead& SetOf(std::uint64_t key) const noexcept {
    return heads_[(key - 1) & (sets_ - 1)];
  }
  /// Pool keys the level can hand out at most (see the .cpp).
  std::size_t PoolKeys() const noexcept;
  std::size_t MapBytes() const noexcept {
    return std::size_t{sets_} * sizeof(SetHead) +
           PoolKeys() * sizeof(std::uint64_t);
  }

  /// Lookup's search of @p set's block; a hit moves the line to the head.
  bool LookupBehindMru(std::uint64_t key, SetHead& set) noexcept;
  /// Gives @p set its first block, or moves its keys to a full-size one.
  void GrowBlock(SetHead& set) noexcept;

  // 48 bytes in all (static_assert in the .cpp): every host holds one level
  // per core per private cache, so each byte here is paid many times.
  std::uint32_t ways_;
  std::uint32_t sets_;
  // Valid lines across every set, kept by InsertAbsent, Invalidate and
  // Clear; zero lets an invalidation skip the level.
  std::uint32_t population_ = 0;
  // Pool keys carved so far: blocks are handed out in the order sets first
  // need them, so the pool's touched pages follow the lines held, not the
  // sets touched.
  std::uint32_t pool_top_ = 0;
  // First-size blocks given back when their set grew, linked through each
  // one's first key; kNoBlock ends the list.
  std::uint32_t free_blocks_;
  Cycles hit_cycles_;
  // One private anonymous mapping: sets_ heads, then the pool. At every
  // size construction writes nothing, a page nothing touches is never
  // faulted in, and the pages go back at destruction. calloc would serve
  // an L1's tags from the heap: zero-filled on every reuse, and in a
  // process that builds fabric after fabric, heap and peak RSS would grow
  // with each one.
  SetHead* heads_ = nullptr;
  std::uint64_t* pool_ = nullptr;
};

}  // namespace twochains::cache
