// A single set-associative, LRU cache level (tag array only — the simulator
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
  /// ways, or a size that is not a power-of-two number of sets of
  /// ways * kCacheLineBytes) is clamped to at least one way and the largest
  /// power-of-two set count that fits (at least one), with a warning.
  explicit CacheLevel(const LevelConfig& config);
  /// The tag array is one mapping with one owner: a move hands it over,
  /// and there is no copy.
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
    std::uint64_t* set = SetOf(key);
    if (set[0] == key) return true;
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
  void InsertAbsent(mem::VirtAddr addr) noexcept {
    const std::uint64_t key = KeyOf(addr);
    std::uint64_t* set = SetOf(key);
    // Shift everything down one way; LRU (last way) falls out, so only a
    // set with an empty way gains a line.
    population_ += set[ways_ - 1] == 0;
    for (std::uint32_t i = ways_ - 1; i > 0; --i) set[i] = set[i - 1];
    set[0] = key;
  }

  /// Drops the line containing @p addr if present. Returns true if dropped.
  /// An empty level returns at once.
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
  /// A way holds its line number plus one, so 0 marks an empty way and
  /// line 0 stays cacheable (a 64 B line number is below 2^58: no wrap).
  static std::uint64_t KeyOf(mem::VirtAddr addr) noexcept {
    return addr / kCacheLineBytes + 1;
  }
  std::uint64_t* SetOf(std::uint64_t key) const noexcept {
    return tags_ + ((key - 1) & (sets_ - 1)) * ways_;
  }
  std::size_t TagBytes() const noexcept {
    return std::size_t{sets_} * ways_ * sizeof(std::uint64_t);
  }

  /// Lookup's search of ways 1.. of @p set; a hit moves the line to the
  /// MRU way.
  bool LookupBehindMru(std::uint64_t key, std::uint64_t* set) noexcept;

  // 32 bytes in all (static_assert in the .cpp): every host holds one level
  // per core per private cache, so each byte here is paid many times.
  std::uint32_t ways_;
  std::uint32_t sets_;
  // Valid lines across every set, kept by InsertAbsent, Invalidate and
  // Clear; zero lets an invalidation skip the level.
  std::uint32_t population_ = 0;
  Cycles hit_cycles_;
  // Each set is a contiguous slice of `ways_` keys, most recently used
  // first, with its empty ways (0) at the end. A private anonymous mapping,
  // so at every size construction writes nothing, a set nothing touches
  // never faults its page in, and the pages go back at destruction. calloc
  // would serve an L1's 8 KiB from the heap: zero-filled on every reuse,
  // and in a process that builds fabric after fabric, heap and peak RSS
  // would grow with each one.
  std::uint64_t* tags_ = nullptr;
};

}  // namespace twochains::cache
