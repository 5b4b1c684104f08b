// A single set-associative, LRU cache level (tag array only — the simulator
// keeps data in HostMemory; caches model *where* bytes live, not the bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/config.hpp"
#include "mem/address.hpp"

namespace twochains::cache {

class CacheLevel {
 public:
  /// @p line_bytes must be a power of two; size must be a multiple of
  /// ways*line_bytes.
  CacheLevel(const LevelConfig& config, std::uint64_t line_bytes);

  /// True (and LRU-updates) if the line containing @p addr is present.
  /// A hit on the MRU way returns inline: moving that line to the front is
  /// a no-op.
  bool Lookup(mem::VirtAddr addr) noexcept {
    const std::uint64_t line = LineOf(addr);
    const std::uint64_t base = SetOf(line) * ways_;
    if (valid_[base] && tags_[base] == line) return true;
    return LookupBehindMru(line, base);
  }

  /// Presence check without LRU side effects (for tests).
  bool Probe(mem::VirtAddr addr) const noexcept;

  /// Installs the line containing @p addr, evicting LRU if the set is full.
  void Insert(mem::VirtAddr addr) noexcept;

  /// Drops the line containing @p addr if present. Returns true if dropped.
  bool Invalidate(mem::VirtAddr addr) noexcept;

  /// Invalidates every line intersecting [addr, addr+size).
  void InvalidateRange(mem::VirtAddr addr, std::uint64_t size) noexcept;

  /// Drops everything (tests / benchmark cold-start).
  void Clear() noexcept;

  Cycles hit_cycles() const noexcept { return hit_cycles_; }
  std::uint64_t sets() const noexcept { return sets_; }
  std::uint32_t ways() const noexcept { return ways_; }

  /// Number of currently valid lines (tests).
  std::uint64_t PopulationCount() const noexcept;

 private:
  std::uint64_t LineOf(mem::VirtAddr addr) const noexcept {
    return addr >> line_shift_;
  }
  std::uint64_t SetOf(std::uint64_t line) const noexcept {
    return line & (sets_ - 1);
  }

  /// Lookup's search of ways 1.. of the set at @p base; a hit moves the
  /// line to the MRU way.
  bool LookupBehindMru(std::uint64_t line, std::uint64_t base) noexcept;

  // Each set is a contiguous slice of `ways_` entries in tags_/valid_,
  // ordered most-recently-used first.
  unsigned line_shift_;  // log2 of the line size
  std::uint64_t sets_;
  std::uint32_t ways_;
  Cycles hit_cycles_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> valid_;
};

}  // namespace twochains::cache
