#include "cache/cache_level.hpp"

#include <cassert>

#include "common/bitops.hpp"

namespace twochains::cache {

CacheLevel::CacheLevel(const LevelConfig& config, std::uint64_t line_bytes)
    : line_shift_(Log2(line_bytes)),
      sets_(config.size_bytes / (line_bytes * config.ways)),
      ways_(config.ways),
      hit_cycles_(config.hit_cycles),
      tags_(sets_ * ways_, 0),
      valid_(sets_ * ways_, 0) {
  assert(IsPowerOfTwo(line_bytes));
  assert(IsPowerOfTwo(sets_) && "size/(line*ways) must be a power of two");
}

bool CacheLevel::LookupBehindMru(std::uint64_t line,
                                 std::uint64_t base) noexcept {
  for (std::uint32_t w = 1; w < ways_; ++w) {
    if (valid_[base + w] && tags_[base + w] == line) {
      // Move to MRU position (front of the set slice).
      for (std::uint32_t i = w; i > 0; --i) {
        tags_[base + i] = tags_[base + i - 1];
        valid_[base + i] = valid_[base + i - 1];
      }
      tags_[base] = line;
      valid_[base] = 1;
      return true;
    }
  }
  return false;
}

bool CacheLevel::Probe(mem::VirtAddr addr) const noexcept {
  const std::uint64_t line = LineOf(addr);
  const std::uint64_t base = SetOf(line) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (valid_[base + w] && tags_[base + w] == line) return true;
  }
  return false;
}

void CacheLevel::Insert(mem::VirtAddr addr) noexcept {
  const std::uint64_t line = LineOf(addr);
  const std::uint64_t base = SetOf(line) * ways_;
  // Already present: refresh LRU only.
  if (Lookup(addr)) return;
  // Shift everything down one way; LRU (last way) falls out.
  for (std::uint32_t i = ways_ - 1; i > 0; --i) {
    tags_[base + i] = tags_[base + i - 1];
    valid_[base + i] = valid_[base + i - 1];
  }
  tags_[base] = line;
  valid_[base] = 1;
}

bool CacheLevel::Invalidate(mem::VirtAddr addr) noexcept {
  const std::uint64_t line = LineOf(addr);
  const std::uint64_t base = SetOf(line) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (valid_[base + w] && tags_[base + w] == line) {
      // Compact the set so valid entries stay contiguous in LRU order.
      for (std::uint32_t i = w; i + 1 < ways_; ++i) {
        tags_[base + i] = tags_[base + i + 1];
        valid_[base + i] = valid_[base + i + 1];
      }
      valid_[base + ways_ - 1] = 0;
      return true;
    }
  }
  return false;
}

void CacheLevel::InvalidateRange(mem::VirtAddr addr,
                                 std::uint64_t size) noexcept {
  if (size == 0) return;
  const std::uint64_t line_bytes = 1ull << line_shift_;
  const std::uint64_t first = AlignDown(addr, line_bytes);
  const std::uint64_t last = AlignUp(addr + size, line_bytes);
  for (std::uint64_t a = first; a < last; a += line_bytes) Invalidate(a);
}

void CacheLevel::Clear() noexcept {
  std::fill(valid_.begin(), valid_.end(), 0);
}

std::uint64_t CacheLevel::PopulationCount() const noexcept {
  std::uint64_t n = 0;
  for (const auto v : valid_) n += v;
  return n;
}

}  // namespace twochains::cache
