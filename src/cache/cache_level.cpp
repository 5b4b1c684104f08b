#include "cache/cache_level.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <new>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace twochains::cache {

CacheLevel::CacheLevel(const LevelConfig& config, std::uint64_t line_bytes)
    : line_shift_(Log2(line_bytes)),
      ways_(std::max<std::uint32_t>(config.ways, 1)),
      sets_(std::bit_floor(std::max<std::uint64_t>(
          config.size_bytes / (line_bytes * ways_), 1))),
      hit_cycles_(config.hit_cycles) {
  assert(IsPowerOfTwo(line_bytes));
  if (ways_ != config.ways || sets_ * ways_ * line_bytes != config.size_bytes) {
    TC_WARN << "cache: " << config.name << " (" << config.size_bytes
            << " B, " << config.ways << " ways of " << line_bytes
            << " B lines) is not a power-of-two number of sets; modeling "
            << sets_ << " sets x " << ways_ << " ways";
  }
  tags_.reset(static_cast<std::uint64_t*>(
      std::calloc(sets_ * ways_, sizeof(std::uint64_t))));
  if (!tags_) throw std::bad_alloc();
}

bool CacheLevel::LookupBehindMru(std::uint64_t key,
                                 std::uint64_t* set) noexcept {
  for (std::uint32_t w = 1; w < ways_; ++w) {
    if (set[w] == key) {
      // Move to MRU position (front of the set slice).
      for (std::uint32_t i = w; i > 0; --i) set[i] = set[i - 1];
      set[0] = key;
      return true;
    }
  }
  return false;
}

bool CacheLevel::Probe(mem::VirtAddr addr) const noexcept {
  const std::uint64_t key = KeyOf(addr);
  const std::uint64_t* set = SetOf(key);
  return std::find(set, set + ways_, key) != set + ways_;
}

bool CacheLevel::Invalidate(mem::VirtAddr addr) noexcept {
  const std::uint64_t key = KeyOf(addr);
  std::uint64_t* set = SetOf(key);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (set[w] == key) {
      // Compact the set so valid entries stay contiguous in LRU order.
      for (std::uint32_t i = w; i + 1 < ways_; ++i) set[i] = set[i + 1];
      set[ways_ - 1] = 0;
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
  std::memset(tags_.get(), 0, sets_ * ways_ * sizeof(std::uint64_t));
}

std::uint64_t CacheLevel::PopulationCount() const noexcept {
  return static_cast<std::uint64_t>(
      std::count_if(tags_.get(), tags_.get() + sets_ * ways_,
                    [](std::uint64_t key) { return key != 0; }));
}

}  // namespace twochains::cache
