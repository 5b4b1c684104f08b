#include "cache/cache_level.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <new>
#include <utility>

#include <sys/mman.h>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace twochains::cache {

static_assert(sizeof(CacheLevel) == 32,
              "a wider CacheLevel costs peak RSS (see the member comment)");

CacheLevel::CacheLevel(const LevelConfig& config)
    : ways_(std::max<std::uint32_t>(config.ways, 1)),
      sets_(static_cast<std::uint32_t>(std::bit_floor(std::clamp<std::uint64_t>(
          config.size_bytes / (kCacheLineBytes * ways_), 1,
          std::numeric_limits<std::uint32_t>::max())))),
      hit_cycles_(config.hit_cycles) {
  if (ways_ != config.ways ||
      std::uint64_t{sets_} * ways_ * kCacheLineBytes != config.size_bytes) {
    TC_WARN << "cache: " << config.name << " (" << config.size_bytes
            << " B, " << config.ways << " ways of " << kCacheLineBytes
            << " B lines) is not a power-of-two number of sets; modeling "
            << sets_ << " sets x " << ways_ << " ways";
  }
  void* tags = mmap(nullptr, TagBytes(), PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (tags == MAP_FAILED) throw std::bad_alloc();
  tags_ = static_cast<std::uint64_t*>(tags);
}

CacheLevel::CacheLevel(CacheLevel&& other) noexcept
    : ways_(other.ways_),
      sets_(other.sets_),
      population_(other.population_),
      hit_cycles_(other.hit_cycles_),
      tags_(std::exchange(other.tags_, nullptr)) {}

CacheLevel::~CacheLevel() {
  if (tags_ != nullptr) munmap(tags_, TagBytes());
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
  if (population_ == 0) return false;
  const std::uint64_t key = KeyOf(addr);
  std::uint64_t* set = SetOf(key);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (set[w] == key) {
      // Compact the set so valid entries stay contiguous in LRU order.
      for (std::uint32_t i = w; i + 1 < ways_; ++i) set[i] = set[i + 1];
      set[ways_ - 1] = 0;
      --population_;
      return true;
    }
  }
  return false;
}

void CacheLevel::InvalidateRange(mem::VirtAddr addr,
                                 std::uint64_t size) noexcept {
  if (size == 0) return;
  const std::uint64_t first = AlignDown(addr, kCacheLineBytes);
  const std::uint64_t last = AlignUp(addr + size, kCacheLineBytes);
  for (std::uint64_t a = first; a < last && population_ != 0;
       a += kCacheLineBytes) {
    Invalidate(a);
  }
}

void CacheLevel::Clear() noexcept {
  std::memset(tags_, 0, TagBytes());
  population_ = 0;
}

}  // namespace twochains::cache
