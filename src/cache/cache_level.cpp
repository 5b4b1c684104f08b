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

static_assert(sizeof(CacheLevel) == 48,
              "a wider CacheLevel costs peak RSS (see the member comment)");

namespace {

/// Keys of a set's first block: with the head, room for four lines.
constexpr std::uint32_t kFirstBlockKeys = 3;
/// SetHead::behind and SetHead::capacity are 16-bit.
constexpr std::uint32_t kMaxWays = std::uint32_t{1} << 16;
/// Ends the free list (never a pool index: the pool has fewer keys).
constexpr std::uint32_t kNoBlock = std::numeric_limits<std::uint32_t>::max();

}  // namespace

CacheLevel::CacheLevel(const LevelConfig& config)
    : ways_(std::clamp<std::uint32_t>(config.ways, 1, kMaxWays)),
      sets_(static_cast<std::uint32_t>(std::bit_floor(std::clamp<std::uint64_t>(
          config.size_bytes / (kCacheLineBytes * ways_), 1,
          std::numeric_limits<std::uint32_t>::max())))),
      free_blocks_(kNoBlock),
      hit_cycles_(config.hit_cycles) {
  if (ways_ != config.ways ||
      std::uint64_t{sets_} * ways_ * kCacheLineBytes != config.size_bytes) {
    TC_WARN << "cache: " << config.name << " (" << config.size_bytes
            << " B, " << config.ways << " ways of " << kCacheLineBytes
            << " B lines) is not a power-of-two number of sets; modeling "
            << sets_ << " sets x " << ways_ << " ways";
  }
  if (PoolKeys() >= kNoBlock) throw std::bad_alloc();
  void* map = mmap(nullptr, MapBytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  heads_ = static_cast<SetHead*>(map);
  pool_ = reinterpret_cast<std::uint64_t*>(static_cast<char*>(map) +
                                           std::size_t{sets_} * sizeof(SetHead));
}

CacheLevel::CacheLevel(CacheLevel&& other) noexcept
    : ways_(other.ways_),
      sets_(other.sets_),
      population_(other.population_),
      pool_top_(other.pool_top_),
      free_blocks_(other.free_blocks_),
      hit_cycles_(other.hit_cycles_),
      heads_(std::exchange(other.heads_, nullptr)),
      pool_(other.pool_) {}

CacheLevel::~CacheLevel() {
  if (heads_ != nullptr) munmap(heads_, MapBytes());
}

std::size_t CacheLevel::PoolKeys() const noexcept {
  // Until Clear a set asks for a first-size block once and for a full-size
  // one once, so at most one of each per set is ever carved. (A first-size
  // block its set outgrew goes to the free list, where the next set that
  // asks takes it before the pool is carved further.)
  const std::uint32_t full = ways_ - 1;
  const std::uint32_t first = std::min(full, kFirstBlockKeys);
  return std::size_t{sets_} * (first + (full > first ? full : 0));
}

void CacheLevel::GrowBlock(SetHead& set) noexcept {
  const std::uint32_t full = ways_ - 1;
  const std::uint32_t size =
      set.capacity == 0 ? std::min(full, kFirstBlockKeys) : full;
  std::uint32_t block;
  if (set.capacity == 0 && free_blocks_ != kNoBlock) {
    block = free_blocks_;
    free_blocks_ = static_cast<std::uint32_t>(pool_[block]);
  } else {
    block = pool_top_;
    pool_top_ += size;
  }
  if (set.capacity != 0) {
    std::copy_n(pool_ + set.block, set.behind, pool_ + block);
    pool_[set.block] = free_blocks_;
    free_blocks_ = set.block;
  }
  set.block = block;
  set.capacity = static_cast<std::uint16_t>(size);
}

void CacheLevel::InsertAbsent(mem::VirtAddr addr) noexcept {
  const std::uint64_t key = KeyOf(addr);
  SetHead& set = SetOf(key);
  const std::uint64_t demoted = std::exchange(set.mru, key);
  if (demoted == 0) {  // the set was empty
    ++population_;
    return;
  }
  if (ways_ == 1) return;  // the old line falls out
  if (set.behind == set.capacity && set.capacity < ways_ - 1) GrowBlock(set);
  // The old MRU line goes to the block's front and every valid key moves
  // back one; in a full set the last (LRU) key falls out.
  std::uint64_t* block = pool_ + set.block;
  const bool full = set.behind == set.capacity;
  std::copy_backward(block, block + set.behind - full,
                     block + set.behind + !full);
  block[0] = demoted;
  if (!full) {
    ++set.behind;
    ++population_;
  }
}

bool CacheLevel::LookupBehindMru(std::uint64_t key, SetHead& set) noexcept {
  std::uint64_t* block = pool_ + set.block;
  std::uint64_t* const hit = std::find(block, block + set.behind, key);
  if (hit == block + set.behind) return false;
  // The hit goes to the head; the old MRU line and the keys ahead of the
  // hit move back one.
  std::copy_backward(block, hit, hit + 1);
  block[0] = set.mru;
  set.mru = key;
  return true;
}

bool CacheLevel::Probe(mem::VirtAddr addr) const noexcept {
  const std::uint64_t key = KeyOf(addr);
  const SetHead& set = SetOf(key);
  const std::uint64_t* block = pool_ + set.block;
  return set.mru == key ||
         std::find(block, block + set.behind, key) != block + set.behind;
}

bool CacheLevel::Invalidate(mem::VirtAddr addr) noexcept {
  if (population_ == 0) return false;
  const std::uint64_t key = KeyOf(addr);
  SetHead& set = SetOf(key);
  std::uint64_t* block = pool_ + set.block;
  std::uint64_t* const end = block + set.behind;
  std::uint64_t* hole;  // the block key that leaves
  if (set.mru == key) {
    if (set.behind == 0) {
      set.mru = 0;
      --population_;
      return true;
    }
    set.mru = block[0];  // the next most recent line moves to the head
    hole = block;
  } else {
    hole = std::find(block, end, key);
    if (hole == end) return false;
  }
  // Close the gap so the valid keys stay in front, in LRU order.
  std::copy(hole + 1, end, hole);
  --set.behind;
  --population_;
  return true;
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
  std::memset(heads_, 0, std::size_t{sets_} * sizeof(SetHead));
  pool_top_ = 0;
  free_blocks_ = kNoBlock;
  population_ = 0;
}

}  // namespace twochains::cache
