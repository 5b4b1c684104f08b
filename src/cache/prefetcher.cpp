#include "cache/prefetcher.hpp"

namespace twochains::cache {

StreamPrefetcher::StreamPrefetcher(const PrefetcherConfig& config)
    : config_(config), streams_(kPrefetchStreams) {}

bool StreamPrefetcher::OnDemandMiss(mem::VirtAddr addr) noexcept {
  if (!config_.enabled) return false;
  const std::uint64_t line = addr / kCacheLineBytes;
  ++tick_;

  // Look for a stream expecting exactly this line.
  for (auto& s : streams_) {
    if (s.live && s.next_line == line) {
      s.run += 1;
      s.next_line = line + 1;
      s.lru = tick_;
      if (s.run == kPrefetchTrainMisses) ++trained_;
      if (s.run >= kPrefetchTrainMisses) {
        ++covered_;
        return true;  // prefetch engine ran ahead of the demand stream
      }
      return false;  // still warming up
    }
  }

  // New stream: replace the least recently used slot.
  Stream* victim = &streams_[0];
  for (auto& s : streams_) {
    if (!s.live) {
      victim = &s;
      break;
    }
    if (s.lru < victim->lru) victim = &s;
  }
  victim->live = true;
  victim->next_line = line + 1;
  victim->run = 1;
  victim->lru = tick_;
  return false;
}

void StreamPrefetcher::Reset() noexcept {
  for (auto& s : streams_) s.live = false;
  tick_ = 0;
}

}  // namespace twochains::cache
