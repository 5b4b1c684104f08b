// Per-core stream prefetcher model.
//
// Detects runs of consecutive-line demand misses, tracking up to
// kPrefetchStreams streams. Once a stream has seen kPrefetchTrainMisses
// consecutive lines, subsequent accesses on the stream are "covered": the
// prefetch engine fetched them ahead of use, so the demand access pays only
// the covered cost instead of LLC/DRAM latency. This is the mechanism
// behind the paper's observation that the stash/non-stash latency gap
// narrows "once the message size is large enough to trigger the
// prefetcher" (§VII-B).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/config.hpp"
#include "mem/address.hpp"

namespace twochains::cache {

class StreamPrefetcher {
 public:
  explicit StreamPrefetcher(const PrefetcherConfig& config);

  /// Reports an L2 demand miss on the line containing @p addr. Returns true
  /// if a trained stream covers this line (the fill was prefetched). Always
  /// updates training state.
  bool OnDemandMiss(mem::VirtAddr addr) noexcept;

  /// Forgets all streams (context switch / new message region).
  void Reset() noexcept;

  std::uint64_t covered_count() const noexcept { return covered_; }
  std::uint64_t trained_streams_formed() const noexcept { return trained_; }

 private:
  struct Stream {
    std::uint64_t next_line = 0;  // expected next miss line
    std::uint32_t run = 0;        // consecutive lines observed
    std::uint64_t lru = 0;        // age stamp for replacement
    bool live = false;
  };

  PrefetcherConfig config_;
  std::vector<Stream> streams_;
  std::uint64_t tick_ = 0;
  std::uint64_t covered_ = 0;
  std::uint64_t trained_ = 0;
};

}  // namespace twochains::cache
