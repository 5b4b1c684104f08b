// Measurement collection for the benchmark harnesses.
//
// The paper reports median (50th) and tail (99.9th percentile) latencies,
// message rates, bandwidths, and the derived "tail latency spread"
// (tail - median) / median (its Eq. 1). LatencySample keeps the raw samples
// (benchmark iteration counts here are modest) and computes exact order
// statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace twochains {

/// Collects latency samples (picoseconds) and reports order statistics.
class LatencySample {
 public:
  LatencySample() = default;
  /// Reserves capacity when the iteration count is known up front.
  explicit LatencySample(std::size_t expected) { samples_.reserve(expected); }

  void Add(PicoTime latency) {
    samples_.push_back(latency);
    sorted_ = false;
  }
  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  /// Exact percentile by nearest-rank (q in [0,1]); 0 on empty samples.
  /// Sorts lazily on first query after new samples.
  PicoTime Percentile(double q) const;

  PicoTime Median() const { return Percentile(0.50); }
  /// The paper's tail latency: the 99.9th percentile.
  PicoTime Tail() const { return Percentile(0.999); }

  /// Tail latency spread per the paper's Eq. 1: (tail - median) / median.
  /// Returns 0 when the median is 0.
  double TailSpread() const;

  double MeanNanos() const;
  PicoTime Min() const;
  PicoTime Max() const;

  /// Read-only view of raw samples (unsorted insertion order).
  const std::vector<PicoTime>& samples() const noexcept { return samples_; }

 private:
  mutable std::vector<PicoTime> samples_;
  mutable bool sorted_ = false;
};

/// Converts bytes moved over a duration into MB/s (decimal megabytes,
/// matching the paper's bandwidth plots).
double MegabytesPerSecond(std::uint64_t bytes, PicoTime duration) noexcept;

/// Converts a message count over a duration into messages/second.
double MessagesPerSecond(std::uint64_t messages, PicoTime duration) noexcept;

}  // namespace twochains
