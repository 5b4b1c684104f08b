#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace twochains {

PicoTime LatencySample::Percentile(double q) const {
  if (samples_.empty()) return 0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: ceil(q * N), 1-based.
  const auto n = samples_.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return samples_[rank - 1];
}

double LatencySample::TailSpread() const {
  const double median = static_cast<double>(Median());
  if (median == 0.0) return 0.0;
  return (static_cast<double>(Tail()) - median) / median;
}

double LatencySample::MeanNanos() const {
  if (samples_.empty()) return 0.0;
  long double sum = 0;
  for (PicoTime s : samples_) sum += static_cast<long double>(s);
  return static_cast<double>(sum / static_cast<long double>(samples_.size())) /
         static_cast<double>(kPicosPerNano);
}

PicoTime LatencySample::Min() const { return Percentile(0.0); }
PicoTime LatencySample::Max() const { return Percentile(1.0); }

double MegabytesPerSecond(std::uint64_t bytes, PicoTime duration) noexcept {
  if (duration == 0) return 0.0;
  const double seconds = ToSeconds(duration);
  return static_cast<double>(bytes) / 1e6 / seconds;
}

double MessagesPerSecond(std::uint64_t messages, PicoTime duration) noexcept {
  if (duration == 0) return 0.0;
  return static_cast<double>(messages) / ToSeconds(duration);
}

}  // namespace twochains
