// CPU core model: cycle accounting per activity class.
//
// The simulator charges work to cores in cycles; a core converts cycles to
// simulated time at kCoreClock and keeps per-class counters so
// benchmarks can report, e.g., "cycles spent waiting for active messages"
// separately from execution — the quantity Figures 13/14 of the paper plot.
#pragma once

#include <array>
#include <cstdint>

#include "common/units.hpp"

namespace twochains::cpu {

/// What a span of cycles was spent on.
enum class CycleClass : std::uint8_t {
  kExecute = 0,   ///< running jam/runtime code
  kMemory,        ///< stalled on the memory hierarchy
  kWait,          ///< spinning / sleeping on a mailbox signal
  kPack,          ///< building message frames
  kCount,
};

struct PerfCounters {
  std::array<Cycles, static_cast<std::size_t>(CycleClass::kCount)> cycles{};
  std::uint64_t instructions = 0;
  std::uint64_t messages_handled = 0;

  Cycles Total() const noexcept {
    Cycles t = 0;
    for (const auto c : cycles) t += c;
    return t;
  }
  Cycles Of(CycleClass c) const noexcept {
    return cycles[static_cast<std::size_t>(c)];
  }
};

class CpuCore {
 public:
  explicit CpuCore(std::uint32_t id) noexcept : id_(id) {}

  std::uint32_t id() const noexcept { return id_; }

  /// Records @p cycles of work in class @p cls; returns its duration.
  PicoTime Charge(Cycles cycles, CycleClass cls) noexcept {
    counters_.cycles[static_cast<std::size_t>(cls)] += cycles;
    return kCoreClock.ToPicos(cycles);
  }

  void CountInstructions(std::uint64_t n) noexcept {
    counters_.instructions += n;
  }
  void CountMessage() noexcept { ++counters_.messages_handled; }

  const PerfCounters& counters() const noexcept { return counters_; }
  void ResetCounters() noexcept { counters_ = {}; }

 private:
  std::uint32_t id_;
  PerfCounters counters_;
};

}  // namespace twochains::cpu
