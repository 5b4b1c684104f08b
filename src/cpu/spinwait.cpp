#include "cpu/spinwait.hpp"

namespace twochains::cpu {

void WaitStats::Record(PicoTime waited, const WaitOutcome& outcome) noexcept {
  ++episodes;
  idle_picos += waited;
  detection_picos += outcome.detection_delay;
  cycles_burned += outcome.cycles_burned;
}

WaitOutcome WaitModel::Wait(PicoTime wait_duration) const noexcept {
  WaitOutcome out;
  switch (mode_) {
    case WaitMode::kPoll: {
      // The loop re-checks every kPollIterationCycles; the write becomes
      // visible partway through an iteration, so detection lands at the next
      // iteration boundary. Cycles burn for the full wait plus the final
      // check.
      constexpr PicoTime iter = kCoreClock.ToPicos(kPollIterationCycles);
      const PicoTime phase = wait_duration % iter;
      const PicoTime to_boundary = phase == 0 ? 0 : iter - phase;
      out.detection_delay = to_boundary;
      out.cycles_burned = kCoreClock.ToCycles(wait_duration + to_boundary) +
                          kPollIterationCycles;
      break;
    }
    case WaitMode::kWfe: {
      // Arm the monitor, halt, wake on the DMA write to the monitored line.
      out.detection_delay = kCoreClock.ToPicos(kWfeWakeupCycles);
      const std::uint64_t waited_us = wait_duration / kPicosPerMicro;
      out.cycles_burned = kWfeEntryCycles + kWfeWakeupCycles +
                          waited_us * kWfeHaltedCyclesPerUs;
      break;
    }
  }
  return out;
}

}  // namespace twochains::cpu
