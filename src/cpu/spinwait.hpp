// Mailbox wait models: busy polling vs hardware-assisted sleep (Arm WFE).
//
// The Two-Chains receiver thread waits for a signal value to be written into
// its mailbox by the RDMA NIC. The paper deliberately avoids interrupts
// ("that would increase latency with Linux kernel scheduler activity") and
// instead compares:
//
//   * POLL — a spin loop re-reading the signal line. Detection happens at
//     the next loop-iteration boundary after the value becomes visible; the
//     core burns cycles for the entire wait.
//   * WFE  — the core arms an event monitor on the signal line and halts;
//     the DMA write to the monitored line wakes it. Detection pays a fixed
//     wake-up penalty, but the halted core consumes almost no cycles (the
//     cycle counter stops while in WFE, which is exactly why the paper's
//     full-run cycle counts drop by 2.5-3.8x with no latency loss).
//
// The model returns both the added latency and the cycles burned so the
// benchmark harness can reproduce Figures 13 and 14.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "cpu/core.hpp"

namespace twochains::cpu {

enum class WaitMode : std::uint8_t { kPoll, kWfe };

/// Cycles for one poll-loop iteration (cached load, compare, branch).
inline constexpr Cycles kPollIterationCycles = 10;
/// Cycles from the monitored-line write until execution resumes after WFE
/// (event propagation + pipeline restart).
inline constexpr Cycles kWfeWakeupCycles = 40;
/// Cycles to arm the monitor and enter WFE (SEVL/WFE preamble).
inline constexpr Cycles kWfeEntryCycles = 24;
/// Residual cycle burn while waiting, per whole microsecond waited: the WFE
/// loop is check/WFE/wake/re-check, and wakes fire on any monitor-line
/// activity (evictions, timer events, global SEV), plus the runtime's
/// progress path keeps ticking between sleeps — the core does not go fully
/// dark.
inline constexpr Cycles kWfeHaltedCyclesPerUs = 400;

struct WaitModelConfig {
  WaitMode mode = WaitMode::kPoll;
};

/// Outcome of one wait episode.
struct WaitOutcome {
  /// Latency added beyond the instant the signal became visible.
  PicoTime detection_delay = 0;
  /// Cycles charged to the waiting core for the whole episode.
  Cycles cycles_burned = 0;
};

/// Accumulated idle/wakeup accounting for one waiter — with a pooled
/// receiver every core runs its own wait loop, so each keeps its own
/// ledger (the per-core analogue of the Figures 13/14 whole-run counts).
struct WaitStats {
  std::uint64_t episodes = 0;
  /// Simulated time spent idle before the signal became visible.
  PicoTime idle_picos = 0;
  /// Added detection latency (poll-boundary / WFE wake-up) summed.
  PicoTime detection_picos = 0;
  /// Cycles burned across all wait episodes.
  Cycles cycles_burned = 0;

  // Work-stealing ledger (filled by the pooled receiver when stealing is
  // enabled): instead of sleeping on empty banks, an idle waiter may claim
  // a backlogged sibling's bank, trading the stash locality its affinity
  // shard buys for utilization.
  /// Bank claims this waiter took over from a backlogged sibling.
  std::uint64_t banks_stolen = 0;
  /// Bank claims a sibling took over from this waiter.
  std::uint64_t banks_donated = 0;
  /// Frames this waiter executed from banks outside its affinity shard.
  std::uint64_t frames_stolen = 0;

  // NUMA ledger (filled by the pooled receiver on multi-domain hosts):
  // draining a bank homed in another memory domain — a stolen bank, or a
  // bank placed flat with placement off — pays the cross-domain hop on
  // every fill that reaches the remote LLC slice or DRAM.
  /// Frames this waiter drained from banks homed in another domain.
  std::uint64_t frames_drained_remote = 0;
  /// Cross-domain penalty cycles this waiter's drains paid.
  Cycles remote_drain_cycles = 0;

  // Hotplug ledger (filled by the pooled receiver around QuiesceCore /
  // ReviveCore): unlike a steal — a revertible lease — a re-shard is a
  // *permanent* home change, so both directions are counted per waiter.
  /// Times this waiter was quiesced (drained and taken out of the pool).
  std::uint64_t quiesces = 0;
  /// Bank homes migrated TO this waiter (quiesce re-shard or revive
  /// restore landing here).
  std::uint64_t banks_resharded_in = 0;
  /// Bank homes migrated AWAY from this waiter.
  std::uint64_t banks_resharded_out = 0;

  /// Folds one episode (idle for @p waited, resolved as @p outcome) in.
  void Record(PicoTime waited, const WaitOutcome& outcome) noexcept;
};

/// The wait of one core at kCoreClock.
class WaitModel {
 public:
  explicit WaitModel(WaitMode mode) noexcept : mode_(mode) {}

  /// Models a wait episode in which the signal becomes visible
  /// @p wait_duration after the wait began.
  WaitOutcome Wait(PicoTime wait_duration) const noexcept;

 private:
  WaitMode mode_;
};

}  // namespace twochains::cpu
