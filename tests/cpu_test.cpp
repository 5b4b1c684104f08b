// Tests for CPU cycle accounting and the POLL / WFE wait models — the
// substrate of Figures 13 and 14 (latency parity, large cycle savings).
#include <gtest/gtest.h>

#include <vector>

#include "cpu/core.hpp"
#include "cpu/spinwait.hpp"

namespace twochains::cpu {
namespace {

TEST(CpuCoreTest, ChargeAccumulatesPerClass) {
  CpuCore core(0);
  const PicoTime d1 = core.Charge(260, CycleClass::kExecute);
  core.Charge(130, CycleClass::kWait);
  core.Charge(10, CycleClass::kExecute);
  EXPECT_EQ(core.counters().Of(CycleClass::kExecute), 270u);
  EXPECT_EQ(core.counters().Of(CycleClass::kWait), 130u);
  EXPECT_EQ(core.counters().Total(), 400u);
  // 260 cycles at 2.6 GHz = exactly 100 ns.
  EXPECT_EQ(d1, Nanoseconds(100.0));
}

TEST(CpuCoreTest, InstructionAndMessageCounters) {
  CpuCore core(1);
  core.CountInstructions(100);
  core.CountInstructions(23);
  core.CountMessage();
  EXPECT_EQ(core.counters().instructions, 123u);
  EXPECT_EQ(core.counters().messages_handled, 1u);
  core.ResetCounters();
  EXPECT_EQ(core.counters().Total(), 0u);
  EXPECT_EQ(core.counters().instructions, 0u);
}

TEST(WaitModelTest, PollBurnsTheFullWaitInCycles) {
  WaitModel poll(WaitMode::kPoll);
  const PicoTime wait = Microseconds(1.0);  // 2600 cycles
  const WaitOutcome out = poll.Wait(wait);
  // Burned at least the full wait duration.
  EXPECT_GE(out.cycles_burned, kCoreClock.ToCycles(wait));
  // Detection at the next iteration boundary: strictly less than one
  // iteration away.
  EXPECT_LT(out.detection_delay, kCoreClock.ToPicos(kPollIterationCycles));
}

TEST(WaitModelTest, WfeBurnsEntryWakeupAndResidual) {
  WaitModel wfe(WaitMode::kWfe);
  const WaitOutcome out = wfe.Wait(Microseconds(1.0));
  // entry + wakeup + 1 us of halted residual = 24 + 40 + 400.
  EXPECT_EQ(out.cycles_burned,
            kWfeEntryCycles + kWfeWakeupCycles + kWfeHaltedCyclesPerUs);
  EXPECT_EQ(out.cycles_burned, 464u);
  EXPECT_EQ(out.detection_delay, kCoreClock.ToPicos(kWfeWakeupCycles));
}

TEST(WaitModelTest, WfeCycleAdvantageAtTheRealCosts) {
  // POLL burns the wait rounded up to its next iteration boundary, plus
  // the final check. WFE burns entry + wakeup plus kWfeHaltedCyclesPerUs
  // per *whole* microsecond waited, so below 1 us the residual charges
  // nothing and WFE's advantage is largest; from 1 us on the ratio climbs
  // toward the 2600 cycles of a microsecond over the residual rate (6.5x).
  WaitModel poll(WaitMode::kPoll);
  WaitModel wfe(WaitMode::kWfe);
  struct Row {
    double us;
    Cycles poll_cycles;
  };
  const Row rows[] = {
      {0.5, 1320}, {1.0, 2620}, {2.0, 5220}, {5.0, 13020}, {10.0, 26019}};
  const double asymptote =
      static_cast<double>(kCoreClock.ToCycles(Microseconds(1.0))) /
      static_cast<double>(kWfeHaltedCyclesPerUs);
  std::vector<double> ratios;
  for (const Row& row : rows) {
    const auto p = poll.Wait(Microseconds(row.us));
    const auto w = wfe.Wait(Microseconds(row.us));
    const auto whole_us = static_cast<Cycles>(row.us);
    EXPECT_EQ(p.cycles_burned, row.poll_cycles) << row.us << " us";
    EXPECT_EQ(w.cycles_burned, kWfeEntryCycles + kWfeWakeupCycles +
                                   whole_us * kWfeHaltedCyclesPerUs)
        << row.us << " us";
    ratios.push_back(static_cast<double>(p.cycles_burned) /
                     static_cast<double>(w.cycles_burned));
  }
  EXPECT_NEAR(ratios[0], 20.625, 1e-9);  // 0.5 us: 1320 / 64
  for (std::size_t i = 1; i < ratios.size(); ++i) {
    EXPECT_LT(ratios[i], ratios[0]) << rows[i].us << " us";
    EXPECT_LT(ratios[i], asymptote) << rows[i].us << " us";
    if (i > 1) {
      EXPECT_GT(ratios[i], ratios[i - 1]) << rows[i].us << " us";
    }
  }
  EXPECT_NEAR(ratios[1], 2620.0 / 464.0, 1e-9);   // 5.65x
  EXPECT_NEAR(ratios[4], 26019.0 / 4064.0, 1e-9);  // 6.40x
}

TEST(WaitModelTest, WfeLatencyPenaltyIsBounded) {
  // The paper: "up to 1.5% latency penalty". For a 2 us one-way message the
  // fixed wake-up penalty must stay in single-digit percent.
  WaitModel poll(WaitMode::kPoll);
  WaitModel wfe(WaitMode::kWfe);
  const PicoTime wait = Microseconds(2.0);
  const auto p = poll.Wait(wait);
  const auto w = wfe.Wait(wait);
  const double base = ToNanoseconds(wait + p.detection_delay);
  const double with_wfe = ToNanoseconds(wait + w.detection_delay);
  EXPECT_LT((with_wfe - base) / base, 0.03);
}

TEST(WaitModelTest, PollDetectionAlignsToIterationBoundary) {
  WaitModel poll(WaitMode::kPoll);
  const PicoTime iter = kCoreClock.ToPicos(kPollIterationCycles);
  // A wait of exactly k iterations is detected with zero added delay.
  const auto exact = poll.Wait(iter * 3);
  EXPECT_EQ(exact.detection_delay, 0u);
  // A wait of k iterations + 1 ps waits out the remainder of the iteration.
  const auto off = poll.Wait(iter * 3 + 1);
  EXPECT_EQ(off.detection_delay, iter - 1);
}

TEST(WaitStatsTest, RecordAccumulatesEpisodes) {
  // The per-core ledger a pooled receiver keeps: each wait episode folds
  // its idle time, detection delay, and cycle burn into the totals.
  WaitModel poll(WaitMode::kPoll);
  WaitModel wfe(WaitMode::kWfe);
  WaitStats stats;
  const PicoTime w1 = Microseconds(1.0);
  const PicoTime w2 = Microseconds(2.5);
  const auto o1 = poll.Wait(w1);
  stats.Record(w1, o1);
  const auto o2 = wfe.Wait(w2);
  stats.Record(w2, o2);
  EXPECT_EQ(stats.episodes, 2u);
  EXPECT_EQ(stats.idle_picos, w1 + w2);
  EXPECT_EQ(stats.detection_picos, o1.detection_delay + o2.detection_delay);
  EXPECT_EQ(stats.cycles_burned, o1.cycles_burned + o2.cycles_burned);
}

TEST(WaitStatsTest, IndependentLedgersDoNotBleed) {
  // Two pool cores waiting on the same model keep separate books.
  WaitModel poll(WaitMode::kPoll);
  WaitStats a, b;
  a.Record(Microseconds(1.0), poll.Wait(Microseconds(1.0)));
  EXPECT_EQ(a.episodes, 1u);
  EXPECT_EQ(b.episodes, 0u);
  EXPECT_EQ(b.cycles_burned, 0u);
  b.Record(0, poll.Wait(0));
  EXPECT_EQ(a.episodes, 1u);
  EXPECT_EQ(b.episodes, 1u);
  EXPECT_EQ(b.idle_picos, 0u);
}

TEST(WaitModelTest, ZeroWaitEdgeCases) {
  WaitModel poll(WaitMode::kPoll);
  WaitModel wfe(WaitMode::kWfe);
  const auto p = poll.Wait(0);
  EXPECT_EQ(p.detection_delay, 0u);
  EXPECT_EQ(p.cycles_burned, kPollIterationCycles);  // one final check
  const auto w = wfe.Wait(0);
  EXPECT_EQ(w.cycles_burned, kWfeEntryCycles + kWfeWakeupCycles);
}

}  // namespace
}  // namespace twochains::cpu
