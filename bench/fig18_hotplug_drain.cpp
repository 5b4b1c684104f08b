// fig18 (beyond the paper): pool-core hotplug under a skewed incast —
// quiesce one core of the hub's receiver pool mid-drain, then revive it,
// and watch the aggregate executed-jam rate dip and recover.
//
// The paper's runtime assumes a fixed receiver; our pool hard-wired
// bank->core affinity at Initialize until Runtime::QuiesceCore made the
// map live: the quiesced core finishes its one in-flight frame while
// every bank homed to it is re-sharded onto the survivors (a permanent
// handoff through the claim machinery, preferring same-domain survivors),
// and bank flags keep returning throughout, so the senders feel a slower
// hub — never a deadlocked one. Runtime::ReviveCore restores the original
// affinity map. This bench measures that end to end:
//
//   * star fabric, 8 senders with a skewed *stationary* offered load —
//     four hot senders push Server-Side Sum over 1 KiB payloads flat out
//     while four light ones are paced an order of magnitude slower — into
//     a hub with a 4-core (then 8-core) receiver pool;
//   * at 1/3 of the measured completions, QuiesceCore(0); at 2/3,
//     ReviveCore(0) — both scheduled off the completion count so the run
//     is deterministic;
//   * completions are bucketed into fixed time windows to print the
//     throughput curve around the two hotplug edges.
//
// Expectations: the drain window is visibly slower than the pre-quiesce
// rate (one fewer core under saturation); after the revive the rate
// recovers to >= 90% of the pre-quiesce rate; no frame is ever dropped
// (every message executes exactly once, nothing left in flight, every
// bank flag home); and the hotplug ledger reconciles (banks out == banks
// back, stranded backlog == frames_drained_during_quiesce).
#include <cstring>
#include <limits>

#include "benchlib/send_loop.hpp"
#include "fig_common.hpp"

namespace twochains::bench {
namespace {

constexpr std::uint32_t kSenders = 8;
/// Completions that define the measured run: quiesce at 1/3, revive at
/// 2/3, measurement ends at the target (senders then stop and the fabric
/// drains). Keeping senders pushing the whole time — hot ones flat out,
/// light ones paced — makes the offered load stationary, so the three
/// phase rates compare the same regime and differ only by the hotplug.
constexpr std::uint64_t kMeasuredCompletions = 6000;
/// Pacing gap of the light senders (the skew: hot senders send at full
/// tilt, light ones roughly an order of magnitude slower).
constexpr PicoTime kLightGap = Microseconds(25);
constexpr std::uint32_t kCurveWindows = 20;

struct HotplugResult {
  std::uint32_t pool = 0;
  std::uint64_t total = 0;
  std::uint64_t executed = 0;
  double pre_rate = 0;    ///< msg/s before the quiesce
  double drain_rate = 0;  ///< msg/s between quiesce and revive
  double post_rate = 0;   ///< msg/s after the revive (settled)
  PicoTime quiesced_at = 0;
  PicoTime revived_at = 0;
  PicoTime drained_at = 0;
  std::uint64_t stranded = 0;        ///< QuiesceCore's reported handover
  std::uint64_t banks_resharded = 0;
  std::uint64_t frames_drained_during_quiesce = 0;
  std::uint64_t in_flight_at_end = 0;
  std::uint64_t pending_rehomes_at_end = 0;
  std::uint32_t closed_send_banks = 0;
  std::vector<PicoTime> completions;  ///< completion instants, in order
};

HotplugResult RunHotplug(std::uint32_t pool_cores) {
  core::FabricOptions options =
      PaperFabric(kSenders + 1, core::Topology::kStar, 0);
  WithHubPool(options, pool_cores);
  core::Fabric fabric(options);
  LoadBenchPackage(fabric);
  core::Runtime& hub = fabric.runtime(0);

  HotplugResult r;
  r.pool = pool_cores;

  // Skewed offered load: even-indexed senders (hub peers 0, 2, 4, 6) push
  // flat out; odd ones are paced by kLightGap per message. All of them
  // keep sending until the hub has executed kMeasuredCompletions.
  const std::vector<std::uint8_t> usr(1024, 0xC3);
  std::vector<SendFlow> flows;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    flows.push_back({.src = s + 1,
                     .dst = 0,
                     .count = std::numeric_limits<std::uint64_t>::max(),
                     .next =
                         [&usr](std::uint64_t n) {
                           return FlowMessage{
                               .jam = "ssum", .args = {n & 127}, .usr = usr};
                         },
                     .gap = s % 2 == 0 ? PicoTime{0} : kLightGap});
  }
  SendLoops loops(fabric, std::move(flows));

  const std::uint64_t quiesce_after = kMeasuredCompletions / 3;
  const std::uint64_t revive_after = (2 * kMeasuredCompletions) / 3;
  hub.SetOnExecuted([&](const core::ReceivedMessage& msg) {
    ++r.executed;
    r.completions.push_back(msg.completed_at);
    if (r.executed == kMeasuredCompletions) loops.Stop();
    if (r.executed == quiesce_after) {
      fabric.engine().ScheduleAfter(0, [&] {
        r.quiesced_at = fabric.engine().Now();
        r.stranded = MustOk(hub.QuiesceCore(0), "QuiesceCore");
      }, "fig18.quiesce");
    }
    if (r.executed == revive_after) {
      fabric.engine().ScheduleAfter(0, [&] {
        r.revived_at = fabric.engine().Now();
        const Status st = hub.ReviveCore(0);
        if (!st.ok()) {
          std::fprintf(stderr, "ReviveCore failed: %s\n",
                       st.ToString().c_str());
          std::abort();
        }
      }, "fig18.revive");
    }
  });
  fabric.Run();
  hub.SetOnExecuted(nullptr);
  MustOk(loops.status(), "send loops");

  r.drained_at = fabric.engine().Now();
  r.banks_resharded = hub.stats().banks_resharded;
  r.frames_drained_during_quiesce =
      hub.stats().frames_drained_during_quiesce;
  r.in_flight_at_end = hub.InFlightFrames();
  r.pending_rehomes_at_end = hub.PendingRehomes();
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    r.total += loops.sent(s);
    r.closed_send_banks += fabric.runtime(s + 1).ClosedSendBanks(
        MustOk(fabric.PeerIdFor(s + 1, 0), "peer lookup"));
  }

  // Phase rates off the completion timeline, windowed by completion
  // *count*: the pre window skips the cold start, the post window skips
  // a short settle after the revive (the re-homed banks' backlog drains
  // at survivor speed first) and ends at the measurement target, before
  // the senders stop and the closing drain distorts the rate.
  const auto rate_over = [&](std::uint64_t from_idx, std::uint64_t to_idx) {
    to_idx = std::min<std::uint64_t>(to_idx, r.completions.size() - 1);
    if (to_idx <= from_idx) return 0.0;
    const PicoTime span =
        r.completions[to_idx] - r.completions[from_idx];
    return span > 0 ? MessagesPerSecond(to_idx - from_idx, span) : 0.0;
  };
  r.pre_rate = rate_over(kMeasuredCompletions / 12, quiesce_after);
  r.drain_rate = rate_over(quiesce_after, revive_after);
  const std::uint64_t settled = revive_after + kMeasuredCompletions / 18;
  r.post_rate = rate_over(settled, kMeasuredCompletions);
  return r;
}

void PrintCurve(const HotplugResult& r) {
  if (r.completions.empty()) return;
  const PicoTime first = r.completions.front();
  const PicoTime span = r.completions.back() - first;
  const PicoTime window = span / kCurveWindows + 1;
  std::vector<std::uint64_t> counts(kCurveWindows, 0);
  for (const PicoTime t : r.completions) {
    const std::uint64_t w =
        std::min<std::uint64_t>((t - first) / window, kCurveWindows - 1);
    ++counts[w];
  }
  Table table({"window", "t (us)", "Kmsg/s", "phase"});
  for (std::uint32_t w = 0; w < kCurveWindows; ++w) {
    const PicoTime start = first + static_cast<PicoTime>(w) * window;
    const PicoTime end = start + window;
    const char* phase = "pre";
    if (start >= r.revived_at) {
      phase = "revived";
    } else if (start >= r.quiesced_at) {
      phase = "draining";
    } else if (end > r.quiesced_at) {
      phase = "pre>drain";
    }
    table.AddRow({FmtU64(w), FmtUs(start - first),
                  FmtF(MessagesPerSecond(counts[w], window) / 1e3),
                  phase});
  }
  table.Print();
}

int Main(int argc, char** argv) {
  bool run4 = true;
  bool run8 = true;
  if (argc > 1) {
    if (std::strcmp(argv[1], "--pool4") == 0) {
      run8 = false;
    } else if (std::strcmp(argv[1], "--pool8") == 0) {
      run4 = false;
    } else {
      std::fprintf(stderr, "usage: %s [--pool4|--pool8]\n", argv[0]);
      return 2;
    }
  }
  Banner("fig18", "pool-core hotplug: quiesce + revive under skewed incast");
  std::printf("Server-Side Sum, 1 KiB payload, 8 senders (4 hot at full "
              "tilt, 4 paced at ~%0.f us/msg), %llu measured completions; "
              "QuiesceCore(0) at 1/3, ReviveCore(0) at 2/3\n",
              ToMicroseconds(kLightGap),
              static_cast<unsigned long long>(kMeasuredCompletions));

  bool ok = true;
  for (const std::uint32_t pool : {4u, 8u}) {
    if ((pool == 4 && !run4) || (pool == 8 && !run8)) continue;
    const HotplugResult r = RunHotplug(pool);
    std::printf("\n-- %u-core pool --\n", r.pool);
    PrintCurve(r);
    Table summary({"phase", "Kmsg/s", "vs pre"});
    summary.AddRow({"pre-quiesce", FmtF(r.pre_rate / 1e3), "1.00x"});
    summary.AddRow({"draining", FmtF(r.drain_rate / 1e3),
                    FmtF(r.drain_rate / r.pre_rate, "%.2fx")});
    summary.AddRow({"revived", FmtF(r.post_rate / 1e3),
                    FmtF(r.post_rate / r.pre_rate, "%.2fx")});
    summary.Print();
    std::printf("stranded=%llu resharded=%llu qdrain=%llu\n",
                static_cast<unsigned long long>(r.stranded),
                static_cast<unsigned long long>(r.banks_resharded),
                static_cast<unsigned long long>(
                    r.frames_drained_during_quiesce));

    ok &= ShapeCheck("zero dropped frames: every message executed",
                     r.executed == r.total);
    ok &= ShapeCheck("nothing in flight / pending / unrecycled at drain",
                     r.in_flight_at_end == 0 &&
                         r.pending_rehomes_at_end == 0 &&
                         r.closed_send_banks == 0);
    ok &= ShapeCheck("quiesce visibly dips the aggregate rate",
                     r.drain_rate < r.pre_rate);
    ok &= ShapeCheck("revive recovers to >= 90% of the pre-drain rate",
                     r.post_rate >= 0.9 * r.pre_rate);
    ok &= ShapeCheck(
        "hotplug ledger reconciles (banks out == banks back, stranded == "
        "frames_drained_during_quiesce)",
        r.banks_resharded > 0 && r.banks_resharded % 2 == 0 &&
            r.stranded == r.frames_drained_during_quiesce);
  }
  return FinishChecks(ok);
}

}  // namespace
}  // namespace twochains::bench

int main(int argc, char** argv) {
  return twochains::bench::Main(argc, argv);
}
