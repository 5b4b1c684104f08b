// Directed tests for lane-sharded event execution: byte-identical results
// across executor counts, cross-lane causality at exactly the lookahead
// horizon, Stop() semantics under lanes, timing-wheel overflow, and the
// bounded-memory regression for schedule-and-fire churn.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace twochains::sim {
namespace {

constexpr PicoTime kLook = 1000;  // ps; test-model cross-lane horizon
constexpr std::uint32_t kHosts = 4;

// Per-host mutable state: only events homed to the host's lane touch it,
// which is exactly the invariant the fabric relies on.
struct HostState {
  std::uint64_t acc = 0;
  std::vector<std::pair<PicoTime, std::uint64_t>> trace;
};

using Hosts = std::array<HostState, kHosts>;

// One model event: mix the token into the host's accumulator, record the
// (time, value) observation, then fan out one same-lane hop and one
// cross-lane hop beyond the lookahead horizon.
void Fire(Engine& e, Hosts& hosts, std::uint32_t host, std::uint64_t token,
          int depth) {
  HostState& hs = hosts[host];
  hs.acc = hs.acc * 6364136223846793005ull + token + e.Now() + host;
  hs.trace.emplace_back(e.Now(), hs.acc);
  if (depth == 0) return;
  const std::uint64_t a = hs.acc;
  e.ScheduleAfter(1 + (a % 700),
                  [&e, &hosts, host, t = a, depth] {
                    Fire(e, hosts, host, t, depth - 1);
                  },
                  "model.local");
  const std::uint32_t dst =
      static_cast<std::uint32_t>((host + 1 + (a >> 8) % (kHosts - 1)) %
                                 kHosts);
  e.ScheduleAtOn(dst, e.Now() + kLook + (a % 900),
                 [&e, &hosts, dst, t = a ^ 0x9e3779b97f4a7c15ull, depth] {
                   Fire(e, hosts, dst, t, depth - 1);
                 },
                 "model.cross");
}

struct ModelResult {
  Hosts hosts;
  PicoTime final_now = 0;
  std::uint64_t processed = 0;
};

enum class Drive { kRun, kUntilSteps };

ModelResult RunModel(std::uint32_t lanes, Drive drive) {
  Engine e(EngineConfig{lanes}, kLook);
  e.SetVirtualLanes(kHosts);
  ModelResult r;
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    e.ScheduleAtOn(i, 100 + 37 * i,
                   [&e, &r, i] { Fire(e, r.hosts, i, 0x51ed * i, 7); },
                   "model.seed");
  }
  if (drive == Drive::kRun) {
    e.Run();
  } else {
    PicoTime t = 0;
    while (!e.Idle()) {
      t += 5000;
      e.RunUntil(t);
    }
  }
  r.final_now = e.Now();
  r.processed = e.EventsProcessed();
  return r;
}

void ExpectSameResult(const ModelResult& a, const ModelResult& b) {
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.final_now, b.final_now);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    ASSERT_EQ(a.hosts[h].trace.size(), b.hosts[h].trace.size())
        << "host " << h;
    EXPECT_EQ(a.hosts[h].trace, b.hosts[h].trace) << "host " << h;
    EXPECT_EQ(a.hosts[h].acc, b.hosts[h].acc) << "host " << h;
  }
}

TEST(LaneEngineTest, LanedRunsAreByteIdenticalToScalar) {
  const ModelResult scalar = RunModel(1, Drive::kRun);
  EXPECT_GT(scalar.processed, 1000u);  // the model actually exercised fanout
  for (std::uint32_t lanes : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(lanes);
    ExpectSameResult(scalar, RunModel(lanes, Drive::kRun));
  }
}

TEST(LaneEngineTest, RunUntilSteppingMatchesScalarSteppingAtEveryLaneCount) {
  // Deadline-stepped drives (the harness pump idiom) must replay the same
  // trace at every executor count; final time is the deadline, not the
  // last event, so the baseline is the scalar *stepped* run.
  const ModelResult scalar = RunModel(1, Drive::kUntilSteps);
  const ModelResult free_run = RunModel(1, Drive::kRun);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    EXPECT_EQ(scalar.hosts[h].trace, free_run.hosts[h].trace);
  }
  for (std::uint32_t lanes : {2u, 4u}) {
    SCOPED_TRACE(lanes);
    ExpectSameResult(scalar, RunModel(lanes, Drive::kUntilSteps));
  }
}

TEST(LaneEngineTest, CrossLaneScheduleAtExactlyTheHorizonSeesSenderState) {
  Engine e(EngineConfig{2}, kLook);
  e.SetVirtualLanes(2);
  std::uint64_t shared = 0;  // written on lane 0 strictly before lane 1 reads
  std::uint64_t observed = 0;
  PicoTime observed_at = 0;
  std::uint32_t observed_lane = 99;
  e.ScheduleAtOn(0, 500, [&] {
    shared = 42;
    // The tightest legal cross-lane schedule: exactly now + lookahead.
    e.ScheduleAtOn(1, e.Now() + kLook, [&] {
      observed = shared;
      observed_at = e.Now();
      observed_lane = e.CurrentLane();
    });
  });
  e.Run();
  EXPECT_EQ(observed, 42u);
  EXPECT_EQ(observed_at, 500u + kLook);
  EXPECT_EQ(observed_lane, 1u);
}

TEST(LaneEngineTest, StopFromOneLaneHaltsAllAndTheRunIsResumable) {
  Engine e(EngineConfig{2}, kLook);
  e.SetVirtualLanes(2);
  int early = 0, late = 0;
  // Lane 1 is the lagging lane: one lone event that pulls the plug while
  // lane 0 has a long runway of future work.
  e.ScheduleAtOn(1, 300, [&] { e.Stop(); });
  e.ScheduleAtOn(0, 100, [&] { ++early; });
  for (int i = 0; i < 16; ++i) {
    e.ScheduleAtOn(0, 1'000'000 + i * kLook, [&] { ++late; });
  }
  e.Run();
  EXPECT_EQ(early, 1);     // work before the stop still fired
  EXPECT_EQ(late, 0);      // far-future work did not run past the stop
  EXPECT_EQ(e.PendingEvents(), 16u);
  e.Run();                 // stop is per-run: resume drains the rest
  EXPECT_EQ(late, 16);
  EXPECT_TRUE(e.Idle());
}

TEST(LaneEngineTest, WheelOverflowEventsInterleaveCorrectly) {
  // Events far beyond the wheel horizon (the overflow tier) must still
  // merge in time order with near-term bucket events.
  Engine e;
  std::vector<PicoTime> fired_at;
  const PicoTime far = PicoTime{1} << 40;  // way past any wheel window
  e.ScheduleAt(far + 5, [&] { fired_at.push_back(e.Now()); });
  e.ScheduleAt(3, [&] {
    fired_at.push_back(e.Now());
    e.ScheduleAt(far + 1, [&] { fired_at.push_back(e.Now()); });
  });
  e.ScheduleAt(far - 7, [&] { fired_at.push_back(e.Now()); });
  e.Run();
  EXPECT_EQ(fired_at,
            (std::vector<PicoTime>{3, far - 7, far + 1, far + 5}));
}

TEST(LaneEngineTest, ScheduleFireChurnKeepsMemoryBounded) {
  // A million schedule-and-fire cycles must reuse a small working set of
  // slab slots through the free list, not grow one per cycle.
  Engine e;
  std::uint64_t fired = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    // Mix horizons so the churn crosses the wheel, the current granule,
    // and the overflow tier.
    const PicoTime when = 1 + (static_cast<PicoTime>(i) % 3) * 50'000'000;
    e.ScheduleAfter(when, [&] { ++fired; });
    // Each step advances 25 us: the 50 and 100 us events wait two and four
    // steps, so several thousand stay pending across every step.
    if (i % 4096 == 0) e.RunUntil(e.Now() + 25'000'000);
  }
  e.Run();
  EXPECT_EQ(fired, 1'000'000u);
  // Well under one slot per cycle: the pool stays a small multiple of the
  // pending high-water mark (chunked allocation rounds up to 512).
  EXPECT_LE(e.AllocatedEventSlots(), 65536u);
}

TEST(LaneEngineTest, EventHookSeesTagsAndDoesNotPerturbExecution) {
  // Tag capture is gated on hook presence; installing a hook must change
  // what is observed, never what runs.
  auto build = [](Engine& e, int& fired) {
    e.ScheduleAt(10, [&] { ++fired; }, "tag.a");
    e.ScheduleAt(20, [&] { ++fired; });  // untagged
  };
  Engine plain;
  int plain_fired = 0;
  build(plain, plain_fired);
  plain.Run();

  Engine hooked;
  int hooked_fired = 0;
  std::vector<std::pair<PicoTime, std::string>> seen;
  hooked.SetEventHook([&](PicoTime t, const char* tag) {
    seen.emplace_back(t, tag);
  });
  build(hooked, hooked_fired);
  hooked.Run();

  EXPECT_EQ(plain_fired, hooked_fired);
  EXPECT_EQ(plain.EventsProcessed(), hooked.EventsProcessed());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<PicoTime, std::string>{10, "tag.a"}));
  EXPECT_EQ(seen[1], (std::pair<PicoTime, std::string>{20, ""}));
}

TEST(LaneEngineTest, EngineConfigConstructsTheLanedExecutor) {
  Engine e({.lanes = 4}, kLook);
  e.SetVirtualLanes(8);
  EXPECT_EQ(e.VirtualLanes(), 8u);
  EXPECT_EQ(e.ExecutorShards(), 4u);
  // Per-lane counters: events on different lanes run concurrently, so a
  // single shared counter would be a data race by the engine's own rules.
  std::array<int, 8> fired{};
  for (std::uint32_t i = 0; i < 8; ++i) {
    e.ScheduleAtOn(i, 100 + i, [&fired, i] { ++fired[i]; });
  }
  e.Run();
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(fired[i], 1) << i;
}

}  // namespace
}  // namespace twochains::sim
