// Unit tests for the discrete-event engine: ordering, determinism, stop
// conditions, pending-event accounting.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace twochains::sim {
namespace {

TEST(EngineTest, StartsAtTimeZeroAndIdle) {
  Engine e;
  EXPECT_EQ(e.Now(), 0u);
  EXPECT_TRUE(e.Idle());
  e.Run();  // no events: returns immediately
  EXPECT_EQ(e.EventsProcessed(), 0u);
}

TEST(EngineTest, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(300, [&] { order.push_back(3); });
  e.ScheduleAt(100, [&] { order.push_back(1); });
  e.ScheduleAt(200, [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), 300u);
}

TEST(EngineTest, EqualTimestampsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, CallbackCanScheduleMore) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(10, [&] {
    ++fired;
    e.ScheduleAfter(5, [&] { ++fired; });
  });
  e.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.Now(), 15u);
}

TEST(EngineTest, PastTimesClampToNow) {
  Engine e;
  PicoTime seen = 12345;
  e.ScheduleAt(100, [&] {
    e.ScheduleAt(10, [&] { seen = e.Now(); });  // 10 < now: clamp
  });
  e.Run();
  EXPECT_EQ(seen, 100u);
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(100, [&] { ++fired; });
  e.ScheduleAt(200, [&] { ++fired; });
  e.ScheduleAt(300, [&] { ++fired; });
  e.RunUntil(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.Now(), 200u);
  EXPECT_EQ(e.PendingEvents(), 1u);
  e.Run();
  EXPECT_EQ(fired, 3);
}

TEST(EngineTest, RunUntilAdvancesTimeEvenWithoutEvents) {
  Engine e;
  e.RunUntil(5000);
  EXPECT_EQ(e.Now(), 5000u);
}

TEST(EngineTest, StopHaltsRun) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(10, [&] {
    ++fired;
    e.Stop();
  });
  e.ScheduleAt(20, [&] { ++fired; });
  e.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.PendingEvents(), 1u);
}

TEST(EngineTest, RunUntilConditionStopsEarly) {
  Engine e;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    e.ScheduleAt(static_cast<PicoTime>(i * 10), [&] { ++count; });
  }
  const bool met = e.RunUntilCondition([&] { return count >= 4; });
  EXPECT_TRUE(met);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(e.Now(), 40u);
}

TEST(EngineTest, RunUntilConditionReturnsFalseWhenQueueDrains) {
  Engine e;
  int count = 0;
  e.ScheduleAt(10, [&] { ++count; });
  const bool met = e.RunUntilCondition([&] { return count >= 5; });
  EXPECT_FALSE(met);
  EXPECT_EQ(count, 1);
}

TEST(EngineTest, ConditionAlreadyTrueDoesNotRunEvents) {
  Engine e;
  int count = 0;
  e.ScheduleAt(10, [&] { ++count; });
  EXPECT_TRUE(e.RunUntilCondition([] { return true; }));
  EXPECT_EQ(count, 0);
}

TEST(EngineTest, EventHookObservesTags) {
  Engine e;
  std::vector<std::string> tags;
  e.SetEventHook([&](PicoTime, const std::string& tag) { tags.push_back(tag); });
  e.ScheduleAt(1, [] {}, "alpha");
  e.ScheduleAt(2, [] {}, "beta");
  e.Run();
  EXPECT_EQ(tags, (std::vector<std::string>{"alpha", "beta"}));
}

TEST(EngineTest, ManyEventsDeterministicOrder) {
  // Schedule a shuffled batch; the pop order must be fully determined by
  // (time, schedule-sequence).
  Engine e1, e2;
  std::vector<int> o1, o2;
  auto schedule = [](Engine& e, std::vector<int>& o) {
    for (int i = 0; i < 500; ++i) {
      const PicoTime t = static_cast<PicoTime>((i * 7919) % 100);
      e.ScheduleAt(t, [&o, i] { o.push_back(i); });
    }
  };
  schedule(e1, o1);
  schedule(e2, o2);
  e1.Run();
  e2.Run();
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(o1.size(), 500u);
}

TEST(EngineTest, RunUntilConditionStopsInsideSameTimestampBurst) {
  // All events land on one timestamp; the condition is evaluated after
  // each event, so the run stops mid-burst in schedule order.
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(50, [&] { ++count; });
  }
  const bool met = e.RunUntilCondition([&] { return count >= 3; });
  EXPECT_TRUE(met);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.Now(), 50u);
  EXPECT_EQ(e.PendingEvents(), 7u);
  // The rest of the burst still fires, in order, at the same time.
  e.Run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(e.Now(), 50u);
}

TEST(EngineTest, RunUntilConditionBurstResumesDeterministically) {
  // Two engines driven through the same burst via different stop/resume
  // points must observe the same total order.
  auto run_with_stops = [](int first_stop) {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      e.ScheduleAt(100, [&order, i] { order.push_back(i); });
    }
    e.RunUntilCondition([&] {
      return static_cast<int>(order.size()) >= first_stop;
    });
    e.Run();
    return order;
  };
  const auto a = run_with_stops(2);
  const auto b = run_with_stops(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 8u);
}

TEST(EngineTest, ManyInterleavedSchedulersAreDeterministic) {
  // K independent "schedulers" (self-rescheduling chains, like K receiver
  // agents on one engine) interleave heavily, with frequent timestamp
  // collisions. The (time, seq) order must make two engines agree on the
  // full interleaving, and time must never run backwards.
  auto drive = [](Engine& e, std::vector<std::pair<int, int>>& order) {
    constexpr int kSchedulers = 8;
    constexpr int kSteps = 60;
    std::function<void(int, int)> chain = [&](int scheduler, int step) {
      order.emplace_back(scheduler, step);
      if (step >= kSteps) return;
      // Collision-heavy delays: many chains land on the same timestamps.
      const PicoTime delay = 10 * ((scheduler + step) % 4);
      e.ScheduleAfter(delay,
                      [&chain, scheduler, step] { chain(scheduler, step + 1); },
                      "chain");
    };
    for (int s = 0; s < kSchedulers; ++s) {
      e.ScheduleAt(5 * (s % 3), [&chain, s] { chain(s, 0); });
    }
    PicoTime last = 0;
    bool monotonic = true;
    e.SetEventHook([&](PicoTime t, const std::string&) {
      monotonic &= t >= last;
      last = t;
    });
    e.Run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(order.size(), kSchedulers * (kSteps + 1));
  };
  Engine e1, e2;
  std::vector<std::pair<int, int>> o1, o2;
  drive(e1, o1);
  drive(e2, o2);
  EXPECT_EQ(o1, o2);
}

TEST(EngineTest, PendingEventsTracksQueue) {
  Engine e;
  EXPECT_EQ(e.PendingEvents(), 0u);
  e.ScheduleAt(10, [] {});
  e.ScheduleAt(20, [] {});
  EXPECT_EQ(e.PendingEvents(), 2u);
  e.RunUntil(15);  // fires the first, leaves the second queued
  EXPECT_EQ(e.PendingEvents(), 1u);
  EXPECT_FALSE(e.Idle());
  e.Run();
  EXPECT_EQ(e.PendingEvents(), 0u);
  EXPECT_TRUE(e.Idle());
}

}  // namespace
}  // namespace twochains::sim
