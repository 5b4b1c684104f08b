// Whole-stack property and matrix tests: the full compile→link→inject→
// execute pipeline exercised across configuration combinations and
// randomized workloads, with functional results checked against host-side
// evaluation.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "benchlib/perftest.hpp"
#include "benchlib/send_loop.hpp"
#include "benchlib/stress.hpp"
#include "benchlib/workloads.hpp"
#include "common/rng.hpp"
#include "core/fabric.hpp"

namespace twochains::core {
namespace {

std::unique_ptr<Fabric> MakeLoadedFabric(FabricOptions options = {}) {
  options.runtime.banks = 2;
  options.runtime.mailboxes_per_bank = 4;
  auto fabric = std::make_unique<Fabric>(std::move(options));
  auto package = bench::BuildBenchPackage();
  EXPECT_TRUE(package.ok()) << package.status();
  EXPECT_TRUE(fabric->LoadPackage(*package).ok());
  return fabric;
}

StatusOr<ReceivedMessage> SendAndRun(Fabric& fabric, const std::string& jam,
                                     Invoke mode,
                                     std::vector<std::uint64_t> args,
                                     std::vector<std::uint8_t> usr) {
  std::optional<ReceivedMessage> received;
  fabric.runtime(1).SetOnExecuted(
      [&](const ReceivedMessage& msg) { received = msg; });
  TC_ASSIGN_OR_RETURN(const SendReceipt receipt,
                      fabric.runtime(0).Send(jam, mode, args, usr));
  (void)receipt;
  fabric.RunUntil([&] { return received.has_value(); });
  fabric.runtime(1).SetOnExecuted(nullptr);
  if (!received.has_value()) return Internal("never executed");
  return *received;
}

// ------------------------------------------------- configuration matrix

struct MatrixCase {
  bool stash;
  cpu::WaitMode wait;
  Invoke invoke;
  bool hardened;
};

class ConfigMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConfigMatrixTest, SsumComputesCorrectlyInEveryConfiguration) {
  const MatrixCase param = GetParam();
  FabricOptions options;
  options.nic.stash_to_llc = param.stash;
  options.runtime.wait.mode = param.wait;
  if (param.hardened) {
    options.runtime.security = SecurityPolicy::Hardened();
  }
  auto fabric = MakeLoadedFabric(options);

  Xoshiro256 rng(7);
  std::vector<std::uint8_t> usr(16 * 8);
  std::uint64_t expect = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t v = rng.NextBelow(1000);
    std::memcpy(usr.data() + 8 * i, &v, 8);
    expect += v;
  }
  auto msg = SendAndRun(*fabric, "ssum", param.invoke, {}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_TRUE(msg->executed);
  EXPECT_EQ(msg->return_value, expect);
  EXPECT_EQ(fabric->runtime(1).PeekU64("sum_results", 0).value(), expect);
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixCase>& info) {
  const auto& p = info.param;
  std::string name;
  name += p.stash ? "Stash" : "Dram";
  name += p.wait == cpu::WaitMode::kPoll ? "Poll" : "Wfe";
  name += p.invoke == Invoke::kInjected ? "Injected" : "Local";
  name += p.hardened ? "Hardened" : "Default";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigMatrixTest,
    ::testing::Values(
        MatrixCase{true, cpu::WaitMode::kPoll, Invoke::kInjected, false},
        MatrixCase{true, cpu::WaitMode::kPoll, Invoke::kLocal, false},
        MatrixCase{true, cpu::WaitMode::kWfe, Invoke::kInjected, false},
        MatrixCase{true, cpu::WaitMode::kWfe, Invoke::kLocal, false},
        MatrixCase{false, cpu::WaitMode::kPoll, Invoke::kInjected, false},
        MatrixCase{false, cpu::WaitMode::kWfe, Invoke::kInjected, false},
        MatrixCase{true, cpu::WaitMode::kPoll, Invoke::kInjected, true},
        MatrixCase{false, cpu::WaitMode::kWfe, Invoke::kInjected, true}),
    MatrixName);

// --------------------------------------------- randomized differentials

TEST(RandomizedDifferentialTest, SsumMatchesHostOverRandomShapes) {
  auto fabric = MakeLoadedFabric();
  Xoshiro256 rng(99);
  for (int round = 0; round < 12; ++round) {
    const std::uint64_t n = 1 + rng.NextBelow(96);
    std::vector<std::uint8_t> usr(n * 8);
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t v = rng.Next() & 0xFFFFFF;
      std::memcpy(usr.data() + 8 * i, &v, 8);
      expect += v;
    }
    const Invoke mode =
        rng.NextBernoulli(0.5) ? Invoke::kInjected : Invoke::kLocal;
    auto msg = SendAndRun(*fabric, "ssum", mode, {}, usr);
    ASSERT_TRUE(msg.ok()) << msg.status() << " round " << round;
    EXPECT_EQ(msg->return_value, expect) << "round " << round;
  }
}

TEST(RandomizedDifferentialTest, IputMirrorsHostHashTable) {
  // Replay the jam's hash-table semantics host-side and compare offsets.
  auto fabric = MakeLoadedFabric();
  Xoshiro256 rng(1234);
  struct Entry {
    long key;
    std::uint64_t offset;
  };
  std::vector<Entry> host_table;
  std::uint64_t next_offset = 0;
  const std::uint64_t usr_bytes = 32;

  for (int round = 0; round < 20; ++round) {
    const long key = static_cast<long>(rng.NextBelow(12));  // force reuse
    std::vector<std::uint8_t> usr(usr_bytes,
                                  static_cast<std::uint8_t>(round));
    auto msg = SendAndRun(*fabric, "iput", Invoke::kInjected,
                          {static_cast<std::uint64_t>(key)}, usr);
    ASSERT_TRUE(msg.ok()) << msg.status();

    std::uint64_t expect_offset;
    const auto found =
        std::find_if(host_table.begin(), host_table.end(),
                     [&](const Entry& e) { return e.key == key; });
    if (found != host_table.end()) {
      expect_offset = found->offset;
    } else {
      expect_offset = next_offset;
      host_table.push_back({key, next_offset});
      next_offset += usr_bytes;
    }
    EXPECT_EQ(msg->return_value, expect_offset) << "key " << key;
    // Payload visible at the offset on the receiver.
    std::uint64_t first_word;
    std::memset(&first_word, round, 8);
    EXPECT_EQ(fabric->runtime(1)
                  .PeekU64("ht_heap", msg->return_value / 8)
                  .value(),
              first_word);
  }
}

// --------------------------------------------------- pipeline invariants

TEST(FlowControlInvariantTest, NoFrameIsEverLostOrReordered) {
  // Fire many messages through tiny banks; sequence numbers on the
  // receiver must be gapless and ordered, regardless of stalls.
  auto fabric = MakeLoadedFabric();
  const int total = 64;
  std::vector<std::uint32_t> sns;
  fabric->runtime(1).SetOnExecuted(
      [&](const ReceivedMessage& msg) { sns.push_back(msg.sn); });
  const bench::SendLoops loops(
      *fabric,
      {{.src = 0,
        .dst = 1,
        .count = total,
        .next = [](std::uint64_t) {
          return bench::FlowMessage{.jam = "nop",
                                    .usr = std::vector<std::uint8_t>(8, 1)};
        }}});
  fabric->RunUntil([&] { return sns.size() == total; });
  ASSERT_TRUE(loops.status().ok()) << loops.status();
  ASSERT_EQ(sns.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(sns[static_cast<std::size_t>(i)], static_cast<std::uint32_t>(i + 1));
  }
}

TEST(FlowControlInvariantTest, StressNoiseNeverBreaksCorrectness) {
  // Heavy interference changes timing, never results.
  auto fabric = MakeLoadedFabric();
  bench::StressConfig stress;
  stress.preempt_probability = 0.2;  // extreme preemption
  bench::ApplyStress(*fabric, stress);
  std::vector<std::uint8_t> usr(64);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    std::memcpy(usr.data() + 8 * i, &i, 8);
    expect += i;
  }
  for (int round = 0; round < 5; ++round) {
    auto msg = SendAndRun(*fabric, "ssum", Invoke::kInjected, {}, usr);
    ASSERT_TRUE(msg.ok()) << msg.status();
    EXPECT_EQ(msg->return_value, expect);
  }
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTimings) {
  auto run_once = [] {
    auto fabric = MakeLoadedFabric();
    std::vector<std::uint8_t> usr(128, 3);
    auto msg = SendAndRun(*fabric, "iput", Invoke::kInjected, {5}, usr);
    EXPECT_TRUE(msg.ok());
    return std::make_pair(msg->delivered_at, msg->completed_at);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(DeterminismTest, StressedRunsAreSeedDeterministic) {
  auto run_once = [] {
    auto fabric = MakeLoadedFabric();
    bench::ApplyStress(*fabric, bench::StressConfig{});
    std::vector<std::uint8_t> usr(64, 1);
    auto msg = SendAndRun(*fabric, "ssum", Invoke::kInjected, {}, usr);
    EXPECT_TRUE(msg.ok());
    return msg->completed_at;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --------------------------------------------------- perftest harnesses

TEST(PerftestTest, PingPongProducesStableSamples) {
  auto fabric = MakeLoadedFabric();
  bench::AmConfig config;
  config.jam = "nop";
  config.mode = Invoke::kInjected;
  config.usr_bytes = 16;
  config.warmup = 20;
  config.iterations = 100;
  auto result = bench::RunAmPingPong(*fabric, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->one_way.count(), 100u);
  EXPECT_GT(result->one_way.Median(), 0u);
  // Steady-state ping-pong on a quiet deterministic testbed: tight spread.
  EXPECT_LT(result->one_way.TailSpread(), 0.05);
  EXPECT_GT(result->frame_len, 0u);
}

TEST(PerftestTest, FailedPingPongLeavesNoHookBehind) {
  // The driver's hooks capture its locals: a run that fails must clear
  // them, or the next executed frame calls into the dead driver.
  auto fabric = MakeLoadedFabric();
  bench::AmConfig config;
  config.jam = "no_such_jam";
  EXPECT_FALSE(bench::RunAmPingPong(*fabric, config).ok());

  const std::vector<std::uint64_t> args = {1};
  const std::vector<std::uint8_t> usr(8, 1);
  ASSERT_TRUE(
      fabric->runtime(0).Send("nop", Invoke::kInjected, args, usr).ok());
  fabric->Run();
  EXPECT_EQ(fabric->runtime(1).stats().messages_executed, 1u);
  EXPECT_EQ(fabric->runtime(0).stats().messages_executed, 0u);
  EXPECT_EQ(fabric->runtime(0).stats().messages_sent, 1u);
  EXPECT_EQ(fabric->runtime(1).stats().messages_sent, 0u);
}

TEST(PerftestTest, InjectionRateBeatsPingPongThroughput) {
  // Pipelining through banks must outperform one-at-a-time ping-pong.
  auto bed1 = MakeLoadedFabric();
  bench::AmConfig config;
  config.jam = "nop";
  config.mode = Invoke::kInjected;
  config.usr_bytes = 16;
  config.warmup = 20;
  config.iterations = 200;
  auto pp = bench::RunAmPingPong(*bed1, config);
  ASSERT_TRUE(pp.ok());
  const double pingpong_rate =
      1e12 / static_cast<double>(2 * pp->one_way.Median());

  auto bed2 = MakeLoadedFabric();
  auto rate = bench::RunAmInjectionRate(*bed2, config);
  ASSERT_TRUE(rate.ok()) << rate.status();
  EXPECT_GT(rate->messages_per_second, pingpong_rate * 2);
}

TEST(PerftestTest, RawPutHarnessesWork) {
  auto fabric = MakeLoadedFabric();
  bench::RawPutConfig config;
  config.size = 512;
  config.warmup = 20;
  config.iterations = 100;
  auto pp = bench::RunRawPutPingPong(*fabric, config);
  ASSERT_TRUE(pp.ok()) << pp.status();
  EXPECT_EQ(pp->one_way.count(), 100u);
  auto stream = bench::RunRawPutStream(*fabric, config);
  ASSERT_TRUE(stream.ok()) << stream.status();
  EXPECT_GT(stream->messages_per_second, 0.0);
}

// ------------------------------------------------------ frame properties

TEST(FrameLayoutPropertyTest, RandomSpecsKeepStructuralInvariants) {
  Xoshiro256 rng(4242);
  for (int round = 0; round < 500; ++round) {
    FrameSpec spec;
    spec.injected = rng.NextBernoulli(0.5);
    if (spec.injected) {
      spec.got_slots = static_cast<std::uint32_t>(rng.NextBelow(64));
      spec.code_size = rng.NextBelow(4096) & ~7ull;
    }
    spec.args_size = rng.NextBelow(128);
    spec.usr_size = rng.NextBelow(KiB(64));
    spec.split_code_data = rng.NextBernoulli(0.2);
    const FrameLayout layout = FrameLayout::Compute(spec);

    EXPECT_EQ(layout.frame_len % 64, 0u);
    EXPECT_EQ(layout.sig_off, layout.frame_len - 8);
    EXPECT_GE(layout.args_off, kHeaderBytes);
    EXPECT_GE(layout.usr_off, layout.args_off + spec.args_size);
    EXPECT_GE(layout.sig_off, layout.usr_off + spec.usr_size);
    if (spec.injected) {
      EXPECT_EQ(layout.pre_off, layout.code_off - 16);
      EXPECT_GE(layout.code_off,
                layout.gotp_off + 8ull * spec.got_slots);
      EXPECT_GE(layout.args_off, layout.code_off + spec.code_size);
      if (spec.split_code_data) {
        EXPECT_EQ(layout.args_off % mem::kPageSize, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace twochains::core
