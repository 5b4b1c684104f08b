// Work-stealing scheduler stress suite: the first feature where two pool
// cores contend for one bank's frames, so it ships with the harness that
// proves the contention safe. A seeded generator draws thousands of short
// skewed incast topologies (pool width, bank shape, wait mode, steal
// threshold/hysteresis, per-spoke load all randomized) and checks the
// scheduler invariants after every run: each frame executed exactly once,
// in-bank completion order intact across claim handoffs, bank flags
// returned only after a full drain and accounted to exactly one drainer,
// nothing left claimed or in flight at drain — plus byte-identical reruns
// on a seed subsample, and directed cases pinning that a skewed pool
// actually steals, a balanced one never does, stealing shortens the
// skewed drain, and same-instant heads are served in (peer, bank) order.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/rng.hpp"
#include "pool_harness.hpp"

namespace twochains::core {
namespace {

using pooltest::MakePoolOptions;
using pooltest::PoolRunResult;
using pooltest::PoolTopology;
using pooltest::RunPoolIncast;

const pkg::Package& BenchPackage() {
  static const pkg::Package package = [] {
    auto built = bench::BuildBenchPackage();
    if (!built.ok()) {
      ADD_FAILURE() << "package build failed: " << built.status();
      std::abort();
    }
    return *built;
  }();
  return package;
}

/// Draws one short random topology. Loads are skewed: every spoke gets a
/// small base load and one hot spoke is multiplied, which is what makes
/// an affinity-sharded pool imbalanced enough to steal.
PoolTopology RandomTopology(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  PoolTopology topo;
  topo.seed = seed;
  topo.spokes = 2 + static_cast<std::uint32_t>(rng.NextBelow(3));     // 2..4
  topo.receiver_cores =
      2 + static_cast<std::uint32_t>(rng.NextBelow(3));               // 2..4
  // Few banks concentrate a hot peer's load on few cores — the shape
  // where affinity sharding skews and stealing gets exercised.
  topo.banks = 1 + static_cast<std::uint32_t>(rng.NextBelow(2));      // 1..2
  topo.mailboxes_per_bank =
      2 + static_cast<std::uint32_t>(rng.NextBelow(3));               // 2..4
  topo.wait_mode =
      rng.NextBelow(2) == 0 ? cpu::WaitMode::kPoll : cpu::WaitMode::kWfe;
  topo.steal.enabled = rng.NextBelow(8) != 0;  // occasionally steal-off
  // threshold 0 exercises the Initialize clamp on a live workload.
  topo.steal.threshold = static_cast<std::uint32_t>(rng.NextBelow(4));
  topo.steal.hysteresis = static_cast<std::uint32_t>(rng.NextBelow(2));
  topo.messages_per_spoke.resize(topo.spokes);
  for (std::uint32_t s = 0; s < topo.spokes; ++s) {
    topo.messages_per_spoke[s] =
        2 + static_cast<std::uint32_t>(rng.NextBelow(6));             // 2..7
  }
  const std::uint32_t hot =
      static_cast<std::uint32_t>(rng.NextBelow(topo.spokes));
  topo.messages_per_spoke[hot] *=
      4 + static_cast<std::uint32_t>(rng.NextBelow(9));               // x4..12
  return topo;
}

/// Digest of the default sweep's fingerprints (see ExpectSweepDigest).
constexpr std::uint64_t kStealSweepDigest = 0x568ddf8f0bc4eedfull;

TEST(StealInvariantTest, RandomizedTopologiesPreserveSchedulerInvariants) {
  const pkg::Package& package = BenchPackage();
  const std::uint32_t runs = pooltest::SweepTopologies("TC_STEAL_TOPOLOGIES");
  std::uint64_t digest = pooltest::kSweepDigestSeed;
  std::uint64_t total_steals = 0;
  std::uint64_t runs_with_steals = 0;
  for (std::uint32_t t = 0; t < runs; ++t) {
    const PoolTopology topo = RandomTopology(0x57EA1000 + t);
    const PoolRunResult result = RunPoolIncast(topo, package);
    pooltest::ExpectPoolInvariants(topo, result);
    digest = pooltest::FoldFingerprint(digest, result.fingerprint);
    total_steals += result.hub.steals;
    if (result.hub.steals > 0) ++runs_with_steals;
    // Byte-identical rerun on a seed subsample: the whole observable
    // state — event counts, stats tables, per-core steal ledgers — must
    // reproduce exactly from the topology spec.
    if (t % 25 == 0) {
      const PoolRunResult again = RunPoolIncast(topo, package);
      EXPECT_EQ(result.fingerprint, again.fingerprint) << topo.Describe();
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing topology: " << topo.Describe();
      break;
    }
  }
  pooltest::ExpectSweepDigest(digest, runs, kStealSweepDigest);
  // The sweep must actually exercise the contended path, not vacuously
  // pass on steal-free runs.
  EXPECT_GT(runs_with_steals, runs / 20)
      << "steals triggered in too few topologies (" << runs_with_steals
      << "/" << runs << ", " << total_steals << " total)";
}

/// A hard-skewed pool steals, executes frames off-affinity on the
/// otherwise-idle cores, and drains faster than the same topology with
/// stealing off.
TEST(StealInvariantTest, SkewedPoolStealsAndDrainsFaster) {
  PoolTopology topo;
  topo.spokes = 2;
  topo.receiver_cores = 2;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  // Spoke 0 (hub peer 0, banks -> cores 0 and 1) is light; spoke 1 (hub
  // peer 1, banks -> cores 1 and 0) is light too, but make one spoke
  // overwhelmingly hot so its two banks queue deep while the other
  // spoke's banks run dry.
  topo.messages_per_spoke = {96, 4};
  topo.steal.enabled = true;
  topo.steal.threshold = 2;
  topo.steal.hysteresis = 1;
  topo.seed = 0xBEEF;

  const PoolRunResult on = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, on);

  PoolTopology off = topo;
  off.steal.enabled = false;
  const PoolRunResult base = RunPoolIncast(off, BenchPackage());
  pooltest::ExpectPoolInvariants(off, base);

  EXPECT_GT(on.hub.steals, 0u);
  EXPECT_GT(on.hub.frames_stolen, 0u);
  EXPECT_GT(on.hub.banks_drained_stolen, 0u);
  EXPECT_GT(on.peak_stolen_claims, 0u);
  // Both pool cores pulled real weight under steal; the fingerprints
  // differ (stealing visibly changed the schedule); and relieving the hot
  // core shortened the makespan.
  for (const std::uint64_t n : on.executed_per_core) EXPECT_GT(n, 0u);
  EXPECT_NE(on.fingerprint, base.fingerprint);
  EXPECT_LT(on.drained_at, base.drained_at);
}

/// A balanced pool — identical load on every spoke, banks spread
/// symmetrically — never pays the locality cost: zero steals.
TEST(StealInvariantTest, BalancedPoolNeverSteals) {
  PoolTopology topo;
  topo.spokes = 2;
  topo.receiver_cores = 2;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  topo.messages_per_spoke = {40, 40};
  topo.identical_streams = true;
  topo.steal.enabled = true;
  topo.steal.threshold = 2;
  topo.steal.hysteresis = 1;
  topo.seed = 0xBA1A;

  const PoolRunResult result = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, result);
  EXPECT_EQ(result.hub.steals, 0u);
  EXPECT_EQ(result.hub.frames_stolen, 0u);
  EXPECT_EQ(result.hub.banks_drained_stolen, 0u);
}

/// The ready heap's tie order: bank heads delivered at the same instant
/// are served lowest (peer, bank) first, not in delivery order.
TEST(ReadyHeapTest, SameInstantHeadsServeLowestPeerBankFirst) {
  PoolTopology topo;
  topo.spokes = 2;
  topo.receiver_cores = 1;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  Fabric fabric(MakePoolOptions(topo));
  ASSERT_TRUE(fabric.LoadPackage(BenchPackage()).ok());
  Runtime& hub = fabric.runtime(0);
  std::vector<std::pair<PeerId, std::uint32_t>> served;
  hub.SetOnExecuted([&](const ReceivedMessage& msg) {
    EXPECT_TRUE(msg.executed);
    EXPECT_TRUE(hub.CheckReadyIndexForTest().ok());
    served.emplace_back(msg.from, msg.slot);
  });

  // Valid Local ssum frames, injected before the engine runs, so all
  // three land at the same instant: (peer 0, bank 0), (peer 1, bank 0),
  // then (peer 0, bank 1).
  const pkg::BuiltElement* ssum =
      BenchPackage().Find(pkg::ElementKind::kJam, "ssum");
  ASSERT_NE(ssum, nullptr);
  FrameSpec spec;
  spec.args_size = 8;
  spec.usr_size = 8;
  const std::vector<std::uint8_t> args(8, 0);
  const std::vector<std::uint8_t> usr(8, 1);
  const std::vector<std::pair<PeerId, std::uint32_t>> injected = {
      {0, 0}, {1, 0}, {0, 4}};
  for (std::uint32_t i = 0; i < injected.size(); ++i) {
    FrameHeader header;
    header.sn = i + 1;
    header.elem_id = ssum->element_id;
    const auto frame = PackFrame(spec, header, {}, {}, args, usr);
    ASSERT_TRUE(frame.ok()) << frame.status();
    const auto [peer, slot] = injected[i];
    ASSERT_TRUE(hub.InjectRawFrame(peer, slot, *frame).ok());
  }
  fabric.Run();

  // The first delivery finds the core idle and begins at once; the other
  // two wait in the heap and tie on delivered_at.
  const std::vector<std::pair<PeerId, std::uint32_t>> expected = {
      {0, 0}, {0, 4}, {1, 0}};
  EXPECT_EQ(served, expected);
}

}  // namespace
}  // namespace twochains::core
