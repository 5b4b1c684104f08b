// Switched-fabric invariant suite: the first topology where frames cross
// shared switch buffers instead of a dedicated cable, so it ships with
// the harness that proves multi-hop delivery safe. A seeded generator
// draws randomized host->ToR->spine trees (arity, tiers, oversubscription,
// switch buffer and ECN threshold, pool width {1,4}, stealing on/off,
// adaptive AIMD banks on/off, per-spoke load all randomized) and checks
// after every run: each frame executed exactly once and in bank order
// across every hop, zero frames dropped (backpressure holds instead),
// the mark ledger reconciles (every ECN mark a switch applies is
// delivered to exactly one NIC, every echoed mark is seen by exactly one
// sender), the adaptive window never leaves [1, banks], and a
// seed subsample reruns byte-identically — including laned executor runs.
// Directed cases pin that an oversubscribed trunk actually marks, that
// AIMD actually backs off and recovers, and that a starved buffer holds
// rather than drops. TC_SWITCH_TOPOLOGIES overrides the sweep size.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/rng.hpp"
#include "pool_harness.hpp"

namespace twochains::core {
namespace {

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

/// Draws one short random switched-tree topology. Small shared buffers
/// and low ECN thresholds against a skewed incast are what make the
/// backpressure and marking paths fire, not just the happy path.
PoolTopology RandomTreeTopology(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  PoolTopology topo;
  topo.seed = seed;
  topo.topology = Topology::kTree;
  topo.spokes = 2 + static_cast<std::uint32_t>(rng.NextBelow(5));     // 2..6
  // The issue's pool axis: a lone receiver core or a wide pool.
  topo.receiver_cores = rng.NextBelow(2) == 0 ? 1 : 4;
  topo.banks = 1 + static_cast<std::uint32_t>(rng.NextBelow(3));      // 1..3
  topo.mailboxes_per_bank =
      2 + static_cast<std::uint32_t>(rng.NextBelow(3));               // 2..4
  topo.wait_mode =
      rng.NextBelow(2) == 0 ? cpu::WaitMode::kPoll : cpu::WaitMode::kWfe;
  topo.steal.enabled = rng.NextBelow(2) == 0;
  topo.steal.threshold = 1 + static_cast<std::uint32_t>(rng.NextBelow(3));
  topo.steal.hysteresis = static_cast<std::uint32_t>(rng.NextBelow(2));
  // Tree shape: arity 1 puts every host on its own ToR (pure spine
  // traffic), tiers 1 collapses to a single shared switch.
  topo.tree.arity = 1 + static_cast<std::uint32_t>(rng.NextBelow(4));
  topo.tree.tiers = 1 + static_cast<std::uint32_t>(rng.NextBelow(2));
  topo.tree.oversub = static_cast<double>(1 + rng.NextBelow(4));      // 1..4
  // 2..16 KiB shared buffer: one to ten frames deep, so incast bursts
  // regularly fill it and exercise the hold/wake path.
  topo.switches.buffer_bytes = KiB(2) << rng.NextBelow(4);
  // 1..8 KiB marking threshold, sometimes above the buffer (clamp path).
  topo.switches.ecn_threshold_bytes = KiB(1) << rng.NextBelow(4);
  // Adaptive AIMD banks mostly on.
  topo.adaptive.enabled = rng.NextBelow(4) != 0;
  // Every spoke carries real load (concurrent arrivals from *different*
  // hosts are what fill a shared buffer), plus one hot spoke for skew.
  topo.messages_per_spoke.resize(topo.spokes);
  for (std::uint32_t s = 0; s < topo.spokes; ++s) {
    topo.messages_per_spoke[s] =
        4 + static_cast<std::uint32_t>(rng.NextBelow(9));             // 4..12
  }
  const std::uint32_t hot =
      static_cast<std::uint32_t>(rng.NextBelow(topo.spokes));
  topo.messages_per_spoke[hot] *=
      3 + static_cast<std::uint32_t>(rng.NextBelow(6));               // x3..8
  return topo;
}

/// Digest of the default sweep's fingerprints (see ExpectSweepDigest).
constexpr std::uint64_t kSwitchSweepDigest = 0x0d57e4d1932ef369ull;

TEST(SwitchInvariantTest, RandomizedTreesPreserveMultiHopInvariants) {
  const pkg::Package& package = BenchPackage();
  const std::uint32_t runs = pooltest::SweepTopologies("TC_SWITCH_TOPOLOGIES");
  std::uint64_t digest = pooltest::kSweepDigestSeed;
  std::uint64_t runs_with_marks = 0;
  std::uint64_t runs_with_holds = 0;
  std::uint64_t runs_with_backoff = 0;
  for (std::uint32_t t = 0; t < runs; ++t) {
    const PoolTopology topo = RandomTreeTopology(0x5D17C4000 + t);
    const PoolRunResult result = RunPoolIncast(topo, package);
    pooltest::ExpectPoolInvariants(topo, result);
    digest = pooltest::FoldFingerprint(digest, result.fingerprint);
    // Every logical frame crossed the switch fabric: with tiers=2 each
    // spoke->hub put transits its ToR (and possibly the spine), so the
    // forwarded count can never trail the delivered count.
    EXPECT_GE(result.switch_frames_forwarded, result.executed)
        << topo.Describe();
    if (result.switch_frames_marked > 0) ++runs_with_marks;
    if (result.switch_backpressure_holds > 0) ++runs_with_holds;
    if (result.cwnd_decreases_sum > 0) ++runs_with_backoff;
    // Byte-identical rerun on a seed subsample: the whole observable
    // state — engine counters, stats tables, switch counters, ECN
    // ledgers — must reproduce exactly from the topology spec.
    if (t % 25 == 0) {
      const PoolRunResult again = RunPoolIncast(topo, package);
      EXPECT_EQ(result.fingerprint, again.fingerprint) << topo.Describe();
    }
    // And the laned executor must replay the scalar run byte for byte,
    // switch lanes included (each switch is homed past the hosts).
    if (t % 50 == 0) {
      PoolTopology laned = topo;
      laned.lanes = 2 + static_cast<std::uint32_t>(t % 100 == 0 ? 2 : 0);
      const PoolRunResult lr = RunPoolIncast(laned, package);
      EXPECT_EQ(result.fingerprint, lr.fingerprint)
          << laned.Describe() << " (lanes=" << laned.lanes << ")";
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing topology: " << topo.Describe();
      break;
    }
  }
  pooltest::ExpectSweepDigest(digest, runs, kSwitchSweepDigest);
  // The sweep must actually exercise the congestion paths, not vacuously
  // pass on uncontended runs.
  EXPECT_GT(runs_with_marks, runs / 20)
      << "ECN marks fired in too few topologies (" << runs_with_marks << "/"
      << runs << ")";
  EXPECT_GT(runs_with_holds, runs / 20)
      << "buffer backpressure fired in too few topologies ("
      << runs_with_holds << "/" << runs << ")";
  EXPECT_GT(runs_with_backoff, 0u)
      << "no topology ever triggered an AIMD decrease";
}

/// An oversubscribed 2-tier trunk under a hot incast must mark, the
/// marks must come home as echoes, and the adaptive sender must back
/// off below its static ceiling — and still deliver everything.
TEST(SwitchInvariantTest, OversubscribedTrunkMarksAndAdaptiveBacksOff) {
  PoolTopology topo;
  topo.topology = Topology::kTree;
  topo.spokes = 6;
  topo.receiver_cores = 2;
  topo.banks = 3;
  topo.mailboxes_per_bank = 4;
  topo.tree.arity = 2;
  topo.tree.tiers = 2;
  topo.tree.oversub = 4.0;
  topo.switches.buffer_bytes = KiB(16);
  topo.switches.ecn_threshold_bytes = KiB(2);
  topo.adaptive.enabled = true;
  topo.messages_per_spoke.assign(topo.spokes, 48);
  topo.seed = 0xECEC;
  const PoolRunResult r = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, r);
  EXPECT_GT(r.switch_frames_marked, 0u);
  EXPECT_GT(r.ecn_echoes_seen_sum, 0u);
  EXPECT_GT(r.cwnd_decreases_sum, 0u);
  std::uint64_t min_window = 3000;
  for (const std::uint64_t w : r.window_min_milli) {
    min_window = std::min(min_window, w);
  }
  EXPECT_LT(min_window, 3000u) << "no sender ever shrank its window";
  // AIMD recovers: clean flag returns after the burst reopen the window.
  EXPECT_GT(r.cwnd_increases_sum, 0u);
}

/// The same saturated trunk with static banks keeps pushing at full
/// window: no refusals, no window movement — the control in the
/// adaptive-vs-static comparison fig15 --tree tabulates.
TEST(SwitchInvariantTest, StaticBanksNeverRefuseOrMove) {
  PoolTopology topo;
  topo.topology = Topology::kTree;
  topo.spokes = 6;
  topo.receiver_cores = 2;
  topo.banks = 3;
  topo.mailboxes_per_bank = 4;
  topo.tree.arity = 2;
  topo.tree.tiers = 2;
  topo.tree.oversub = 4.0;
  topo.switches.buffer_bytes = KiB(16);
  topo.switches.ecn_threshold_bytes = KiB(2);
  topo.adaptive.enabled = false;
  topo.messages_per_spoke.assign(topo.spokes, 48);
  topo.seed = 0xECEC;
  const PoolRunResult r = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, r);
  // Marks still happen (the switch doesn't care who listens) and still
  // reconcile — but nobody acts on them.
  EXPECT_GT(r.switch_frames_marked, 0u);
  EXPECT_EQ(r.adaptive_refusals_sum, 0u);
  EXPECT_EQ(r.cwnd_decreases_sum, 0u);
}

/// A buffer two frames deep under a 6-spoke burst holds frames at
/// ingress (drop-free backpressure) yet everything still lands.
TEST(SwitchInvariantTest, StarvedBufferHoldsInsteadOfDropping) {
  PoolTopology topo;
  topo.topology = Topology::kTree;
  topo.spokes = 6;
  topo.receiver_cores = 1;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  topo.tree.arity = 3;
  topo.tree.tiers = 2;
  topo.tree.oversub = 2.0;
  topo.switches.buffer_bytes = KiB(4);
  topo.switches.ecn_threshold_bytes = KiB(1);
  topo.adaptive.enabled = true;
  topo.messages_per_spoke.assign(topo.spokes, 24);
  topo.seed = 0xB0FFE2;
  const PoolRunResult r = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, r);
  EXPECT_GT(r.switch_backpressure_holds, 0u);
  EXPECT_EQ(r.switch_frames_dropped, 0u);
  EXPECT_EQ(r.executed, r.sent);
}

/// tiers=1 collapses the tree to one shared switch; the invariants and
/// the mark ledger hold there too.
TEST(SwitchInvariantTest, SingleTierTreeDeliversEverything) {
  PoolTopology topo;
  topo.topology = Topology::kTree;
  topo.spokes = 4;
  topo.receiver_cores = 4;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  topo.steal.enabled = true;
  topo.steal.threshold = 2;
  topo.tree.tiers = 1;
  topo.switches.buffer_bytes = KiB(8);
  topo.switches.ecn_threshold_bytes = KiB(2);
  topo.adaptive.enabled = true;
  topo.messages_per_spoke.assign(topo.spokes, 32);
  topo.seed = 0x111;
  const PoolRunResult r = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, r);
  EXPECT_EQ(r.executed, r.sent);
  EXPECT_GE(r.switch_frames_forwarded, r.executed);
}

}  // namespace
}  // namespace twochains::core
