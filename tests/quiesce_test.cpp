// Pool-core hotplug stress suite: QuiesceCore / ReviveCore re-shard bank
// homes while traffic is in flight, so the protocol ships with the harness
// that proves the handoff safe. A seeded generator draws thousands of
// short skewed incast topologies (pool width, bank shape, wait mode,
// stealing, per-spoke load, and the hotplug schedule itself all
// randomized) and checks the scheduler invariants after every run: each
// frame executed exactly once, in-bank completion order intact across the
// permanent handoff, bank flags returned only after a full drain, nothing
// left pending or homed to a dark core, and the hotplug ledger
// reconciling (stranded backlog reported == frames_drained_during_quiesce,
// per-core re-shard mirrors == banks_resharded) — plus byte-identical
// reruns on a seed subsample and directed cases pinning re-shard/restore
// counts, NUMA-preferring placement, a peer connecting mid-quiesce, and
// the error paths.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "benchlib/testbed_defaults.hpp"
#include "common/rng.hpp"
#include "pool_harness.hpp"

namespace twochains::core {
namespace {

using pooltest::MakePoolOptions;
using pooltest::PoolRunResult;
using pooltest::PoolTopology;
using pooltest::QuiesceEvent;
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

/// Draws one short random topology with a random hotplug schedule. Loads
/// are skewed (one hot spoke) so the quiesced core's banks carry a real
/// stranded backlog, and a fraction of plans is deliberately impossible
/// (two quiesces on a 2-core pool) to exercise the refusal path live.
PoolTopology RandomTopology(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  PoolTopology topo;
  topo.seed = seed;
  topo.spokes = 2 + static_cast<std::uint32_t>(rng.NextBelow(3));     // 2..4
  topo.receiver_cores =
      2 + static_cast<std::uint32_t>(rng.NextBelow(3));               // 2..4
  topo.banks = 1 + static_cast<std::uint32_t>(rng.NextBelow(2));      // 1..2
  topo.mailboxes_per_bank =
      2 + static_cast<std::uint32_t>(rng.NextBelow(3));               // 2..4
  topo.wait_mode =
      rng.NextBelow(2) == 0 ? cpu::WaitMode::kPoll : cpu::WaitMode::kWfe;
  topo.steal.enabled = rng.NextBelow(2) != 0;  // hotplug x stealing mix
  topo.steal.threshold = 1 + static_cast<std::uint32_t>(rng.NextBelow(3));
  topo.steal.hysteresis = static_cast<std::uint32_t>(rng.NextBelow(2));
  topo.messages_per_spoke.resize(topo.spokes);
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < topo.spokes; ++s) {
    topo.messages_per_spoke[s] =
        2 + static_cast<std::uint32_t>(rng.NextBelow(6));             // 2..7
    total += topo.messages_per_spoke[s];
  }
  const std::uint32_t hot =
      static_cast<std::uint32_t>(rng.NextBelow(topo.spokes));
  total -= topo.messages_per_spoke[hot];
  topo.messages_per_spoke[hot] *=
      4 + static_cast<std::uint32_t>(rng.NextBelow(9));               // x4..12
  total += topo.messages_per_spoke[hot];

  const std::uint32_t events =
      1 + static_cast<std::uint32_t>(rng.NextBelow(2));               // 1..2
  for (std::uint32_t e = 0; e < events; ++e) {
    QuiesceEvent q;
    q.pool_index =
        static_cast<std::uint32_t>(rng.NextBelow(topo.receiver_cores));
    // Quiesce somewhere in the first ~2/3 of the drain so the handoff has
    // stranded work to migrate and plenty of traffic still to land.
    q.after_executed = 1 + rng.NextBelow(std::max<std::uint64_t>(
                               1, (total * 2) / 3));
    if (rng.NextBelow(2) == 0) {
      q.revive_after = q.after_executed +
                       1 + rng.NextBelow(std::max<std::uint64_t>(
                               1, total - q.after_executed));
    }
    topo.quiesce.push_back(q);
  }
  return topo;
}

/// Digest of the default sweep's fingerprints (see ExpectSweepDigest).
constexpr std::uint64_t kQuiesceSweepDigest = 0x9ebc733eb951f464ull;

TEST(QuiesceInvariantTest, RandomizedHotplugPreservesSchedulerInvariants) {
  const pkg::Package& package = BenchPackage();
  const std::uint32_t runs = pooltest::SweepTopologies("TC_QUIESCE_TOPOLOGIES");
  std::uint64_t digest = pooltest::kSweepDigestSeed;
  std::uint64_t quiesces = 0;
  std::uint64_t runs_with_stranded_backlog = 0;
  std::uint64_t revives = 0;
  std::uint64_t refusals = 0;
  for (std::uint32_t t = 0; t < runs; ++t) {
    const PoolTopology topo = RandomTopology(0x401E5CE0 + t);
    const PoolRunResult result = RunPoolIncast(topo, package);
    pooltest::ExpectPoolInvariants(topo, result);
    digest = pooltest::FoldFingerprint(digest, result.fingerprint);
    quiesces += result.quiesces_applied;
    revives += result.revives_applied;
    refusals += result.quiesces_refused;
    if (result.hub.frames_drained_during_quiesce > 0) {
      ++runs_with_stranded_backlog;
    }
    // Byte-identical rerun on a seed subsample: the whole observable
    // state — event counts, stats tables, per-core hotplug ledgers —
    // must reproduce exactly from the topology spec.
    if (t % 25 == 0) {
      const PoolRunResult again = RunPoolIncast(topo, package);
      EXPECT_EQ(result.fingerprint, again.fingerprint) << topo.Describe();
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing topology: " << topo.Describe();
      break;
    }
  }
  pooltest::ExpectSweepDigest(digest, runs, kQuiesceSweepDigest);
  // The sweep must exercise the contended paths, not vacuously pass on
  // runs where the hotplug never fired or never carried backlog.
  EXPECT_GT(quiesces, runs / 2)
      << "too few quiesces applied (" << quiesces << "/" << runs << ")";
  EXPECT_GT(runs_with_stranded_backlog, runs / 10)
      << "too few runs migrated a live backlog ("
      << runs_with_stranded_backlog << "/" << runs << ")";
  EXPECT_GT(revives, runs / 10) << "too few revives (" << revives << ")";
  EXPECT_GT(refusals, 0u)
      << "the randomized plans never hit a refusal path";
}

/// Directed re-shard/restore accounting: quiesce one core of a 2-core
/// pool mid-drain, revive it later, and pin the exact home movements.
TEST(QuiesceInvariantTest, QuiesceReshardsAndReviveRestores) {
  PoolTopology topo;
  topo.spokes = 2;
  topo.receiver_cores = 2;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  topo.messages_per_spoke = {48, 48};
  topo.seed = 0x40F1;
  // Core 0 homes (peer0, bank0) and (peer1, bank1): 2 of the 4 banks.
  QuiesceEvent q;
  q.pool_index = 0;
  q.after_executed = 10;
  q.revive_after = 60;
  topo.quiesce = {q};

  const PoolRunResult r = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, r);
  EXPECT_EQ(r.quiesces_applied, 1u);
  EXPECT_EQ(r.revives_applied, 1u);
  // 2 banks out at quiesce + 2 banks back at revive.
  EXPECT_EQ(r.hub.banks_resharded, 4u);
  EXPECT_EQ(r.active_cores_at_drain, 2u);
  ASSERT_EQ(r.banks_homed_at_drain.size(), 2u);
  EXPECT_EQ(r.banks_homed_at_drain[0], 2u);  // affinity map restored
  EXPECT_EQ(r.banks_homed_at_drain[1], 2u);
  // The drain kept both cores fed: the survivor carried the whole pool
  // while core 0 was out, and core 0 drained again after the revive.
  EXPECT_GT(r.executed_per_core[0], 0u);
  EXPECT_GT(r.executed_per_core[1], 0u);
}

/// Without a revive the core stays out: every bank ends homed to the
/// survivor, which owes (and returns) every remaining bank flag.
TEST(QuiesceInvariantTest, UnrevivedCoreStaysDark) {
  PoolTopology topo;
  topo.spokes = 2;
  topo.receiver_cores = 2;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  topo.messages_per_spoke = {40, 40};
  topo.seed = 0xDA27;
  QuiesceEvent q;
  q.pool_index = 1;
  q.after_executed = 8;
  topo.quiesce = {q};

  const PoolRunResult r = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, r);
  EXPECT_EQ(r.quiesces_applied, 1u);
  EXPECT_EQ(r.active_cores_at_drain, 1u);
  ASSERT_EQ(r.banks_homed_at_drain.size(), 2u);
  EXPECT_EQ(r.banks_homed_at_drain[0], 4u);
  EXPECT_EQ(r.banks_homed_at_drain[1], 0u);
  EXPECT_EQ(r.hub.banks_resharded, 2u);
  // Everything delivered after the quiesce drained on core 0 alone, and
  // the senders never deadlocked: all flags came home.
  EXPECT_EQ(r.executed, r.sent);
}

/// Determinism across the hotplug: reruns are byte-identical at pool 2
/// and 4, with and without a quiesce, and the quiesce visibly changes
/// the schedule when it strands work.
TEST(QuiesceInvariantTest, HotplugRunsAreDeterministic) {
  for (const std::uint32_t cores : {2u, 4u}) {
    PoolTopology topo;
    topo.spokes = 3;
    topo.receiver_cores = cores;
    topo.banks = 2;
    topo.mailboxes_per_bank = 4;
    topo.messages_per_spoke = {40, 12, 12};
    topo.seed = 0xD0 + cores;

    const PoolRunResult off = RunPoolIncast(topo, BenchPackage());
    const PoolRunResult off2 = RunPoolIncast(topo, BenchPackage());
    EXPECT_EQ(off.fingerprint, off2.fingerprint) << topo.Describe();

    QuiesceEvent q;
    q.pool_index = 0;
    q.after_executed = 12;
    q.revive_after = 40;
    topo.quiesce = {q};
    const PoolRunResult on = RunPoolIncast(topo, BenchPackage());
    const PoolRunResult on2 = RunPoolIncast(topo, BenchPackage());
    pooltest::ExpectPoolInvariants(topo, on);
    EXPECT_EQ(on.fingerprint, on2.fingerprint) << topo.Describe();
    EXPECT_NE(on.fingerprint, off.fingerprint) << topo.Describe();
  }
}

/// Hotplug composed with stealing: claims stolen from (or held by) the
/// quiescing core dissolve correctly and the ledger still reconciles.
TEST(QuiesceInvariantTest, QuiesceComposesWithStealing) {
  PoolTopology topo;
  topo.spokes = 2;
  topo.receiver_cores = 2;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  topo.messages_per_spoke = {96, 4};
  topo.steal.enabled = true;
  topo.steal.threshold = 2;
  topo.steal.hysteresis = 1;
  topo.seed = 0xBEEF;
  QuiesceEvent q;
  q.pool_index = 1;
  q.after_executed = 20;
  q.revive_after = 70;
  topo.quiesce = {q};

  const PoolRunResult r = RunPoolIncast(topo, BenchPackage());
  pooltest::ExpectPoolInvariants(topo, r);
  EXPECT_EQ(r.quiesces_applied, 1u);
  EXPECT_EQ(r.revives_applied, 1u);
  EXPECT_EQ(r.stolen_claims_held, 0u);
  EXPECT_EQ(r.executed, r.sent);
}

/// Error paths, no traffic needed: out-of-range indices, double quiesce,
/// the last-survivor guard, and reviving an active core.
TEST(QuiesceApiTest, RefusesInvalidTransitions) {
  PoolTopology topo;
  topo.spokes = 2;
  topo.receiver_cores = 2;
  topo.messages_per_spoke = {1, 1};
  core::Fabric fabric(MakePoolOptions(topo));
  ASSERT_TRUE(fabric.LoadPackage(BenchPackage()).ok());
  Runtime& hub = fabric.runtime(0);

  EXPECT_FALSE(hub.QuiesceCore(7).ok());
  EXPECT_FALSE(hub.ReviveCore(7).ok());
  EXPECT_FALSE(hub.ReviveCore(0).ok());  // active, not quiesced

  auto first = hub.QuiesceCore(0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);  // no traffic: nothing stranded
  EXPECT_EQ(hub.pool_core_state(0), PoolCoreState::kQuiesced);
  EXPECT_EQ(hub.ActivePoolCores(), 1u);
  EXPECT_EQ(hub.BanksHomedTo(0), 0u);

  EXPECT_FALSE(hub.QuiesceCore(0).ok());  // already quiesced
  EXPECT_FALSE(hub.QuiesceCore(1).ok());  // last active survivor

  ASSERT_TRUE(hub.ReviveCore(0).ok());
  EXPECT_EQ(hub.pool_core_state(0), PoolCoreState::kActive);
  EXPECT_EQ(hub.ActivePoolCores(), 2u);
  EXPECT_EQ(hub.BanksHomedTo(0), 2u);  // affinity map restored
  EXPECT_FALSE(hub.ReviveCore(0).ok());
  // Out + back: each direction moved the same 2 banks.
  EXPECT_EQ(hub.stats().banks_resharded, 4u);
}

/// NUMA-aware re-shard placement: on a 2-domain hub, a quiesced core's
/// banks land on the same-domain survivor, not across the interconnect.
TEST(QuiesceApiTest, ReshardPrefersSameDomainSurvivors) {
  // 2+2 pool cores across two domains (benchlib PaperNumaWideFabric);
  // single-bank slices, so hub peer p's bank homes to member p % 4.
  core::FabricOptions options = bench::PaperNumaWideFabric(5);
  for (core::RuntimeConfig& rc : options.runtime_overrides) {
    rc.banks = 1;
  }
  core::Fabric fabric(options);
  const Status loaded = fabric.LoadPackage(BenchPackage());
  ASSERT_TRUE(loaded.ok()) << loaded;
  Runtime& hub = fabric.runtime(0);

  // 4 peers x 1 bank: peer p's bank homes to member p % 4 — one each.
  for (std::uint32_t m = 0; m < 4; ++m) {
    ASSERT_EQ(hub.BanksHomedTo(m), 1u) << "member " << m;
  }
  // Quiesce member 0 (domain 0): its bank must re-home to member 1, the
  // only same-domain survivor, even though members 2 and 3 are idle too.
  ASSERT_TRUE(hub.QuiesceCore(0).ok());
  EXPECT_EQ(hub.BanksHomedTo(0), 0u);
  EXPECT_EQ(hub.BanksHomedTo(1), 2u);
  EXPECT_EQ(hub.BanksHomedTo(2), 1u);
  EXPECT_EQ(hub.BanksHomedTo(3), 1u);
  // With the whole domain gone, the fallback crosses the interconnect
  // rather than stranding the banks.
  ASSERT_TRUE(hub.QuiesceCore(1).ok());
  EXPECT_EQ(hub.BanksHomedTo(1), 0u);
  EXPECT_EQ(hub.BanksHomedTo(2) + hub.BanksHomedTo(3), 4u);
  // Revives restore the affinity map in either order.
  ASSERT_TRUE(hub.ReviveCore(0).ok());
  ASSERT_TRUE(hub.ReviveCore(1).ok());
  for (std::uint32_t m = 0; m < 4; ++m) {
    EXPECT_EQ(hub.BanksHomedTo(m), 1u) << "member " << m;
  }
}

/// A peer that connects while a pool core is quiesced homes the banks
/// whose affinity owner is dark on a survivor; the revive then restores
/// the affinity map for that peer too.
TEST(QuiesceApiTest, PeerConnectingWhileQuiescedHomesOnSurvivors) {
  sim::Engine engine;
  const net::HostConfig host_config;
  net::Host hub_host(0, host_config);
  net::Host spoke_host(1, host_config);
  net::Nic hub_nic(engine, hub_host, {});
  net::Nic spoke_nic(engine, spoke_host, {});
  ASSERT_TRUE(hub_nic.ConnectTo(spoke_nic).ok());
  RuntimeConfig hub_config;
  hub_config.receiver_cores = 2;
  hub_config.sender_core = 2;
  Runtime hub(engine, hub_host, hub_nic, hub_config);
  Runtime spoke(engine, spoke_host, spoke_nic, RuntimeConfig{});
  ASSERT_TRUE(hub.Initialize().ok());
  ASSERT_TRUE(spoke.Initialize().ok());

  ASSERT_TRUE(hub.QuiesceCore(1).ok());
  const auto ids = Runtime::Connect(hub, spoke);
  ASSERT_TRUE(ids.ok()) << ids.status();
  // Default shape, 2 banks: bank 1's affinity owner is core 1, which is
  // dark, so both banks start on core 0.
  EXPECT_EQ(hub.BanksHomedTo(0), 2u);
  EXPECT_EQ(hub.BanksHomedTo(1), 0u);
  for (Runtime* rt : {&hub, &spoke}) {
    ASSERT_TRUE(rt->LoadPackage(BenchPackage()).ok());
  }
  ASSERT_TRUE(Runtime::SyncNamespaces(hub, spoke).ok());
  ASSERT_TRUE(hub.StartReceiver().ok());
  ASSERT_TRUE(spoke.StartReceiver().ok());

  std::vector<std::uint64_t> executed(2, 0);
  hub.SetOnExecuted([&](const ReceivedMessage& msg) {
    if (msg.executed) ++executed[msg.pool];
  });
  // 16 sends fill both banks; the run drains them and returns the flags.
  const auto send_both_banks = [&] {
    const std::vector<std::uint64_t> args = {0};
    const std::vector<std::uint8_t> usr(64, 1);
    for (int i = 0; i < 16; ++i) {
      const auto sent =
          spoke.Send(ids->second, "ssum", Invoke::kInjected, args, usr);
      ASSERT_TRUE(sent.ok()) << sent.status();
    }
    engine.Run();
  };

  send_both_banks();
  EXPECT_EQ(executed, (std::vector<std::uint64_t>{16, 0}));

  ASSERT_TRUE(hub.ReviveCore(1).ok());
  EXPECT_EQ(hub.BanksHomedTo(0), 1u);
  EXPECT_EQ(hub.BanksHomedTo(1), 1u);
  EXPECT_EQ(hub.stats().banks_resharded, 1u);
  send_both_banks();
  EXPECT_EQ(executed, (std::vector<std::uint64_t>{24, 8}));
}

}  // namespace
}  // namespace twochains::core
