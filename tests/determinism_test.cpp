// Determinism regression suite for the multi-core reactive receiver: the
// same seeded incast workload, run twice per receiver-pool size, must
// produce byte-identical stats tables, per-core counters, and event
// counts. Concurrent completions are ordered by the engine's (time, seq)
// key — never by host-side iteration order — and this suite is the pin
// that holds that property down as the receiver pipeline evolves. A
// second suite pins the same property for *steal-enabled* pools under a
// skewed load, where claim handoffs add scheduling races that must stay
// seed-reproducible — and additionally checks the config is not silently
// dead: when steals occur, the observable state must differ from the
// steal-off run.
//
// Reruns compared with each other cannot see a change that moves both
// runs the same way, so every case also adds the FNV-1a-64 of its
// first-run fingerprint to one file-wide sum. A sum does not depend on
// the order gtest runs the cases in. When every case ran, the sum must
// match kRecordedDigest; a filtered run only prints it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "benchlib/send_loop.hpp"
#include "benchlib/workloads.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "core/fabric.hpp"
#include "pool_harness.hpp"

namespace twochains::core {
namespace {

constexpr std::uint32_t kSenders = 4;
constexpr std::uint32_t kMessagesPerSender = 120;
constexpr std::uint64_t kSeed = 0xD37E12;

/// Cases in this file, and the sum of their first-run fingerprint digests.
/// Re-record the constant from the printed sum only when a simulated
/// observable is meant to move, and say why.
constexpr int kDigestCases = 34;
constexpr std::uint64_t kRecordedDigest = 0x4d6a4ac3e3cf58f5ull;

std::uint64_t g_digest_sum = 0;
int g_digest_cases = 0;

void AddToDigest(const std::string& fingerprint) {
  g_digest_sum +=
      pooltest::FoldFingerprint(pooltest::kSweepDigestSeed, fingerprint);
  ++g_digest_cases;
}

class DigestEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    std::printf("determinism digest over %d cases: 0x%016llx\n",
                g_digest_cases, static_cast<unsigned long long>(g_digest_sum));
    if (g_digest_cases == kDigestCases) {
      EXPECT_EQ(g_digest_sum, kRecordedDigest)
          << "a simulated observable moved: re-record the digest only when "
             "that is intended, and say why";
    }
  }
};

::testing::Environment* const kDigestEnvironment =
    ::testing::AddGlobalTestEnvironment(new DigestEnvironment);

FabricOptions PoolOptions(std::uint32_t receiver_cores) {
  FabricOptions options;
  options.hosts = kSenders + 1;
  options.topology = Topology::kStar;
  options.hub = 0;
  options.runtime.banks = 4;
  options.runtime.mailboxes_per_bank = 4;
  options.runtime.mailbox_slot_bytes = KiB(64);
  // The hub only receives; give it room for the widest pool and keep its
  // (unused) sender core off the pool.
  options.host_overrides.assign(options.hosts, options.host);
  options.host_overrides[0].cache.cores = 5;
  options.runtime_overrides.assign(options.hosts, options.runtime);
  options.runtime_overrides[0].receiver_cores = receiver_cores;
  options.runtime_overrides[0].sender_core = 4;
  return options;
}

/// Drives a seeded mixed workload (injected ssum/iput/nop plus local
/// ssum, varying payloads) from every spoke into the hub; returns once
/// the engine drains.
void RunSeededIncast(Fabric& fabric) {
  std::vector<bench::SendFlow> flows;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    flows.push_back(
        {.src = s + 1,
         .dst = 0,
         .count = kMessagesPerSender,
         .next = [rng = Xoshiro256(kSeed + 7919 * s)](std::uint64_t) mutable {
           return pooltest::MixedMessage(rng, 16);
         }});
  }
  const bench::SendLoops loops(fabric, std::move(flows));
  fabric.Run();
  ASSERT_TRUE(loops.status().ok()) << loops.status();
}

/// Serializes everything an observer can see — engine counters, every
/// runtime's stats table, and the hub's per-core counters — into one
/// string for byte-exact comparison.
std::string Fingerprint(Fabric& fabric) {
  std::string out = StrFormat("events=%llu now=%llu\n",
                              static_cast<unsigned long long>(
                                  fabric.engine().EventsProcessed()),
                              static_cast<unsigned long long>(
                                  fabric.engine().Now()));
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    const RuntimeStats& s = fabric.runtime(h).stats();
    out += StrFormat(
        "host%u sent=%llu exec=%llu deliv=%llu bytes=%llu flags=%llu "
        "stalls=%llu rej=%llu waits=%llu remote=%llu remotecy=%llu\n",
        h, static_cast<unsigned long long>(s.messages_sent),
        static_cast<unsigned long long>(s.messages_executed),
        static_cast<unsigned long long>(s.messages_delivered),
        static_cast<unsigned long long>(s.bytes_sent),
        static_cast<unsigned long long>(s.bank_flags_returned),
        static_cast<unsigned long long>(s.send_stalls),
        static_cast<unsigned long long>(s.security_rejections),
        static_cast<unsigned long long>(s.wait_episodes),
        static_cast<unsigned long long>(s.frames_drained_remote),
        static_cast<unsigned long long>(s.remote_drain_cycles));
    for (std::size_t p = 0; p < s.per_peer.size(); ++p) {
      const PeerStats& ps = s.per_peer[p];
      out += StrFormat(
          "  peer%zu sent=%llu deliv=%llu exec=%llu bytes=%llu "
          "stalls=%llu flags=%llu\n",
          p, static_cast<unsigned long long>(ps.messages_sent),
          static_cast<unsigned long long>(ps.messages_delivered),
          static_cast<unsigned long long>(ps.messages_executed),
          static_cast<unsigned long long>(ps.bytes_sent),
          static_cast<unsigned long long>(ps.send_stalls),
          static_cast<unsigned long long>(ps.bank_flags_returned));
    }
  }
  Runtime& hub = fabric.runtime(0);
  for (std::uint32_t c = 0; c < hub.receiver_pool_size(); ++c) {
    const cpu::PerfCounters& pc = hub.receiver_cpu(c).counters();
    const cpu::WaitStats& ws = hub.receiver_wait_stats(c);
    out += StrFormat(
        "core%u exec=%llu wait=%llu pack=%llu mem=%llu instr=%llu "
        "msgs=%llu episodes=%llu idle=%llu detect=%llu burned=%llu\n",
        c,
        static_cast<unsigned long long>(pc.Of(cpu::CycleClass::kExecute)),
        static_cast<unsigned long long>(pc.Of(cpu::CycleClass::kWait)),
        static_cast<unsigned long long>(pc.Of(cpu::CycleClass::kPack)),
        static_cast<unsigned long long>(pc.Of(cpu::CycleClass::kMemory)),
        static_cast<unsigned long long>(pc.instructions),
        static_cast<unsigned long long>(pc.messages_handled),
        static_cast<unsigned long long>(ws.episodes),
        static_cast<unsigned long long>(ws.idle_picos),
        static_cast<unsigned long long>(ws.detection_picos),
        static_cast<unsigned long long>(ws.cycles_burned));
  }
  return out;
}

/// One full run: fresh fabric, seeded workload, drained engine.
std::string RunOnceWith(const FabricOptions& options,
                        std::uint64_t* executed_out = nullptr) {
  Fabric fabric(options);
  auto package = bench::BuildBenchPackage();
  if (!package.ok()) {
    ADD_FAILURE() << "package build failed: " << package.status();
    return "<package build failed>";
  }
  if (const Status st = fabric.LoadPackage(*package); !st.ok()) {
    ADD_FAILURE() << "package load failed: " << st;
    return "<package load failed>";
  }
  RunSeededIncast(fabric);
  // Drained: no frame may still sit in a mailbox, and every bank flag
  // must have come home.
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    EXPECT_EQ(fabric.runtime(h).InFlightFrames(), 0u) << "host " << h;
    for (PeerId p = 0; p < fabric.runtime(h).peer_count(); ++p) {
      EXPECT_EQ(fabric.runtime(h).ClosedSendBanks(p), 0u)
          << "host " << h << " peer " << p;
    }
  }
  if (executed_out != nullptr) {
    *executed_out = fabric.runtime(0).stats().messages_executed;
  }
  return Fingerprint(fabric);
}

std::string RunOnce(std::uint32_t receiver_cores,
                    std::uint64_t* executed_out = nullptr) {
  return RunOnceWith(PoolOptions(receiver_cores), executed_out);
}

class DeterminismTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DeterminismTest, RepeatedSeededRunsAreByteIdentical) {
  const std::uint32_t cores = GetParam();
  std::uint64_t executed = 0;
  const std::string first = RunOnce(cores, &executed);
  AddToDigest(first);
  const std::string second = RunOnce(cores);
  EXPECT_EQ(first, second) << "receiver_cores=" << cores;
  EXPECT_EQ(executed,
            static_cast<std::uint64_t>(kSenders) * kMessagesPerSender);
}

// Note: asserting executed == kSenders * kMessagesPerSender per pool size
// above already pins that every pool width executes the same work — the
// pool changes *when* frames execute, never *whether* they do.
INSTANTIATE_TEST_SUITE_P(PoolSizes, DeterminismTest,
                         ::testing::Values(1u, 2u, 4u));

// ------------------------------------------------------ stealing pools

/// A skewed 5-spoke incast that reliably triggers steals on pools of 2
/// and 4: single-bank slices pin each spoke to one affinity core
/// (peer % pool), spokes 0 and 4 both land on core 0 and carry most of
/// the load, so that core always claims a *second* backlogged bank a
/// sibling can take over (a lone in-flight bank is not stealable work —
/// in-bank ordering already serializes it).
pooltest::PoolTopology StealTopology(std::uint32_t receiver_cores,
                                     bool steal_on) {
  pooltest::PoolTopology topo;
  topo.spokes = 5;
  topo.receiver_cores = receiver_cores;
  topo.banks = 1;
  topo.mailboxes_per_bank = 4;
  topo.messages_per_spoke = {160, 16, 16, 16, 48};
  topo.steal.enabled = steal_on;
  // Single-bank senders keep the hub's ready backlog shallow (flow
  // control caps it near 2), so the trigger sits at 2-fresh / 1-armed.
  topo.steal.threshold = 1;
  topo.steal.hysteresis = 1;
  topo.seed = kSeed;
  return topo;
}

class StealDeterminismTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StealDeterminismTest, StealEnabledRunsAreByteIdenticalAndNotDead) {
  const std::uint32_t cores = GetParam();
  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok()) << package.status();

  const pooltest::PoolTopology topo = StealTopology(cores, true);
  const pooltest::PoolRunResult first = pooltest::RunPoolIncast(topo,
                                                                *package);
  AddToDigest(first.fingerprint);
  const pooltest::PoolRunResult second = pooltest::RunPoolIncast(topo,
                                                                 *package);
  pooltest::ExpectPoolInvariants(topo, first);
  EXPECT_EQ(first.fingerprint, second.fingerprint)
      << "steal-enabled pool of " << cores << " not reproducible";

  // Dead-config guard: the skew must actually provoke steals, and a run
  // with stealing off must leave a *different* observable state — if the
  // toggle stopped reaching the scheduler, both expectations fail.
  const pooltest::PoolTopology off = StealTopology(cores, false);
  const pooltest::PoolRunResult base = pooltest::RunPoolIncast(off,
                                                               *package);
  pooltest::ExpectPoolInvariants(off, base);
  EXPECT_GT(first.hub.steals, 0u);
  EXPECT_NE(first.fingerprint, base.fingerprint);
  // Stealing reshuffles *where* frames run, never whether they run.
  EXPECT_EQ(first.executed, base.executed);
}

INSTANTIATE_TEST_SUITE_P(StealPoolSizes, StealDeterminismTest,
                         ::testing::Values(2u, 4u));

// ---------------------------------------------------- lane scale-out

/// Lane-sharded execution must be invisible to every observer: the same
/// topology run with executor lanes {2, 4} has to reproduce the scalar
/// (lanes=1) fingerprint byte for byte, across pool widths and with the
/// steal scheduler both off and on.
class LaneDeterminismTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, bool>> {};

TEST_P(LaneDeterminismTest, LanedRunsMatchTheSingleLaneFingerprint) {
  const auto [lanes, cores, steal_on] = GetParam();
  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok()) << package.status();

  pooltest::PoolTopology topo = StealTopology(cores, steal_on);
  const pooltest::PoolRunResult scalar =
      pooltest::RunPoolIncast(topo, *package);
  AddToDigest(scalar.fingerprint);
  topo.lanes = lanes;
  const pooltest::PoolRunResult laned =
      pooltest::RunPoolIncast(topo, *package);
  pooltest::ExpectPoolInvariants(topo, laned);
  EXPECT_EQ(scalar.fingerprint, laned.fingerprint)
      << "lanes=" << lanes << " cores=" << cores << " steal=" << steal_on;
  EXPECT_EQ(scalar.executed, laned.executed);
}

INSTANTIATE_TEST_SUITE_P(
    LaneGrid, LaneDeterminismTest,
    ::testing::Combine(::testing::Values(2u, 4u), ::testing::Values(1u, 4u),
                       ::testing::Bool()));

// ------------------------------------------------ switched-tree fabric

/// The skewed steal load pushed through a 2-tier oversubscribed tree with
/// adaptive banks on: switches home on their own lanes past the hosts,
/// so the laned executor must reproduce the scalar fingerprint byte for
/// byte — switch counters and ECN ledgers included.
pooltest::PoolTopology SwitchTopology(std::uint32_t receiver_cores,
                                      bool steal_on) {
  pooltest::PoolTopology topo = StealTopology(receiver_cores, steal_on);
  topo.topology = Topology::kTree;
  topo.tree.arity = 2;
  topo.tree.tiers = 2;
  topo.tree.oversub = 2.0;
  topo.switches.buffer_bytes = KiB(8);
  topo.switches.ecn_threshold_bytes = KiB(2);
  topo.adaptive.enabled = true;
  return topo;
}

class SwitchLaneDeterminismTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, bool>> {};

TEST_P(SwitchLaneDeterminismTest, LanedTreeRunsMatchTheScalarFingerprint) {
  const auto [lanes, cores, steal_on] = GetParam();
  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok()) << package.status();

  pooltest::PoolTopology topo = SwitchTopology(cores, steal_on);
  const pooltest::PoolRunResult scalar =
      pooltest::RunPoolIncast(topo, *package);
  AddToDigest(scalar.fingerprint);
  topo.lanes = lanes;
  const pooltest::PoolRunResult laned =
      pooltest::RunPoolIncast(topo, *package);
  pooltest::ExpectPoolInvariants(topo, laned);
  EXPECT_EQ(scalar.fingerprint, laned.fingerprint)
      << "lanes=" << lanes << " cores=" << cores << " steal=" << steal_on;
  EXPECT_EQ(scalar.executed, laned.executed);
  // The congestion paths must actually be exercised under this shape, or
  // the grid pins nothing interesting.
  EXPECT_GT(scalar.switch_frames_forwarded, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SwitchGrid, SwitchLaneDeterminismTest,
    ::testing::Combine(::testing::Values(2u, 4u), ::testing::Values(1u, 4u),
                       ::testing::Bool()));

/// Everything an observer can see minus what the transport is *allowed*
/// to change: the engine's event count (switch hops add events) and the
/// switch counter lines themselves.
std::string LogicalFingerprint(const std::string& fingerprint) {
  std::string out;
  std::size_t pos = 0;
  bool first = true;
  while (pos < fingerprint.size()) {
    std::size_t end = fingerprint.find('\n', pos);
    if (end == std::string::npos) end = fingerprint.size();
    const std::string line = fingerprint.substr(pos, end - pos);
    pos = end + 1;
    if (first) {
      first = false;  // events=... now=...
      continue;
    }
    if (line.rfind("sw", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// A non-blocking (oversub 1:1) tree whose per-segment latencies sum to
/// the direct cable's 250 ns, with an ideal zero-latency forwarding
/// pipeline, is logically invisible: the 2-host run delivers every frame
/// at the direct-cabled instant, so the entire observable state — stats
/// tables, per-core counters, drain time — matches the kStar run of the
/// same logical traffic. Only the engine's event count (and the switch
/// counters) betray the extra hops.
TEST(SwitchTransparencyTest, UnitOversubTreeMatchesDirectCabledRun) {
  pooltest::PoolTopology direct;
  direct.spokes = 1;
  direct.receiver_cores = 2;
  direct.banks = 2;
  direct.mailboxes_per_bank = 4;
  direct.messages_per_spoke = {200};
  direct.seed = kSeed;

  pooltest::PoolTopology tree = direct;
  tree.topology = Topology::kTree;
  tree.tree.arity = 1;  // host -> ToR -> spine -> ToR -> host: 4 segments
  tree.tree.tiers = 2;
  tree.tree.oversub = 1.0;
  tree.switches.forward_latency_ns = 0.0;
  tree.switches.wire_latency_ns = 62.5;  // 4 x 62.5 = the 250 ns cable
  tree.switches.buffer_bytes = MiB(1);
  tree.switches.ecn_threshold_bytes = MiB(1);  // one sender never marks

  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok()) << package.status();
  const pooltest::PoolRunResult d = pooltest::RunPoolIncast(direct, *package);
  AddToDigest(d.fingerprint);
  const pooltest::PoolRunResult t = pooltest::RunPoolIncast(tree, *package);
  pooltest::ExpectPoolInvariants(direct, d);
  pooltest::ExpectPoolInvariants(tree, t);
  EXPECT_EQ(t.drained_at, d.drained_at);
  EXPECT_EQ(LogicalFingerprint(t.fingerprint),
            LogicalFingerprint(d.fingerprint));
  EXPECT_GT(t.switch_frames_forwarded, 0u);
  EXPECT_EQ(t.switch_frames_marked, 0u);
}

// ------------------------------------------------------- NUMA domains

/// The pool fabric on a 2-domain hub (cores {0,1,2} domain 0, {3,4}
/// domain 1 — the 4-wide pool spans both), domain-aware placement on.
FabricOptions NumaPoolOptions(std::uint32_t receiver_cores, bool steal) {
  FabricOptions options = PoolOptions(receiver_cores);
  options.host_overrides[0].cache.domains = 2;
  if (steal) {
    StealConfig config;
    config.enabled = true;
    config.threshold = 1;
    config.hysteresis = 1;
    options.runtime_overrides[0].steal = config;
  }
  return options;
}

using NumaParam = std::tuple<std::uint32_t, bool>;

class NumaDeterminismTest : public ::testing::TestWithParam<NumaParam> {};

TEST_P(NumaDeterminismTest, DomainsEnabledRunsAreByteIdentical) {
  const auto [cores, steal] = GetParam();
  std::uint64_t executed = 0;
  const std::string first =
      RunOnceWith(NumaPoolOptions(cores, steal), &executed);
  AddToDigest(first);
  const std::string second = RunOnceWith(NumaPoolOptions(cores, steal));
  EXPECT_EQ(first, second)
      << "domains=2 receiver_cores=" << cores << " steal=" << steal;
  EXPECT_EQ(executed,
            static_cast<std::uint64_t>(kSenders) * kMessagesPerSender);
}

INSTANTIATE_TEST_SUITE_P(
    NumaPools, NumaDeterminismTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Bool()));

// ---------------------------------------------------- jam cache on/off

/// The pool incast with the receiver-side jam cache armed (or not) on a
/// steal-enabled pool: the cache adds NAK/resend scheduling races that
/// must stay seed-reproducible, and the fingerprint now carries the
/// cache ledger, so a rerun comparison covers hit/miss ordering too.
pooltest::PoolTopology JamTopology(std::uint32_t receiver_cores,
                                   bool cache_on) {
  pooltest::PoolTopology topo;
  topo.spokes = 4;
  topo.receiver_cores = receiver_cores;
  topo.banks = 2;
  topo.mailboxes_per_bank = 4;
  topo.messages_per_spoke = {80, 80, 80, 80};
  topo.steal.enabled = receiver_cores > 1;
  topo.steal.threshold = 1;
  topo.steal.hysteresis = 1;
  topo.jam_cache.enabled = cache_on;
  topo.jam_cache.capacity = 4;
  topo.seed = kSeed;
  return topo;
}

using JamParam = std::tuple<std::uint32_t, bool>;

class JamCacheDeterminismTest : public ::testing::TestWithParam<JamParam> {};

TEST_P(JamCacheDeterminismTest, CacheRunsAreByteIdenticalAndNotDead) {
  const auto [cores, cache_on] = GetParam();
  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok()) << package.status();

  const pooltest::PoolTopology topo = JamTopology(cores, cache_on);
  const pooltest::PoolRunResult first = pooltest::RunPoolIncast(topo,
                                                                *package);
  AddToDigest(first.fingerprint);
  const pooltest::PoolRunResult second = pooltest::RunPoolIncast(topo,
                                                                 *package);
  pooltest::ExpectPoolInvariants(topo, first);
  EXPECT_EQ(first.fingerprint, second.fingerprint)
      << "jam_cache=" << cache_on << " pool of " << cores
      << " not reproducible";

  if (cache_on) {
    // Dead-config guard: the repeated jams must actually ride the fast
    // path, and the observable state must differ from a cache-off run.
    EXPECT_GT(first.spoke_by_handle_sends, 0u);
    EXPECT_GT(first.hub_jam.hits, 0u);
    const pooltest::PoolTopology off = JamTopology(cores, false);
    const pooltest::PoolRunResult base = pooltest::RunPoolIncast(off,
                                                                 *package);
    pooltest::ExpectPoolInvariants(off, base);
    EXPECT_NE(first.fingerprint, base.fingerprint);
    // The cache changes what travels, never whether work executes.
    EXPECT_EQ(first.executed, base.executed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    JamCachePools, JamCacheDeterminismTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Bool()));

}  // namespace
}  // namespace twochains::core
