// Soak / stress suite (ctest label: "soak"): a 4-host star drives mixed
// injected/local traffic in both directions under the benchlib stress
// model (seeded DRAM contention + receiver preemption), with the hub
// draining through a 2-core receiver pool and LLC stashing toggled per
// run. The invariant under test is mailbox hygiene: at drain, no frame
// is left in any mailbox slice and every bank flag has returned to its
// owning sender — the "no mailbox leak" property that pooled, sharded
// banks must preserve under hostile timing. After every completion the
// runtimes' ready-head heaps are also held to a full scan of the claim
// table, across stealing and hostile timing.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "benchlib/send_loop.hpp"
#include "benchlib/stress.hpp"
#include "benchlib/workloads.hpp"
#include "common/rng.hpp"
#include "core/fabric.hpp"

namespace twochains::core {
namespace {

constexpr std::uint32_t kSpokes = 3;
constexpr std::uint32_t kToHubPerSpoke = 400;   // spoke -> hub
constexpr std::uint32_t kFromHubPerSpoke = 200; // hub -> spoke
constexpr std::uint64_t kSeed = 0x50AC;

FabricOptions SoakOptions(bool stashing, bool stealing) {
  FabricOptions options;
  options.hosts = kSpokes + 1;
  options.topology = Topology::kStar;
  options.hub = 0;
  options.runtime.banks = 4;
  options.runtime.mailboxes_per_bank = 4;
  options.runtime.mailbox_slot_bytes = KiB(64);
  options.runtime.sender_core = 2;  // keep sends off the hub's pool cores
  options.nic.stash_to_llc = stashing;
  options.runtime_overrides.assign(options.hosts, options.runtime);
  options.runtime_overrides[0].receiver_cores = 2;
  if (stealing) {
    // Hub pool steals aggressively (trigger 2-fresh / 1-armed) so the
    // stressed, skewed run exercises claim handoffs constantly.
    StealConfig steal;
    steal.enabled = true;
    steal.threshold = 1;
    steal.hysteresis = 1;
    options.runtime_overrides[0].steal = steal;
  }
  return options;
}

/// One seeded traffic flow: @p total mixed messages from host @p src to
/// host @p dst, paced by flow control and the sender CPU.
bench::SendFlow SoakFlow(std::uint32_t src, std::uint32_t dst,
                         std::uint32_t total, std::uint64_t seed) {
  return {.src = src,
          .dst = dst,
          .count = total,
          .next = [rng = Xoshiro256(seed)](std::uint64_t) mutable {
            bench::FlowMessage msg;
            const std::uint64_t kind = rng.NextBelow(3);
            msg.jam = kind == 0 ? "iput" : "ssum";
            msg.mode = kind == 2 ? Invoke::kLocal : Invoke::kInjected;
            msg.args = {rng.NextBelow(128)};
            msg.usr.resize(8 * (1 + rng.NextBelow(8)));
            for (std::size_t i = 0; i < msg.usr.size(); i += 8) {
              const std::uint64_t v = rng.Next();
              std::memcpy(msg.usr.data() + i, &v, 8);
            }
            return msg;
          }};
}

void RunSoak(bool stashing, bool stealing = false) {
  Fabric fabric(SoakOptions(stashing, stealing));
  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok()) << package.status();
  ASSERT_TRUE(fabric.LoadPackage(*package).ok());

  bench::StressConfig stress;
  stress.seed = kSeed;
  bench::ApplyStress(fabric, stress);

  // The steal variant skews the incast: spoke 1 pushes 3x the traffic,
  // backing up its affinity core while a sibling core idles.
  std::vector<std::uint32_t> to_hub(kSpokes + 1, kToHubPerSpoke);
  if (stealing) to_hub[1] = 3 * kToHubPerSpoke;

  // After every completion on every host, each pool core's ready-head
  // heap must name the same next frame as a full scan of the claim table
  // (the first disagreement is reported).
  bool ready_index_failed = false;
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    Runtime& rt = fabric.runtime(h);
    rt.SetOnExecuted([&rt, &ready_index_failed, h](const ReceivedMessage&) {
      if (ready_index_failed) return;
      if (const Status st = rt.CheckReadyIndexForTest(); !st.ok()) {
        ready_index_failed = true;
        ADD_FAILURE() << "host " << h << ": " << st;
      }
    });
  }

  std::vector<bench::SendFlow> flows;
  for (std::uint32_t s = 1; s <= kSpokes; ++s) {
    flows.push_back(SoakFlow(s, 0, to_hub[s], kSeed + 13 * s));
    flows.push_back(SoakFlow(0, s, kFromHubPerSpoke, kSeed + 131 * s));
  }
  const bench::SendLoops loops(fabric, std::move(flows));
  fabric.Run();
  bench::ClearStress(fabric);
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    fabric.runtime(h).SetOnExecuted(nullptr);
  }
  ASSERT_TRUE(loops.status().ok()) << loops.status();

  // Every message sent was delivered and executed.
  std::uint64_t hub_expect = 0;
  for (std::uint32_t s = 1; s <= kSpokes; ++s) hub_expect += to_hub[s];
  EXPECT_EQ(fabric.runtime(0).stats().messages_executed, hub_expect);
  for (std::uint32_t s = 1; s <= kSpokes; ++s) {
    EXPECT_EQ(fabric.runtime(s).stats().messages_executed,
              static_cast<std::uint64_t>(kFromHubPerSpoke));
  }

  // No mailbox leak: nothing in flight, every bank flag back home, and
  // every returned flag accounted to exactly one drainer — the
  // owner-drained + stolen-drained ledger must reconcile with the flag
  // counter on every host (a flag returned early or twice breaks it).
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    Runtime& rt = fabric.runtime(h);
    EXPECT_EQ(rt.InFlightFrames(), 0u) << "host " << h;
    EXPECT_EQ(rt.stats().banks_drained_owner + rt.stats().banks_drained_stolen,
              rt.stats().bank_flags_returned)
        << "host " << h;
    for (PeerId p = 0; p < rt.peer_count(); ++p) {
      EXPECT_EQ(rt.ClosedSendBanks(p), 0u) << "host " << h << " peer " << p;
      EXPECT_TRUE(rt.HasFreeSlot(p)) << "host " << h << " peer " << p;
    }
    for (std::uint32_t c = 0; c < rt.receiver_pool_size(); ++c) {
      EXPECT_EQ(rt.StolenBanksHeld(c), 0u) << "host " << h << " core " << c;
    }
  }
  if (stealing) {
    // The skew really drove the contended path: banks were stolen, and
    // some were drained to flag return by their thief.
    EXPECT_GT(fabric.runtime(0).stats().steals, 0u);
    EXPECT_GT(fabric.runtime(0).stats().banks_drained_stolen, 0u);
  } else {
    EXPECT_EQ(fabric.runtime(0).stats().steals, 0u);
    EXPECT_EQ(fabric.runtime(0).stats().banks_drained_stolen, 0u);
  }

  // Flag traffic really happened (the invariant is not vacuous): each
  // spoke filled many banks toward the hub.
  const auto& hub_peers = fabric.runtime(0).stats().per_peer;
  ASSERT_EQ(hub_peers.size(), kSpokes);
  for (const PeerStats& p : hub_peers) {
    EXPECT_GE(p.bank_flags_returned, kToHubPerSpoke / 4 - 4);
  }
}

TEST(SoakTest, MixedTrafficWithStashingDrainsClean) { RunSoak(true); }

TEST(SoakTest, MixedTrafficWithoutStashingDrainsClean) { RunSoak(false); }

// Steal-mode soak: the same stressed star with a skewed incast and the
// hub pool stealing. Mailbox hygiene must survive constant claim
// handoffs, and the drained-bank ledger must reconcile exactly.
TEST(SoakTest, SkewedStealingPoolDrainsClean) {
  RunSoak(true, /*stealing=*/true);
}

}  // namespace
}  // namespace twochains::core
