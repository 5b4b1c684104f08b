// Tests for the N-host fabric: topology wireup, cluster-wide namespace
// sync, per-peer flow-control isolation, bank-flag demultiplexing back to
// the owning sender, and per-peer stats.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "benchlib/perftest.hpp"
#include "benchlib/send_loop.hpp"
#include "benchlib/workloads.hpp"
#include "core/fabric.hpp"

namespace twochains::core {
namespace {

FabricOptions SmallOptions(std::uint32_t hosts,
                           Topology topology = Topology::kFullMesh,
                           std::uint32_t hub = 0) {
  FabricOptions options;
  options.hosts = hosts;
  options.topology = topology;
  options.hub = hub;
  options.runtime.banks = 2;
  options.runtime.mailboxes_per_bank = 4;
  options.runtime.mailbox_slot_bytes = KiB(64);
  return options;
}

std::unique_ptr<Fabric> MakeLoadedFabric(FabricOptions options) {
  auto fabric = std::make_unique<Fabric>(std::move(options));
  auto package = bench::BuildBenchPackage();
  EXPECT_TRUE(package.ok()) << package.status();
  EXPECT_TRUE(fabric->LoadPackage(*package).ok());
  return fabric;
}

/// Sends one jam from src to dst and runs until it executes there.
StatusOr<ReceivedMessage> SendAndRun(Fabric& fabric, std::uint32_t src,
                                     std::uint32_t dst,
                                     const std::string& jam,
                                     std::vector<std::uint64_t> args,
                                     std::vector<std::uint8_t> usr) {
  TC_ASSIGN_OR_RETURN(const PeerId peer, fabric.PeerIdFor(src, dst));
  std::optional<ReceivedMessage> received;
  fabric.runtime(dst).SetOnExecuted(
      [&](const ReceivedMessage& msg) { received = msg; });
  TC_ASSIGN_OR_RETURN(
      const SendReceipt receipt,
      fabric.runtime(src).Send(peer, jam, Invoke::kInjected, args, usr));
  (void)receipt;
  fabric.RunUntil([&] { return received.has_value(); });
  fabric.runtime(dst).SetOnExecuted(nullptr);
  if (!received.has_value()) return Internal("message never executed");
  return *received;
}

// ------------------------------------------------------------- topology

TEST(FabricTest, FullMeshWiresEveryPair) {
  auto fabric = MakeLoadedFabric(SmallOptions(3));
  for (std::uint32_t a = 0; a < 3; ++a) {
    EXPECT_EQ(fabric->runtime(a).peer_count(), 2u);
    for (std::uint32_t b = 0; b < 3; ++b) {
      if (a == b) {
        EXPECT_FALSE(fabric->Connected(a, b));
        continue;
      }
      EXPECT_TRUE(fabric->Connected(a, b));
      auto peer = fabric->PeerIdFor(a, b);
      ASSERT_TRUE(peer.ok());
      EXPECT_LT(*peer, 2u);
    }
  }
}

TEST(FabricTest, StarWiresSpokesToHubOnly) {
  auto fabric = MakeLoadedFabric(SmallOptions(4, Topology::kStar, 0));
  EXPECT_EQ(fabric->runtime(0).peer_count(), 3u);
  for (std::uint32_t spoke = 1; spoke < 4; ++spoke) {
    EXPECT_EQ(fabric->runtime(spoke).peer_count(), 1u);
    EXPECT_TRUE(fabric->Connected(0, spoke));
  }
  EXPECT_FALSE(fabric->Connected(1, 2));
  EXPECT_EQ(fabric->PeerIdFor(1, 2).status().code(), StatusCode::kNotFound);
}

TEST(FabricTest, MessagesFlowBetweenEveryConnectedPair) {
  auto fabric = MakeLoadedFabric(SmallOptions(3));
  std::vector<std::uint8_t> usr(16);
  for (std::uint32_t src = 0; src < 3; ++src) {
    for (std::uint32_t dst = 0; dst < 3; ++dst) {
      if (src == dst) continue;
      const std::uint64_t v = 100 * src + dst;
      std::memcpy(usr.data(), &v, 8);
      auto msg = SendAndRun(*fabric, src, dst, "nop", {v}, usr);
      ASSERT_TRUE(msg.ok()) << "src=" << src << " dst=" << dst << ": "
                            << msg.status();
      EXPECT_TRUE(msg->executed);
      EXPECT_EQ(msg->return_value, v);
      // The receiver saw the frame on the peer slot that maps back to src.
      auto expect_from = fabric->PeerIdFor(dst, src);
      ASSERT_TRUE(expect_from.ok());
      EXPECT_EQ(msg->from, *expect_from);
    }
  }
}

// ------------------------------------------------------- namespace sync

TEST(FabricTest, ClusterNamespaceSyncVisibleFromEveryHost) {
  // Injected ssum links against the receiver-resident kvstore ried; a send
  // from every host to every other host only packs a valid GOTP if the
  // cluster-wide namespace exchange reached that pair.
  auto fabric = MakeLoadedFabric(SmallOptions(3));
  std::vector<std::uint8_t> usr(32);
  for (std::uint32_t src = 0; src < 3; ++src) {
    for (std::uint32_t dst = 0; dst < 3; ++dst) {
      if (src == dst) continue;
      std::uint64_t expect = 0;
      for (std::uint64_t i = 0; i < 4; ++i) {
        const std::uint64_t v = src * 1000 + dst * 10 + i;
        std::memcpy(usr.data() + 8 * i, &v, 8);
        expect += v;
      }
      auto msg = SendAndRun(*fabric, src, dst, "ssum", {0}, usr);
      ASSERT_TRUE(msg.ok()) << "src=" << src << " dst=" << dst << ": "
                            << msg.status();
      EXPECT_EQ(msg->return_value, expect);
    }
  }
  // Every host executed exactly the two messages addressed to it, each
  // accounted to the correct peer.
  for (std::uint32_t h = 0; h < 3; ++h) {
    const auto& stats = fabric->runtime(h).stats();
    EXPECT_EQ(stats.messages_executed, 2u);
    ASSERT_EQ(stats.per_peer.size(), 2u);
    EXPECT_EQ(stats.per_peer[0].messages_executed, 1u);
    EXPECT_EQ(stats.per_peer[1].messages_executed, 1u);
  }
}

// --------------------------------------------------------- flow control

TEST(FabricTest, PerPeerFlowControlIsolation) {
  // Exhausting every bank toward peer A must not stall sends to peer B.
  auto fabric = MakeLoadedFabric(SmallOptions(3));
  Runtime& sender = fabric->runtime(0);
  auto to_a = fabric->PeerIdFor(0, 1);
  auto to_b = fabric->PeerIdFor(0, 2);
  ASSERT_TRUE(to_a.ok());
  ASSERT_TRUE(to_b.ok());

  std::vector<std::uint8_t> usr(8, 0);
  // Fill all of peer A's banks without letting the engine run.
  int sends_to_a = 0;
  while (sender.HasFreeSlot(*to_a)) {
    ASSERT_TRUE(sender.Send(*to_a, "ssum", Invoke::kInjected, {}, usr).ok());
    ++sends_to_a;
  }
  EXPECT_EQ(sends_to_a, 8);  // 2 banks x 4 slots
  auto blocked = sender.Send(*to_a, "ssum", Invoke::kInjected, {}, usr);
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);

  // Peer B is untouched: its banks are all open and sends succeed.
  EXPECT_TRUE(sender.HasFreeSlot(*to_b));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sender.Send(*to_b, "ssum", Invoke::kInjected, {}, usr).ok());
  }
  EXPECT_EQ(sender.Send(*to_b, "ssum", Invoke::kInjected, {}, usr)
                .status()
                .code(),
            StatusCode::kResourceExhausted);

  // Stalls were accounted to the right peers.
  const auto& per_peer = sender.stats().per_peer;
  EXPECT_EQ(per_peer[*to_a].send_stalls, 1u);
  EXPECT_EQ(per_peer[*to_b].send_stalls, 1u);
  EXPECT_EQ(per_peer[*to_a].messages_sent, 8u);
  EXPECT_EQ(per_peer[*to_b].messages_sent, 8u);

  // Waiters are per peer too: a waiter on A fires once A's flags return,
  // even though B stays exhausted (nothing drains B here... both drain).
  fabric->Run();
  EXPECT_TRUE(sender.HasFreeSlot(*to_a));
  EXPECT_TRUE(sender.HasFreeSlot(*to_b));
  EXPECT_EQ(fabric->runtime(1).stats().messages_executed, 8u);
  EXPECT_EQ(fabric->runtime(2).stats().messages_executed, 8u);
}

constexpr int kPerSender = 40;  // 5 bank cycles at 2x4 slots

/// Hosts 0 and 1 each send kPerSender ssums to host 2, interleaved, each
/// parking on its own flow control. Sender 0's one-word payloads are odd
/// and sender 1's even, so the receiver's per-peer counts and sums show
/// that every payload executed from the mailbox slice of its own sender.
void ExpectInterleavedStreamsArriveIntact(Fabric& fabric) {
  Runtime& receiver = fabric.runtime(2);
  std::map<PeerId, std::uint64_t> sum_by_peer;
  std::map<PeerId, int> count_by_peer;
  receiver.SetOnExecuted([&](const ReceivedMessage& msg) {
    sum_by_peer[msg.from] += msg.return_value;
    ++count_by_peer[msg.from];
  });
  std::uint64_t expect_sum[2] = {0, 0};
  std::vector<bench::SendFlow> flows;
  for (std::uint32_t s = 0; s < 2; ++s) {
    flows.push_back({.src = s,
                     .dst = 2,
                     .count = kPerSender,
                     .next = [s, &expect_sum](std::uint64_t n) {
                       const std::uint64_t v = 2 * (n + 1) + (s == 0 ? 1 : 0);
                       expect_sum[s] += v;
                       bench::FlowMessage msg{
                           .jam = "ssum", .usr = std::vector<std::uint8_t>(8)};
                       std::memcpy(msg.usr.data(), &v, 8);
                       return msg;
                     }});
  }
  const bench::SendLoops loops(fabric, std::move(flows));
  fabric.RunUntil([&] {
    return receiver.stats().messages_executed >= 2u * kPerSender;
  });
  receiver.SetOnExecuted(nullptr);
  ASSERT_TRUE(loops.status().ok()) << loops.status();
  for (std::uint32_t s = 0; s < 2; ++s) {
    const PeerId from = receiver.PeerIdOf(fabric.runtime(s));
    EXPECT_EQ(count_by_peer[from], kPerSender) << "sender " << s;
    // No cross-talk: each sender's distinct value stream arrived intact.
    EXPECT_EQ(sum_by_peer[from], expect_sum[s]) << "sender " << s;
  }
}

TEST(FabricTest, BankFlagsReturnToOwningSenderUnderInterleavedTraffic) {
  // Two senders incast one receiver with interleaved streams, several bank
  // cycles deep. Each sender's flow control must be replenished by its own
  // flags (never the other sender's), and every payload must execute from
  // the mailbox slice of the peer that sent it.
  auto fabric = MakeLoadedFabric(SmallOptions(3, Topology::kStar, 2));
  ExpectInterleavedStreamsArriveIntact(*fabric);

  // Flags went back to the right sender: both senders finished all 40
  // sends (10 bank closures each), and the receiver returned flags on
  // both peer slices.
  const auto& rx_peers = fabric->runtime(2).stats().per_peer;
  EXPECT_GE(rx_peers[*fabric->PeerIdFor(2, 0)].bank_flags_returned, 9u);
  EXPECT_GE(rx_peers[*fabric->PeerIdFor(2, 1)].bank_flags_returned, 9u);
  EXPECT_EQ(fabric->runtime(0).stats().per_peer[*fabric->PeerIdFor(0, 2)]
                .messages_sent,
            static_cast<std::uint64_t>(kPerSender));
  EXPECT_EQ(fabric->runtime(1).stats().per_peer[*fabric->PeerIdFor(1, 2)]
                .messages_sent,
            static_cast<std::uint64_t>(kPerSender));
}

TEST(FabricTest, BankFlagsReturnToOwningSenderAcrossShardedPool) {
  // Same invariant as above, but the receiver drains through a 2-core
  // pool with its banks sharded across the cores: flags must still
  // return to the owning sender only, and only after the owning core
  // fully drained the bank — never early because *another* core's bank
  // finished first.
  FabricOptions options = SmallOptions(3, Topology::kStar, 2);
  options.runtime.sender_core = 2;
  options.runtime_overrides.assign(3, options.runtime);
  options.runtime_overrides[2].receiver_cores = 2;
  auto fabric = MakeLoadedFabric(options);
  Runtime& receiver = fabric->runtime(2);
  ASSERT_EQ(receiver.receiver_pool_size(), 2u);
  ExpectInterleavedStreamsArriveIntact(*fabric);

  // Both pool cores took part in the drain, and every bank flag went
  // home: both senders completed all 40 sends (10 bank closures each).
  EXPECT_GT(receiver.receiver_cpu(0).counters().messages_handled, 0u);
  EXPECT_GT(receiver.receiver_cpu(1).counters().messages_handled, 0u);
  const auto& rx_peers = receiver.stats().per_peer;
  EXPECT_GE(rx_peers[*fabric->PeerIdFor(2, 0)].bank_flags_returned, 9u);
  EXPECT_GE(rx_peers[*fabric->PeerIdFor(2, 1)].bank_flags_returned, 9u);
  fabric->Run();  // drain the trailing flag puts
  EXPECT_EQ(receiver.InFlightFrames(), 0u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(fabric->runtime(s).ClosedSendBanks(*fabric->PeerIdFor(s, 2)),
              0u);
  }
}

// ---------------------------------------------------------- guard rails

TEST(FabricTest, SendToUnwiredPeerFails) {
  auto fabric = MakeLoadedFabric(SmallOptions(2));
  std::vector<std::uint8_t> usr(8, 0);
  auto r = fabric->runtime(0).Send(5, "ssum", Invoke::kInjected, {}, usr);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(fabric->runtime(0).HasFreeSlot(5));
}

TEST(FabricTest, FlowBetweenUnconnectedHostsFails) {
  // Star spokes share no cable. A slot waiter parked toward a peer that
  // was never wired would never fire, so the flow must fail up front
  // instead of stalling the run.
  auto fabric = MakeLoadedFabric(SmallOptions(3, Topology::kStar, 0));
  const bench::SendLoops loops(
      *fabric, {{.src = 1,
                 .dst = 2,
                 .count = 64,
                 .next = [](std::uint64_t) {
                   return bench::FlowMessage{.jam = "nop"};
                 }}});
  fabric->Run();
  EXPECT_EQ(loops.status().code(), StatusCode::kNotFound) << loops.status();
  EXPECT_EQ(loops.sent(0), 0u);
  EXPECT_EQ(fabric->runtime(1).stats().messages_sent, 0u);
}

TEST(FabricTest, ConnectRejectsDuplicateAndSelf) {
  auto fabric = MakeLoadedFabric(SmallOptions(2));
  auto dup = Runtime::Connect(fabric->runtime(0), fabric->runtime(1));
  EXPECT_EQ(dup.status().code(), StatusCode::kFailedPrecondition);
  auto self = Runtime::Connect(fabric->runtime(0), fabric->runtime(0));
  EXPECT_EQ(self.status().code(), StatusCode::kInvalidArgument);
}

TEST(FabricTest, DuplicateCableRejectedAtTheNic) {
  // Fabric wires 0<->1 already; a second cable between the same NICs
  // would shadow the first link's wire state, so it must fail loudly
  // instead of silently rewiring.
  auto fabric = MakeLoadedFabric(SmallOptions(2));
  EXPECT_EQ(fabric->nic(0).ConnectTo(fabric->nic(1)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fabric->nic(1).ConnectTo(fabric->nic(0)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fabric->nic(0).ConnectTo(fabric->nic(0)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FabricTest, MiscountedOverridesFailTheLoad) {
  // A miscounted overrides list does not say which host each entry was
  // meant for: every load fails instead of running the hosts on the
  // templates.
  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok()) << package.status();
  FabricOptions two_hosts = SmallOptions(3);
  two_hosts.host_overrides.assign(2, two_hosts.host);
  Fabric short_list(two_hosts);
  EXPECT_EQ(short_list.LoadPackage(*package).code(),
            StatusCode::kInvalidArgument);
  FabricOptions four_runtimes = SmallOptions(3);
  four_runtimes.runtime_overrides.assign(4, four_runtimes.runtime);
  Fabric long_list(four_runtimes);
  EXPECT_EQ(long_list.LoadPackage(*package).code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------ switched-tree fabric

FabricOptions TreeOptions(std::uint32_t hosts, std::uint32_t arity,
                          std::uint32_t tiers, double oversub = 1.0) {
  FabricOptions options = SmallOptions(hosts, Topology::kTree);
  options.tree.arity = arity;
  options.tree.tiers = tiers;
  options.tree.oversub = oversub;
  return options;
}

TEST(FabricTest, TreeWiresHubSpokeThroughSwitches) {
  // 5 hosts at arity 2 need ceil(5/2) = 3 ToRs plus a spine; the logical
  // peering stays hub-spoke while every frame transits the switches.
  auto fabric = MakeLoadedFabric(TreeOptions(5, 2, 2));
  EXPECT_EQ(fabric->switch_count(), 4u);
  for (std::uint32_t s = 1; s < 5; ++s) {
    EXPECT_TRUE(fabric->Connected(0, s));
    EXPECT_TRUE(fabric->Connected(s, 0));
  }
  EXPECT_FALSE(fabric->Connected(1, 2));
  // No direct cable anywhere: hosts reach each other via uplinks only.
  EXPECT_TRUE(fabric->nic(1).HasUplink());
  EXPECT_TRUE(fabric->nic(0).CanReach(fabric->nic(1)));

  std::vector<std::uint8_t> usr(8, 2);
  auto there = SendAndRun(*fabric, 3, 0, "nop", {7}, usr);
  ASSERT_TRUE(there.ok()) << there.status();
  EXPECT_EQ(there->return_value, 7u);
  std::uint64_t forwarded = 0;
  for (std::uint32_t i = 0; i < fabric->switch_count(); ++i) {
    forwarded += fabric->sw(i).frames_forwarded();
    EXPECT_EQ(fabric->sw(i).frames_dropped(), 0u);
  }
  EXPECT_GT(forwarded, 0u);
}

TEST(FabricTest, SingleTierTreeUsesOneSwitch) {
  auto fabric = MakeLoadedFabric(TreeOptions(4, 8, 1));
  EXPECT_EQ(fabric->switch_count(), 1u);
  std::vector<std::uint8_t> usr(8, 1);
  auto r = SendAndRun(*fabric, 2, 0, "nop", {3}, usr);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->return_value, 3u);
}

TEST(FabricTest, TreeConfigClampsBadKnobs) {
  // arity 0, tiers 0, and a non-positive oversubscription are all
  // impossible shapes; the fabric builds the nearest sane tree instead
  // of dividing by zero.
  Fabric fabric(TreeOptions(3, 0, 0, -2.0));
  EXPECT_EQ(fabric.options().tree.arity, 1u);
  EXPECT_EQ(fabric.options().tree.tiers, 1u);
  EXPECT_DOUBLE_EQ(fabric.options().tree.oversub, 1.0);
  EXPECT_EQ(fabric.switch_count(), 1u);
}

TEST(FabricTest, SwitchConfigClampsBadKnobs) {
  // A zero shared buffer could never admit a frame and a threshold above
  // the buffer could never mark; both are dead knobs a config audit
  // should see clamped, not silently kept.
  net::SwitchConfig config;
  config.buffer_bytes = 0;
  config.ecn_threshold_bytes = MiB(4);
  config.forward_latency_ns = -5.0;
  config.wire_latency_ns = -1.0;
  sim::Engine engine;
  net::Switch sw(engine, config, "clamp");
  EXPECT_EQ(sw.config().buffer_bytes, KiB(256));
  EXPECT_LE(sw.config().ecn_threshold_bytes, sw.config().buffer_bytes);
  EXPECT_DOUBLE_EQ(sw.config().forward_latency_ns, 0.0);
  EXPECT_DOUBLE_EQ(sw.config().wire_latency_ns, 0.0);
}

// ----------------------------------------------- adaptive bank windows

FabricOptions AdaptiveOptions() {
  FabricOptions options = SmallOptions(2);
  options.runtime.banks = 4;
  options.runtime.adaptive.enabled = true;
  return options;
}

TEST(FabricTest, ForgedEcnEchoShrinksTheWindow) {
  // A flag word with the ECE bit (bit 2) set must trigger exactly one
  // multiplicative decrease — no switch required, the flag-word protocol
  // is the whole carrier.
  auto fabric = MakeLoadedFabric(AdaptiveOptions());
  Runtime& rt = fabric->runtime(0);
  auto peer = fabric->PeerIdFor(0, 1);
  ASSERT_TRUE(peer.ok());
  const std::uint64_t ceiling = 4000;  // 4 banks
  EXPECT_EQ(rt.AdaptiveWindowMilli(*peer), ceiling);
  ASSERT_TRUE(rt.InjectFlagWordForTest(*peer, 0, /*open|ECE=*/1 | 4).ok());
  EXPECT_EQ(rt.stats().cwnd_decreases, 1u);
  EXPECT_EQ(rt.stats().ecn_echoes_seen, 1u);
  EXPECT_EQ(rt.AdaptiveWindowMilli(*peer), ceiling / 2);

  // With no RTT sample yet, each decrease holds off the next only until
  // now + 1 ps. Stepping past the hold before every echo walks the AIMD
  // shape: halve per echo, then stick at the one-bank floor.
  for (const std::uint64_t expected : {1000u, 1000u}) {
    fabric->engine().RunUntil(fabric->engine().Now() + 1);
    ASSERT_TRUE(rt.InjectFlagWordForTest(*peer, 0, 1 | 4).ok());
    EXPECT_EQ(rt.AdaptiveWindowMilli(*peer), expected);
  }
  EXPECT_EQ(rt.stats().cwnd_decreases, 3u);

  // Bounds checking on the injection hook itself.
  EXPECT_EQ(rt.InjectFlagWordForTest(99, 0, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rt.InjectFlagWordForTest(*peer, 99, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(FabricTest, CleanFlagReturnsRampTheWindowBackToCeiling) {
  // RTT-ramp convergence: after a forged decrease, additive increases on
  // clean (un-echoed) flag returns must climb the window back to the
  // static ceiling, and the flag RTT estimator must have real samples.
  auto fabric = MakeLoadedFabric(AdaptiveOptions());
  Runtime& rt = fabric->runtime(0);
  auto peer = fabric->PeerIdFor(0, 1);
  ASSERT_TRUE(peer.ok());
  ASSERT_TRUE(rt.InjectFlagWordForTest(*peer, 0, 1 | 4).ok());
  ASSERT_EQ(rt.AdaptiveWindowMilli(*peer), 2000u);

  // 4 banks x 4 mailboxes: every 4 sends closes a bank whose returning
  // flag, unmarked on a direct cable, opens the window by 250 milli.
  std::vector<std::uint8_t> usr(8, 0);
  const std::vector<std::uint64_t> args = {1};
  for (int i = 0; i < 64; ++i) {
    auto receipt = rt.Send(*peer, "nop", Invoke::kInjected, args, usr);
    ASSERT_TRUE(receipt.ok()) << receipt.status();
    fabric->Run();
  }
  EXPECT_EQ(rt.AdaptiveWindowMilli(*peer), 4000u);
  EXPECT_GT(rt.stats().cwnd_increases, 0u);
  EXPECT_EQ(rt.stats().cwnd_decreases, 1u);
  EXPECT_GT(rt.LastFlagRtt(*peer), 0u);
  EXPECT_GE(rt.LastFlagRtt(*peer), rt.MinFlagRtt(*peer));
  EXPECT_EQ(rt.AdaptiveWindowMaxMilli(*peer), 4000u);
  EXPECT_EQ(rt.AdaptiveWindowMinMilli(*peer), 2000u);
}

TEST(FabricTest, TwoHostFabricRunsBothDirections) {
  // The 2-host fabric is the paper's testbed: default-peer sends work and
  // both directions execute.
  auto fabric = MakeLoadedFabric(SmallOptions(2));
  std::vector<std::uint8_t> usr(8, 2);
  auto there = SendAndRun(*fabric, 0, 1, "nop", {7}, usr);
  ASSERT_TRUE(there.ok()) << there.status();
  EXPECT_EQ(there->return_value, 7u);
  auto back = SendAndRun(*fabric, 1, 0, "nop", {9}, usr);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->return_value, 9u);
}

// Regression for the skewed-incast fairness normalization: a weight-0
// (silent) sender used to be rejected outright, and — had it run — its
// zero rate divided by its zero weight would have poisoned Jain fairness
// with NaN. Silent senders must be allowed, excluded from the fairness
// denominator, and the index must stay exact over the active senders.
TEST(FabricTest, ZeroWeightSenderExcludedFromIncastFairness) {
  auto fabric = MakeLoadedFabric(SmallOptions(4, Topology::kStar, 0));
  bench::IncastConfig config;
  config.jam = "nop";
  config.usr_bytes = 16;
  config.iterations_per_sender = 40;
  config.sender_weights = {2, 0, 2};  // host 2 is wired but silent
  auto result = bench::RunIncastRate(*fabric, 0, {1, 2, 3}, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->per_sender[1].messages, 0u);
  EXPECT_GT(result->per_sender[0].messages, 0u);
  EXPECT_GT(result->per_sender[2].messages, 0u);
  EXPECT_TRUE(std::isfinite(result->fairness)) << result->fairness;
  EXPECT_GT(result->fairness, 0.0);
  EXPECT_LE(result->fairness, 1.0 + 1e-9);
  // The two active senders pushed identical loads through symmetric
  // paths, so excluding the silent one must leave Jain ~1, not the 2/3 a
  // zero-share participant would drag it to.
  EXPECT_GT(result->fairness, 0.9);
}

TEST(FabricTest, AllZeroWeightIncastIsRejected) {
  auto fabric = MakeLoadedFabric(SmallOptions(3, Topology::kStar, 0));
  bench::IncastConfig config;
  config.jam = "nop";
  config.iterations_per_sender = 10;
  config.sender_weights = {0, 0};
  auto result = bench::RunIncastRate(*fabric, 0, {1, 2}, config);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// RunIncastRate on a lane-sharded fabric: each sender's loop runs on its
// own lane and the hub's completion hook on the hub's, so the run must be
// race-free and give the single-lane result.
TEST(FabricTest, LanedIncastMatchesScalar) {
  const auto run = [](std::uint32_t lanes) {
    FabricOptions options = SmallOptions(5, Topology::kStar, 0);
    options.engine.lanes = lanes;
    auto fabric = MakeLoadedFabric(options);
    bench::IncastConfig config;
    config.jam = "ssum";
    config.iterations_per_sender = 400;
    return bench::RunIncastRate(*fabric, 0, {1, 2, 3, 4}, config);
  };
  const auto scalar = run(1);
  const auto laned = run(4);
  ASSERT_TRUE(scalar.ok()) << scalar.status();
  ASSERT_TRUE(laned.ok()) << laned.status();
  EXPECT_EQ(laned->duration, scalar->duration);
  EXPECT_EQ(laned->latency.Median(), scalar->latency.Median());
  EXPECT_EQ(laned->latency.Percentile(0.99), scalar->latency.Percentile(0.99));
  ASSERT_EQ(laned->per_sender.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(scalar->per_sender[i].messages, 400u) << "sender " << i;
    EXPECT_EQ(laned->per_sender[i].messages, scalar->per_sender[i].messages)
        << "sender " << i;
    // Every sender filled its banks and parked, so the resume-from-waiter
    // path ran on every lane.
    EXPECT_GT(scalar->per_sender[i].flow_control_waits, 0u) << "sender " << i;
    EXPECT_EQ(laned->per_sender[i].flow_control_waits,
              scalar->per_sender[i].flow_control_waits)
        << "sender " << i;
  }
}

}  // namespace
}  // namespace twochains::core
