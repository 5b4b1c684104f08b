// Tests for the RDMA NIC/link model: put pipeline timing, functional
// delivery, rkey enforcement at the HCA, ordering/fences, stash vs DRAM
// delivery, and puts the NIC refuses.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "net/host.hpp"
#include "net/nic.hpp"
#include "sim/engine.hpp"

namespace twochains::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  NetTest()
      : host0_(MakeHost(0)), host1_(MakeHost(1)),
        nic0_(engine_, host0_, NicConfig{}),
        nic1_(engine_, host1_, NicConfig{}) {
    EXPECT_TRUE(nic0_.ConnectTo(nic1_).ok());
  }

  static Host MakeHost(int id) {
    return Host(id, HostConfig{.memory_bytes = MiB(16)});
  }

  /// Allocates a buffer on @p host, RDMA-registers it for write, returns
  /// (addr, rkey).
  std::pair<mem::VirtAddr, mem::RKey> MakeTarget(Host& host,
                                                 std::uint64_t size) {
    auto addr = host.memory().Allocate(size, 64, mem::Perm::kRW, "target");
    EXPECT_TRUE(addr.ok());
    auto key = host.regions().RegisterRegion(*addr, size,
                                             mem::RemoteAccess::kWrite, "t");
    EXPECT_TRUE(key.ok());
    return {*addr, *key};
  }

  mem::VirtAddr MakeSource(Host& host, std::vector<std::uint8_t> data) {
    auto addr =
        host.memory().Allocate(data.size(), 64, mem::Perm::kRW, "src");
    EXPECT_TRUE(addr.ok());
    EXPECT_TRUE(host.memory().Write(*addr, data).ok());
    return *addr;
  }

  sim::Engine engine_;
  Host host0_;
  Host host1_;
  Nic nic0_;
  Nic nic1_;
};

TEST_F(NetTest, PutMovesBytes) {
  auto [dst, rkey] = MakeTarget(host1_, 4096);
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  const mem::VirtAddr src = MakeSource(host0_, payload);

  bool delivered = false;
  ASSERT_TRUE(nic0_
                  .PostPut(nic1_, src, dst, payload.size(), rkey, false,
                           [&](const PutCompletion& c) {
                             EXPECT_TRUE(c.status.ok());
                             delivered = true;
                           })
                  .ok());
  engine_.Run();
  EXPECT_TRUE(delivered);
  std::array<std::uint8_t, 4> out{};
  ASSERT_TRUE(host1_.memory().Read(dst, out).ok());
  EXPECT_EQ(out[0], 0xDE);
  EXPECT_EQ(out[3], 0xEF);
  EXPECT_EQ(nic1_.bytes_delivered(), 4u);
}

TEST_F(NetTest, PutLatencyIsPipelineSum) {
  auto [dst, rkey] = MakeTarget(host1_, 4096);
  const std::vector<std::uint8_t> payload(256, 0xAA);
  const mem::VirtAddr src = MakeSource(host0_, payload);

  PicoTime delivered_at = 0;
  ASSERT_TRUE(nic0_
                  .PostPut(nic1_, src, dst, payload.size(), rkey, false,
                           [&](const PutCompletion& c) {
                             delivered_at = c.delivered_at;
                           })
                  .ok());
  engine_.Run();
  // doorbell + per-message + dma read + pcie transfer + wire serialize +
  // propagation + rx processing.
  const double expect_ns = kDoorbellNs + kPerMessageNs + kDmaReadOverheadNs +
                           256 * 8.0 / kPcieGbps + 256 * 8.0 / kWireGbps +
                           kWireLatencyNs + kRxProcessingNs;
  EXPECT_NEAR(ToNanoseconds(delivered_at), expect_ns, 2.0);
}

TEST_F(NetTest, LargerMessagesTakeLonger) {
  auto [dst, rkey] = MakeTarget(host1_, KiB(64));
  PicoTime t_small = 0, t_large = 0;
  {
    const std::vector<std::uint8_t> p(64, 1);
    const mem::VirtAddr src = MakeSource(host0_, p);
    auto on_done = [&](const PutCompletion& c) { t_small = c.delivered_at; };
    ASSERT_TRUE(
        nic0_.PostPut(nic1_, src, dst, p.size(), rkey, false, on_done).ok());
    engine_.Run();
  }
  {
    const std::vector<std::uint8_t> p(KiB(32), 2);
    const mem::VirtAddr src = MakeSource(host0_, p);
    const PicoTime before = engine_.Now();
    auto on_done = [&](const PutCompletion& c) { t_large = c.delivered_at; };
    ASSERT_TRUE(
        nic0_.PostPut(nic1_, src, dst, p.size(), rkey, false, on_done).ok());
    engine_.Run();
    t_large -= before;
  }
  EXPECT_GT(t_large, t_small);
  // 32 KiB at 200 Gb/s is ~1.3 us of serialization alone.
  EXPECT_GT(ToNanoseconds(t_large), 1300.0);
}

TEST_F(NetTest, BadRkeyRejectedAtHardwareWithoutTouchingMemory) {
  auto [dst, rkey] = MakeTarget(host1_, 4096);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const mem::VirtAddr src = MakeSource(host0_, payload);

  Status seen;
  mem::RKey bogus{rkey.value ^ 0x1234};
  ASSERT_TRUE(nic0_
                  .PostPut(nic1_, src, dst, payload.size(), bogus, false,
                           [&](const PutCompletion& c) { seen = c.status; })
                  .ok());
  engine_.Run();
  EXPECT_EQ(seen.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(nic1_.rkey_rejections(), 1u);
  // Target memory untouched.
  std::array<std::uint8_t, 4> out{};
  ASSERT_TRUE(host1_.memory().Read(dst, out).ok());
  EXPECT_EQ(out[0], 0);
}

TEST_F(NetTest, PutBeyondRegionRejected) {
  auto [dst, rkey] = MakeTarget(host1_, 128);
  const std::vector<std::uint8_t> payload(256, 7);
  const mem::VirtAddr src = MakeSource(host0_, payload);
  Status seen;
  ASSERT_TRUE(nic0_
                  .PostPut(nic1_, src, dst, payload.size(), rkey, false,
                           [&](const PutCompletion& c) { seen = c.status; })
                  .ok());
  engine_.Run();
  EXPECT_EQ(seen.code(), StatusCode::kPermissionDenied);
}

TEST_F(NetTest, InlinePutWritesImmediateValue) {
  auto [dst, rkey] = MakeTarget(host1_, 64);
  ASSERT_TRUE(
      nic0_.PostInlinePut(nic1_, 0xCAFEBABEDEADBEEFull, dst, rkey).ok());
  engine_.Run();
  EXPECT_EQ(host1_.memory().LoadU64(dst).value(), 0xCAFEBABEDEADBEEFull);
}

TEST_F(NetTest, SnapshotSemanticsProtectInFlightData) {
  // Sender overwrites the source buffer right after posting; the delivered
  // message must contain the bytes as of post time.
  auto [dst, rkey] = MakeTarget(host1_, 64);
  const std::vector<std::uint8_t> payload = {0x11, 0x22};
  const mem::VirtAddr src = MakeSource(host0_, payload);
  ASSERT_TRUE(nic0_.PostPut(nic1_, src, dst, 2, rkey).ok());
  ASSERT_TRUE(host0_.memory().StoreU8(src, 0xFF).ok());
  engine_.Run();
  EXPECT_EQ(host1_.memory().LoadU8(dst).value(), 0x11);
}

TEST_F(NetTest, OrderedDeliveryPreservesPostOrder) {
  auto [dst, rkey] = MakeTarget(host1_, 4096);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    const std::vector<std::uint8_t> p(64 + 512 * (7 - i), 0);  // varied sizes
    const mem::VirtAddr src = MakeSource(host0_, p);
    auto on_done = [&order, i](const PutCompletion&) { order.push_back(i); };
    ASSERT_TRUE(
        nic0_.PostPut(nic1_, src, dst, p.size(), rkey, false, on_done).ok());
  }
  engine_.Run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST_F(NetTest, StashingDeliversIntoLLC) {
  auto [dst, rkey] = MakeTarget(host1_, 4096);
  const std::vector<std::uint8_t> payload(512, 0x33);
  const mem::VirtAddr src = MakeSource(host0_, payload);
  ASSERT_TRUE(nic0_.PostPut(nic1_, src, dst, payload.size(), rkey).ok());
  engine_.Run();
  EXPECT_TRUE(host1_.caches().ProbeLLC(dst));
  EXPECT_EQ(host1_.caches().stats().stash_lines, 8u);
}

TEST_F(NetTest, NonStashingDeliversToDram) {
  Host h0 = MakeHost(2), h1 = MakeHost(3);
  Nic a(engine_, h0, NicConfig{}), b(engine_, h1, {.stash_to_llc = false});
  ASSERT_TRUE(a.ConnectTo(b).ok());
  auto [dst, rkey] = MakeTarget(h1, 4096);
  // Warm the line first so we can observe the invalidation.
  h1.caches().AccessLine(0, dst, cache::AccessKind::kLoad);
  const std::vector<std::uint8_t> payload(64, 0x44);
  const mem::VirtAddr src = MakeSource(h0, payload);
  ASSERT_TRUE(a.PostPut(b, src, dst, payload.size(), rkey).ok());
  engine_.Run();
  EXPECT_FALSE(h1.caches().ProbeLLC(dst));
  EXPECT_FALSE(h1.caches().ProbeL1(0, dst));
}

TEST_F(NetTest, BackToBackPutsPipelineOnTheWire) {
  // Two large puts: the second serializes behind the first, so the gap
  // between deliveries is at least the serialization time.
  auto [dst, rkey] = MakeTarget(host1_, KiB(64));
  const std::uint64_t size = KiB(16);
  std::vector<PicoTime> times;
  for (int i = 0; i < 2; ++i) {
    const std::vector<std::uint8_t> p(size, static_cast<std::uint8_t>(i));
    const mem::VirtAddr src = MakeSource(host0_, p);
    auto on_done = [&](const PutCompletion& c) {
      times.push_back(c.delivered_at);
    };
    ASSERT_TRUE(
        nic0_.PostPut(nic1_, src, dst, size, rkey, false, on_done).ok());
  }
  engine_.Run();
  ASSERT_EQ(times.size(), 2u);
  const double serialize_ns = size * 8.0 / kWireGbps;
  EXPECT_GE(ToNanoseconds(times[1] - times[0]), serialize_ns * 0.9);
}

TEST_F(NetTest, UnorderedModeCanReorderButFenceRestoresOrder) {
  NicConfig cfg;
  cfg.enforce_write_ordering = false;
  Host h0 = MakeHost(2), h1 = MakeHost(3);
  sim::Engine eng;
  Nic a(eng, h0, cfg), b(eng, h1, cfg);
  ASSERT_TRUE(a.ConnectTo(b).ok());
  auto dst = h1.memory().Allocate(4096, 64, mem::Perm::kRW, "t");
  ASSERT_TRUE(dst.ok());
  auto rkey = h1.regions().RegisterRegion(*dst, 4096,
                                          mem::RemoteAccess::kWrite, "t");
  ASSERT_TRUE(rkey.ok());

  // Without fences, some pair out of many should invert (probabilistic but
  // deterministic for a fixed NIC rng seed).
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    auto on_done = [&order, i](const PutCompletion&) { order.push_back(i); };
    ASSERT_TRUE(a.PostInlinePut(b, static_cast<std::uint64_t>(i),
                                *dst + 8u * i, *rkey, /*fence=*/false, on_done)
                    .ok());
  }
  eng.Run();
  bool inverted = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) inverted = true;
  }
  EXPECT_TRUE(inverted) << "relaxed ordering should visibly reorder";

  // A fenced signal put must land after all prior deliveries.
  std::vector<int> order2;
  for (int i = 0; i < 8; ++i) {
    auto on_done = [&order2, i](const PutCompletion&) { order2.push_back(i); };
    ASSERT_TRUE(a.PostInlinePut(b, static_cast<std::uint64_t>(i),
                                *dst + 8u * i, *rkey, false, on_done)
                    .ok());
  }
  auto on_fenced = [&order2](const PutCompletion&) { order2.push_back(99); };
  ASSERT_TRUE(
      a.PostInlinePut(b, 99, *dst + 256, *rkey, /*fence=*/true, on_fenced)
          .ok());
  eng.Run();
  ASSERT_FALSE(order2.empty());
  EXPECT_EQ(order2.back(), 99);
}

TEST_F(NetTest, UnconnectedNicFailsPrecondition) {
  // A put the NIC cannot make completes at once with the error it returns.
  Host h = MakeHost(5);
  Nic lone(engine_, h, NicConfig{});
  Status delivered, completed;
  EXPECT_EQ(lone.PostInlinePut(
                    nic1_, 1, 0x1000, mem::RKey{1}, false,
                    [&](const PutCompletion& c) { delivered = c.status; },
                    [&](const PutCompletion& c) { completed = c.status; })
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(delivered.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(completed.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(lone.puts_posted(), 0u);
}

TEST_F(NetTest, ZeroLengthPutRejected) {
  auto [dst, rkey] = MakeTarget(host1_, 64);
  EXPECT_EQ(nic0_.PostPut(nic1_, 0, dst, 0, rkey).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(NetTest, DmaReadOutsideArenaFailsWithoutOccupyingTheSendEngine) {
  auto [dst, rkey] = MakeTarget(host1_, 64);
  Status completed;
  EXPECT_FALSE(nic0_
                   .PostPut(nic1_, mem::HostBase(0) + GiB(1), dst, 8, rkey,
                            false, nullptr,
                            [&](const PutCompletion& c) {
                              completed = c.status;
                            })
                   .ok());
  EXPECT_FALSE(completed.ok());
  EXPECT_EQ(nic0_.puts_posted(), 0u);
  // The next put sees an idle send engine: it is delivered as if alone.
  PicoTime delivered_at = 0;
  ASSERT_TRUE(nic0_
                  .PostInlinePut(nic1_, 7, dst, rkey, false,
                                 [&](const PutCompletion& c) {
                                   delivered_at = c.delivered_at;
                                 })
                  .ok());
  engine_.Run();
  EXPECT_EQ(delivered_at,
            Nanoseconds(kDoorbellNs) + Nanoseconds(kPerMessageNs) +
                Nanoseconds(8 * 8.0 / kWireGbps) + Nanoseconds(kWireLatencyNs) +
                Nanoseconds(kRxProcessingNs));
}

}  // namespace
}  // namespace twochains::net
