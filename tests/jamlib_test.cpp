// Differential tests for the jam standard library: every jamlib element
// is driven through the full compile→link→inject→execute stack on a
// two-host core::Fabric, against the same seeded op stream fed to its
// host-native reference twin (jamlib/reference.hpp). Return values and
// resident state must agree exactly — one suite validating amcc codegen,
// the linker/loader, the interpreter, and the library semantics at once.
// The open-loop serving driver (benchlib/openloop.hpp) is integration-
// tested at the bottom.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "benchlib/openloop.hpp"
#include "common/rng.hpp"
#include "core/fabric.hpp"
#include "jamlib/jamlib.hpp"
#include "jamlib/kv_service.hpp"
#include "jamlib/reference.hpp"

namespace twochains::jamlib {
namespace {

using core::Invoke;
using core::ReceivedMessage;
using core::Fabric;
using core::FabricOptions;

class JamlibTest : public ::testing::Test {
 protected:
  JamlibTest() {
    FabricOptions options;
    options.runtime.banks = 2;
    options.runtime.mailboxes_per_bank = 4;
    fabric_ = std::make_unique<Fabric>(options);
    auto package = BuildJamlibPackage();
    EXPECT_TRUE(package.ok()) << package.status();
    EXPECT_TRUE(fabric_->LoadPackage(*package).ok());
  }

  /// Injects @p jam at host 1 and runs until it executes; retries through
  /// flow-control stalls so long op streams never trip kResourceExhausted.
  std::uint64_t Run(const std::string& jam, std::vector<std::uint64_t> args,
                    std::vector<std::uint8_t> usr = {}) {
    std::optional<ReceivedMessage> received;
    fabric_->runtime(1).SetOnExecuted(
        [&](const ReceivedMessage& msg) { received = msg; });
    for (;;) {
      auto receipt =
          fabric_->runtime(0).Send(jam, Invoke::kInjected, args, usr);
      if (receipt.ok()) break;
      if (receipt.status().code() != StatusCode::kResourceExhausted) {
        ADD_FAILURE() << "send " << jam << ": " << receipt.status();
        return ~std::uint64_t{0};
      }
      bool freed = false;
      fabric_->runtime(0).NotifyWhenSlotFree([&] { freed = true; });
      fabric_->RunUntil([&] { return freed; });
    }
    fabric_->RunUntil([&] { return received.has_value(); });
    fabric_->runtime(1).SetOnExecuted(nullptr);
    EXPECT_TRUE(received.has_value()) << jam << " never executed";
    EXPECT_TRUE(!received || received->executed);
    return received ? received->return_value : ~std::uint64_t{0};
  }

  std::int64_t RunS(const std::string& jam, std::vector<std::uint64_t> args,
                    std::vector<std::uint8_t> usr = {}) {
    return static_cast<std::int64_t>(Run(jam, std::move(args), std::move(usr)));
  }

  std::uint64_t Peek(const std::string& symbol, std::uint64_t index) {
    auto v = fabric_->runtime(1).PeekU64(symbol, index);
    EXPECT_TRUE(v.ok()) << symbol << "[" << index << "]: " << v.status();
    return v.ok() ? *v : ~std::uint64_t{0};
  }

  std::unique_ptr<Fabric> fabric_;
};

TEST(JamlibPackageTest, BuildsWithEveryAdvertisedElement) {
  auto package = BuildJamlibPackage();
  ASSERT_TRUE(package.ok()) << package.status();
  EXPECT_NE(package->Find(pkg::ElementKind::kRied, "kvtable"), nullptr);
  EXPECT_EQ(JamNames().size(), 10u);
  for (const std::string& name : JamNames()) {
    EXPECT_NE(package->Find(pkg::ElementKind::kJam, name), nullptr)
        << "missing jam " << name;
  }
}

TEST_F(JamlibTest, KvDifferentialAgainstReferenceTwin) {
  ref::KvTable twin;
  Xoshiro256 rng(101);
  // A small key universe over many ops forces overwrites, deletes of
  // absent keys, and tombstone-reuse probes.
  for (int op = 0; op < 300; ++op) {
    const std::int64_t key = static_cast<std::int64_t>(rng.NextBelow(48));
    const std::uint64_t ukey = static_cast<std::uint64_t>(key);
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {  // put (with payload on half of them)
        const std::int64_t value = static_cast<std::int64_t>(rng.Next() >> 8);
        std::vector<std::uint8_t> usr;
        if (rng.NextBernoulli(0.5)) {
          usr.resize(1 + rng.NextBelow(96));  // some exceed the 64-byte blob
          for (auto& b : usr) b = static_cast<std::uint8_t>(rng.Next());
        }
        const std::int64_t got =
            RunS("kv_put", {ukey, static_cast<std::uint64_t>(value)}, usr);
        EXPECT_EQ(got, twin.Put(key, value, usr)) << "op " << op;
        break;
      }
      case 2:
        EXPECT_EQ(RunS("kv_get", {ukey}), twin.Get(key)) << "op " << op;
        break;
      default:
        EXPECT_EQ(RunS("kv_del", {ukey}), twin.Del(key)) << "op " << op;
        break;
    }
  }
  // Resident-state parity: occupancy plus a full slot-table sweep.
  EXPECT_EQ(static_cast<std::int64_t>(Peek("kv_count", 0)), twin.count());
  for (std::uint64_t s = 0; s < kKvSlots; ++s) {
    ASSERT_EQ(static_cast<std::int64_t>(Peek("kv_keys", s)), twin.key_at(s))
        << "slot " << s;
    if (twin.key_at(s) >= 0) {
      ASSERT_EQ(static_cast<std::int64_t>(Peek("kv_vals", s)),
                twin.value_at(s))
          << "slot " << s;
    }
  }
}

TEST_F(JamlibTest, KvTombstoneSlotIsReused) {
  ref::KvTable twin;
  // Two keys with the same home slot (k and k + kKvSlots * m do not
  // necessarily collide under the multiplicative hash, so derive a
  // colliding pair by search).
  std::int64_t a = 1, b = -1;
  for (std::int64_t k = 2; k < 100000; ++k) {
    if (KvHomeSlot(k) == KvHomeSlot(a)) {
      b = k;
      break;
    }
  }
  ASSERT_GT(b, 0) << "no colliding key pair found";
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  EXPECT_EQ(RunS("kv_put", {ua, 10}), twin.Put(a, 10, {}));
  EXPECT_EQ(RunS("kv_put", {ub, 20}), twin.Put(b, 20, {}));  // probed past a
  EXPECT_EQ(RunS("kv_del", {ua}), twin.Del(a));              // tombstone
  EXPECT_EQ(RunS("kv_get", {ub}), twin.Get(b));  // still reachable past it
  // Reinsert a: must land back in the tombstoned slot, not a fresh one.
  EXPECT_EQ(RunS("kv_put", {ua, 30}), twin.Put(a, 30, {}));
  EXPECT_EQ(RunS("kv_get", {ua}), twin.Get(a));
  EXPECT_EQ(static_cast<std::int64_t>(Peek("kv_count", 0)), twin.count());
}

TEST_F(JamlibTest, KvPutStoresUsrPayloadTruncatedToBlobCell) {
  std::vector<std::uint8_t> usr(80);
  for (std::size_t i = 0; i < usr.size(); ++i) {
    usr[i] = static_cast<std::uint8_t>(i + 1);
  }
  const std::int64_t slot = RunS("kv_put", {7, 99}, usr);
  ASSERT_GE(slot, 0);
  // kv_blob is a char array; PeekU64 reads 8 bytes per index. The first
  // 64 bytes of the payload must be there, the tail truncated.
  const std::uint64_t base = static_cast<std::uint64_t>(slot) * kKvBlobBytes;
  for (std::uint64_t w = 0; w < kKvBlobBytes / 8; ++w) {
    std::uint64_t expect = 0;
    std::memcpy(&expect, usr.data() + w * 8, 8);
    EXPECT_EQ(Peek("kv_blob", base / 8 + w), expect) << "word " << w;
  }
}

TEST_F(JamlibTest, CountersDifferentialAddAndCas) {
  ref::Counters twin;
  Xoshiro256 rng(202);
  for (int op = 0; op < 200; ++op) {
    // Unmasked cell ids probe the jam's index masking too.
    const std::int64_t cell = static_cast<std::int64_t>(rng.NextBelow(512));
    const auto ucell = static_cast<std::uint64_t>(cell);
    if (rng.NextBernoulli(0.6)) {
      const std::int64_t delta =
          static_cast<std::int64_t>(rng.NextBelow(2000)) - 1000;
      EXPECT_EQ(RunS("ctr_add", {ucell, static_cast<std::uint64_t>(delta)}),
                twin.Add(cell, delta))
          << "op " << op;
    } else {
      // Half the CAS attempts use the live value (success), half a stale
      // guess (failure); both must return the same old value as the twin.
      const std::int64_t expect =
          rng.NextBernoulli(0.5)
              ? twin.at(static_cast<std::uint64_t>(cell) % kCtrCells)
              : static_cast<std::int64_t>(rng.NextBelow(100)) - 50;
      const std::int64_t desired = static_cast<std::int64_t>(rng.NextBelow(99));
      EXPECT_EQ(RunS("cas", {ucell, static_cast<std::uint64_t>(expect),
                             static_cast<std::uint64_t>(desired)}),
                twin.Cas(cell, expect, desired))
          << "op " << op;
    }
  }
  for (std::uint64_t c = 0; c < kCtrCells; ++c) {
    ASSERT_EQ(static_cast<std::int64_t>(Peek("ctr_cells", c)), twin.at(c));
  }
}

TEST_F(JamlibTest, TopkDifferentialKeepsLargestDescending) {
  ref::TopK twin;
  Xoshiro256 rng(303);
  for (int op = 0; op < 64; ++op) {
    const std::int64_t v =
        static_cast<std::int64_t>(rng.NextBelow(10000)) - 5000;
    EXPECT_EQ(RunS("topk", {static_cast<std::uint64_t>(v)}), twin.Push(v))
        << "op " << op;
  }
  const auto kept = twin.kept();
  ASSERT_EQ(kept.size(), kTopK);
  for (std::uint64_t i = 0; i < kTopK; ++i) {
    ASSERT_EQ(static_cast<std::int64_t>(Peek("topk_vals", i)), kept[i]);
    if (i > 0) {
      EXPECT_GE(kept[i - 1], kept[i]);  // descending order held
    }
  }
}

TEST_F(JamlibTest, ScatterGatherDifferential) {
  ref::ScatterGather twin;
  Xoshiro256 rng(404);
  for (int round = 0; round < 8; ++round) {
    const std::size_t pairs = 1 + rng.NextBelow(16);
    std::vector<std::int64_t> flat;
    for (std::size_t i = 0; i < pairs; ++i) {
      flat.push_back(static_cast<std::int64_t>(rng.NextBelow(8192)));  // idx
      flat.push_back(static_cast<std::int64_t>(rng.Next() >> 4));      // val
    }
    std::vector<std::uint8_t> usr(flat.size() * 8);
    std::memcpy(usr.data(), flat.data(), usr.size());
    EXPECT_EQ(RunS("scatter", {}, usr), twin.Scatter(flat)) << round;

    const std::size_t reads = 1 + rng.NextBelow(24);
    std::vector<std::int64_t> indices;
    for (std::size_t i = 0; i < reads; ++i) {
      indices.push_back(static_cast<std::int64_t>(rng.NextBelow(8192)));
    }
    std::vector<std::uint8_t> gusr(indices.size() * 8);
    std::memcpy(gusr.data(), indices.data(), gusr.size());
    EXPECT_EQ(RunS("gather", {}, gusr), twin.Gather(indices)) << round;
  }
}

TEST_F(JamlibTest, AggregatorDifferentialPushAndTake) {
  ref::Aggregator twin;
  Xoshiro256 rng(505);
  for (int op = 0; op < 60; ++op) {
    if (rng.NextBernoulli(0.8)) {
      const std::int64_t v =
          static_cast<std::int64_t>(rng.NextBelow(100000)) - 50000;
      EXPECT_EQ(RunS("agg_push", {static_cast<std::uint64_t>(v)}),
                twin.Push(v))
          << "op " << op;
    } else {
      EXPECT_EQ(RunS("agg_take", {}), twin.Take()) << "op " << op;
      EXPECT_EQ(static_cast<std::int64_t>(Peek("agg_acc", 0)), 0);
      EXPECT_EQ(static_cast<std::int64_t>(Peek("agg_seen", 0)), 0);
    }
  }
}

// --------------------------------------------------------- KV service map

TEST(KvShardMapTest, SpreadsTheZipfHeadAcrossShards) {
  const KvShardMap map(4, 2);
  // The ten hottest ranks (keys 0..9) must not collapse onto one shard —
  // the whole point of the mixing hash.
  std::vector<int> per_shard(4, 0);
  for (std::uint64_t key = 0; key < 10; ++key) {
    const std::uint32_t s = map.ShardOf(key);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(map.OwnerHostOf(key), 2 + s);
    ++per_shard[s];
  }
  int occupied = 0;
  for (int n : per_shard) occupied += (n > 0) ? 1 : 0;
  EXPECT_GE(occupied, 2) << "hot head landed on a single shard";
}

TEST(KvServiceTest, RequestEncodingMatchesJamContracts) {
  EXPECT_STREQ(KvJamFor(KvOp::kGet), "kv_get");
  EXPECT_STREQ(KvJamFor(KvOp::kPut), "kv_put");
  EXPECT_STREQ(KvJamFor(KvOp::kDel), "kv_del");
  KvRequest put{KvOp::kPut, 42, -7};
  const auto put_args = KvArgsFor(put);
  ASSERT_EQ(put_args.size(), 2u);
  EXPECT_EQ(put_args[0], 42u);
  EXPECT_EQ(static_cast<std::int64_t>(put_args[1]), -7);
  KvRequest get{KvOp::kGet, 9, 0};
  EXPECT_EQ(KvArgsFor(get).size(), 1u);
}

// ------------------------------------------------- open-loop serving runs

bench::OpenLoopConfig SmallServingConfig() {
  bench::OpenLoopConfig config;
  config.client_hosts = 2;
  config.shards = 2;
  config.simulated_clients = 10'000;
  config.keyspace = 256;
  config.zipf_theta = 1.0;
  config.put_fraction = 0.1;
  config.requests = 400;
  config.offered_rate_mops = 0.5;
  config.seed = 11;
  return config;
}

TEST(KvOpenLoopTest, WarmStoreServesEveryRequest) {
  const auto result = bench::RunKvOpenLoop(SmallServingConfig());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(result->completed, 400u);
  EXPECT_EQ(result->sent, 400u);
  EXPECT_EQ(result->gets + result->puts, 400u);
  // Preload warmed every key: no get may miss.
  EXPECT_EQ(result->get_hits, result->gets);
  EXPECT_EQ(result->latency.count(), 400u);
  EXPECT_GT(result->latency.Percentile(0.5), 0u);
  EXPECT_LE(result->latency.Percentile(0.5), result->latency.Percentile(0.99));
  std::uint64_t across_shards = 0;
  for (std::uint64_t n : result->per_shard_executed) across_shards += n;
  EXPECT_EQ(across_shards, result->completed);
  EXPECT_GT(result->distinct_clients, 0u);
  EXPECT_GT(result->hot_head_requests, 400u / 10)
      << "Zipf(1.0) head colder than plausible";
  EXPECT_GT(result->wire_bytes, 0u);
  EXPECT_GT(result->duration, 0u);
}

TEST(KvOpenLoopTest, JamCacheTurnsHotPathIntoByHandleSends) {
  auto config = SmallServingConfig();
  const auto cold = bench::RunKvOpenLoop(config);
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_TRUE(cold->ok) << cold->error;

  config.jam_cache.enabled = true;
  config.jam_cache.capacity = 8;
  const auto warm = bench::RunKvOpenLoop(config);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(warm->ok) << warm->error;

  // Same seed, same arrivals: the cached run must serve the bulk of the
  // window by handle and move measurably fewer bytes per request.
  EXPECT_EQ(warm->completed, cold->completed);
  EXPECT_GT(warm->jam.hits, warm->completed / 2);
  EXPECT_GT(warm->jam.by_handle_sends, 0u);
  EXPECT_EQ(warm->jam.hits + warm->jam.misses, warm->jam.by_handle_sends);
  EXPECT_LT(warm->wire_bytes, cold->wire_bytes);
  EXPECT_EQ(cold->jam.by_handle_sends, 0u);
}

TEST(KvOpenLoopTest, LanedServingRunMatchesSingleLane) {
  auto config = SmallServingConfig();
  config.jam_cache.enabled = true;
  config.jam_cache.capacity = 8;
  const auto one = bench::RunKvOpenLoop(config);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_TRUE(one->ok) << one->error;

  config.lanes = 4;
  const auto laned = bench::RunKvOpenLoop(config);
  ASSERT_TRUE(laned.ok()) << laned.status();
  ASSERT_TRUE(laned->ok) << laned->error;

  // The driver is lane-partitioned and the engine orders by
  // (time, lane, seq), so a 4-executor run must reproduce the single-lane
  // run exactly — counters, bytes, duration, and the full latency multiset.
  EXPECT_EQ(laned->completed, one->completed);
  EXPECT_EQ(laned->sent, one->sent);
  EXPECT_EQ(laned->gets, one->gets);
  EXPECT_EQ(laned->get_hits, one->get_hits);
  EXPECT_EQ(laned->queued, one->queued);
  EXPECT_EQ(laned->queue_peak, one->queue_peak);
  EXPECT_EQ(laned->wire_bytes, one->wire_bytes);
  EXPECT_EQ(laned->duration, one->duration);
  EXPECT_EQ(laned->per_shard_executed, one->per_shard_executed);
  EXPECT_EQ(laned->jam.hits, one->jam.hits);
  EXPECT_EQ(laned->jam.by_handle_sends, one->jam.by_handle_sends);
  std::vector<PicoTime> a = one->latency.samples();
  std::vector<PicoTime> b = laned->latency.samples();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(KvOpenLoopTest, RejectsDegenerateConfigs) {
  auto config = SmallServingConfig();
  config.shards = 0;
  EXPECT_EQ(bench::RunKvOpenLoop(config).status().code(),
            StatusCode::kInvalidArgument);
  config = SmallServingConfig();
  config.offered_rate_mops = 0;
  EXPECT_EQ(bench::RunKvOpenLoop(config).status().code(),
            StatusCode::kInvalidArgument);
  config = SmallServingConfig();
  config.keyspace = config.shards * kKvSlots;  // over the 3/4 bound
  EXPECT_EQ(bench::RunKvOpenLoop(config).status().code(),
            StatusCode::kInvalidArgument);
  config = SmallServingConfig();
  config.put_fraction = 1.5;
  EXPECT_EQ(bench::RunKvOpenLoop(config).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace twochains::jamlib
