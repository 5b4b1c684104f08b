// Receiver-side jam cache suite: send-once/invoke-many over the two-host
// testbed — the by-handle fast path, the miss -> NAK -> resend degrade
// path, capacity eviction under thrash, reload/re-sync invalidation (a
// reloaded package must never execute a stale cached image), hardened
// security modes over cached images, the W^X seal binding alike on
// full-body, by-handle and Local frames, and exactly-once under a
// stealing, hotplugging receiver pool with the cache armed.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "benchlib/workloads.hpp"
#include "core/fabric.hpp"
#include "pool_harness.hpp"

namespace twochains::core {
namespace {

JamCacheConfig CacheOn(std::uint32_t capacity = 8) {
  JamCacheConfig config;
  config.enabled = true;
  config.capacity = capacity;
  return config;
}

// Two probe jams beside the bench package's. `probe` returns the page
// permissions its ARGS and USR blocks have while it runs, as
// (args << 4) | usr, through the test native tc_page_perms. `poke` stores
// to args[1] only when args[0] == 1, so a warm-up invoke can execute.
constexpr const char* kJamProbe = R"AMC(
extern long tc_page_perms(long* addr);
long jam_probe(long* args, long* usr, long usr_bytes) {
  return tc_page_perms(args) * 16 + tc_page_perms(usr);
}
)AMC";
constexpr const char* kJamPoke = R"AMC(
long jam_poke(long* args, char* usr, long usr_bytes) {
  if (args[0] == 1) args[1] = 5;
  return 77;
}
)AMC";

/// Defines tc_page_perms on @p rt: the permission bits of the page that
/// holds its argument. Must run before a package linking it is loaded.
Status RegisterPagePermsNative(Runtime& rt) {
  TC_ASSIGN_OR_RETURN(
      const std::uint32_t index,
      rt.natives().Register("tc_page_perms", [](vm::NativeFrame& f) -> Status {
        TC_ASSIGN_OR_RETURN(const mem::Perm perms,
                            f.memory().PagePerms(f.Arg(0)));
        f.SetResult(static_cast<std::uint64_t>(perms));
        return Status::Ok();
      }));
  return rt.ns().Define("tc_page_perms", vm::MakeNativeHandle(index));
}

/// What `probe` returns when both its blocks sit on pages with @p perms.
std::uint64_t ProbeResult(mem::Perm perms) {
  return static_cast<std::uint64_t>(perms) * 17;
}

class JamCacheTest : public ::testing::Test {
 protected:
  static FabricOptions Options(std::uint32_t capacity = 8) {
    FabricOptions options;
    options.runtime.banks = 2;
    options.runtime.mailboxes_per_bank = 4;
    options.runtime.mailbox_slot_bytes = KiB(64);
    options.runtime.jam_cache = CacheOn(capacity);
    return options;
  }

  /// Wires the two hosts, defines tc_page_perms on both, and loads the
  /// bench package plus the probe jams.
  void SetUpFabric(FabricOptions options = Options()) {
    fabric_ = std::make_unique<Fabric>(options);
    ASSERT_TRUE(fabric_->SyncNamespaces().ok());  // wires and initializes
    for (std::uint32_t host = 0; host < 2; ++host) {
      ASSERT_TRUE(RegisterPagePermsNative(fabric_->runtime(host)).ok());
    }
    pkg::PackageBuilder builder = bench::MakeBenchPackageBuilder();
    ASSERT_TRUE(builder.AddSourceFile("jam_probe.amc", kJamProbe).ok());
    ASSERT_TRUE(builder.AddSourceFile("jam_poke.amc", kJamPoke).ok());
    auto pkg = builder.Build("tcbench_probes");
    ASSERT_TRUE(pkg.ok()) << pkg.status();
    ASSERT_TRUE(fabric_->LoadPackage(*pkg).ok());
  }

  /// Sends one jam and runs until a frame actually *executes* (a cache
  /// miss completes without executing; its full-body resend follows).
  StatusOr<ReceivedMessage> SendAndRun(const std::string& jam,
                                       std::vector<std::uint64_t> args,
                                       std::vector<std::uint8_t> usr,
                                       Invoke mode = Invoke::kInjected) {
    return SendAndComplete(jam, args, usr, mode, /*need_executed=*/true);
  }

  /// Sends one jam and runs until a frame of it completes — executed or
  /// not — other than a by-handle miss (whose full-body resend follows).
  StatusOr<ReceivedMessage> SendAndComplete(const std::string& jam,
                                            std::vector<std::uint64_t> args,
                                            std::vector<std::uint8_t> usr,
                                            Invoke mode = Invoke::kInjected,
                                            bool need_executed = false) {
    std::optional<ReceivedMessage> done;
    fabric_->runtime(1).SetOnExecuted([&](const ReceivedMessage& msg) {
      if (!msg.cache_miss && (msg.executed || !need_executed)) done = msg;
    });
    TC_ASSIGN_OR_RETURN(const SendReceipt receipt,
                        fabric_->runtime(0).Send(jam, mode, args, usr));
    last_receipt_ = receipt;
    fabric_->RunUntil([&] { return done.has_value(); });
    fabric_->runtime(1).SetOnExecuted(nullptr);
    if (!done.has_value()) return Internal("message never completed");
    return *done;
  }

  std::vector<std::uint8_t> SumPayload(std::uint64_t* expect_out) {
    std::vector<std::uint8_t> usr(64);
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
      const std::uint64_t v = 3 * i + 1;
      std::memcpy(usr.data() + 8 * i, &v, 8);
      expect += v;
    }
    *expect_out = expect;
    return usr;
  }

  std::unique_ptr<Fabric> fabric_;
  SendReceipt last_receipt_;
};

TEST_F(JamCacheTest, SecondSendGoesByHandleAndSavesWire) {
  SetUpFabric();
  Runtime& sender = fabric_->runtime(0);
  Runtime& receiver = fabric_->runtime(1);
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);

  // First send travels full-body and installs at the receiver.
  auto first = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(last_receipt_.by_handle);
  EXPECT_FALSE(first->by_handle);
  EXPECT_EQ(first->return_value, expect);
  EXPECT_EQ(receiver.jam_cache_stats().installs, 1u);
  EXPECT_EQ(receiver.JamCacheSize(), 1u);
  EXPECT_GT(receiver.JamCacheResidentBytes(), 0u);
  EXPECT_TRUE(sender.PeerHasJamHandle(kDefaultPeer, "ssum"));
  const std::uint64_t full_bytes = sender.stats().bytes_sent;

  // Second send rides the slim by-handle frame and still computes the sum.
  auto second = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(last_receipt_.by_handle);
  EXPECT_TRUE(second->by_handle);
  EXPECT_EQ(second->return_value, expect);
  EXPECT_EQ(receiver.PeekU64("sum_results", 1).value(), expect);

  const JamCacheStats& js = receiver.jam_cache_stats();
  EXPECT_EQ(js.hits, 1u);
  EXPECT_EQ(js.misses, 0u);
  EXPECT_GT(js.bytes_saved, 0u);
  EXPECT_GT(js.link_cycles_saved, 0u);
  EXPECT_EQ(sender.jam_cache_stats().by_handle_sends, 1u);

  // The by-handle frame is dramatically smaller than the full-body one:
  // the second send's wire bytes must undercut the first send's by at
  // least the code blob it no longer carries.
  const std::uint64_t slim_bytes = sender.stats().bytes_sent - full_bytes;
  EXPECT_LT(slim_bytes + 512, full_bytes);
  EXPECT_EQ(last_receipt_.frame_len, slim_bytes);
}

TEST_F(JamCacheTest, EvictionMissTriggersNakAndFullResend) {
  // Capacity 1: installing a second jam evicts the first, so re-invoking
  // the first by handle MUST miss, NAK, and resend full-body — the wire
  // protocol's designed degrade path, observed step by step.
  SetUpFabric(Options(/*capacity=*/1));
  Runtime& sender = fabric_->runtime(0);
  Runtime& receiver = fabric_->runtime(1);
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);

  ASSERT_TRUE(SendAndRun("ssum", {0}, usr).ok());   // installs ssum
  ASSERT_TRUE(SendAndRun("iput", {77}, usr).ok());  // evicts ssum for iput
  EXPECT_EQ(receiver.jam_cache_stats().evictions, 1u);
  EXPECT_EQ(receiver.JamCacheSize(), 1u);

  // The sender still believes the peer holds ssum — this send goes
  // by-handle, misses, and the NAK forces a full-body resend that
  // executes exactly once.
  auto msg = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_TRUE(last_receipt_.by_handle);
  EXPECT_FALSE(msg->by_handle);  // the executing frame is the resend
  EXPECT_EQ(msg->return_value, expect);
  EXPECT_EQ(receiver.PeekU64("sum_results", 1).value(), expect);
  EXPECT_EQ(receiver.PeekU64("sum_cursor").value(), 2u);

  const JamCacheStats& hub = receiver.jam_cache_stats();
  const JamCacheStats& cli = sender.jam_cache_stats();
  EXPECT_EQ(hub.misses, 1u);
  EXPECT_EQ(hub.naks_sent, 1u);
  EXPECT_EQ(cli.naks_received, 1u);
  EXPECT_EQ(cli.resends, 1u);
  EXPECT_EQ(hub.hits, 0u);

  // The resend re-installed ssum (evicting iput), so the next send hits.
  auto hot = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(hot.ok()) << hot.status();
  EXPECT_TRUE(hot->by_handle);
  EXPECT_EQ(hot->return_value, expect);
  EXPECT_EQ(receiver.jam_cache_stats().hits, 1u);
  EXPECT_LE(receiver.JamCacheSize(), 1u);
}

TEST_F(JamCacheTest, CapacityOneThrashStaysCorrect) {
  SetUpFabric(Options(/*capacity=*/1));
  Runtime& receiver = fabric_->runtime(1);
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);

  // Alternating jams through a 1-entry cache: every re-invoke of the
  // displaced jam misses and resends, and every result must stay right.
  for (int round = 0; round < 6; ++round) {
    auto sum = SendAndRun("ssum", {0}, usr);
    ASSERT_TRUE(sum.ok()) << sum.status();
    EXPECT_EQ(sum->return_value, expect) << "round " << round;
    auto put = SendAndRun("iput", {1000 + static_cast<std::uint64_t>(round)},
                          usr);
    ASSERT_TRUE(put.ok()) << put.status();
    EXPECT_NE(put->return_value, static_cast<std::uint64_t>(-1))
        << "round " << round;
  }
  EXPECT_EQ(receiver.PeekU64("sum_cursor").value(), 6u);

  const JamCacheStats& hub = receiver.jam_cache_stats();
  const JamCacheStats& cli = fabric_->runtime(0).jam_cache_stats();
  EXPECT_GT(hub.evictions, 0u);
  EXPECT_GT(hub.misses, 0u);
  EXPECT_EQ(hub.misses, hub.naks_sent);
  EXPECT_EQ(cli.naks_received, hub.naks_sent);
  EXPECT_EQ(cli.resends, cli.naks_received);
  EXPECT_EQ(hub.hits + hub.misses, cli.by_handle_sends);
  EXPECT_LE(receiver.JamCacheSize(), 1u);
  EXPECT_EQ(receiver.JamCacheSize(),
            hub.installs - hub.evictions - hub.invalidations);
}

TEST_F(JamCacheTest, FrameThatCannotFitFailsAtSendEvenWhenCached) {
  // A by-handle send the receiver misses is resent full-body, so the
  // full-body frame must fit its slot even when the slim one would.
  SetUpFabric(Options(/*capacity=*/1));
  Runtime& sender = fabric_->runtime(0);
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);
  ASSERT_TRUE(SendAndRun("ssum", {0}, usr).ok());   // installs ssum
  ASSERT_TRUE(SendAndRun("iput", {77}, usr).ok());  // evicts ssum for iput
  ASSERT_TRUE(sender.PeerHasJamHandle(kDefaultPeer, "ssum"));
  const std::uint32_t last_sn = last_receipt_.sn;

  // The slim frame (65,472 B) fits the 64 KiB slot; the full body does not.
  const std::vector<std::uint8_t> big(KiB(64) - 128, 1);
  const std::vector<std::uint64_t> args = {0};
  const auto refused = sender.Send("ssum", Invoke::kInjected, args, big);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sender.stats().per_peer[kDefaultPeer].send_stalls, 0u);

  // Nothing was consumed: the next send takes the next sequence number,
  // misses at the receiver, and its resend executes.
  auto next = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(last_receipt_.sn, last_sn + 1);
  EXPECT_EQ(next->return_value, expect);
  EXPECT_EQ(sender.jam_cache_stats().resends, 1u);
}

// Two builds of the same element name with different bodies: the reload
// path must guarantee the stale cached image never executes again.
StatusOr<pkg::Package> TagPackage(long addend) {
  pkg::PackageBuilder builder;
  const std::string source =
      "long jam_tag(long* args, char* usr, long usr_bytes) {\n"
      "  return args[0] + " + std::to_string(addend) + ";\n"
      "}\n";
  TC_RETURN_IF_ERROR(builder.AddSourceFile("jam_tag.amc", source));
  return builder.Build("tagpkg");
}

TEST_F(JamCacheTest, ReloadAndResyncInvalidateStaleImage) {
  fabric_ = std::make_unique<Fabric>(Options());
  auto v1 = TagPackage(100);
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_TRUE(fabric_->LoadPackage(*v1).ok());
  Runtime& sender = fabric_->runtime(0);
  Runtime& receiver = fabric_->runtime(1);

  // Warm the cache: install, then a by-handle hit.
  auto cold = SendAndRun("tag", {42}, {});
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->return_value, 142u);
  auto hot = SendAndRun("tag", {42}, {});
  ASSERT_TRUE(hot.ok()) << hot.status();
  EXPECT_TRUE(hot->by_handle);
  EXPECT_EQ(hot->return_value, 142u);
  EXPECT_EQ(receiver.JamCacheSize(), 1u);

  // Hot-reload v2 on both hosts and re-sync. The re-sync is the cache's
  // invalidation point: every cached image is flushed and every armed
  // peer handle forgotten.
  auto v2 = TagPackage(200);
  ASSERT_TRUE(v2.ok()) << v2.status();
  ASSERT_TRUE(sender.LoadPackage(*v2, /*allow_reload=*/true).ok());
  ASSERT_TRUE(receiver.LoadPackage(*v2, /*allow_reload=*/true).ok());
  ASSERT_TRUE(fabric_->SyncNamespaces().ok());
  EXPECT_EQ(receiver.JamCacheSize(), 0u);
  EXPECT_GT(receiver.jam_cache_stats().invalidations, 0u);
  EXPECT_FALSE(sender.PeerHasJamHandle(kDefaultPeer, "tag"));

  // Post-reload sends must observe v2 — the stale image never runs.
  auto fresh = SendAndRun("tag", {42}, {});
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(last_receipt_.by_handle);  // handles were forgotten
  EXPECT_EQ(fresh->return_value, 242u);
  auto fresh_hot = SendAndRun("tag", {42}, {});
  ASSERT_TRUE(fresh_hot.ok()) << fresh_hot.status();
  EXPECT_TRUE(fresh_hot->by_handle);
  EXPECT_EQ(fresh_hot->return_value, 242u);
}

TEST_F(JamCacheTest, HitPathUnderHardenedSecurityModes) {
  // All three hardening modes on: the cached image was verified at
  // install, its GOTP equals the sealed receiver-built table, and its
  // pages never intersect the mailbox — hits skip the per-invoke checks
  // yet produce identical results.
  FabricOptions options = Options();
  options.runtime.security.verify_injected_code = true;
  options.runtime.security.receiver_installs_got = true;
  options.runtime.security.split_code_data_pages = true;
  SetUpFabric(options);
  Runtime& receiver = fabric_->runtime(1);
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);

  auto cold = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->return_value, expect);
  auto hot = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(hot.ok()) << hot.status();
  EXPECT_TRUE(hot->by_handle);
  EXPECT_EQ(hot->return_value, expect);
  EXPECT_EQ(receiver.jam_cache_stats().hits, 1u);
  EXPECT_EQ(receiver.stats().security_rejections, 0u);
  // The hardened cold path saves more per hit, and the ledger says so.
  EXPECT_GT(receiver.jam_cache_stats().link_cycles_saved, 0u);
}

TEST_F(JamCacheTest, SecurityModeGridKeepsCachedPathExact) {
  // The full security-mode × cache grid: under every policy tier the
  // by-handle image and the Local library entry must behave exactly like
  // the full-body frame — verify-on-install (Hardened) and
  // verify-on-every-invoke (verify_cached_invokes) change the cost, never
  // the result, and the W^X seal gives every shape's ARGS and USR pages
  // the same permissions while the jam runs.
  struct Mode {
    const char* name;
    SecurityPolicy policy;
  };
  std::vector<Mode> modes;
  modes.push_back({"paper-default", SecurityPolicy::PaperDefault()});
  {
    SecurityPolicy sealed;
    sealed.split_code_data_pages = true;
    sealed.enforce_exec_permission = true;
    sealed.read_only_args = true;
    modes.push_back({"w^x+read-only-args", sealed});
  }
  {
    SecurityPolicy writable;
    writable.split_code_data_pages = true;
    writable.enforce_exec_permission = true;
    modes.push_back({"w^x", writable});
  }
  modes.push_back({"hardened", SecurityPolicy::Hardened()});
  {
    SecurityPolicy paranoid = SecurityPolicy::Hardened();
    paranoid.verify_cached_invokes = true;
    modes.push_back({"hardened+verify-cached", paranoid});
  }

  for (const Mode& mode : modes) {
    FabricOptions options = Options();
    options.runtime.security = mode.policy;
    SetUpFabric(options);
    Runtime& receiver = fabric_->runtime(1);
    std::uint64_t expect = 0;
    const std::vector<std::uint8_t> usr = SumPayload(&expect);

    auto cold = SendAndRun("ssum", {0}, usr);
    ASSERT_TRUE(cold.ok()) << mode.name << ": " << cold.status();
    EXPECT_FALSE(cold->by_handle) << mode.name;
    EXPECT_EQ(cold->return_value, expect) << mode.name;
    for (int hit = 0; hit < 3; ++hit) {
      auto hot = SendAndRun("ssum", {0}, usr);
      ASSERT_TRUE(hot.ok()) << mode.name << ": " << hot.status();
      EXPECT_TRUE(hot->by_handle) << mode.name << " hit " << hit;
      EXPECT_EQ(hot->return_value, expect) << mode.name << " hit " << hit;
    }
    EXPECT_EQ(receiver.jam_cache_stats().hits, 3u) << mode.name;
    EXPECT_EQ(receiver.jam_cache_stats().misses, 0u) << mode.name;
    EXPECT_EQ(receiver.stats().security_rejections, 0u) << mode.name;
    EXPECT_EQ(receiver.PeekU64("sum_results", 1).value(), expect)
        << mode.name;
    auto local = SendAndRun("ssum", {0}, usr, Invoke::kLocal);
    ASSERT_TRUE(local.ok()) << mode.name << ": " << local.status();
    EXPECT_FALSE(local->injected) << mode.name;
    EXPECT_EQ(local->return_value, expect) << mode.name;

    // The seal: ARGS/USR pages read as the mailbox's resting rwx unless
    // split_code_data_pages flips them, and then alike in every shape.
    const mem::Perm data_pages =
        !mode.policy.split_code_data_pages ? mem::Perm::kRWX
        : mode.policy.read_only_args       ? mem::Perm::kRead
                                           : mem::Perm::kRW;
    const struct {
      const char* shape;
      Invoke mode;
      bool by_handle;
    } shapes[] = {{"full-body", Invoke::kInjected, false},
                  {"by-handle", Invoke::kInjected, true},
                  {"local", Invoke::kLocal, false}};
    for (const auto& shape : shapes) {
      auto probe = SendAndRun("probe", {0}, usr, shape.mode);
      ASSERT_TRUE(probe.ok()) << mode.name << " " << shape.shape << ": "
                              << probe.status();
      EXPECT_EQ(probe->by_handle, shape.by_handle)
          << mode.name << " " << shape.shape;
      EXPECT_EQ(probe->return_value, ProbeResult(data_pages))
          << mode.name << " " << shape.shape << " saw "
          << mem::PermString(static_cast<mem::Perm>(probe->return_value >> 4))
          << " ARGS, "
          << mem::PermString(static_cast<mem::Perm>(probe->return_value & 15))
          << " USR";
    }
    EXPECT_EQ(receiver.stats().security_rejections, 0u) << mode.name;
  }
}

TEST_F(JamCacheTest, HardenedStoreToArgsFaultsInEveryShape) {
  // Under Hardened() ARGS are read-only while the jam runs, so a store
  // into them faults whether the jam came in the frame, from the cache by
  // handle, or from the Local library: the frame completes unexecuted and
  // counts as a security rejection.
  FabricOptions options = Options();
  options.runtime.security = SecurityPolicy::Hardened();
  SetUpFabric(options);
  Runtime& receiver = fabric_->runtime(1);

  // Cold full-body frame that stores: faults, so nothing is installed.
  auto full = SendAndComplete("poke", {1, 0}, {});
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_FALSE(full->by_handle);
  EXPECT_FALSE(full->executed);
  EXPECT_EQ(receiver.stats().security_rejections, 1u);
  EXPECT_EQ(receiver.jam_cache_stats().installs, 0u);

  // A frame that does not store executes. The sender already believed
  // the peer held the image, so it goes by handle, misses, and its
  // full-body resend executes and installs.
  auto warm = SendAndRun("poke", {0, 0}, {});
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->return_value, 77u);
  EXPECT_EQ(receiver.jam_cache_stats().installs, 1u);

  auto by_handle = SendAndComplete("poke", {1, 0}, {});
  ASSERT_TRUE(by_handle.ok()) << by_handle.status();
  EXPECT_TRUE(by_handle->by_handle);
  EXPECT_FALSE(by_handle->executed);
  EXPECT_EQ(receiver.stats().security_rejections, 2u);

  auto local = SendAndComplete("poke", {1, 0}, {}, Invoke::kLocal);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_FALSE(local->injected);
  EXPECT_FALSE(local->executed);
  EXPECT_EQ(receiver.stats().security_rejections, 3u);

  // Every fault restored the mailbox: the next frames of each shape run.
  auto hot = SendAndRun("poke", {0, 0}, {});
  ASSERT_TRUE(hot.ok()) << hot.status();
  EXPECT_TRUE(hot->by_handle);
  EXPECT_EQ(hot->return_value, 77u);
  auto local_ok = SendAndRun("poke", {0, 0}, {}, Invoke::kLocal);
  ASSERT_TRUE(local_ok.ok()) << local_ok.status();
  EXPECT_EQ(local_ok->return_value, 77u);
  EXPECT_EQ(receiver.stats().security_rejections, 3u);
}

TEST_F(JamCacheTest, VerifyCachedInvokesChargesEveryHit) {
  // verify_cached_invokes trades hit latency for paranoia: identical
  // deterministic testbeds, identical send sequences — the only delta is
  // the knob, so the hit's delivered->completed latency must grow.
  const auto hot_latency = [this](bool verify_hits) -> PicoTime {
    FabricOptions options = Options();
    options.runtime.security = SecurityPolicy::Hardened();
    options.runtime.security.verify_cached_invokes = verify_hits;
    SetUpFabric(options);
    std::uint64_t expect = 0;
    const std::vector<std::uint8_t> usr = SumPayload(&expect);
    auto cold = SendAndRun("ssum", {0}, usr);
    EXPECT_TRUE(cold.ok()) << cold.status();
    auto hot = SendAndRun("ssum", {0}, usr);
    EXPECT_TRUE(hot.ok()) << hot.status();
    if (!hot.ok() || !hot->by_handle) return 0;
    return hot->completed_at - hot->delivered_at;
  };
  const PicoTime trusting = hot_latency(false);
  const PicoTime paranoid = hot_latency(true);
  ASSERT_GT(trusting, 0u);
  EXPECT_GT(paranoid, trusting);
}

TEST_F(JamCacheTest, EvictionResendReverifiesUnderHardenedPolicy) {
  // NAK/resend × hardening: after an eviction the full-body resend walks
  // the entire hardened install path again — wire-code verification,
  // receiver GOT, W^X, and a fresh verified install — and the ledger
  // accounts every step.
  FabricOptions options = Options(/*capacity=*/1);
  options.runtime.security = SecurityPolicy::Hardened();
  options.runtime.security.verify_cached_invokes = true;
  SetUpFabric(options);
  Runtime& sender = fabric_->runtime(0);
  Runtime& receiver = fabric_->runtime(1);
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);

  ASSERT_TRUE(SendAndRun("ssum", {0}, usr).ok());   // verified install
  ASSERT_TRUE(SendAndRun("iput", {77}, usr).ok());  // evicts ssum
  EXPECT_EQ(receiver.jam_cache_stats().evictions, 1u);

  // By-handle miss -> NAK -> full-body resend, executing under the full
  // policy (the resend is a cold frame: wire verify + install verify).
  auto resent = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(resent.ok()) << resent.status();
  EXPECT_TRUE(last_receipt_.by_handle);
  EXPECT_FALSE(resent->by_handle);
  EXPECT_EQ(resent->return_value, expect);

  const JamCacheStats& hub = receiver.jam_cache_stats();
  EXPECT_EQ(hub.misses, 1u);
  EXPECT_EQ(hub.naks_sent, 1u);
  EXPECT_EQ(sender.jam_cache_stats().resends, 1u);
  EXPECT_EQ(hub.installs, 3u);  // ssum, iput, ssum again — each verified
  EXPECT_EQ(receiver.stats().security_rejections, 0u);

  // And the re-installed image still hits — re-verified per invoke.
  auto hot = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(hot.ok()) << hot.status();
  EXPECT_TRUE(hot->by_handle);
  EXPECT_EQ(hot->return_value, expect);
  EXPECT_EQ(receiver.jam_cache_stats().hits, 1u);
}

TEST_F(JamCacheTest, NoExecuteFramesNeverGoByHandle) {
  SetUpFabric(Options(/*capacity=*/1));
  Runtime& sender = fabric_->runtime(0);
  Runtime& receiver = fabric_->runtime(1);
  // Sends one delivery-only frame and runs until it completes.
  const auto deliver_only = [&](const std::string& jam,
                                std::span<const std::uint8_t> usr) {
    std::optional<ReceivedMessage> done;
    receiver.SetOnExecuted([&](const ReceivedMessage& msg) { done = msg; });
    const std::vector<std::uint64_t> args = {0};
    auto receipt = sender.Send(jam, Invoke::kInjected, args, usr,
                               static_cast<std::uint16_t>(kFlagNoExecute));
    EXPECT_TRUE(receipt.ok()) << receipt.status();
    // Delivery-only frames must pay full freight: the receiver skips
    // invocation entirely, so a by-handle miss could never be serviced.
    EXPECT_FALSE(receipt.ok() && receipt->by_handle) << jam;
    fabric_->RunUntil([&] { return done.has_value(); });
    receiver.SetOnExecuted(nullptr);
    ASSERT_TRUE(done.has_value()) << jam;
    EXPECT_FALSE(done->executed) << jam;
  };
  for (int i = 0; i < 2; ++i) deliver_only("ssum", {});
  EXPECT_EQ(sender.jam_cache_stats().by_handle_sends, 0u);
  // Nor do they install: the cache holds only what executed.
  EXPECT_EQ(receiver.jam_cache_stats().installs, 0u);
  EXPECT_EQ(receiver.JamCacheSize(), 0u);

  // So delivery-only traffic cannot evict a hot entry, even at capacity 1.
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);
  ASSERT_TRUE(SendAndRun("ssum", {0}, usr).ok());
  auto warm = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->by_handle);
  deliver_only("iput", usr);
  EXPECT_EQ(receiver.jam_cache_stats().installs, 1u);
  EXPECT_EQ(receiver.jam_cache_stats().evictions, 0u);
  auto hot = SendAndRun("ssum", {0}, usr);
  ASSERT_TRUE(hot.ok()) << hot.status();
  EXPECT_TRUE(hot->by_handle);
  EXPECT_EQ(hot->return_value, expect);
  EXPECT_EQ(receiver.jam_cache_stats().hits, 2u);
  EXPECT_EQ(receiver.jam_cache_stats().misses, 0u);
}

// --------------------------------------------- pool scheduler integration

/// Exactly-once and ledger reconciliation with the cache armed on a
/// stealing pool, including mid-drain hotplug — the cache's NAK/resend
/// traffic must not break a single scheduler invariant.
TEST(JamCachePoolTest, ExactlyOnceUnderStealAndQuiesce) {
  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok()) << package.status();

  for (const std::uint64_t seed : {1ull, 42ull, 1337ull}) {
    pooltest::PoolTopology topo;
    topo.spokes = 4;
    topo.receiver_cores = 4;
    topo.banks = 2;
    topo.mailboxes_per_bank = 4;
    topo.messages_per_spoke = {96, 24, 24, 48};
    topo.steal.enabled = true;
    topo.steal.threshold = 1;
    topo.steal.hysteresis = 1;
    topo.jam_cache = CacheOn(2);  // small: force eviction/NAK traffic
    topo.quiesce = {{1, 40, 160}, {2, 90, 0}};
    topo.seed = seed;
    const pooltest::PoolRunResult r = pooltest::RunPoolIncast(topo,
                                                              *package);
    pooltest::ExpectPoolInvariants(topo, r);
    EXPECT_GT(r.spoke_by_handle_sends, 0u) << topo.Describe();
    EXPECT_GT(r.hub_jam.hits, 0u) << topo.Describe();
  }
}

}  // namespace
}  // namespace twochains::core
