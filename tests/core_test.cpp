// Integration tests for the Two-Chains core: frame codec, end-to-end
// injected + local invocation over the simulated RDMA testbed, flow
// control, security modes, and failure injection.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "benchlib/send_loop.hpp"
#include "benchlib/workloads.hpp"
#include "core/frame.hpp"
#include "core/fabric.hpp"

namespace twochains::core {
namespace {

// ------------------------------------------------------------ frame codec

TEST(FrameLayoutTest, LocalFrameIsCompact) {
  FrameSpec spec;
  spec.injected = false;
  spec.args_size = 8;
  spec.usr_size = 4;
  const FrameLayout layout = FrameLayout::Compute(spec);
  EXPECT_EQ(layout.code_off, 0u);
  EXPECT_EQ(layout.args_off, kHeaderBytes);
  EXPECT_EQ(layout.frame_len, 64u);  // paper: 1-int local frame is 64 B
  EXPECT_EQ(layout.sig_off, 56u);
}

TEST(FrameLayoutTest, InjectedFrameCarriesGotpAndCode) {
  FrameSpec spec;
  spec.injected = true;
  spec.got_slots = 3;
  spec.code_size = 1408;  // the paper's Indirect Put code size
  spec.args_size = 8;
  spec.usr_size = 4;
  const FrameLayout layout = FrameLayout::Compute(spec);
  EXPECT_EQ(layout.gotp_off, kHeaderBytes);
  EXPECT_EQ(layout.pre_off, layout.code_off - 16);
  EXPECT_GE(layout.code_off, layout.gotp_off + 3 * 8 + 16);
  EXPECT_EQ(layout.code_off % 16, 0u);
  EXPECT_GE(layout.args_off, layout.code_off + spec.code_size);
  EXPECT_EQ(layout.frame_len % 64, 0u);
  EXPECT_GT(layout.frame_len, 1408u);
}

TEST(FrameLayoutTest, SplitModePutsDataOnFreshPage) {
  FrameSpec spec;
  spec.injected = true;
  spec.got_slots = 1;
  spec.code_size = 256;
  spec.args_size = 8;
  spec.usr_size = 64;
  spec.split_code_data = true;
  const FrameLayout layout = FrameLayout::Compute(spec);
  EXPECT_EQ(layout.args_off % mem::kPageSize, 0u);
  EXPECT_GT(layout.args_off, layout.code_off + spec.code_size - 1);
}

TEST(FrameCodecTest, PackAndParseRoundTrip) {
  FrameSpec spec;
  spec.injected = true;
  spec.got_slots = 2;
  spec.code_size = 16;
  spec.args_size = 16;
  spec.usr_size = 5;
  FrameHeader header;
  header.sn = 42;
  header.elem_id = 7;
  const std::vector<std::uint64_t> gotp = {0x1111, 0x2222};
  const std::vector<std::uint8_t> code = {1, 2, 3, 4, 5, 6, 7, 8,
                                          9, 10, 11, 12, 13, 14, 15, 16};
  const std::vector<std::uint8_t> args(16, 0xAA);
  const std::vector<std::uint8_t> usr = {9, 8, 7, 6, 5};
  auto frame = PackFrame(spec, header, gotp, code, args, usr);
  ASSERT_TRUE(frame.ok()) << frame.status();

  auto parsed = ReadHeader(*frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->sn, 42u);
  EXPECT_EQ(parsed->elem_id, 7u);
  EXPECT_TRUE(parsed->flags & kFlagInjected);
  EXPECT_EQ(parsed->frame_len, frame->size());
  EXPECT_EQ(parsed->usr_size, 5u);

  const FrameLayout layout = FrameLayout::Compute(spec);
  std::uint64_t sig;
  std::memcpy(&sig, frame->data() + layout.sig_off, 8);
  EXPECT_EQ(sig, SignalWord(42));
  EXPECT_EQ((*frame)[layout.code_off], 1);
  EXPECT_EQ((*frame)[layout.usr_off], 9);
}

TEST(FrameCodecTest, SizeMismatchesRejected) {
  FrameSpec spec;
  spec.injected = false;
  spec.args_size = 8;
  spec.usr_size = 0;
  const std::vector<std::uint8_t> args(16, 0);  // wrong size
  EXPECT_FALSE(PackFrame(spec, {}, {}, {}, args, {}).ok());
  // Local frames cannot carry code.
  const std::vector<std::uint8_t> good_args(8, 0);
  const std::vector<std::uint8_t> code(8, 0);
  EXPECT_FALSE(PackFrame(spec, {}, {}, code, good_args, {}).ok());
}

TEST(FrameCodecTest, BadMagicRejected) {
  std::vector<std::uint8_t> bytes(kHeaderBytes, 0);
  EXPECT_EQ(ReadHeader(bytes).status().code(), StatusCode::kDataLoss);
  std::vector<std::uint8_t> tiny(4, 0);
  EXPECT_EQ(ReadHeader(tiny).status().code(), StatusCode::kDataLoss);
}

TEST(FrameCodecTest, InconsistentSizeFieldsRejected) {
  // Build a valid local frame, then corrupt individual header size fields;
  // the hardened ReadHeader must reject every inconsistency as kDataLoss.
  FrameSpec spec;
  spec.args_size = 8;
  auto frame = PackFrame(spec, {}, {}, {}, std::vector<std::uint8_t>(8), {});
  ASSERT_TRUE(frame.ok());

  auto corrupt = [&](std::uint32_t off, std::uint32_t value) {
    std::vector<std::uint8_t> bad = *frame;
    std::memcpy(bad.data() + off, &value, 4);
    return ReadHeader(bad).status().code();
  };
  // frame_len: zero, non-64B-multiple, too small for declared sections.
  EXPECT_EQ(corrupt(8, 0), StatusCode::kDataLoss);
  EXPECT_EQ(corrupt(8, 96), StatusCode::kDataLoss);
  EXPECT_EQ(corrupt(8, 63), StatusCode::kDataLoss);
  // args_size / usr_size that overflow the declared frame_len.
  EXPECT_EQ(corrupt(16, 4096), StatusCode::kDataLoss);
  EXPECT_EQ(corrupt(20, 4096), StatusCode::kDataLoss);
  // args_size near UINT32_MAX must not wrap the 64-bit section arithmetic.
  EXPECT_EQ(corrupt(16, 0xFFFFFFF8u), StatusCode::kDataLoss);
  // The pristine frame still parses, with and without a slot capacity.
  EXPECT_TRUE(ReadHeader(*frame).ok());
  EXPECT_TRUE(ReadHeader(*frame, /*slot_capacity=*/frame->size()).ok());
  // ...but not into a slot smaller than frame_len.
  EXPECT_EQ(ReadHeader(*frame, /*slot_capacity=*/32).status().code(),
            StatusCode::kDataLoss);
}

TEST(FrameCodecTest, HandleFrameRoundTrip) {
  FrameSpec spec;
  spec.by_handle = true;
  spec.args_size = 16;
  spec.usr_size = 5;
  FrameHeader header;
  header.sn = 11;
  header.elem_id = 3;
  const std::vector<std::uint8_t> args(16, 0xAB);
  const std::vector<std::uint8_t> usr = {1, 2, 3, 4, 5};
  const std::vector<std::uint64_t> handle = {0xFEEDC0DEDEADBEEFull};
  auto frame = PackFrame(spec, header, handle, {}, args, usr);
  ASSERT_TRUE(frame.ok()) << frame.status();

  // A by-handle frame drops GOTP/PRE/CODE: header + handle + args + usr +
  // sig, rounded to a cache line — a single line for this payload.
  const FrameLayout layout = FrameLayout::Compute(spec);
  EXPECT_EQ(layout.handle_off, kHeaderBytes);
  EXPECT_EQ(layout.args_off, kHeaderBytes + 8u);
  EXPECT_EQ(frame->size(), 64u);

  auto parsed = ReadHeader(*frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->flags & kFlagByHandle);
  EXPECT_TRUE(parsed->flags & kFlagInjected);
  std::uint64_t carried = 0;
  std::memcpy(&carried, frame->data() + layout.handle_off, 8);
  EXPECT_EQ(carried, 0xFEEDC0DEDEADBEEFull);
  EXPECT_EQ((*frame)[layout.args_off], 0xAB);
  EXPECT_EQ((*frame)[layout.usr_off], 1);

  // A by-handle frame carries exactly its one handle word and no code.
  EXPECT_EQ(PackFrame(spec, header, {}, {}, args, usr).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<std::uint64_t> two = {1, 2};
  EXPECT_FALSE(PackFrame(spec, header, two, {}, args, usr).ok());
  const std::vector<std::uint8_t> code(8, 0);
  EXPECT_FALSE(PackFrame(spec, header, handle, code, args, usr).ok());
}

TEST(FrameCodecTest, PreSlotPatching) {
  FrameSpec spec;
  spec.injected = true;
  spec.got_slots = 1;
  spec.code_size = 8;
  const std::vector<std::uint64_t> gotp = {0};
  const std::vector<std::uint8_t> code(8, 0);
  auto frame = PackFrame(spec, {}, gotp, code, {}, {});
  ASSERT_TRUE(frame.ok());
  const FrameLayout layout = FrameLayout::Compute(spec);
  ASSERT_TRUE(PatchPreSlot(*frame, layout, 0xFEEDFACE).ok());
  std::uint64_t pre;
  std::memcpy(&pre, frame->data() + layout.pre_off, 8);
  EXPECT_EQ(pre, 0xFEEDFACEu);
  // Local layout has no PRE slot.
  FrameSpec local;
  const FrameLayout local_layout = FrameLayout::Compute(local);
  EXPECT_EQ(PatchPreSlot(*frame, local_layout, 1).code(),
            StatusCode::kFailedPrecondition);
}

// -------------------------------------------------------------- testbed

/// The n-th message of a counting stream: an injected ssum over the one
/// word n + 1, so the returns of `total` sends add up to 1 + ... + total.
bench::FlowMessage CountingSsum(std::uint64_t n) {
  bench::FlowMessage msg{.jam = "ssum", .usr = std::vector<std::uint8_t>(8)};
  const std::uint64_t v = n + 1;
  std::memcpy(msg.usr.data(), &v, 8);
  return msg;
}

class TwoChainsTest : public ::testing::Test {
 protected:
  static FabricOptions Options() {
    FabricOptions options;
    options.runtime.banks = 2;
    options.runtime.mailboxes_per_bank = 4;
    options.runtime.mailbox_slot_bytes = KiB(64);
    return options;
  }

  void SetUpFabric(FabricOptions options = Options()) {
    fabric_ = std::make_unique<Fabric>(options);
    auto pkg = bench::BuildBenchPackage();
    ASSERT_TRUE(pkg.ok()) << pkg.status();
    ASSERT_TRUE(fabric_->LoadPackage(*pkg).ok());
  }

  /// Sends one jam and runs until it executes; returns the result.
  StatusOr<ReceivedMessage> SendAndRun(const std::string& jam, Invoke mode,
                                       std::vector<std::uint64_t> args,
                                       std::vector<std::uint8_t> usr,
                                       std::uint16_t flags = 0) {
    std::optional<ReceivedMessage> received;
    fabric_->runtime(1).SetOnExecuted(
        [&](const ReceivedMessage& msg) { received = msg; });
    TC_ASSIGN_OR_RETURN(const SendReceipt receipt,
                        fabric_->runtime(0).Send(jam, mode, args, usr,
                                                 flags));
    last_receipt_ = receipt;
    fabric_->RunUntil([&] { return received.has_value(); });
    fabric_->runtime(1).SetOnExecuted(nullptr);
    if (!received.has_value()) return Internal("message never executed");
    return *received;
  }

  std::unique_ptr<Fabric> fabric_;
  SendReceipt last_receipt_;
};

TEST_F(TwoChainsTest, InjectedServerSideSum) {
  SetUpFabric();
  // Payload: 8 longs summing to 36, like the paper's Server-Side Sum.
  std::vector<std::uint8_t> usr(64);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t v = i + 1;
    std::memcpy(usr.data() + 8 * i, &v, 8);
    expect += v;
  }
  auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_TRUE(msg->executed);
  EXPECT_TRUE(msg->injected);
  EXPECT_EQ(msg->return_value, expect);
  // The result landed in the server-resident ried array.
  EXPECT_EQ(fabric_->runtime(1).PeekU64("sum_results", 0).value(), expect);
  EXPECT_EQ(fabric_->runtime(1).PeekU64("sum_cursor").value(), 1u);
}

TEST_F(TwoChainsTest, LocalServerSideSumMatchesInjected) {
  SetUpFabric();
  std::vector<std::uint8_t> usr(32);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t v = 10 * (i + 1);
    std::memcpy(usr.data() + 8 * i, &v, 8);
    expect += v;
  }
  auto injected = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
  ASSERT_TRUE(injected.ok()) << injected.status();
  auto local = SendAndRun("ssum", Invoke::kLocal, {0}, usr);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_EQ(injected->return_value, expect);
  EXPECT_EQ(local->return_value, expect);
  EXPECT_FALSE(local->injected);
  // The local frame is much smaller than the injected one (no code).
  auto local_layout =
      fabric_->runtime(0).LayoutFor("ssum", Invoke::kLocal, 8, 32);
  auto injected_layout =
      fabric_->runtime(0).LayoutFor("ssum", Invoke::kInjected, 8, 32);
  ASSERT_TRUE(local_layout.ok());
  ASSERT_TRUE(injected_layout.ok());
  EXPECT_LT(local_layout->frame_len + 512, injected_layout->frame_len);
}

TEST_F(TwoChainsTest, IndirectPutStoresPayloadAtHashedOffset) {
  SetUpFabric();
  std::vector<std::uint8_t> usr(16);
  for (std::size_t i = 0; i < usr.size(); ++i) {
    usr[i] = static_cast<std::uint8_t>(i + 1);
  }
  auto msg = SendAndRun("iput", Invoke::kInjected, {12345}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  ASSERT_TRUE(msg->executed);
  const std::uint64_t offset = msg->return_value;
  EXPECT_NE(offset, static_cast<std::uint64_t>(-1));
  // Server heap holds the payload at the returned offset.
  auto heap_word =
      fabric_->runtime(1).PeekU64("ht_heap", offset / 8);
  ASSERT_TRUE(heap_word.ok());
  std::uint64_t expect;
  std::memcpy(&expect, usr.data(), 8);
  EXPECT_EQ(*heap_word, expect);
  // Re-putting the same key reuses the offset (hash-table hit path).
  auto again = SendAndRun("iput", Invoke::kInjected, {12345}, usr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->return_value, offset);
  // A different key gets a different offset.
  auto other = SendAndRun("iput", Invoke::kInjected, {999}, usr);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other->return_value, offset);
}

TEST_F(TwoChainsTest, WithoutExecutionSkipsInvocation) {
  SetUpFabric();
  std::vector<std::uint8_t> usr(64, 1);
  auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr, kFlagNoExecute);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_FALSE(msg->executed);
  EXPECT_EQ(msg->instructions, 0u);
  EXPECT_EQ(fabric_->runtime(1).PeekU64("sum_cursor").value(), 0u);
}

TEST_F(TwoChainsTest, ManyMessagesExerciseBankRecycling) {
  SetUpFabric();  // 2 banks x 4 slots
  const int total = 50;  // > 6 bank cycles
  int executed = 0;
  std::uint64_t sum_of_returns = 0;
  fabric_->runtime(1).SetOnExecuted([&](const ReceivedMessage& msg) {
    ++executed;
    sum_of_returns += msg.return_value;
  });
  const bench::SendLoops loops(
      *fabric_,
      {{.src = 0, .dst = 1, .count = total, .next = CountingSsum}});
  fabric_->RunUntil([&] { return executed == total; });
  ASSERT_TRUE(loops.status().ok()) << loops.status();
  EXPECT_EQ(executed, total);
  // sum of 1..50
  EXPECT_EQ(sum_of_returns, 50u * 51 / 2);
  EXPECT_GE(fabric_->runtime(1).stats().bank_flags_returned, 10u);
}

TEST_F(TwoChainsTest, SendWithoutFreeSlotFails) {
  SetUpFabric();
  std::vector<std::uint8_t> usr(8, 0);
  // Fill both banks without letting the receiver drain (don't run engine).
  int ok_sends = 0;
  while (fabric_->runtime(0).HasFreeSlot()) {
    auto r = fabric_->runtime(0).Send("ssum", Invoke::kInjected, {}, usr);
    ASSERT_TRUE(r.ok());
    ++ok_sends;
  }
  EXPECT_EQ(ok_sends, 8);  // 2 banks x 4 slots
  auto blocked = fabric_->runtime(0).Send("ssum", Invoke::kInjected, {}, usr);
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(TwoChainsTest, UnknownJamRejected) {
  SetUpFabric();
  auto r = fabric_->runtime(0).Send("nope", Invoke::kInjected, {}, {});
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(TwoChainsTest, PingPongBothDirections) {
  SetUpFabric();
  std::vector<std::uint8_t> usr(8, 2);
  // 0 -> 1
  auto there = SendAndRun("nop", Invoke::kInjected, {7}, usr);
  ASSERT_TRUE(there.ok()) << there.status();
  EXPECT_EQ(there->return_value, 7u);
  // 1 -> 0
  std::optional<ReceivedMessage> received;
  fabric_->runtime(0).SetOnExecuted(
      [&](const ReceivedMessage& msg) { received = msg; });
  const std::vector<std::uint64_t> args = {9};
  ASSERT_TRUE(
      fabric_->runtime(1).Send("nop", Invoke::kInjected, args, usr).ok());
  fabric_->RunUntil([&] { return received.has_value(); });
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->return_value, 9u);
}

TEST_F(TwoChainsTest, InjectedCodeExecutesFromMailbox) {
  SetUpFabric();
  // The executed code's instructions must be fetched from the mailbox
  // region (i.e. code really travelled): check instruction counts.
  std::vector<std::uint8_t> usr(256, 1);
  auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
  ASSERT_TRUE(msg.ok());
  EXPECT_GT(msg->instructions, 100u);  // the sum loop ran in the interpreter
}

// ----------------------------------------------------------- security

TEST_F(TwoChainsTest, ReceiverInstalledGotMode) {
  FabricOptions options = Options();
  options.runtime.security.receiver_installs_got = true;
  SetUpFabric(options);
  std::vector<std::uint8_t> usr(16, 3);
  auto msg = SendAndRun("iput", Invoke::kInjected, {42}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_TRUE(msg->executed);
  EXPECT_NE(msg->return_value, static_cast<std::uint64_t>(-1));
}

TEST_F(TwoChainsTest, HardenedPolicyEndToEnd) {
  FabricOptions options = Options();
  options.runtime.security = SecurityPolicy::Hardened();
  SetUpFabric(options);
  std::vector<std::uint8_t> usr(64);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    std::memcpy(usr.data() + 8 * i, &i, 8);
    expect += i;
  }
  auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_TRUE(msg->executed);
  EXPECT_EQ(msg->return_value, expect);
}

TEST_F(TwoChainsTest, VerifierModeExecutes) {
  FabricOptions options = Options();
  options.runtime.security.verify_injected_code = true;
  SetUpFabric(options);
  std::vector<std::uint8_t> usr(8, 1);
  auto msg = SendAndRun("nop", Invoke::kInjected, {1}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_TRUE(msg->executed);
}

TEST_F(TwoChainsTest, SeparateSignalPutStillDelivers) {
  FabricOptions options = Options();
  options.runtime.separate_signal_put = true;
  options.nic.enforce_write_ordering = false;  // the mode that needs it
  SetUpFabric(options);
  std::vector<std::uint8_t> usr(16, 4);
  auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_TRUE(msg->executed);
  EXPECT_EQ(msg->return_value, 4ull * 0x0404040404040404ull / 4 * 2 == 0
                ? 0
                : msg->return_value);  // value checked below
  // 16 bytes of 0x04 = two longs of 0x0404040404040404.
  EXPECT_EQ(msg->return_value, 2ull * 0x0404040404040404ull);
}

TEST_F(TwoChainsTest, StatsAccumulate) {
  SetUpFabric();
  std::vector<std::uint8_t> usr(8, 1);
  ASSERT_TRUE(SendAndRun("ssum", Invoke::kInjected, {}, usr).ok());
  ASSERT_TRUE(SendAndRun("ssum", Invoke::kLocal, {}, usr).ok());
  const auto& tx = fabric_->runtime(0).stats();
  const auto& rx = fabric_->runtime(1).stats();
  EXPECT_EQ(tx.messages_sent, 2u);
  EXPECT_EQ(rx.messages_executed, 2u);
  EXPECT_EQ(rx.messages_delivered, 2u);
  EXPECT_GT(tx.bytes_sent, 0u);
  EXPECT_GT(rx.wait_episodes, 0u);
}

TEST_F(TwoChainsTest, ReceiverCountersTrackWork) {
  SetUpFabric();
  std::vector<std::uint8_t> usr(1024, 1);
  ASSERT_TRUE(SendAndRun("ssum", Invoke::kInjected, {}, usr).ok());
  const auto& counters = fabric_->runtime(1).receiver_cpu().counters();
  EXPECT_GT(counters.Of(cpu::CycleClass::kWait), 0u);
  EXPECT_GT(counters.Of(cpu::CycleClass::kExecute), 0u);
  EXPECT_GT(counters.instructions, 0u);
  EXPECT_EQ(counters.messages_handled, 1u);
}

// ------------------------------------------------ per-host overloading

namespace overload {

constexpr const char* kJamApply = R"(
extern long transform(long x);

long jam_apply(long* args, char* usr, long usr_bytes) {
  return transform(args[0]);
}
)";

constexpr const char* kRiedDoubler = R"(
long ried_math(void) { return 0; }
long transform(long x) { return 2 * x; }
)";

constexpr const char* kRiedSquarer = R"(
long ried_math(void) { return 0; }
long transform(long x) { return x * x; }
)";

StatusOr<pkg::Package> BuildVariant(const char* ried, const char* name) {
  pkg::PackageBuilder builder;
  TC_RETURN_IF_ERROR(builder.AddSourceFile("ried_math.rdc", ried));
  TC_RETURN_IF_ERROR(builder.AddSourceFile("jam_apply.amc", kJamApply));
  return builder.Build(name);
}

}  // namespace overload

TEST_F(TwoChainsTest, LoadPackagesPerHostOverloading) {
  // §IV: the same element names, different implementations per host. The
  // same injected jam must remote-link `transform` against whichever
  // host it lands on.
  auto doubler = overload::BuildVariant(overload::kRiedDoubler, "math_d");
  auto squarer = overload::BuildVariant(overload::kRiedSquarer, "math_s");
  ASSERT_TRUE(doubler.ok()) << doubler.status();
  ASSERT_TRUE(squarer.ok()) << squarer.status();

  fabric_ = std::make_unique<Fabric>(Options());
  ASSERT_TRUE(fabric_->LoadPackages({&*doubler, &*squarer}).ok());

  // 0 -> 1 lands on the squarer.
  auto on_squarer = SendAndRun("apply", Invoke::kInjected, {9}, {});
  ASSERT_TRUE(on_squarer.ok()) << on_squarer.status();
  EXPECT_EQ(on_squarer->return_value, 81u);

  // 1 -> 0 lands on the doubler.
  std::optional<ReceivedMessage> received;
  fabric_->runtime(0).SetOnExecuted(
      [&](const ReceivedMessage& msg) { received = msg; });
  const std::vector<std::uint64_t> args = {9};
  ASSERT_TRUE(
      fabric_->runtime(1).Send("apply", Invoke::kInjected, args, {}).ok());
  fabric_->RunUntil([&] { return received.has_value(); });
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->return_value, 18u);
}

TEST_F(TwoChainsTest, SecondPackageCannotTakeALoadedJamId) {
  // Element ids are unique only within a package: the bench package holds
  // ried kvstore 0, ssum 1, iput 2 and nop 3, and a second package's ids
  // restart at 0. A frame names its jam by id, so a host must refuse a jam
  // that reuses a loaded jam's id under another name, or frames for ssum
  // would run the other jam with ssum's layout.
  SetUpFabric();
  pkg::PackageBuilder builder;
  ASSERT_TRUE(builder
                  .AddSourceFile("jam_ten.amc",
                                 "long jam_ten(long* args, char* usr, "
                                 "long usr_bytes) { return 1010; }\n")
                  .ok());
  ASSERT_TRUE(builder
                  .AddSourceFile("jam_eleven.amc",
                                 "long jam_eleven(long* args, char* usr, "
                                 "long usr_bytes) { return 1011; }\n")
                  .ok());
  auto other = builder.Build("other");
  ASSERT_TRUE(other.ok()) << other.status();
  ASSERT_EQ(other->Find(pkg::ElementKind::kJam, "eleven")->element_id, 1u);

  const Status st = fabric_->runtime(1).LoadPackage(*other);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << st;
  EXPECT_NE(std::string(st.message()).find("'eleven'"), std::string::npos)
      << st;
  EXPECT_NE(std::string(st.message()).find("'ssum'"), std::string::npos)
      << st;
  // Nothing of the refused package loaded, not even its first jam, whose
  // id 0 belongs to a ried.
  EXPECT_EQ(fabric_->runtime(1)
                .LayoutFor("ten", Invoke::kInjected, 8, 0)
                .status()
                .code(),
            StatusCode::kNotFound);

  // ssum still runs as ssum.
  std::vector<std::uint8_t> usr(16);
  const std::uint64_t words[2] = {20, 22};
  std::memcpy(usr.data(), words, sizeof(words));
  auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_TRUE(msg->executed);
  EXPECT_EQ(msg->return_value, 42u);
  EXPECT_EQ(fabric_->runtime(1).stats().security_rejections, 0u);
}

TEST_F(TwoChainsTest, LoadPackagesCountMismatchRejected) {
  auto package = bench::BuildBenchPackage();
  ASSERT_TRUE(package.ok());
  Fabric fabric(Options());
  EXPECT_EQ(fabric.LoadPackages({&*package}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.LoadPackages({&*package, nullptr}).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------- receiver pooling

TEST_F(TwoChainsTest, ReceiverPoolSharesTheDrain) {
  FabricOptions options = Options();
  options.runtime.receiver_cores = 2;
  options.runtime.sender_core = 2;  // keep sends off the pool cores
  SetUpFabric(options);

  const int total = 48;  // several bank cycles over both banks
  int executed = 0;
  std::uint64_t sum_of_returns = 0;
  fabric_->runtime(1).SetOnExecuted([&](const ReceivedMessage& msg) {
    ++executed;
    sum_of_returns += msg.return_value;
  });
  const bench::SendLoops loops(
      *fabric_,
      {{.src = 0, .dst = 1, .count = total, .next = CountingSsum}});
  fabric_->RunUntil([&] { return executed == total; });
  ASSERT_TRUE(loops.status().ok()) << loops.status();
  EXPECT_EQ(executed, total);
  EXPECT_EQ(sum_of_returns,
            static_cast<std::uint64_t>(total) * (total + 1) / 2);

  // Both pool cores really processed messages, and their per-core
  // counters aggregate to the runtime totals.
  Runtime& rx = fabric_->runtime(1);
  ASSERT_EQ(rx.receiver_pool_size(), 2u);
  std::uint64_t pool_total = 0;
  for (std::uint32_t c = 0; c < rx.receiver_pool_size(); ++c) {
    const auto& counters = rx.receiver_cpu(c).counters();
    EXPECT_GT(counters.messages_handled, 0u) << "core " << c;
    EXPECT_GT(rx.receiver_wait_stats(c).episodes, 0u) << "core " << c;
    pool_total += counters.messages_handled;
  }
  EXPECT_EQ(pool_total, static_cast<std::uint64_t>(total));
  EXPECT_EQ(rx.InFlightFrames(), 0u);
}

TEST_F(TwoChainsTest, ReceiverPoolClampsToHostCores) {
  FabricOptions options = Options();
  options.runtime.receiver_cores = 64;  // host only has 4 cores
  SetUpFabric(options);
  EXPECT_EQ(fabric_->runtime(1).receiver_pool_size(),
            fabric_->host(1).core_count());
  // A clamped pool still receives correctly.
  std::vector<std::uint8_t> usr(8, 1);
  auto msg = SendAndRun("nop", Invoke::kInjected, {5}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg->return_value, 5u);
}

// ------------------------------------------------------- work stealing

TEST_F(TwoChainsTest, StealOnSingleCorePoolIsNoOp) {
  StealConfig steal;
  steal.enabled = true;
  FabricOptions options = Options();
  options.runtime.steal = steal;  // receiver_cores stays 1
  SetUpFabric(options);

  // The config survives but resolves inactive: a 1-core pool never steals,
  // so every bank's claim stays home and no steal event is recorded.
  Runtime& rx = fabric_->runtime(1);
  EXPECT_TRUE(rx.config().steal.enabled);
  EXPECT_FALSE(rx.stealing_active());
  ASSERT_EQ(rx.receiver_pool_size(), 1u);
  EXPECT_EQ(rx.StolenBanksHeld(0), 0u);

  std::vector<std::uint8_t> usr(16, 3);
  for (int i = 0; i < 12; ++i) {
    auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
    ASSERT_TRUE(msg.ok()) << msg.status();
  }
  EXPECT_EQ(rx.stats().steals, 0u);
  EXPECT_EQ(rx.stats().frames_stolen, 0u);
  EXPECT_EQ(rx.stats().banks_drained_stolen, 0u);
  EXPECT_EQ(rx.StolenBanksHeld(0), 0u);
  // Every drained bank was accounted as owner-drained.
  EXPECT_EQ(rx.stats().banks_drained_owner, rx.stats().bank_flags_returned);
}

TEST_F(TwoChainsTest, StealThresholdZeroClampsToOne) {
  StealConfig steal;
  steal.enabled = true;
  steal.threshold = 0;  // would flip claims with no work behind them
  FabricOptions options = Options();
  options.runtime.receiver_cores = 2;
  options.runtime.sender_core = 2;
  options.runtime.steal = steal;
  SetUpFabric(options);

  EXPECT_TRUE(fabric_->runtime(1).stealing_active());
  EXPECT_EQ(fabric_->runtime(1).config().steal.threshold, 1u);
  // Clamped config still drains traffic instead of spinning on claims.
  std::vector<std::uint8_t> usr(8, 7);
  for (int i = 0; i < 20; ++i) {
    auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
    ASSERT_TRUE(msg.ok()) << msg.status();
  }
  EXPECT_EQ(fabric_->runtime(1).InFlightFrames(), 0u);
}

TEST_F(TwoChainsTest, HugeStealKnobsClampToInboundCapacity) {
  StealConfig steal;
  steal.enabled = true;
  steal.threshold = ~std::uint32_t{0};
  steal.hysteresis = ~std::uint32_t{0};
  FabricOptions options = Options();  // 2 banks x 4 slots -> 8-slot slice
  options.runtime.receiver_cores = 2;
  options.runtime.sender_core = 2;
  options.runtime.steal = steal;
  SetUpFabric(options);

  // The config keeps what the user asked for; the value *in force* clamps
  // to the whole inbound capacity — one peer's slice on this testbed.
  // (Backlog spans every peer's slice, so the bound is peer-count-aware,
  // not a single slice.)
  Runtime& rx = fabric_->runtime(1);
  const std::uint32_t capacity = rx.peer_count() * rx.config().banks *
                                 rx.config().mailboxes_per_bank;
  EXPECT_EQ(rx.config().steal.threshold, ~std::uint32_t{0});
  EXPECT_EQ(rx.EffectiveStealThreshold(), capacity);
  EXPECT_EQ(rx.EffectiveStealHysteresis(), capacity);
  // A full-capacity threshold still drains traffic like steal-off.
  std::vector<std::uint8_t> usr(8, 9);
  auto msg = SendAndRun("nop", Invoke::kInjected, {1}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(rx.stats().steals, 0u);
}

// -------------------------------------------------- core-range clamping

TEST_F(TwoChainsTest, SenderCoreClampsToCacheModelCores) {
  FabricOptions options = Options();
  options.runtime.sender_core = 64;  // cache model has 4 cores
  SetUpFabric(options);
  EXPECT_EQ(fabric_->runtime(0).config().sender_core,
            fabric_->host(0).core_count() - 1);
  // A clamped sender core still sends correctly.
  std::vector<std::uint8_t> usr(8, 1);
  auto msg = SendAndRun("nop", Invoke::kInjected, {3}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg->return_value, 3u);
}

TEST_F(TwoChainsTest, ReceiverCoreOutOfRangeClampsToZero) {
  FabricOptions options = Options();
  options.runtime.receiver_core = 64;  // cache model has 4 cores
  SetUpFabric(options);
  EXPECT_EQ(fabric_->runtime(1).config().receiver_core, 0u);
  std::vector<std::uint8_t> usr(8, 1);
  auto msg = SendAndRun("nop", Invoke::kInjected, {4}, usr);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg->return_value, 4u);
}

// ------------------------------------------------------ memory domains

/// 4-core hosts split into 2 domains ({0,1} and {2,3}) with the receiver
/// pool spanning them: core 1 (domain 0) and core 2 (domain 1).
FabricOptions NumaOptions(bool placement) {
  FabricOptions options;
  options.runtime.banks = 2;
  options.runtime.mailboxes_per_bank = 4;
  options.runtime.mailbox_slot_bytes = KiB(64);
  options.runtime.receiver_core = 1;
  options.runtime.receiver_cores = 2;
  options.runtime.sender_core = 3;
  options.runtime.domain_aware_placement = placement;
  options.host.cache.domains = 2;
  return options;
}

TEST_F(TwoChainsTest, DomainPlacementKeepsAffinityDrainsLocal) {
  SetUpFabric(NumaOptions(/*placement=*/true));
  std::vector<std::uint8_t> usr(256, 2);
  for (int i = 0; i < 24; ++i) {
    auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
    ASSERT_TRUE(msg.ok()) << msg.status();
  }
  Runtime& rx = fabric_->runtime(1);
  // Both pool cores drained, and every frame's bank was homed in its
  // draining core's domain.
  ASSERT_EQ(rx.receiver_pool_size(), 2u);
  EXPECT_GT(rx.receiver_cpu(0).counters().messages_handled, 0u);
  EXPECT_GT(rx.receiver_cpu(1).counters().messages_handled, 0u);
  EXPECT_EQ(rx.stats().frames_drained_remote, 0u);
  EXPECT_EQ(rx.receiver_wait_stats(0).frames_drained_remote, 0u);
  EXPECT_EQ(rx.receiver_wait_stats(1).frames_drained_remote, 0u);
}

TEST_F(TwoChainsTest, FlatPlacementDrainsRemoteAndPaysThePenalty) {
  SetUpFabric(NumaOptions(/*placement=*/false));
  std::vector<std::uint8_t> usr(256, 2);
  for (int i = 0; i < 24; ++i) {
    auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
    ASSERT_TRUE(msg.ok()) << msg.status();
  }
  Runtime& rx = fabric_->runtime(1);
  // Flat placement homes every bank in domain 0, so the domain-1 pool
  // core's drains are all cross-domain — and they cost real cycles.
  const std::uint64_t pool1_drained =
      rx.receiver_cpu(1).counters().messages_handled;
  EXPECT_GT(pool1_drained, 0u);
  EXPECT_EQ(rx.stats().frames_drained_remote, pool1_drained);
  EXPECT_EQ(rx.receiver_wait_stats(1).frames_drained_remote, pool1_drained);
  EXPECT_EQ(rx.receiver_wait_stats(0).frames_drained_remote, 0u);
  EXPECT_GT(rx.stats().remote_drain_cycles, 0u);
  EXPECT_GT(rx.receiver_wait_stats(1).remote_drain_cycles, 0u);
}

TEST_F(TwoChainsTest, SingleDomainReportsNoRemoteDrains) {
  FabricOptions options = Options();
  options.runtime.receiver_cores = 2;
  options.runtime.sender_core = 2;
  SetUpFabric(options);  // domains = 1 (default)
  std::vector<std::uint8_t> usr(64, 5);
  for (int i = 0; i < 16; ++i) {
    auto msg = SendAndRun("ssum", Invoke::kInjected, {0}, usr);
    ASSERT_TRUE(msg.ok()) << msg.status();
  }
  EXPECT_EQ(fabric_->runtime(1).stats().frames_drained_remote, 0u);
  EXPECT_EQ(fabric_->runtime(1).stats().remote_drain_cycles, 0u);
}

// ------------------------------------------------- strict bank rotation

TEST_F(TwoChainsTest, StrictBankRotationWaitsOutAStalledPoolCore) {
  FabricOptions options = Options();  // 2 banks x 4 slots
  options.runtime.receiver_cores = 2;
  options.runtime.sender_core = 2;
  SetUpFabric(options);

  // Stall the first frame's pool core for a long stretch: bank 0 freezes
  // mid-drain while bank 1's core sits idle. The sender must still fill
  // banks in strict rotation, parking on bank 0's flag rather than
  // skipping ahead to the idle core's bank.
  Runtime& rx = fabric_->runtime(1);
  bool stalled = false;
  rx.SetPreemptionHook([&stalled]() -> PicoTime {
    if (stalled) return 0;
    stalled = true;
    return Microseconds(2000);
  });

  const int total = 32;
  std::map<std::uint32_t, std::uint32_t> slot_by_sn;
  rx.SetOnExecuted([&](const ReceivedMessage& msg) {
    slot_by_sn[msg.sn] = msg.slot;
  });
  const bench::SendLoops loops(
      *fabric_,
      {{.src = 0,
        .dst = 1,
        .count = total,
        .next = [](std::uint64_t) {
          return bench::FlowMessage{.jam = "nop",
                                    .args = {1},
                                    .usr = std::vector<std::uint8_t>(8, 1)};
        }}});
  fabric_->RunUntil([&] { return slot_by_sn.size() == total; });
  ASSERT_TRUE(loops.status().ok()) << loops.status();
  ASSERT_EQ(slot_by_sn.size(), static_cast<std::size_t>(total));
  // The i-th send lands in slot i mod (banks x slots), stall or not.
  std::uint32_t i = 0;
  for (const auto& [sn, slot] : slot_by_sn) {
    EXPECT_EQ(slot, i % 8) << "sn " << sn;
    ++i;
  }
  EXPECT_EQ(rx.InFlightFrames(), 0u);
}

}  // namespace
}  // namespace twochains::core
