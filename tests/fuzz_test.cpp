// Seeded jam-mutation fuzz suite (the ISSUE's tentpole): three layers of
// adversarial coverage over the injection pipeline.
//
//  1. VM sweep — mutate valid amcc/assembled jams and synthesize random
//     ISA-shaped programs, push every candidate through the real verifier
//     and (when accepted) the real interpreter inside a canary-bracketed
//     sandbox. Contract: the verdict is deterministic, accepted code always
//     comes back as a *returned* ExecResult, and confined runs never touch
//     a byte outside image/ARGS/USR/stack.
//  2. Directed hostile programs — the ISSUE's named attacks (GOT-slot
//     aliasing, jalr trampolines into ARGS/USR bytes, lea rodata escapes,
//     straight-line runoff, native confused deputies), each proven *real*
//     unconfined and *contained* under the policy-armed windows.
//  3. Runtime storms — core::Runtime::InjectRawFrame puts forged and
//     mutated frames straight into a hardened receiver's mailbox: garbage
//     batches, mutated full-body injections, forged by-handle frames with
//     mismatched handles/element IDs, and hostile package layouts. The
//     receiver must reject cleanly (security_rejections), never wedge, and
//     keep serving canonical results afterwards.
//
// Every stream is seeded (Xoshiro256), so failures reproduce from the
// round number; TC_FUZZ_ITERS bounds the budget for CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/workloads.hpp"
#include "core/frame.hpp"
#include "core/fabric.hpp"
#include "fuzz_harness.hpp"
#include "jamlib/jamlib.hpp"
#include "jamvm/assembler.hpp"
#include "jelf/got_rewriter.hpp"
#include "pkg/package.hpp"

namespace twochains::core {
namespace {

using fuzz::AppendInstr;
using fuzz::MakeInstr;
using fuzz::VmSandbox;

vm::Instr Ret() { return MakeInstr(vm::Opcode::kJalr, vm::kZr, vm::kLr, 0, 0); }

/// movi+movhi pair: materializes a full 64-bit address (sandbox arenas sit
/// well above the 32-bit immediate range).
void AppendLoadAddr(std::vector<std::uint8_t>& code, std::uint8_t reg,
                    std::uint64_t addr) {
  AppendInstr(code, MakeInstr(vm::Opcode::kMovi, reg, 0, 0,
                              static_cast<std::int32_t>(
                                  static_cast<std::uint32_t>(addr))));
  AppendInstr(code, MakeInstr(vm::Opcode::kMovhi, reg, 0, 0,
                              static_cast<std::int32_t>(
                                  static_cast<std::uint32_t>(addr >> 32))));
}

// ------------------------------------------------------------- corpus

struct Seed {
  std::string label;
  std::vector<std::uint8_t> blob;   ///< code+rodata, as a frame carries it
  std::uint64_t verify_bytes = 0;   ///< text prefix the verifier covers
  std::uint32_t got_slots = VmSandbox::kDefaultGotSlots;
  std::uint64_t rodata_bytes = 0;
  std::uint64_t entry_offset = 0;
};

std::vector<std::uint8_t> AssembleSeed(const char* source) {
  auto obj = vm::Assemble(source, "fuzz-seed");
  EXPECT_TRUE(obj.ok()) << obj.status();
  return obj.ok() ? obj->text : std::vector<std::uint8_t>{};
}

/// Hand-assembled seeds (loops, GOT-routed native calls, USR traffic) plus
/// the bench package's real amcc-compiled jams.
std::vector<Seed> BuildCorpus() {
  std::vector<Seed> corpus;
  const auto add_asm = [&corpus](const char* label, const char* src) {
    Seed seed;
    seed.label = label;
    seed.blob = AssembleSeed(src);
    seed.verify_bytes = seed.blob.size();
    if (!seed.blob.empty()) corpus.push_back(std::move(seed));
  };
  add_asm("loop-sum",
          "f:\n"
          "  movi t1, 0\n"
          "  movi t2, 8\n"
          "  mov t3, a1\n"
          "loop:\n"
          "  ldd t4, [t3+0]\n"
          "  add t1, t1, t4\n"
          "  addi t3, t3, 8\n"
          "  addi t2, t2, -1\n"
          "  bne t2, zr, loop\n"
          "  mov a0, t1\n"
          "  ret\n");
  add_asm("got-native-call",
          "f:\n"
          "  ldg.pre t0, 0, -16\n"
          "  addi sp, sp, -16\n"
          "  std lr, [sp+0]\n"
          "  ldd a0, [a1+0]\n"
          "  jalr lr, t0, 0\n"
          "  ldd lr, [sp+0]\n"
          "  addi sp, sp, 16\n"
          "  ret\n");
  add_asm("usr-store-load",
          "f:\n"
          "  ldd t0, [a0+0]\n"
          "  std t0, [a1+8]\n"
          "  ldd t1, [a1+8]\n"
          "  add a0, t0, t1\n"
          "  ret\n");

  auto built = bench::BuildBenchPackage();
  EXPECT_TRUE(built.ok()) << built.status();
  if (built.ok()) {
    for (const char* name : {"ssum", "iput"}) {
      const pkg::BuiltElement* elem =
          built->Find(pkg::ElementKind::kJam, name);
      if (elem == nullptr) continue;
      const auto entry =
          elem->injected_image.exports.find(elem->entry_symbol);
      if (entry == elem->injected_image.exports.end()) continue;
      Seed seed;
      seed.label = std::string("amcc-") + name;
      seed.blob = fuzz::CodeBlobOf(elem->injected_image);
      seed.verify_bytes = elem->injected_image.text.size();
      seed.got_slots = elem->injected_image.got_slot_count();
      seed.rodata_bytes = seed.blob.size() - seed.verify_bytes;
      seed.entry_offset = entry->second.offset;
      if (seed.blob.size() <= VmSandbox::kImageBytes - VmSandbox::kCodeOffset) {
        corpus.push_back(std::move(seed));
      }
    }
  }

  // The jam standard library: every jamlib element doubles as a fuzz seed,
  // so the mutation sweep exercises the codegen shapes real applications
  // inject (probe loops, masked indexing, usr-driven scatter/gather).
  auto jamlib_pkg = jamlib::BuildJamlibPackage();
  EXPECT_TRUE(jamlib_pkg.ok()) << jamlib_pkg.status();
  if (jamlib_pkg.ok()) {
    for (const std::string& name : jamlib::JamNames()) {
      const pkg::BuiltElement* elem =
          jamlib_pkg->Find(pkg::ElementKind::kJam, name);
      if (elem == nullptr) continue;
      const auto entry =
          elem->injected_image.exports.find(elem->entry_symbol);
      if (entry == elem->injected_image.exports.end()) continue;
      Seed seed;
      seed.label = "jamlib-" + name;
      seed.blob = fuzz::CodeBlobOf(elem->injected_image);
      seed.verify_bytes = elem->injected_image.text.size();
      seed.got_slots = elem->injected_image.got_slot_count();
      seed.rodata_bytes = seed.blob.size() - seed.verify_bytes;
      seed.entry_offset = entry->second.offset;
      if (seed.blob.size() <= VmSandbox::kImageBytes - VmSandbox::kCodeOffset) {
        corpus.push_back(std::move(seed));
      }
    }
  }
  return corpus;
}

/// ISA-shaped random program: valid field ranges, adversarial immediates.
std::vector<std::uint8_t> SynthesizeProgram(Xoshiro256& rng) {
  std::vector<std::uint8_t> code;
  const std::uint64_t count = 2 + rng.NextBelow(30);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::int32_t imm;
    switch (rng.NextBelow(3)) {
      case 0:  // small, often 8-aligned — plausible offsets and branches
        imm = static_cast<std::int32_t>(rng.NextBelow(65)) * 8 - 256;
        break;
      case 1:  // full-range hostile
        imm = static_cast<std::int32_t>(rng.Next());
        break;
      default:  // the preamble-slot magic value
        imm = -16;
        break;
    }
    AppendInstr(code,
                MakeInstr(static_cast<vm::Opcode>(rng.NextBelow(
                              static_cast<std::uint64_t>(
                                  vm::Opcode::kOpcodeCount))),
                          static_cast<std::uint8_t>(
                              rng.NextBelow(vm::kNumRegs)),
                          static_cast<std::uint8_t>(
                              rng.NextBelow(vm::kNumRegs)),
                          static_cast<std::uint8_t>(
                              rng.NextBelow(vm::kNumRegs)),
                          imm));
  }
  if (rng.NextBelow(2) != 0) AppendInstr(code, Ret());
  return code;
}

// ----------------------------------------------------- VM-level sweep

TEST(FuzzVmTest, SeededMutationSweepHoldsContainment) {
  VmSandbox sandbox;
  ASSERT_TRUE(sandbox.ok());
  const std::vector<Seed> corpus = BuildCorpus();
  ASSERT_FALSE(corpus.empty());

  const int iterations = fuzz::FuzzIterations(10000);
  Xoshiro256 rng(0xF0221u);
  int accepted = 0;
  int rejected = 0;
  int clean = 0;
  int contained_faults = 0;

  for (int round = 0; round < iterations; ++round) {
    std::vector<std::uint8_t> code;
    std::uint32_t got_slots = VmSandbox::kDefaultGotSlots;
    std::uint64_t verify_bytes = 0;
    std::uint64_t rodata_bytes = 0;
    std::uint64_t entry_offset = 0;
    std::string label;
    if (rng.NextBelow(8) == 0) {
      code = SynthesizeProgram(rng);
      verify_bytes = code.size();
      rodata_bytes = rng.NextBelow(2) != 0 ? 64 : 0;
      label = "synthesized";
    } else {
      const Seed& seed = corpus[rng.NextBelow(corpus.size())];
      code = seed.blob;
      got_slots = seed.got_slots;
      verify_bytes = seed.verify_bytes;
      rodata_bytes = seed.rodata_bytes;
      entry_offset = seed.entry_offset;
      label = seed.label;
      fuzz::MutateCode(rng, code);
    }
    const std::span<const std::uint8_t> text =
        std::span<const std::uint8_t>(code).first(
            std::min<std::uint64_t>(verify_bytes, code.size()));

    // The verdict must be a pure function of the bytes.
    const Status first = sandbox.Verify(text, got_slots, rodata_bytes);
    const Status again = sandbox.Verify(text, got_slots, rodata_bytes);
    ASSERT_EQ(first.code(), again.code())
        << "verifier verdict flapped in round " << round << " (" << label
        << ")";
    if (!first.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;

    // Confined execution: however the mutant behaves, it must come back as
    // a returned ExecResult with every canary byte untouched.
    const fuzz::RunOutcome confined = sandbox.Run(
        code, /*confined=*/true, {}, {}, {}, /*max_instructions=*/512,
        entry_offset);
    ASSERT_TRUE(confined.canaries_intact)
        << "confined escape in round " << round << " (" << label
        << "): " << confined.result.status;
    ASSERT_LE(confined.result.instructions, 512u);
    if (confined.result.status.ok()) {
      ++clean;
    } else {
      ++contained_faults;
    }

    // Unconfined subsample: even with no windows armed the interpreter
    // must fault cleanly, never crash or hang (canaries MAY die here —
    // that is what confinement is for).
    if (round % 7 == 0) {
      const fuzz::RunOutcome raw = sandbox.Run(
          code, /*confined=*/false, {}, {}, {}, 512, entry_offset);
      ASSERT_LE(raw.result.instructions, 512u);
    }

    // Execution-determinism spot check: same bytes, same outcome.
    if (round % 509 == 0) {
      const fuzz::RunOutcome replay = sandbox.Run(
          code, /*confined=*/true, {}, {}, {}, 512, entry_offset);
      ASSERT_EQ(confined.result.status.code(), replay.result.status.code());
      ASSERT_EQ(confined.result.return_value, replay.result.return_value);
      ASSERT_EQ(confined.result.instructions, replay.result.instructions);
    }
  }

  // The sweep must have exercised both sides of the verifier.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(clean, 0);
  EXPECT_GT(contained_faults, 0);
  RecordProperty("iterations", iterations);
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
  RecordProperty("clean", clean);
  RecordProperty("contained_faults", contained_faults);
}

// ------------------------------------------------ directed hostile code

TEST(HostileProgramTest, GotSlotAliasingIsRejected) {
  VmSandbox sandbox;
  ASSERT_TRUE(sandbox.ok());

  // Slot index beyond the GOTP table.
  std::vector<std::uint8_t> beyond;
  AppendInstr(beyond, MakeInstr(vm::Opcode::kLdgPre, vm::kT0, 0, 8, -16));
  AppendInstr(beyond, Ret());
  EXPECT_EQ(sandbox.Verify(beyond, 8, 0).code(), StatusCode::kOutOfRange);

  // Correct slot, but the site+imm aims past the pinned PRE slot — an
  // aliased "GOT pointer" read from attacker-controlled frame bytes.
  std::vector<std::uint8_t> off_pre;
  AppendInstr(off_pre, MakeInstr(vm::Opcode::kLdgPre, vm::kT0, 0, 0, -24));
  AppendInstr(off_pre, Ret());
  EXPECT_EQ(sandbox.Verify(off_pre, 8, 0).code(), StatusCode::kOutOfRange);

  // The legitimate shape verifies and runs clean under confinement.
  std::vector<std::uint8_t> good;
  AppendInstr(good, MakeInstr(vm::Opcode::kLdgPre, vm::kT0, 0, 7, -16));
  AppendInstr(good, Ret());
  ASSERT_TRUE(sandbox.Verify(good, 8, 0).ok());
  const fuzz::RunOutcome out = sandbox.Run(good, /*confined=*/true);
  EXPECT_TRUE(out.result.status.ok()) << out.result.status;
  EXPECT_TRUE(out.canaries_intact);
}

TEST(HostileProgramTest, LdgFixHasNoWindowInInjectedFrames) {
  // ldg.fix addresses an in-image GOT at a link-time offset. Library
  // images carry that window (VerifyLimits::fixed_got_offset); injected
  // frames do not — the amcc pipeline rewrites every ldg.fix to ldg.pre,
  // so a surviving ldg.fix is hostile by construction.
  VmSandbox sandbox;
  ASSERT_TRUE(sandbox.ok());
  std::vector<std::uint8_t> code;
  AppendInstr(code, MakeInstr(vm::Opcode::kLdgFix, vm::kT0, 0, 0, 16));
  AppendInstr(code, Ret());
  EXPECT_EQ(sandbox.Verify(code, 8, 64).code(), StatusCode::kPermissionDenied);
}

TEST(HostileProgramTest, ZeroRegisterJalrIsRejected) {
  // jalr through zr is an unconditional jump to a raw immediate — an
  // absolute pc the verifier can never prove. It must die statically.
  VmSandbox sandbox;
  ASSERT_TRUE(sandbox.ok());
  std::vector<std::uint8_t> code;
  AppendInstr(code, MakeInstr(vm::Opcode::kJalr, vm::kA0, vm::kZr, 0, 4096));
  AppendInstr(code, Ret());
  EXPECT_EQ(sandbox.Verify(code, 8, 0).code(), StatusCode::kOutOfRange);
}

TEST(HostileProgramTest, JalrTrampolineIntoUsrBytesIsConfined) {
  // The ISSUE's marquee attack: encode instructions into the USR payload,
  // then jalr into them through a register. The verifier cannot see the
  // target; the interpreter's exec windows must.
  VmSandbox sandbox;
  ASSERT_TRUE(sandbox.ok());

  // USR carries a payload that stomps the high canary and returns.
  std::vector<std::uint8_t> payload;
  AppendLoadAddr(payload, vm::kT0, sandbox.canary_hi_addr());
  AppendInstr(payload,
              MakeInstr(vm::Opcode::kStd, 0, vm::kT0, vm::kT0, 0));
  AppendInstr(payload, Ret());

  // The jam itself is tiny and verifies: save the return sentinel, jump
  // through a1 (the USR pointer the runtime hands every jam), return.
  std::vector<std::uint8_t> code;
  AppendInstr(code, MakeInstr(vm::Opcode::kAdd, vm::kT0 + 6, vm::kLr,
                              vm::kZr, 0));
  AppendInstr(code, MakeInstr(vm::Opcode::kJalr, vm::kLr, vm::kA0 + 1, 0, 0));
  AppendInstr(code, MakeInstr(vm::Opcode::kJalr, vm::kZr, vm::kT0 + 6, 0, 0));
  ASSERT_TRUE(sandbox.Verify(code, 8, 0).ok());

  // Unconfined, the attack is real: the payload executes and kills the
  // canary — which is exactly why confine_control_flow exists.
  const fuzz::RunOutcome raw =
      sandbox.Run(code, /*confined=*/false, {}, {}, payload);
  EXPECT_TRUE(raw.result.status.ok()) << raw.result.status;
  EXPECT_FALSE(raw.canaries_intact);

  // Confined, the first fetch outside the code window faults cleanly.
  const fuzz::RunOutcome confined =
      sandbox.Run(code, /*confined=*/true, {}, {}, payload);
  EXPECT_EQ(confined.result.status.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(confined.canaries_intact);
}

TEST(HostileProgramTest, JalrIntoGotTableIsConfined) {
  // Jumping into the GOT executes pointer bytes as code. The GOT lives
  // inside the *data* windows (jams may read it) but not the exec window.
  VmSandbox sandbox;
  ASSERT_TRUE(sandbox.ok());
  std::vector<std::uint8_t> code;
  AppendLoadAddr(code, vm::kT0, sandbox.got_addr());
  AppendInstr(code, MakeInstr(vm::Opcode::kJalr, vm::kLr, vm::kT0, 0, 0));
  AppendInstr(code, Ret());
  ASSERT_TRUE(sandbox.Verify(code, 8, 0).ok());
  const fuzz::RunOutcome confined = sandbox.Run(code, /*confined=*/true);
  EXPECT_EQ(confined.result.status.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(confined.canaries_intact);
}

TEST(HostileProgramTest, LeaRodataEscapeIsRejected) {
  VmSandbox sandbox;
  ASSERT_TRUE(sandbox.ok());

  // lea past the declared code+rodata extent: address formation aimed at
  // whatever the receiver mapped after the frame.
  std::vector<std::uint8_t> escape;
  AppendInstr(escape, MakeInstr(vm::Opcode::kLea, vm::kA0, 0, 0, 4096));
  AppendInstr(escape, Ret());
  EXPECT_EQ(sandbox.Verify(escape, 8, 0).code(), StatusCode::kOutOfRange);

  // Backwards, before the code start (into PRE/GOTP bytes).
  std::vector<std::uint8_t> backward;
  AppendInstr(backward, MakeInstr(vm::Opcode::kLea, vm::kA0, 0, 0, -32));
  AppendInstr(backward, Ret());
  EXPECT_EQ(sandbox.Verify(backward, 8, 0).code(), StatusCode::kOutOfRange);

  // The same lea with the rodata window actually declared is legitimate.
  std::vector<std::uint8_t> good;
  AppendInstr(good, MakeInstr(vm::Opcode::kLea, vm::kA0, 0, 0, 4096));
  AppendInstr(good, Ret());
  ASSERT_TRUE(sandbox.Verify(good, 8, 8192).ok());
  const fuzz::RunOutcome out = sandbox.Run(good, /*confined=*/true);
  EXPECT_TRUE(out.result.status.ok()) << out.result.status;
  EXPECT_TRUE(out.canaries_intact);
}

TEST(HostileProgramTest, StraightLineRunoffIsCaughtByExecWindows) {
  // No branch, no ret: execution falls off the end of the blob into
  // whatever bytes follow. Statically legal; dynamically the very next
  // fetch leaves the exec window.
  VmSandbox sandbox;
  ASSERT_TRUE(sandbox.ok());
  std::vector<std::uint8_t> code;
  AppendInstr(code, MakeInstr(vm::Opcode::kAddi, vm::kA0, vm::kA0, 0, 1));
  ASSERT_TRUE(sandbox.Verify(code, 8, 0).ok());
  const fuzz::RunOutcome out = sandbox.Run(code, /*confined=*/true);
  EXPECT_EQ(out.result.status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(out.result.instructions, 1u);
  EXPECT_TRUE(out.canaries_intact);
}

TEST(HostileProgramTest, NativeConfusedDeputyIsFencedByDataWindows) {
  // The jam itself never touches the canary — it asks tc_memcpy to do it.
  // Natives act on behalf of jam code, so they must observe the same data
  // windows (the confused-deputy fence).
  VmSandbox sandbox;
  ASSERT_TRUE(sandbox.ok());
  std::vector<std::uint8_t> code;
  AppendInstr(code, MakeInstr(vm::Opcode::kLdgPre, vm::kT0, 0, 1, -16));
  AppendInstr(code, MakeInstr(vm::Opcode::kAdd, vm::kT0 + 6, vm::kLr,
                              vm::kZr, 0));
  AppendLoadAddr(code, vm::kA0, sandbox.canary_lo_addr());
  AppendInstr(code, MakeInstr(vm::Opcode::kMovi, vm::kA0 + 2, 0, 0, 64));
  AppendInstr(code, MakeInstr(vm::Opcode::kJalr, vm::kLr, vm::kT0, 0, 0));
  AppendInstr(code, MakeInstr(vm::Opcode::kJalr, vm::kZr, vm::kT0 + 6, 0, 0));
  ASSERT_TRUE(sandbox.Verify(code, 8, 0).ok());

  // Unconfined the deputy obliges (default GOT slot 1 is tc_memcpy; a1 is
  // the USR pointer, a perfectly readable source).
  const fuzz::RunOutcome raw = sandbox.Run(code, /*confined=*/false);
  EXPECT_TRUE(raw.result.status.ok()) << raw.result.status;
  EXPECT_FALSE(raw.canaries_intact);

  // Confined the native's destination check fails before a byte moves.
  const fuzz::RunOutcome confined = sandbox.Run(code, /*confined=*/true);
  EXPECT_FALSE(confined.result.status.ok());
  EXPECT_TRUE(confined.canaries_intact);
}

// ------------------------------------------------- runtime-level storms

JamCacheConfig FuzzCache() {
  JamCacheConfig config;
  config.enabled = true;
  config.capacity = 8;
  return config;
}

class RuntimeFuzzTest : public ::testing::Test {
 protected:
  static FabricOptions Options() {
    FabricOptions options;
    options.runtime.banks = 2;
    options.runtime.mailboxes_per_bank = 4;
    options.runtime.mailbox_slot_bytes = KiB(64);
    // A mutated-but-verified mutant may still loop; bound the damage the
    // way a deployment would (high enough for ried auto-init at load).
    options.runtime.max_instructions = 2'000'000;
    SecurityPolicy policy = SecurityPolicy::Hardened();
    policy.verify_cached_invokes = true;  // the full-paranoia receiver
    options.runtime.security = policy;
    options.runtime.jam_cache = FuzzCache();
    return options;
  }

  void SetUpFabric() {
    fabric_ = std::make_unique<Fabric>(Options());
    auto built = bench::BuildBenchPackage();
    ASSERT_TRUE(built.ok()) << built.status();
    pkg_ = *built;
    const Status loaded = fabric_->LoadPackage(pkg_);
    ASSERT_TRUE(loaded.ok()) << loaded;
    receiver().SetOnExecuted(
        [this](const ReceivedMessage& msg) { completions_.push_back(msg); });
  }

  Runtime& sender() { return fabric_->runtime(0); }
  Runtime& receiver() { return fabric_->runtime(1); }

  bool WaitForCompletions(std::size_t n) {
    return fabric_->RunUntil([&] { return completions_.size() >= n; });
  }

  StatusOr<ReceivedMessage> SendLegit(const std::string& jam,
                                      std::vector<std::uint64_t> args,
                                      std::vector<std::uint8_t> usr) {
    const std::size_t before = completions_.size();
    TC_RETURN_IF_ERROR(
        sender().Send(jam, Invoke::kInjected, args, usr).status());
    const auto executed_after = [&]() -> const ReceivedMessage* {
      for (std::size_t i = before; i < completions_.size(); ++i) {
        if (completions_[i].executed) return &completions_[i];
      }
      return nullptr;
    };
    fabric_->RunUntil([&] { return executed_after() != nullptr; });
    const ReceivedMessage* msg = executed_after();
    if (msg == nullptr) return Internal("legit send never executed");
    return *msg;
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

  /// A wire-exact full-body frame for @p elem, as a compromised sender
  /// with the exchanged rkey would construct it.
  StatusOr<std::vector<std::uint8_t>> ForgeFullBody(
      const pkg::BuiltElement& elem, std::uint32_t sn,
      std::span<const std::uint64_t> args_words,
      std::span<const std::uint8_t> usr) {
    FrameSpec spec;
    spec.injected = true;
    spec.got_slots = elem.injected_image.got_slot_count();
    const std::vector<std::uint8_t> blob =
        fuzz::CodeBlobOf(elem.injected_image);
    spec.code_size = blob.size();
    spec.args_size = args_words.size() * 8;
    spec.usr_size = usr.size();
    // The hardened receiver computes the split layout; the wire image must
    // match it or the signal word lands in the wrong place.
    spec.split_code_data = true;
    FrameHeader header;
    header.sn = sn;
    header.elem_id = elem.element_id;
    const std::vector<std::uint64_t> gotp(spec.got_slots, 0);
    const std::span<const std::uint8_t> args_bytes(
        reinterpret_cast<const std::uint8_t*>(args_words.data()),
        args_words.size() * 8);
    return PackFrame(spec, header, gotp, blob, args_bytes, usr);
  }

  StatusOr<std::vector<std::uint8_t>> ForgeByHandle(
      std::uint64_t handle, std::uint32_t elem_id, std::uint32_t sn,
      std::span<const std::uint64_t> args_words,
      std::span<const std::uint8_t> usr) {
    FrameSpec spec;
    spec.by_handle = true;
    spec.args_size = args_words.size() * 8;
    spec.usr_size = usr.size();
    FrameHeader header;
    header.sn = sn;
    header.elem_id = elem_id;
    const std::span<const std::uint8_t> args_bytes(
        reinterpret_cast<const std::uint8_t*>(args_words.data()),
        args_words.size() * 8);
    return PackFrame(spec, header, {&handle, 1}, {}, args_bytes, usr);
  }

  std::unique_ptr<Fabric> fabric_;
  pkg::Package pkg_;
  std::vector<ReceivedMessage> completions_;
};

TEST_F(RuntimeFuzzTest, GarbageFrameBatchesDrainWithoutWedging) {
  SetUpFabric();
  Xoshiro256 rng(0xBADF00D5EEDull);
  const int rounds = std::max(4, fuzz::FuzzIterations(10000) / 256);
  std::size_t injected = 0;
  for (int round = 0; round < rounds; ++round) {
    const std::uint32_t bank = static_cast<std::uint32_t>(round % 2);
    for (std::uint32_t i = 0; i < 4; ++i) {
      std::vector<std::uint8_t> bytes(64 + rng.NextBelow(512));
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
      if (rng.NextBelow(2) == 0) {
        // Half carry a valid magic so they die deeper in the pipeline
        // (self-consistency, signal word) rather than at the first check.
        std::memcpy(bytes.data(), &kFrameMagic, sizeof(kFrameMagic));
      }
      ASSERT_TRUE(
          receiver().InjectRawFrame(kDefaultPeer, bank * 4 + i, bytes).ok());
      ++injected;
    }
    ASSERT_TRUE(WaitForCompletions(injected)) << "receiver wedged in round "
                                              << round;
  }
  EXPECT_EQ(completions_.size(), injected);
  EXPECT_EQ(receiver().stats().security_rejections, injected);
  EXPECT_EQ(receiver().InFlightFrames(), 0u);
  for (const auto& msg : completions_) EXPECT_FALSE(msg.executed);

  // The storm over, the receiver still serves canonical traffic.
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);
  auto alive = SendLegit("ssum", {0}, usr);
  ASSERT_TRUE(alive.ok()) << alive.status();
  EXPECT_EQ(alive->return_value, expect);
}

TEST_F(RuntimeFuzzTest, MutatedInjectedFramesNeverEscapeOrWedge) {
  SetUpFabric();
  const pkg::BuiltElement* ssum = pkg_.Find(pkg::ElementKind::kJam, "ssum");
  ASSERT_NE(ssum, nullptr);
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);
  const std::vector<std::uint64_t> args = {0};

  Xoshiro256 rng(0x5EED0FF1CEull);
  const int frames = ((std::max(8, fuzz::FuzzIterations(10000) / 16) + 7) / 8) * 8;
  std::size_t injected = 0;
  std::uint32_t sn = 0x4000;
  for (int batch = 0; batch * 4 < frames; ++batch) {
    const std::uint32_t bank = static_cast<std::uint32_t>(batch % 2);
    for (std::uint32_t i = 0; i < 4; ++i) {
      auto forged = ForgeFullBody(*ssum, sn++, args, usr);
      ASSERT_TRUE(forged.ok()) << forged.status();
      std::vector<std::uint8_t>& frame = *forged;
      const std::uint64_t len = frame.size();
      // Mostly the body (GOTP/CODE/ARGS/USR); sometimes the header or the
      // signal word, so every pipeline stage sees hostile input.
      std::uint64_t lo = kHeaderBytes;
      std::uint64_t hi = len - 8;
      const std::uint64_t region = rng.NextBelow(10);
      if (region >= 9) {
        lo = len - 8;
        hi = len;
      } else if (region >= 7) {
        lo = 0;
        hi = kHeaderBytes;
      }
      const std::uint64_t hits = 1 + rng.NextBelow(8);
      for (std::uint64_t h = 0; h < hits; ++h) {
        const std::uint64_t at = lo + rng.NextBelow(hi - lo);
        if (rng.NextBelow(2) != 0) {
          frame[at] ^= static_cast<std::uint8_t>(1u << rng.NextBelow(8));
        } else {
          frame[at] = static_cast<std::uint8_t>(rng.Next());
        }
      }
      ASSERT_TRUE(
          receiver().InjectRawFrame(kDefaultPeer, bank * 4 + i, frame).ok());
      ++injected;
    }
    ASSERT_TRUE(WaitForCompletions(injected)) << "receiver wedged at frame "
                                              << injected;
  }

  EXPECT_EQ(completions_.size(), injected);
  EXPECT_EQ(receiver().InFlightFrames(), 0u);
  std::size_t executed = 0;
  for (const auto& msg : completions_) executed += msg.executed ? 1 : 0;
  // The stream must straddle the verifier: some mutants die (rejections),
  // some survive and execute — contained by the confined interpreter.
  EXPECT_GT(executed, 0u);
  EXPECT_GT(receiver().stats().security_rejections, 0u);

  // Cache-poisoning probe: the storm's verified forgeries installed into
  // the jam cache, but installs link from the receiver's *resident* blob,
  // never the wire copy — so the by-handle fast path still computes the
  // canonical sum afterwards.
  auto full = SendLegit("ssum", {0}, usr);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->return_value, expect);
  auto hot = SendLegit("ssum", {0}, usr);
  ASSERT_TRUE(hot.ok()) << hot.status();
  EXPECT_TRUE(hot->by_handle);
  EXPECT_EQ(hot->return_value, expect);
}

TEST_F(RuntimeFuzzTest, ForgedByHandleFramesNakButNeverSubstituteCode) {
  SetUpFabric();
  const pkg::BuiltElement* ssum = pkg_.Find(pkg::ElementKind::kJam, "ssum");
  const pkg::BuiltElement* iput = pkg_.Find(pkg::ElementKind::kJam, "iput");
  ASSERT_NE(ssum, nullptr);
  ASSERT_NE(iput, nullptr);

  // Warm: one install + three by-handle hits fill bank 0; the sender's
  // round-robin moves on to bank 1, so bank 0 is ours to forge into.
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);
  for (int i = 0; i < 4; ++i) {
    auto msg = SendLegit("ssum", {0}, usr);
    ASSERT_TRUE(msg.ok()) << msg.status();
    EXPECT_EQ(msg->return_value, expect);
  }
  const JamCacheStats before = receiver().jam_cache_stats();
  EXPECT_EQ(before.installs, 1u);
  EXPECT_EQ(before.hits, 3u);
  const std::uint64_t rejections_before =
      receiver().stats().security_rejections;
  const std::size_t done_before = completions_.size();

  const std::uint64_t ssum_handle = jelf::ComputeJamHandle(
      fuzz::CodeBlobOf(ssum->injected_image),
      ssum->injected_image.got_symbols);
  const std::vector<std::uint64_t> args = {0};

  // Slot 0: real handle under the *wrong* element — a cross-namespace
  // handle trick. Must NAK, not execute ssum as "iput".
  auto cross = ForgeByHandle(ssum_handle, iput->element_id, 0x9000, args, usr);
  ASSERT_TRUE(cross.ok()) << cross.status();
  // Slot 1: unknown handle under the right element. NAK.
  auto bogus =
      ForgeByHandle(0xDEADBEEFDEADBEEFull, ssum->element_id, 0x9001, args, usr);
  ASSERT_TRUE(bogus.ok()) << bogus.status();
  // Slot 2: a replayed consistent pair — executes the receiver's own
  // cached, verified image (attacker args, canonical code).
  auto replay = ForgeByHandle(ssum_handle, ssum->element_id, 0x9002, args, usr);
  ASSERT_TRUE(replay.ok()) << replay.status();
  // Slot 3: garbage.
  Xoshiro256 rng(0xC0FFEEull);
  std::vector<std::uint8_t> garbage(96);
  for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.Next());

  ASSERT_TRUE(receiver().InjectRawFrame(kDefaultPeer, 0, *cross).ok());
  ASSERT_TRUE(receiver().InjectRawFrame(kDefaultPeer, 1, *bogus).ok());
  ASSERT_TRUE(receiver().InjectRawFrame(kDefaultPeer, 2, *replay).ok());
  ASSERT_TRUE(receiver().InjectRawFrame(kDefaultPeer, 3, garbage).ok());
  ASSERT_TRUE(WaitForCompletions(done_before + 4));

  const JamCacheStats after = receiver().jam_cache_stats();
  EXPECT_EQ(after.misses, before.misses + 2);
  EXPECT_EQ(after.naks_sent, before.naks_sent + 2);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(receiver().stats().security_rejections, rejections_before + 1);
  for (std::size_t i = done_before; i < completions_.size(); ++i) {
    const ReceivedMessage& msg = completions_[i];
    if (msg.sn == 0x9000 || msg.sn == 0x9001) {
      EXPECT_TRUE(msg.cache_miss);
      EXPECT_FALSE(msg.executed);
    } else if (msg.sn == 0x9002) {
      EXPECT_TRUE(msg.by_handle);
      EXPECT_TRUE(msg.executed);
      EXPECT_EQ(msg.return_value, expect);
    }
  }

  // The forged NAK bits ride back on bank 0's flag, but the sender has no
  // pending by-handle sends in those slots — it must ignore them rather
  // than resend (a forged-NAK amplification would be a free DoS lever).
  EXPECT_EQ(sender().jam_cache_stats().naks_received, 0u);
  EXPECT_EQ(sender().jam_cache_stats().resends, 0u);

  // And the legitimate fast path is unharmed.
  auto alive = SendLegit("ssum", {0}, usr);
  ASSERT_TRUE(alive.ok()) << alive.status();
  EXPECT_TRUE(alive->by_handle);
  EXPECT_EQ(alive->return_value, expect);
}

StatusOr<pkg::Package> TagPackage(long addend) {
  pkg::PackageBuilder builder;
  const std::string source =
      "long jam_tag(long* args, char* usr, long usr_bytes) {\n"
      "  return args[0] + " + std::to_string(addend) + ";\n"
      "}\n";
  TC_RETURN_IF_ERROR(builder.AddSourceFile("jam_tag.amc", source));
  return builder.Build("tagpkg");
}

TEST_F(RuntimeFuzzTest, HostilePackagesAreRejectedAtLoad) {
  SetUpFabric();
  auto tag = TagPackage(100);
  ASSERT_TRUE(tag.ok()) << tag.status();

  // got_offset pulled inside text: pre-clamp this wrapped the unsigned
  // rodata bound and overflowed the injectable-blob copy. Layout
  // validation must kill it before either.
  {
    pkg::Package hostile = *tag;
    bool mutated = false;
    for (auto& elem : hostile.elements) {
      if (elem.kind != pkg::ElementKind::kJam) continue;
      elem.injected_image.got_offset = elem.injected_image.text.size() / 2;
      mutated = true;
    }
    ASSERT_TRUE(mutated);
    const Status st = receiver().LoadPackage(hostile, /*allow_reload=*/true);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  }

  // Library text replaced wholesale: the hardened receiver verifies every
  // library it loads, so the package dies at the loader.
  {
    pkg::Package hostile = *tag;
    ASSERT_FALSE(hostile.local_library.text.empty());
    std::fill(hostile.local_library.text.begin(),
              hostile.local_library.text.end(), std::uint8_t{0xFF});
    const Status st = receiver().LoadPackage(hostile, /*allow_reload=*/true);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(std::string(st.message()).find("failed verification"),
              std::string::npos)
        << st;
  }

  // Neither failed load disturbed the resident bench package.
  std::uint64_t expect = 0;
  const std::vector<std::uint8_t> usr = SumPayload(&expect);
  auto alive = SendLegit("ssum", {0}, usr);
  ASSERT_TRUE(alive.ok()) << alive.status();
  EXPECT_EQ(alive->return_value, expect);
}

}  // namespace
}  // namespace twochains::core
