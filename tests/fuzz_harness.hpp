// Reusable jam-mutation fuzz harness (see tests/fuzz_test.cpp).
//
// The VM-level half of the security story: a VmSandbox is one simulated
// host memory holding a jam image bracketed by pattern-filled canary
// regions, plus ARGS/USR buffers and a stack. Fuzzed code runs through the
// real verifier and the real interpreter; the containment contract is
//
//   * the verifier's verdict is deterministic,
//   * anything it accepts executes to a *returned* ExecResult (a clean
//     Status fault is fine; a crash, hang, or silent escape is not), and
//   * under confinement (exec + data windows, the interpreter state
//     SecurityPolicy::confine_control_flow arms) no accepted program ever
//     reads or writes a byte outside its image/ARGS/USR/stack — which the
//     canaries witness.
//
// Mutators cover the ISSUE's corpus: bit flips, byte splats, instruction
// splices, immediate extremes, and operand-field scrambles, all seeded
// (Xoshiro256) so every failure reproduces from its round number.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "jamvm/interpreter.hpp"
#include "jamvm/isa.hpp"
#include "jamvm/verifier.hpp"
#include "jelf/image.hpp"
#include "mem/host_memory.hpp"

namespace twochains::fuzz {

/// Iteration budget: TC_FUZZ_ITERS overrides (CI bounds the suite with it;
/// the default meets the ISSUE's >= 10k-mutations acceptance bar).
inline int FuzzIterations(int fallback) {
  if (const char* env = std::getenv("TC_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return fallback;
}

inline vm::Instr MakeInstr(vm::Opcode op, std::uint8_t rd, std::uint8_t rs1,
                           std::uint8_t rs2, std::int32_t imm) {
  vm::Instr instr;
  instr.op = op;
  instr.rd = rd;
  instr.rs1 = rs1;
  instr.rs2 = rs2;
  instr.imm = imm;
  return instr;
}

inline void AppendInstr(std::vector<std::uint8_t>& code,
                        const vm::Instr& instr) {
  std::uint8_t buf[vm::kInstrBytes];
  vm::Encode(instr, buf);
  code.insert(code.end(), buf, buf + vm::kInstrBytes);
}

/// The injectable blob of a jam image (text .. rodata, padded), exactly the
/// CODE section a full-body frame carries and ComputeJamHandle hashes.
inline std::vector<std::uint8_t> CodeBlobOf(const jelf::LinkedImage& image) {
  std::vector<std::uint8_t> blob(image.code_blob_size(), 0);
  std::memcpy(blob.data(), image.text.data(), image.text.size());
  if (!image.rodata.empty()) {
    std::memcpy(blob.data() + image.rodata_offset, image.rodata.data(),
                image.rodata.size());
  }
  return blob;
}

// ----------------------------------------------------------- mutators

/// 1..8 single-bit flips at random positions.
inline void FlipBits(Xoshiro256& rng, std::vector<std::uint8_t>& code) {
  if (code.empty()) return;
  const std::uint64_t flips = 1 + rng.NextBelow(8);
  for (std::uint64_t i = 0; i < flips; ++i) {
    code[rng.NextBelow(code.size())] ^=
        static_cast<std::uint8_t>(1u << rng.NextBelow(8));
  }
}

/// 1..4 random byte overwrites.
inline void SplatBytes(Xoshiro256& rng, std::vector<std::uint8_t>& code) {
  if (code.empty()) return;
  const std::uint64_t n = 1 + rng.NextBelow(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    code[rng.NextBelow(code.size())] = static_cast<std::uint8_t>(rng.Next());
  }
}

/// Splices a random (possibly ill-formed) instruction over a random slot.
inline void SpliceInstr(Xoshiro256& rng, std::vector<std::uint8_t>& code) {
  if (code.size() < vm::kInstrBytes) return;
  const std::size_t slot =
      rng.NextBelow(code.size() / vm::kInstrBytes) * vm::kInstrBytes;
  // Mostly ISA-shaped (valid opcode/register ranges, arbitrary imm), so
  // splices survive Decode and stress the *semantic* checks; sometimes raw.
  if (rng.NextBelow(4) != 0) {
    const vm::Instr instr = MakeInstr(
        static_cast<vm::Opcode>(rng.NextBelow(
            static_cast<std::uint64_t>(vm::Opcode::kOpcodeCount))),
        static_cast<std::uint8_t>(rng.NextBelow(vm::kNumRegs)),
        static_cast<std::uint8_t>(rng.NextBelow(vm::kNumRegs)),
        static_cast<std::uint8_t>(rng.NextBelow(vm::kNumRegs)),
        static_cast<std::int32_t>(rng.Next()));
    vm::Encode(instr, code.data() + slot);
  } else {
    for (std::size_t i = 0; i < vm::kInstrBytes; ++i) {
      code[slot + i] = static_cast<std::uint8_t>(rng.Next());
    }
  }
}

/// Rewrites a random slot's immediate to a boundary extreme (the targets a
/// branch/lea/ldg bound check must hold against).
inline void ExtremeImm(Xoshiro256& rng, std::vector<std::uint8_t>& code) {
  if (code.size() < vm::kInstrBytes) return;
  const std::size_t slot =
      rng.NextBelow(code.size() / vm::kInstrBytes) * vm::kInstrBytes;
  auto decoded = vm::Decode(code.data() + slot);
  if (!decoded) {
    SplatBytes(rng, code);
    return;
  }
  const std::int32_t size = static_cast<std::int32_t>(code.size());
  const std::int32_t instr = static_cast<std::int32_t>(vm::kInstrBytes);
  const std::int32_t extremes[] = {
      INT32_MIN, INT32_MAX,         -size,      size,
      size - instr,                 -16,        -8,
      0,                            8,
  };
  decoded->imm = extremes[rng.NextBelow(std::size(extremes))];
  vm::Encode(*decoded, code.data() + slot);
}

/// Scrambles the register operands of a random decodable slot.
inline void ScrambleFields(Xoshiro256& rng, std::vector<std::uint8_t>& code) {
  if (code.size() < vm::kInstrBytes) return;
  const std::size_t slot =
      rng.NextBelow(code.size() / vm::kInstrBytes) * vm::kInstrBytes;
  auto decoded = vm::Decode(code.data() + slot);
  if (!decoded) {
    SplatBytes(rng, code);
    return;
  }
  decoded->rd = static_cast<std::uint8_t>(rng.NextBelow(vm::kNumRegs));
  decoded->rs1 = static_cast<std::uint8_t>(rng.NextBelow(vm::kNumRegs));
  decoded->rs2 = static_cast<std::uint8_t>(rng.NextBelow(vm::kNumRegs));
  vm::Encode(*decoded, code.data() + slot);
}

/// Applies 1..3 mutators drawn from the whole palette.
inline void MutateCode(Xoshiro256& rng, std::vector<std::uint8_t>& code) {
  const std::uint64_t rounds = 1 + rng.NextBelow(3);
  for (std::uint64_t i = 0; i < rounds; ++i) {
    switch (rng.NextBelow(5)) {
      case 0: FlipBits(rng, code); break;
      case 1: SplatBytes(rng, code); break;
      case 2: SpliceInstr(rng, code); break;
      case 3: ExtremeImm(rng, code); break;
      default: ScrambleFields(rng, code); break;
    }
  }
}

// ------------------------------------------------------------ sandbox

struct RunOutcome {
  vm::ExecResult result;
  bool canaries_intact = true;
};

/// One reusable arena: GOT + PRE + code image bracketed by canaries, with
/// ARGS/USR buffers and a stack. Run() resets every region it hands the
/// jam, so iterations are independent (only cache *timing* state carries).
class VmSandbox {
 public:
  static constexpr std::uint32_t kGotSlots = 32;     ///< slot capacity
  static constexpr std::uint32_t kDefaultGotSlots = 8;
  static constexpr std::uint64_t kCodeOffset = 512;  ///< within the image
  static constexpr std::uint64_t kImageBytes = 16 * 1024;
  static constexpr std::uint64_t kCanaryBytes = 256;
  static constexpr std::uint64_t kArgsBytes = 512;
  static constexpr std::uint64_t kUsrBytes = 512;
  static constexpr std::uint64_t kStackBytes = 16 * 1024;
  static constexpr std::uint8_t kCanaryFill = 0xC5;

  VmSandbox() : mem_(0, MiB(8)), caches_(CacheConfig()) {
    const Status natives = vm::RegisterStandardNatives(natives_, {&print_});
    ok_ = natives.ok();
    canary_lo_ = MustAllocate(kCanaryBytes, "fuzz.canary.lo", mem::Perm::kRW);
    image_ = MustAllocate(kImageBytes, "fuzz.image", mem::Perm::kRWX);
    canary_mid_ = MustAllocate(kCanaryBytes, "fuzz.canary.mid",
                               mem::Perm::kRW);
    args_ = MustAllocate(kArgsBytes, "fuzz.args", mem::Perm::kRW);
    usr_ = MustAllocate(kUsrBytes, "fuzz.usr", mem::Perm::kRW);
    canary_hi_ = MustAllocate(kCanaryBytes, "fuzz.canary.hi", mem::Perm::kRW);
    stack_ = MustAllocate(kStackBytes, "fuzz.stack", mem::Perm::kRW);
  }

  /// False when construction failed (asserted once by the test fixture).
  bool ok() const noexcept { return ok_; }

  mem::VirtAddr got_addr() const noexcept { return image_; }
  mem::VirtAddr pre_addr() const noexcept { return code_addr() - 16; }
  mem::VirtAddr code_addr() const noexcept { return image_ + kCodeOffset; }
  mem::VirtAddr args_addr() const noexcept { return args_; }
  mem::VirtAddr usr_addr() const noexcept { return usr_; }
  mem::VirtAddr canary_lo_addr() const noexcept { return canary_lo_; }
  mem::VirtAddr canary_hi_addr() const noexcept { return canary_hi_; }
  std::uint64_t code_capacity() const noexcept {
    return kImageBytes - kCodeOffset;
  }
  vm::NativeTable& natives() noexcept { return natives_; }
  mem::HostMemory& memory() noexcept { return mem_; }

  /// The native handle for @p name, or 0 when absent.
  std::uint64_t NativeHandle(std::string_view name) const {
    const auto idx = natives_.IndexOf(name);
    return idx.ok() ? vm::MakeNativeHandle(*idx) : 0;
  }

  /// Harness verifier call: the limits an injected-frame receive would use
  /// (ldg.pre pinned to the preamble slot, no fixed in-image GOT).
  Status Verify(std::span<const std::uint8_t> code, std::uint32_t got_slots,
                std::uint64_t rodata_bytes) const {
    vm::VerifyLimits limits;
    limits.got_slots = got_slots;
    limits.rodata_bytes = rodata_bytes;
    return vm::VerifyCode(code, limits);
  }

  /// Executes @p blob (code+rodata) at entry offset 0. @p got_values fills
  /// the GOT (defaults: a native-handle / data-pointer mix); ARGS receives
  /// @p arg_words and a0..a2 get the jam convention (args, usr, usr_bytes).
  /// Confined runs arm exec windows over the blob and data windows over
  /// {image, args, usr, stack} — exactly the interpreter state the runtime
  /// builds under SecurityPolicy::confine_control_flow, plus the data
  /// fence the harness adds so the canaries can witness containment.
  RunOutcome Run(std::span<const std::uint8_t> blob, bool confined,
                 std::span<const std::uint64_t> got_values = {},
                 std::span<const std::uint64_t> arg_words = {},
                 std::span<const std::uint8_t> usr_bytes = {},
                 std::uint64_t max_instructions = 4096,
                 std::uint64_t entry_offset = 0) {
    RunOutcome out;
    if (blob.empty() || blob.size() > code_capacity() ||
        entry_offset >= blob.size()) {
      out.result.status = InvalidArgument("blob does not fit the sandbox");
      return out;
    }
    ResetArena(blob, got_values, arg_words, usr_bytes);

    vm::ExecConfig config;
    config.max_instructions = max_instructions;
    config.enforce_exec_permission = false;  // the image region is RWX
    if (confined) {
      config.exec_windows = {{code_addr(), blob.size()}};
      config.data_windows = {{image_, kImageBytes},
                             {args_, kArgsBytes},
                             {usr_, kUsrBytes},
                             {stack_, kStackBytes}};
    }
    vm::Interpreter interp(mem_, caches_, /*core=*/0, &natives_, config);
    const std::uint64_t args[3] = {args_, usr_, usr_bytes.size()};
    out.result =
        interp.Execute(code_addr() + entry_offset, args, stack_ + kStackBytes);
    out.canaries_intact = CanariesIntact();
    return out;
  }

  /// True while every byte of all three canary regions still holds the
  /// fill pattern.
  bool CanariesIntact() {
    return RegionIntact(canary_lo_) && RegionIntact(canary_mid_) &&
           RegionIntact(canary_hi_);
  }

 private:
  static cache::HierarchyConfig CacheConfig() {
    cache::HierarchyConfig cfg;
    cfg.l1 = {"L1", KiB(16), 4, 2};
    cfg.l2 = {"L2", KiB(64), 8, 12};
    cfg.l3 = {"L3", KiB(128), 16, 30};
    cfg.llc = {"LLC", KiB(256), 16, 55};
    return cfg;
  }

  mem::VirtAddr MustAllocate(std::uint64_t size, const char* tag,
                             mem::Perm perm) {
    auto addr = mem_.Allocate(size, 64, perm, tag);
    if (!addr.ok()) {
      ok_ = false;
      return 0;
    }
    return *addr;
  }

  void ResetArena(std::span<const std::uint8_t> blob,
                  std::span<const std::uint64_t> got_values,
                  std::span<const std::uint64_t> arg_words,
                  std::span<const std::uint8_t> usr_bytes) {
    // Canaries first: a hostile *unconfined* run may have stomped them.
    const std::vector<std::uint8_t> pattern(kCanaryBytes, kCanaryFill);
    (void)mem_.DmaWrite(canary_lo_, pattern);
    (void)mem_.DmaWrite(canary_mid_, pattern);
    (void)mem_.DmaWrite(canary_hi_, pattern);

    // GOT: provided values, else the default native/data mix; spare slots
    // point at USR (a writable in-window data pointer — the hostile case a
    // confined jalr must still not execute).
    for (std::uint32_t slot = 0; slot < kGotSlots; ++slot) {
      std::uint64_t value = usr_;
      if (slot < got_values.size()) {
        value = got_values[slot];
      } else if (got_values.empty() && slot < kDefaultGotSlots) {
        switch (slot) {
          case 0: value = NativeHandle("tc_hash64"); break;
          case 1: value = NativeHandle("tc_memcpy"); break;
          case 2: value = NativeHandle("tc_memset"); break;
          case 3: value = NativeHandle("tc_print_u64"); break;
          default: value = usr_; break;
        }
      }
      (void)mem_.StoreU64(got_addr() + 8ull * slot, value);
    }
    (void)mem_.StoreU64(pre_addr(), got_addr());

    // Code region: previous iteration's tail cleared, then the blob.
    const std::vector<std::uint8_t> zeros(code_capacity(), 0);
    (void)mem_.DmaWrite(code_addr(), zeros);
    (void)mem_.DmaWrite(code_addr(), blob);

    // ARGS / USR.
    const std::vector<std::uint8_t> arg_zeros(kArgsBytes, 0);
    (void)mem_.DmaWrite(args_, arg_zeros);
    if (!arg_words.empty()) {
      const std::uint64_t n =
          std::min<std::uint64_t>(arg_words.size(), kArgsBytes / 8);
      (void)mem_.DmaWrite(
          args_, std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(arg_words.data()),
                     n * 8));
    }
    const std::vector<std::uint8_t> usr_zeros(kUsrBytes, 0);
    (void)mem_.DmaWrite(usr_, usr_zeros);
    if (!usr_bytes.empty()) {
      (void)mem_.DmaWrite(usr_,
                          usr_bytes.subspan(
                              0, std::min<std::uint64_t>(usr_bytes.size(),
                                                         kUsrBytes)));
    }
  }

  bool RegionIntact(mem::VirtAddr base) {
    auto span = mem_.RawSpan(base, kCanaryBytes);
    if (!span.ok()) return false;
    for (const std::uint8_t byte : *span) {
      if (byte != kCanaryFill) return false;
    }
    return true;
  }

  mem::HostMemory mem_;
  cache::CacheHierarchy caches_;
  vm::NativeTable natives_;
  std::string print_;
  bool ok_ = true;
  mem::VirtAddr canary_lo_ = 0;
  mem::VirtAddr image_ = 0;
  mem::VirtAddr canary_mid_ = 0;
  mem::VirtAddr args_ = 0;
  mem::VirtAddr usr_ = 0;
  mem::VirtAddr canary_hi_ = 0;
  mem::VirtAddr stack_ = 0;
};

}  // namespace twochains::fuzz
