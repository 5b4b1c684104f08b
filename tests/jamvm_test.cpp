// Tests for the jam VM: ISA encode/decode round trips, the assembler, the
// disassembler, the verifier, and the cache-charged interpreter including
// the native bridge and both GOT addressing modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "common/units.hpp"
#include "jamvm/assembler.hpp"
#include "jamvm/disassembler.hpp"
#include "jamvm/interpreter.hpp"
#include "jamvm/isa.hpp"
#include "jamvm/verifier.hpp"
#include "listing_util.hpp"
#include "mem/host_memory.hpp"

namespace twochains::vm {
namespace {

// ----------------------------------------------------------------- ISA

TEST(IsaTest, EncodeDecodeRoundTripAllOpcodes) {
  for (std::uint8_t op = 0;
       op < static_cast<std::uint8_t>(Opcode::kOpcodeCount); ++op) {
    for (const std::int32_t imm : {-123456, INT32_MIN, -1, INT32_MAX}) {
      Instr in;
      in.op = static_cast<Opcode>(op);
      in.rd = 3;
      in.rs1 = 17;
      in.rs2 = 31;
      in.imm = imm;
      std::uint8_t buf[kInstrBytes];
      Encode(in, buf);
      const auto out = Decode(buf);
      ASSERT_TRUE(out.has_value()) << "opcode " << int(op);
      EXPECT_EQ(*out, in);
    }
  }
}

TEST(IsaTest, DecodeRejectsBadOpcodeAndRegisters) {
  // Every value of the opcode byte and of each register byte, the other
  // bytes valid: only an opcode past the last, or a register of 32 or
  // more, is rejected.
  for (unsigned byte = 0; byte < 4; ++byte) {
    const unsigned limit =
        byte == 0 ? static_cast<unsigned>(Opcode::kOpcodeCount) : kNumRegs;
    for (unsigned value = 0; value < 256; ++value) {
      std::uint8_t buf[kInstrBytes] = {
          static_cast<std::uint8_t>(Opcode::kAdd), 3, 17, 31,
          0xFF, 0xFF, 0xFF, 0xFF};
      buf[byte] = static_cast<std::uint8_t>(value);
      EXPECT_EQ(Decode(buf).has_value(), value < limit)
          << "byte " << byte << " = " << value;
    }
  }
}

TEST(IsaTest, EncodeDecodeRandomizedProperty) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 2000; ++i) {
    Instr in;
    in.op = static_cast<Opcode>(rng.NextBelow(
        static_cast<std::uint64_t>(Opcode::kOpcodeCount)));
    in.rd = static_cast<std::uint8_t>(rng.NextBelow(kNumRegs));
    in.rs1 = static_cast<std::uint8_t>(rng.NextBelow(kNumRegs));
    in.rs2 = static_cast<std::uint8_t>(rng.NextBelow(kNumRegs));
    in.imm = static_cast<std::int32_t>(rng.Next());
    std::uint8_t buf[kInstrBytes];
    Encode(in, buf);
    const auto out = Decode(buf);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, in);
  }
}

TEST(IsaTest, RegisterNamesRoundTrip) {
  for (std::uint8_t r = 0; r < kNumRegs; ++r) {
    const auto back = RegFromName(RegName(r));
    ASSERT_TRUE(back.has_value()) << RegName(r);
    EXPECT_EQ(*back, r);
  }
  EXPECT_EQ(RegFromName("sp"), kSp);
  EXPECT_EQ(RegFromName("a0"), kA0);
  EXPECT_FALSE(RegFromName("a9").has_value());
  EXPECT_FALSE(RegFromName("x3").has_value());
  EXPECT_FALSE(RegFromName("r32").has_value());
}

TEST(IsaTest, OpcodeNamesRoundTrip) {
  for (std::uint8_t op = 0;
       op < static_cast<std::uint8_t>(Opcode::kOpcodeCount); ++op) {
    const auto name = OpcodeName(static_cast<Opcode>(op));
    const auto back = OpcodeFromName(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, static_cast<Opcode>(op));
  }
}

TEST(IsaTest, Classification) {
  EXPECT_TRUE(IsBranch(Opcode::kBeq));
  EXPECT_FALSE(IsBranch(Opcode::kJal));
  EXPECT_TRUE(IsLoad(Opcode::kLdd));
  EXPECT_TRUE(IsStore(Opcode::kStw));
  EXPECT_TRUE(IsMemAccess(Opcode::kLdb));
  EXPECT_FALSE(IsMemAccess(Opcode::kAdd));
}

// ------------------------------------------------------------ assembler

TEST(AssemblerTest, MinimalFunction) {
  auto obj = Assemble(R"(
    .global f
    f:
      addi a0, a0, 5
      ret
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  EXPECT_EQ(obj->text.size(), 2 * kInstrBytes);
  const auto* sym = obj->FindSymbol("f");
  ASSERT_NE(sym, nullptr);
  EXPECT_TRUE(sym->defined);
  EXPECT_TRUE(sym->global);
  EXPECT_EQ(sym->offset, 0u);
}

TEST(AssemblerTest, BranchToLocalLabelResolvesDirectly) {
  auto obj = Assemble(R"(
    f:
      beq a0, zr, .done
      addi a0, a0, -1
      jmp f
    .done:
      ret
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  // No relocations: all targets are local text labels.
  EXPECT_TRUE(obj->relocs.empty());
  const auto beq = Decode(obj->text.data());
  ASSERT_TRUE(beq.has_value());
  EXPECT_EQ(beq->op, Opcode::kBeq);
  EXPECT_EQ(beq->imm, 24);  // 3 instructions forward
  const auto jmp = Decode(obj->text.data() + 16);
  ASSERT_TRUE(jmp.has_value());
  EXPECT_EQ(jmp->op, Opcode::kJal);
  EXPECT_EQ(jmp->imm, -16);
}

TEST(AssemblerTest, GotReferenceEmitsReloc) {
  auto obj = Assemble(R"(
    .extern helper
    f:
      ldg t0, @helper
      jalr lr, t0, 0
      ret
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  ASSERT_EQ(obj->relocs.size(), 1u);
  EXPECT_EQ(obj->relocs[0].kind, RelocKind::kGotSlot);
  EXPECT_EQ(obj->relocs[0].symbol, "helper");
  EXPECT_EQ(obj->relocs[0].offset, 0u);
}

TEST(AssemblerTest, RodataAndLea) {
  auto obj = Assemble(R"(
    .rodata
    greeting: .asciz "hey\n"
    .align 8
    table: .quad 1, 2, 3
    .text
    f:
      lea a0, greeting
      ret
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  EXPECT_EQ(obj->rodata.size(), 8u + 24u);  // "hey\n\0" padded to 8, 3 quads
  EXPECT_EQ(std::memcmp(obj->rodata.data(), "hey\n", 5), 0);
  // lea to another section leaves a pcrel reloc.
  ASSERT_EQ(obj->relocs.size(), 1u);
  EXPECT_EQ(obj->relocs[0].kind, RelocKind::kPcrel32);
  EXPECT_EQ(obj->relocs[0].symbol, "greeting");
}

TEST(AssemblerTest, QuadWithSymbolEmitsAbs64) {
  auto obj = Assemble(R"(
    .data
    ptr: .quad target+8
    .text
    target:
      ret
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  ASSERT_EQ(obj->relocs.size(), 1u);
  EXPECT_EQ(obj->relocs[0].kind, RelocKind::kAbs64);
  EXPECT_EQ(obj->relocs[0].symbol, "target");
  EXPECT_EQ(obj->relocs[0].addend, 8);
  EXPECT_EQ(obj->relocs[0].section, SectionKind::kData);
}

TEST(AssemblerTest, PseudoInstructions) {
  auto obj = Assemble(R"(
    f:
      li t0, 0x123456789ABCDEF0
      mov a1, t0
      not a2, a1
      neg a3, a2
      seqz a4, a3
      snez a5, a3
      ret
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  // li = 2 slots, others 1 each.
  EXPECT_EQ(obj->text.size(), 8 * kInstrBytes);
  const auto movi = Decode(obj->text.data());
  const auto movhi = Decode(obj->text.data() + 8);
  ASSERT_TRUE(movi && movhi);
  EXPECT_EQ(movi->op, Opcode::kMovi);
  EXPECT_EQ(movhi->op, Opcode::kMovhi);
  EXPECT_EQ(static_cast<std::uint32_t>(movi->imm), 0x9ABCDEF0u);
  EXPECT_EQ(static_cast<std::uint32_t>(movhi->imm), 0x12345678u);
}

TEST(AssemblerTest, MemoryOperands) {
  auto obj = Assemble(R"(
    f:
      ldd t0, [sp+16]
      ldw t1, [a0]
      std t0, [sp-8]
      ret
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  const auto ldd = Decode(obj->text.data());
  ASSERT_TRUE(ldd.has_value());
  EXPECT_EQ(ldd->rs1, kSp);
  EXPECT_EQ(ldd->imm, 16);
  const auto std_i = Decode(obj->text.data() + 16);
  ASSERT_TRUE(std_i.has_value());
  EXPECT_EQ(std_i->op, Opcode::kStd);
  EXPECT_EQ(std_i->rs2, kT0);
  EXPECT_EQ(std_i->imm, -8);
}

TEST(AssemblerTest, Errors) {
  EXPECT_FALSE(Assemble("frobnicate a0, a1").ok());
  EXPECT_FALSE(Assemble("add a0, a1").ok());            // operand count
  EXPECT_FALSE(Assemble("add a0, a1, q9").ok());        // bad register
  EXPECT_FALSE(Assemble("x: ret\nx: ret").ok());        // duplicate label
  EXPECT_FALSE(Assemble(".align 3").ok());              // not pow2
  EXPECT_FALSE(Assemble("ldg t0, helper").ok());        // missing '@'
  EXPECT_FALSE(Assemble("ldd t0, sp+16").ok());         // missing brackets
  // Past one host's address range, whether written out or kept as a count.
  EXPECT_FALSE(Assemble(".data\n.byte 1\n.space 1099511627776").ok());
  EXPECT_FALSE(Assemble(".rodata\n.byte 1\n.space 1099511627776").ok());
  const auto err = Assemble("add a0, a1", "unit.s").status();
  EXPECT_NE(err.message().find("unit.s:1"), std::string::npos);
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  auto obj = Assemble(R"(
    ; full-line comment
    # another
    f: ret   ; trailing
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  EXPECT_EQ(obj->text.size(), kInstrBytes);
}

TEST(AssemblerTest, AlignPadsTextWithNops) {
  auto obj = Assemble(R"(
    f: ret
    .align 32
    g: ret
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  EXPECT_EQ(obj->FindSymbol("g")->offset, 32u);
  const auto pad = Decode(obj->text.data() + 8);
  ASSERT_TRUE(pad.has_value());
  EXPECT_EQ(pad->op, Opcode::kNop);
}

// A zero run that ends .data stays a count on the object (the bench's
// ried_kvstore heap is 16 MiB of it); it is written out only when a byte
// follows it, and labels and alignment count it either way.
TEST(AssemblerTest, TrailingSpaceStaysACount) {
  auto obj = Assemble(R"(
    .data
    a: .quad 7
    .space 16777216
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  EXPECT_EQ(obj->data.size(), 8u);
  EXPECT_EQ(obj->data_zero_tail, 16777216u);
  EXPECT_EQ(obj->DataExtent(), 16777224u);
}

TEST(AssemblerTest, SpaceFollowedByDataIsWrittenOut) {
  auto obj = Assemble(R"(
    .data
    .space 16
    b: .quad 9
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  EXPECT_EQ(obj->data_zero_tail, 0u);
  ASSERT_EQ(obj->data.size(), 24u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(obj->data[i], 0u) << i;
  EXPECT_EQ(obj->data[16], 9u);
  EXPECT_EQ(obj->FindSymbol("b")->offset, 16u);
}

TEST(AssemblerTest, LabelAfterPendingSpaceCountsIt) {
  auto obj = Assemble(R"(
    .data
    a: .byte 1
    .space 100
    b: .space 8
    c:
    .text
    f: lea a0, c
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  EXPECT_EQ(obj->FindSymbol("b")->offset, 101u);
  EXPECT_EQ(obj->FindSymbol("c")->offset, 109u);
  EXPECT_EQ(obj->data.size(), 1u);
  EXPECT_EQ(obj->data_zero_tail, 108u);
}

TEST(AssemblerTest, AlignAfterSpaceCountsThePendingRun) {
  auto obj = Assemble(R"(
    .data
    a: .byte 1
    .space 3
    .align 8
    b: .quad 2
    .space 3
    .align 16
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  EXPECT_EQ(obj->FindSymbol("b")->offset, 8u);
  ASSERT_EQ(obj->data.size(), 16u);
  EXPECT_EQ(obj->data[0], 1u);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_EQ(obj->data[i], 0u) << i;
  EXPECT_EQ(obj->data[8], 2u);
  EXPECT_EQ(obj->data_zero_tail, 16u);  // 3 zeros, then 13 to reach 32
  EXPECT_EQ(obj->DataExtent(), 32u);
}

// --------------------------------------------------------- disassembler

TEST(DisassemblerTest, RoundTripMnemonics) {
  auto obj = Assemble(R"(
    f:
      addi a0, a0, 42
      ldw t1, [a0+4]
      beq t1, zr, 16
      jalr lr, t0, 0
      ldg.pre t2, 3, -16
      ret
  )");
  ASSERT_TRUE(obj.ok()) << obj.status();
  auto text = Disassemble(obj->text);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("addi a0, a0, 42"), std::string::npos);
  EXPECT_NE(text->find("ldw t1, [a0+4]"), std::string::npos);
  EXPECT_NE(text->find("ldg.pre t2, 3, -16"), std::string::npos);
  EXPECT_NE(text->find("jalr zr, lr, 0"), std::string::npos);  // ret
}

TEST(DisassemblerTest, RejectsMisalignedCode) {
  std::vector<std::uint8_t> bytes(12, 0);
  EXPECT_FALSE(Disassemble(bytes).ok());
}

// ------------------------------------------------------------- verifier

std::vector<std::uint8_t> AssembleText(const std::string& src) {
  auto obj = Assemble(src);
  EXPECT_TRUE(obj.ok()) << obj.status();
  return obj->text;
}

TEST(VerifierTest, AcceptsWellFormedCode) {
  const auto code = AssembleText(R"(
    f:
      beq a0, zr, .out
      addi a0, a0, -1
      jmp f
    .out:
      ret
  )");
  EXPECT_TRUE(VerifyCode(code, {}).ok());
}

TEST(VerifierTest, RejectsBranchOutOfImage) {
  const auto code = AssembleText("f: beq a0, zr, 4096\n ret");
  EXPECT_EQ(VerifyCode(code, {}).code(), StatusCode::kOutOfRange);
}

TEST(VerifierTest, RejectsMisalignedBranch) {
  const auto code = AssembleText("f: beq a0, zr, 12\n ret\n ret");
  EXPECT_EQ(VerifyCode(code, {}).code(), StatusCode::kDataLoss);
}

TEST(VerifierTest, RejectsGotIndexBeyondTable) {
  const auto code = AssembleText("f: ldg.pre t0, 7, -16\n ret");
  VerifyLimits limits;
  limits.got_slots = 4;
  EXPECT_EQ(VerifyCode(code, limits).code(), StatusCode::kOutOfRange);
  limits.got_slots = 8;
  EXPECT_TRUE(VerifyCode(code, limits).ok());
}

TEST(VerifierTest, RejectsUndecodableSlot) {
  std::vector<std::uint8_t> code(16, 0xFF);
  EXPECT_EQ(VerifyCode(code, {}).code(), StatusCode::kDataLoss);
}

TEST(VerifierTest, RejectsEmptyAndMisaligned) {
  EXPECT_FALSE(VerifyCode({}, {}).ok());
  std::vector<std::uint8_t> odd(9, 0);
  EXPECT_EQ(VerifyCode(odd, {}).code(), StatusCode::kDataLoss);
}

TEST(VerifierTest, LeaMayTargetTrailingRodata) {
  const auto code = AssembleText("f: lea a0, 16\n ret");  // +16 > code end
  VerifyLimits limits;
  EXPECT_FALSE(VerifyCode(code, limits).ok());
  limits.rodata_bytes = 64;
  EXPECT_TRUE(VerifyCode(code, limits).ok());
}

TEST(VerifierTest, RejectsTruncatedJamBodies) {
  // A frame cut short on the wire: the verifier must refuse every
  // truncation of a valid body — misaligned tails outright, aligned
  // tails once a branch target falls off the end.
  const auto code = AssembleText(R"(
    f:
      beq a0, zr, .out
      addi a0, a0, -1
      jmp f
    .out:
      ret
  )");
  ASSERT_TRUE(VerifyCode(code, {}).ok());
  // Misaligned truncations (not a whole number of instruction slots).
  for (const std::size_t cut : {1u, 7u, 9u, 15u}) {
    ASSERT_LT(cut, code.size());
    const std::span<const std::uint8_t> trunc(code.data(),
                                              code.size() - cut);
    EXPECT_EQ(VerifyCode(trunc, {}).code(), StatusCode::kDataLoss)
        << "cut " << cut;
  }
  // Aligned truncation that drops the `.out: ret` the beq targets.
  const std::span<const std::uint8_t> no_tail(code.data(),
                                              code.size() - kInstrBytes);
  EXPECT_EQ(VerifyCode(no_tail, {}).code(), StatusCode::kOutOfRange);
  // Truncated to nothing.
  EXPECT_EQ(VerifyCode(code.empty() ? std::span<const std::uint8_t>()
                                    : std::span<const std::uint8_t>(
                                          code.data(), 0),
                       {})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(VerifierTest, SeededGarblingNeverSlipsUndecodableCode) {
  // Property: for any byte-level corruption of a valid body, the verifier
  // either rejects, or everything it accepted really decodes and every
  // branch stays inside the image — and the verdict is deterministic.
  const auto code = AssembleText(R"(
    f:
      movi t0, 0
    .loop:
      beq a0, zr, .done
      add t0, t0, a1
      addi a0, a0, -1
      jmp .loop
    .done:
      mov a0, t0
      ret
  )");
  ASSERT_TRUE(VerifyCode(code, {}).ok());

  Xoshiro256 rng(0x6A2B1E);
  int rejected = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> garbled(code.begin(), code.end());
    const std::uint64_t flips = 1 + rng.NextBelow(3);
    for (std::uint64_t i = 0; i < flips; ++i) {
      garbled[rng.NextBelow(garbled.size())] =
          static_cast<std::uint8_t>(rng.Next());
    }
    const Status verdict = VerifyCode(garbled, {});
    const Status again = VerifyCode(garbled, {});
    EXPECT_EQ(verdict.code(), again.code());
    if (!verdict.ok()) {
      ++rejected;
      continue;
    }
    const std::int64_t size = static_cast<std::int64_t>(garbled.size());
    for (std::size_t off = 0; off < garbled.size(); off += kInstrBytes) {
      const auto decoded = Decode(garbled.data() + off);
      ASSERT_TRUE(decoded.has_value()) << "verifier passed undecodable +"
                                       << off << " in round " << round;
      if (IsBranch(decoded->op) || decoded->op == Opcode::kJal) {
        const std::int64_t target =
            static_cast<std::int64_t>(off) + decoded->imm;
        EXPECT_GE(target, 0);
        EXPECT_LT(target, size);
      }
    }
  }
  // The property is not vacuous: corruption does get caught.
  EXPECT_GT(rejected, 0);
}

// ------------------------------------------- listing round-trip property

TEST(DisassemblerTest, SeededStreamsReachReassemblyFixpoint) {
  // Random valid instruction streams, pushed through disassemble ->
  // reassemble: the first pass may normalize (the printer omits operand
  // fields its shape does not use, e.g. a stray rd on `halt`), but from
  // then on bytes and listing must be a fixpoint — the printer and the
  // parser agree on every operand shape (including raw ldg.fix /
  // ldg.pre and negative immediates).
  Xoshiro256 rng(0x0DD5);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint8_t> code;
    const std::uint64_t count = 4 + rng.NextBelow(60);
    for (std::uint64_t n = 0; n < count; ++n) {
      Instr instr;
      instr.op = static_cast<Opcode>(
          rng.NextBelow(static_cast<std::uint64_t>(Opcode::kOpcodeCount)));
      instr.rd = static_cast<std::uint8_t>(rng.NextBelow(kNumRegs));
      instr.rs1 = static_cast<std::uint8_t>(rng.NextBelow(kNumRegs));
      instr.rs2 = static_cast<std::uint8_t>(rng.NextBelow(kNumRegs));
      instr.imm = static_cast<std::int32_t>(rng.Next());
      std::uint8_t buf[kInstrBytes];
      Encode(instr, buf);
      code.insert(code.end(), buf, buf + kInstrBytes);
    }
    auto listing = Disassemble(code);
    ASSERT_TRUE(listing.ok()) << listing.status();
    auto normalized = Assemble(StripListingOffsets(*listing), "prop.jasm");
    ASSERT_TRUE(normalized.ok())
        << normalized.status() << "\nlisting:\n" << *listing;
    ASSERT_EQ(normalized->text.size(), code.size()) << "round " << round;

    auto listing2 = Disassemble(normalized->text);
    ASSERT_TRUE(listing2.ok());
    auto fixpoint = Assemble(StripListingOffsets(*listing2), "prop2.jasm");
    ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
    EXPECT_EQ(fixpoint->text, normalized->text) << "round " << round;
    auto listing3 = Disassemble(fixpoint->text);
    ASSERT_TRUE(listing3.ok());
    EXPECT_EQ(*listing3, *listing2) << "round " << round;
  }
}

// ---------------------------------------------------------- interpreter

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest() : mem_(0, MiB(8)), caches_(CacheConfig()) {}

  static cache::HierarchyConfig CacheConfig() {
    cache::HierarchyConfig cfg;
    cfg.l1 = {"L1", KiB(16), 4, 2};
    cfg.l2 = {"L2", KiB(64), 8, 12};
    cfg.l3 = {"L3", KiB(128), 16, 30};
    cfg.llc = {"LLC", KiB(256), 16, 55};
    return cfg;
  }

  /// Assembles, links nothing — places raw text at an RWX allocation.
  mem::VirtAddr LoadRaw(const std::string& src, mem::Perm perm = mem::Perm::kRWX) {
    auto obj = Assemble(src);
    EXPECT_TRUE(obj.ok()) << obj.status();
    auto addr = mem_.Allocate(obj->text.size(), 64, perm, "code");
    EXPECT_TRUE(addr.ok());
    EXPECT_TRUE(mem_.DmaWrite(*addr, obj->text).ok());
    return *addr;
  }

  mem::VirtAddr MakeStack() {
    auto addr = mem_.Allocate(KiB(64), 16, mem::Perm::kRW, "stack");
    EXPECT_TRUE(addr.ok());
    return *addr + KiB(64);
  }

  ExecResult Run(mem::VirtAddr entry, std::vector<std::uint64_t> args,
                 const NativeTable* natives = nullptr,
                 ExecConfig cfg = {}) {
    Interpreter interp(mem_, caches_, 0, natives, cfg);
    return interp.Execute(entry, args, MakeStack());
  }

  mem::HostMemory mem_;
  cache::CacheHierarchy caches_;
};

TEST_F(InterpreterTest, ArithmeticAndReturn) {
  const auto entry = LoadRaw(R"(
    f:
      addi a0, a0, 10
      muli a0, a0, 3
      ret
  )");
  const auto r = Run(entry, {4});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.return_value, 42u);
  EXPECT_EQ(r.instructions, 3u);
  EXPECT_GT(r.cycles, 0u);
}

TEST_F(InterpreterTest, LoopSumsIota) {
  // sum 1..n via a loop.
  const auto entry = LoadRaw(R"(
    f:
      mov t0, zr
    .loop:
      beq a0, zr, .done
      add t0, t0, a0
      addi a0, a0, -1
      jmp .loop
    .done:
      mov a0, t0
      ret
  )");
  const auto r = Run(entry, {100});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.return_value, 5050u);
}

TEST_F(InterpreterTest, RecursiveCallsUseStack) {
  // factorial via recursion: tests jal/jalr/stack discipline.
  const auto entry = LoadRaw(R"(
    fact:
      bne a0, zr, .rec
      movi a0, 1
      ret
    .rec:
      addi sp, sp, -16
      std lr, [sp+0]
      std a0, [sp+8]
      addi a0, a0, -1
      call fact
      ldd t0, [sp+8]
      mul a0, a0, t0
      ldd lr, [sp+0]
      addi sp, sp, 16
      ret
  )");
  const auto r = Run(entry, {10});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.return_value, 3628800u);
}

TEST_F(InterpreterTest, LoadStoreWidthsAndSignExtension) {
  const auto buf = mem_.Allocate(64, 64, mem::Perm::kRW, "buf");
  ASSERT_TRUE(buf.ok());
  const auto entry = LoadRaw(R"(
    f:
      ; a0 = buffer
      movi t0, -2
      stw t0, [a0+0]      ; 0xFFFFFFFE
      ldw t1, [a0+0]      ; sign-extended -> -2
      ldwu t2, [a0+0]     ; zero-extended -> 0xFFFFFFFE
      sub a0, t1, t2      ; -2 - 0xFFFFFFFE
      ret
  )");
  const auto r = Run(entry, {*buf});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(static_cast<std::int64_t>(r.return_value),
            -2ll - 0xFFFFFFFEll);
}

TEST_F(InterpreterTest, ByteAndHalfAccesses) {
  const auto buf = mem_.Allocate(64, 64, mem::Perm::kRW, "buf");
  ASSERT_TRUE(buf.ok());
  const auto entry = LoadRaw(R"(
    f:
      movi t0, 0x80
      stb t0, [a0]
      ldb t1, [a0]       ; sign extend: -128
      ldbu t2, [a0]      ; 128
      add a0, t1, t2     ; 0
      ret
  )");
  const auto r = Run(entry, {*buf});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.return_value, 0u);
}

TEST_F(InterpreterTest, Movi64BitConstant) {
  const auto entry = LoadRaw(R"(
    f:
      li a0, 0xDEADBEEFCAFED00D
      ret
  )");
  const auto r = Run(entry, {});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.return_value, 0xDEADBEEFCAFED00Dull);
}

TEST_F(InterpreterTest, DivisionByZeroFaults) {
  const auto entry = LoadRaw("f: div a0, a0, zr\n ret");
  const auto r = Run(entry, {8});
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(InterpreterTest, SignedDivisionSemantics) {
  const auto entry = LoadRaw(R"(
    f:
      movi t0, -7
      movi t1, 2
      div a0, t0, t1     ; -3 (trunc toward zero)
      rem a1, t0, t1     ; -1
      sub a0, a0, a1     ; -3 - -1 = -2
      ret
  )");
  const auto r = Run(entry, {});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(static_cast<std::int64_t>(r.return_value), -2);
}

TEST_F(InterpreterTest, InstructionBudgetStopsRunaway) {
  const auto entry = LoadRaw("f: jmp f");
  ExecConfig cfg;
  cfg.max_instructions = 1000;
  const auto r = Run(entry, {}, nullptr, cfg);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.instructions, 1000u);
}

TEST_F(InterpreterTest, ExecPermissionEnforced) {
  const auto entry = LoadRaw("f: ret", mem::Perm::kRW);  // no X
  const auto r = Run(entry, {});
  EXPECT_EQ(r.status.code(), StatusCode::kPermissionDenied);
  // Disabling enforcement (the paper's default RWX mailbox mode) runs fine.
  ExecConfig cfg;
  cfg.enforce_exec_permission = false;
  const auto r2 = Run(entry, {}, nullptr, cfg);
  EXPECT_TRUE(r2.status.ok());
}

TEST_F(InterpreterTest, StorePermissionFaultSurfaces) {
  const auto ro = mem_.Allocate(64, 64, mem::Perm::kRead, "ro");
  ASSERT_TRUE(ro.ok());
  const auto entry = LoadRaw("f: std zr, [a0]\n ret");
  const auto r = Run(entry, {*ro});
  EXPECT_EQ(r.status.code(), StatusCode::kPermissionDenied);
}

TEST_F(InterpreterTest, NativeBridgeCallAndReturn) {
  NativeTable natives;
  std::string out;
  ASSERT_TRUE(RegisterStandardNatives(natives, {&out}).ok());
  // Build a GOT in memory holding the native handle for tc_hash64.
  const auto got = mem_.Allocate(64, 64, mem::Perm::kRW, "got");
  ASSERT_TRUE(got.ok());
  const auto idx = natives.IndexOf("tc_hash64");
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(mem_.StoreU64(*got, MakeNativeHandle(*idx)).ok());

  const auto entry = LoadRaw(R"(
    f:
      ; a0 = input, a1 = got address
      ldd t0, [a1]
      addi sp, sp, -16
      std lr, [sp]
      jalr lr, t0, 0
      ldd lr, [sp]
      addi sp, sp, 16
      ret
  )");
  const auto r = Run(entry, {123, *got}, &natives);
  ASSERT_TRUE(r.status.ok()) << r.status;
  // tc_hash64 is splitmix64's mix of the input.
  std::uint64_t z = 123 + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  EXPECT_EQ(r.return_value, z ^ (z >> 31));
}

TEST_F(InterpreterTest, NativePrintCollectsIntoSink) {
  NativeTable natives;
  std::string out;
  ASSERT_TRUE(RegisterStandardNatives(natives, {&out}).ok());
  const auto got = mem_.Allocate(64, 64, mem::Perm::kRW, "got");
  const auto str = mem_.Allocate(64, 64, mem::Perm::kRW, "str");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(str.ok());
  const char* msg = "jam says hi";
  ASSERT_TRUE(mem_.Write(*str, std::span<const std::uint8_t>(
                                   reinterpret_cast<const std::uint8_t*>(msg),
                                   std::strlen(msg) + 1))
                  .ok());
  ASSERT_TRUE(
      mem_.StoreU64(*got,
                    MakeNativeHandle(*natives.IndexOf("tc_print_str")))
          .ok());
  const auto entry = LoadRaw(R"(
    f:
      mov a0, a1       ; string address was passed in a1
      ldd t0, [a2]     ; got address in a2
      addi sp, sp, -16
      std lr, [sp]
      jalr lr, t0, 0
      ldd lr, [sp]
      addi sp, sp, 16
      ret
  )");
  const auto r = Run(entry, {0, *str, *got}, &natives);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(out, "jam says hi");
}

TEST_F(InterpreterTest, MissingNativeTableFaults) {
  const auto got = mem_.Allocate(64, 64, mem::Perm::kRW, "got");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(mem_.StoreU64(*got, MakeNativeHandle(0)).ok());
  const auto entry = LoadRaw(R"(
    f:
      ldd t0, [a0]
      jalr lr, t0, 0
      ret
  )");
  const auto r = Run(entry, {*got}, nullptr);
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(InterpreterTest, GotFixAndPreModesAgree) {
  // Build: [PRE slot][pad][code ...][got table] — execute the same logical
  // access via ldg.fix (PC-relative direct) and ldg.pre (via preamble).
  const auto region = mem_.Allocate(KiB(4), 64, mem::Perm::kRWX, "jam");
  ASSERT_TRUE(region.ok());
  const mem::VirtAddr pre = *region;       // preamble slot
  const mem::VirtAddr code = *region + 16; // code starts at +16
  const mem::VirtAddr got = *region + 512; // table
  ASSERT_TRUE(mem_.StoreU64(got + 8, 0x1234567890ull).ok());  // slot 1
  ASSERT_TRUE(mem_.StoreU64(pre, got).ok());

  // ldg.fix a0, imm -> target got+8 ; ldg.pre a1, 1, imm -> via pre.
  std::vector<std::uint8_t> text;
  {
    Instr fix{Opcode::kLdgFix, kA0, 0, 0,
              static_cast<std::int32_t>(got + 8 - code)};
    Instr prei{Opcode::kLdgPre, kA0 + 1, 0, 1,
               static_cast<std::int32_t>(
                   static_cast<std::int64_t>(pre) -
                   static_cast<std::int64_t>(code + 8))};
    Instr sub{Opcode::kSub, kA0, kA0 + 1, kA0, 0};  // a0 = a1 - a0 (0 if same)
    Instr retq{Opcode::kJalr, kZr, kLr, 0, 0};
    std::uint8_t buf[8];
    for (const auto& i : {fix, prei, sub, retq}) {
      Encode(i, buf);
      text.insert(text.end(), buf, buf + 8);
    }
  }
  ASSERT_TRUE(mem_.DmaWrite(code, text).ok());
  const auto r = Run(code, {});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.return_value, 0u);  // both modes read the same slot value
}

TEST_F(InterpreterTest, CyclesReflectCacheState) {
  // Cold first run vs warm second run of the same code: the warm run must
  // burn fewer cycles (all ifetches hit L1).
  const auto entry = LoadRaw(R"(
    f:
      mov t0, zr
      movi t1, 64
    .loop:
      beq t1, zr, .done
      add t0, t0, t1
      addi t1, t1, -1
      jmp .loop
    .done:
      mov a0, t0
      ret
  )");
  const auto cold = Run(entry, {});
  ASSERT_TRUE(cold.status.ok());
  const auto warm = Run(entry, {});
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(cold.return_value, warm.return_value);
  EXPECT_EQ(cold.instructions, warm.instructions);
  EXPECT_GT(cold.cycles, warm.cycles);
}

TEST_F(InterpreterTest, ZeroRegisterIsImmutable) {
  const auto entry = LoadRaw(R"(
    f:
      movi zr, 999
      mov a0, zr
      ret
  )");
  const auto r = Run(entry, {});
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.return_value, 0u);
}

TEST_F(InterpreterTest, ShiftAndCompareOps) {
  const auto entry = LoadRaw(R"(
    f:
      movi t0, 1
      slli t0, t0, 40      ; 2^40
      srli t1, t0, 8       ; 2^32
      movi t2, -16
      srai t2, t2, 2       ; -4
      sltu t3, t1, t0      ; 1
      slt  t4, t2, zr      ; 1 (-4 < 0)
      add a0, t3, t4
      ret
  )");
  const auto r = Run(entry, {});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.return_value, 2u);
}

// ----------------------- security-hole regressions (the fuzz suite PR)

TEST(VerifierTest, RejectsLdgPreOffThePreambleSlot) {
  // site+imm must land exactly on the PRE slot — any other target reads
  // the "GOT pointer" out of attacker-controlled frame bytes (GOTP, ARGS,
  // or the code itself) instead of the receiver-written preamble.
  VerifyLimits limits;
  limits.got_slots = 8;
  const auto below = AssembleText("f: ldg.pre t0, 0, -24\n ret");
  EXPECT_EQ(VerifyCode(below, limits).code(), StatusCode::kOutOfRange);
  const auto inside = AssembleText("f: ldg.pre t0, 0, 8\n ret");
  EXPECT_EQ(VerifyCode(inside, limits).code(), StatusCode::kOutOfRange);
  // The pin is per-site: deeper in the body the delta shifts with it.
  const auto later = AssembleText("f: nop\n ldg.pre t0, 0, -24\n ret");
  EXPECT_TRUE(VerifyCode(later, limits).ok());
}

TEST(VerifierTest, BoundsLdgFixLikeLdgPre) {
  // The satellite hole: kLdgPre's GOT index was bounded but kLdgFix's
  // PC-relative target was not — an unrewritten ldg.fix was an arbitrary
  // in-image read. Build the instruction directly; the assembler only
  // emits ldg.fix through @got relocations.
  const auto build = [](std::int32_t imm) {
    std::vector<std::uint8_t> code;
    Instr fix;
    fix.op = Opcode::kLdgFix;
    fix.rd = kT0;
    fix.imm = imm;
    std::uint8_t buf[kInstrBytes];
    Encode(fix, buf);
    code.insert(code.end(), buf, buf + kInstrBytes);
    Instr ret;
    ret.op = Opcode::kJalr;
    ret.rs1 = kLr;
    Encode(ret, buf);
    code.insert(code.end(), buf, buf + kInstrBytes);
    return code;
  };

  // Without a declared fixed GOT (every injected frame), ldg.fix dies.
  EXPECT_EQ(VerifyCode(build(64), {}).code(), StatusCode::kPermissionDenied);

  VerifyLimits limits;
  limits.got_slots = 4;
  limits.fixed_got_offset = 64;  // table window [64, 96)
  EXPECT_TRUE(VerifyCode(build(64), limits).ok());   // slot 0
  EXPECT_TRUE(VerifyCode(build(88), limits).ok());   // slot 3
  EXPECT_EQ(VerifyCode(build(96), limits).code(),    // one past the table
            StatusCode::kOutOfRange);
  EXPECT_EQ(VerifyCode(build(68), limits).code(),    // misaligned
            StatusCode::kOutOfRange);
  EXPECT_EQ(VerifyCode(build(56), limits).code(),    // before the table
            StatusCode::kOutOfRange);
}

TEST(VerifierTest, RejectsZeroRegisterJalr) {
  // jalr through zr is a jump to a raw immediate — an absolute pc no
  // static analysis can bound. Register jalr stays legal (the interpreter
  // bounds it dynamically via exec windows).
  const auto absolute = AssembleText("f: jalr a0, zr, 4096\n ret");
  EXPECT_EQ(VerifyCode(absolute, {}).code(), StatusCode::kOutOfRange);
  const auto through_reg = AssembleText("f: jalr a0, t0, 0\n ret");
  EXPECT_TRUE(VerifyCode(through_reg, {}).ok());
}

TEST_F(InterpreterTest, ExecWindowsConfineComputedJumps) {
  // The dynamic half of the jalr story: a register jump out of the armed
  // window faults at the fetch, before the target byte executes.
  const auto entry = LoadRaw(R"(
    f:
      mov t0, sp
      jalr lr, t0, 0
      ret
  )");
  ExecConfig cfg;
  cfg.exec_windows = {{entry, 3 * kInstrBytes}};
  const auto r = Run(entry, {}, nullptr, cfg);
  EXPECT_EQ(r.status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(r.instructions, 2u);  // mov + jalr retire; the fetch faults
}

TEST_F(InterpreterTest, ExecWindowsCatchStraightLineRunoff) {
  // No branch, no ret: statically legal, dynamically the next fetch falls
  // off the end of the window into whatever bytes follow the frame.
  const auto entry = LoadRaw("f: addi a0, a0, 1");
  ExecConfig cfg;
  cfg.exec_windows = {{entry, kInstrBytes}};
  const auto r = Run(entry, {}, nullptr, cfg);
  EXPECT_EQ(r.status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(r.instructions, 1u);
}

TEST_F(InterpreterTest, DataWindowsCoverNativeAccesses) {
  // Natives act on behalf of jam code, so the data fence must hold through
  // the bridge too (the confused-deputy regression). a0..a3 carry
  // dst/fill/len/handle straight from Run's args.
  NativeTable natives;
  std::string sink;
  ASSERT_TRUE(RegisterStandardNatives(natives, {&sink}).ok());
  const auto memset_idx = natives.IndexOf("tc_memset");
  ASSERT_TRUE(memset_idx.ok());
  const std::uint64_t handle = MakeNativeHandle(*memset_idx);
  auto inside = mem_.Allocate(256, 64, mem::Perm::kRW, "inside");
  auto outside = mem_.Allocate(256, 64, mem::Perm::kRW, "outside");
  ASSERT_TRUE(inside.ok() && outside.ok());

  const auto entry = LoadRaw(R"(
    f:
      mov t6, lr
      jalr lr, a3, 0
      jalr zr, t6, 0
  )");
  ExecConfig cfg;
  cfg.data_windows = {{*inside, 256}};

  const auto ok = Run(entry, {*inside, 0x5A, 64, handle}, &natives, cfg);
  ASSERT_TRUE(ok.status.ok()) << ok.status;
  auto in_span = mem_.RawSpan(*inside, 64);
  ASSERT_TRUE(in_span.ok());
  for (const std::uint8_t b : *in_span) EXPECT_EQ(b, 0x5A);

  const auto blocked = Run(entry, {*outside, 0x5A, 64, handle}, &natives, cfg);
  EXPECT_EQ(blocked.status.code(), StatusCode::kPermissionDenied);
  auto out_span = mem_.RawSpan(*outside, 64);
  ASSERT_TRUE(out_span.ok());
  for (const std::uint8_t b : *out_span) EXPECT_EQ(b, 0u);
}

TEST_F(InterpreterTest, ConfineBranchCyclesAreCharged) {
  // The SFI-style control-flow check has a price: every branch/jal/jalr
  // retired under exec windows costs confine_branch_cycles extra. 16 bne
  // + the final ret = 17 control transfers.
  const auto entry = LoadRaw(R"(
    f:
      movi t0, 16
    loop:
      addi t0, t0, -1
      bne t0, zr, loop
      ret
  )");
  ExecConfig cfg;
  cfg.exec_windows = {{entry, 4 * kInstrBytes}};
  cfg.confine_branch_cycles = 0;
  (void)Run(entry, {}, nullptr, cfg);  // warm the caches
  const auto cheap = Run(entry, {}, nullptr, cfg);
  ASSERT_TRUE(cheap.status.ok()) << cheap.status;
  cfg.confine_branch_cycles = 100;
  const auto priced = Run(entry, {}, nullptr, cfg);
  ASSERT_TRUE(priced.status.ok()) << priced.status;
  EXPECT_EQ(priced.cycles - cheap.cycles, 17u * 100u);
}

// ------------------------------------------- inline fast path vs. Status
// A legal access within one page runs inline; everything else takes
// HostMemory's Status path. These pin the boundary cases to the exact
// faults that path reports.

/// @p message decorated the way Execute reports a fault.
std::string AtPc(const std::string& message, mem::VirtAddr pc,
                 std::uint64_t instructions) {
  return StrFormat("%s (pc=0x%llx, #%llu)", message.c_str(),
                   static_cast<unsigned long long>(pc),
                   static_cast<unsigned long long>(instructions));
}

std::string Hex(mem::VirtAddr addr) {
  return StrFormat("0x%llx", static_cast<unsigned long long>(addr));
}

TEST_F(InterpreterTest, PageStraddlingAccessesMatchTheStatusPath) {
  const auto buf = mem_.Allocate(2 * mem::kPageSize, mem::kPageSize,
                                 mem::Perm::kRW, "buf");
  ASSERT_TRUE(buf.ok());
  const mem::VirtAddr straddle = *buf + mem::kPageSize - 4;
  const mem::VirtAddr second = *buf + mem::kPageSize;
  const auto store = LoadRaw("f: std a1, [a0]\n ret");
  const auto load = LoadRaw("f: ldd a0, [a0]\n ret");
  constexpr std::uint64_t kValue = 0x1122334455667788ull;

  // Both pages legal: the straddling access is served, not faulted.
  ASSERT_TRUE(Run(store, {straddle, kValue}).status.ok());
  const auto loaded = Run(load, {straddle});
  ASSERT_TRUE(loaded.status.ok()) << loaded.status;
  EXPECT_EQ(loaded.return_value, kValue);

  // Second page read-only: the store faults and writes neither page.
  ASSERT_TRUE(mem_.Protect(second, mem::kPageSize, mem::Perm::kRead).ok());
  const auto denied_store = Run(store, {straddle, 0});
  EXPECT_EQ(denied_store.status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(denied_store.status.message(),
            AtPc("page " + Hex(second) + " is r--, need -w-", store, 1));
  EXPECT_EQ(Run(load, {straddle}).return_value, kValue);

  // Second page inaccessible: the load faults the same way.
  ASSERT_TRUE(mem_.Protect(second, mem::kPageSize, mem::Perm::kNone).ok());
  const auto denied_load = Run(load, {straddle});
  EXPECT_EQ(denied_load.status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(denied_load.status.message(),
            AtPc("page " + Hex(second) + " is ---, need r--", load, 1));
}

TEST_F(InterpreterTest, LastArenaBytesReachableAndOnePastIsOutOfRange) {
  const mem::VirtAddr end = mem_.base() + mem_.size();
  ASSERT_TRUE(
      mem_.Protect(end - mem::kPageSize, mem::kPageSize, mem::Perm::kRW).ok());
  const auto store = LoadRaw("f: std a1, [a0]\n ret");
  const auto load = LoadRaw("f: ldd a0, [a0]\n ret");
  const auto load_byte = LoadRaw("f: ldbu a0, [a0]\n ret");

  const auto untouched = Run(load, {end - 8});
  ASSERT_TRUE(untouched.status.ok()) << untouched.status;
  EXPECT_EQ(untouched.return_value, 0u);  // the arena starts zeroed
  ASSERT_TRUE(Run(store, {end - 8, 0xA5A5A5A5A5A5A5A5ull}).status.ok());
  EXPECT_EQ(Run(load, {end - 8}).return_value, 0xA5A5A5A5A5A5A5A5ull);
  EXPECT_EQ(Run(load_byte, {end - 1}).return_value, 0xA5u);

  const auto past_load = Run(load, {end - 7});
  EXPECT_EQ(past_load.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(past_load.status.message(),
            AtPc("access [" + Hex(end - 7) + ",+8) outside host 0 arena",
                 load, 1));
  const auto past_store = Run(store, {end - 7, 0});
  EXPECT_EQ(past_store.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(past_store.status.message(),
            AtPc("access [" + Hex(end - 7) + ",+8) outside host 0 arena",
                 store, 1));
  const auto past_byte = Run(load_byte, {end});
  EXPECT_EQ(past_byte.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(past_byte.status.message(),
            AtPc("access [" + Hex(end) + ",+1) outside host 0 arena",
                 load_byte, 1));
}

TEST_F(InterpreterTest, FetchRunningOffTheArenaEndFails) {
  // A nop in the arena's last 8 bytes: the next fetch lies past the end.
  const mem::VirtAddr end = mem_.base() + mem_.size();
  ASSERT_TRUE(
      mem_.Protect(end - mem::kPageSize, mem::kPageSize, mem::Perm::kRWX).ok());
  const auto nop = Assemble("f: nop");
  ASSERT_TRUE(nop.ok()) << nop.status();
  ASSERT_TRUE(mem_.DmaWrite(end - kInstrBytes, nop->text).ok());

  // With W^X enforcement the exec-permission check reports it...
  const auto checked = Run(end - kInstrBytes, {});
  EXPECT_EQ(checked.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(checked.status.message(),
            AtPc("access [" + Hex(end) + ",+8) outside host 0 arena", end, 1));
  // ...and without it, the fetch itself does.
  ExecConfig cfg;
  cfg.enforce_exec_permission = false;
  const auto unchecked = Run(end - kInstrBytes, {}, nullptr, cfg);
  EXPECT_EQ(unchecked.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(unchecked.status.message(),
            AtPc("raw span outside arena", end, 1));
}

TEST_F(InterpreterTest, PatchedCodeSlotRunsTheNewInstruction) {
  // Simulated mailboxes are RWX, so jam code may store over its own text.
  // The slot runs once as assembled (movi a1, 7), the jam stores the
  // encoding of movi a1, 42 over it, and the slot runs again: the
  // interpreter must decode the bytes now in memory, so it never keeps a
  // decoded copy that such a store would leave stale.
  std::uint8_t encoded[kInstrBytes] = {};
  Encode(Instr{Opcode::kMovi, kA0 + 1, 0, 0, 42}, encoded);
  std::uint64_t word = 0;
  std::memcpy(&word, encoded, sizeof(word));
  const auto entry = LoadRaw(StrFormat(R"(
    f:
      lea t0, slot
      li t1, 0x%llx
      mov a0, zr
      movi t2, 2
    slot:
      movi a1, 7
      add a0, a0, a1
      std t1, [t0]
      addi t2, t2, -1
      bne t2, zr, slot
      ret
  )", static_cast<unsigned long long>(word)));
  const auto r = Run(entry, {});
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.return_value, 7u + 42u);
}

TEST_F(InterpreterTest, StraddlingFetchChecksBothPages) {
  // Under W^X an instruction whose last four bytes lie on a writable page
  // must not run, whether the jump to it comes from its own page, whose X
  // check already passed, or from another page.
  const auto pages = mem_.Allocate(2 * mem::kPageSize, mem::kPageSize,
                                   mem::Perm::kRX, "pages");
  ASSERT_TRUE(pages.ok());
  const mem::VirtAddr writable = *pages + mem::kPageSize;
  ASSERT_TRUE(mem_.Protect(writable, mem::kPageSize, mem::Perm::kRW).ok());
  // A ret whose opcode and registers end the RX page; its immediate is the
  // RW page's first four (zero) bytes.
  const mem::VirtAddr straddle = writable - 4;
  std::uint8_t ret[kInstrBytes];
  Encode(Instr{Opcode::kJalr, kZr, kLr, 0, 0}, ret);
  ASSERT_TRUE(
      mem_.DmaWrite(straddle, std::span<const std::uint8_t>(ret, 4)).ok());
  std::uint8_t jump[kInstrBytes];
  Encode(Instr{Opcode::kJalr, kZr, kA0, 0, 0}, jump);
  ASSERT_TRUE(mem_.DmaWrite(*pages, jump).ok());
  const auto other = LoadRaw("f: jalr zr, a0, 0", mem::Perm::kRX);

  for (const mem::VirtAddr entry : {*pages, other}) {
    const auto r = Run(entry, {straddle});
    EXPECT_EQ(r.status.code(), StatusCode::kPermissionDenied);
    EXPECT_EQ(r.status.message(),
              AtPc("page " + Hex(writable) + " is rw-, need --x", straddle,
                   1));
  }
}

// tc_memcpy(a0 = dst, a1 = src, a2 = n) through the handle in a3.
constexpr const char* kCallA3 = R"(
    f:
      mov t6, lr
      jalr lr, a3, 0
      jalr zr, t6, 0
  )";

TEST_F(InterpreterTest, CopyLengthIsCheckedBeforeTheCacheCharge) {
  // n comes from the jam. Charging the cache line by line for an n past
  // the arena would hold the host for as long as the walk takes.
  NativeTable natives;
  ASSERT_TRUE(RegisterStandardNatives(natives, {}).ok());
  const auto memcpy_idx = natives.IndexOf("tc_memcpy");
  ASSERT_TRUE(memcpy_idx.ok());
  const auto buf = mem_.Allocate(256, 64, mem::Perm::kRW, "buf");
  ASSERT_TRUE(buf.ok());
  const auto entry = LoadRaw(kCallA3);
  const auto r = Run(entry, {*buf, *buf + 64, 1ull << 28,
                             MakeNativeHandle(*memcpy_idx)},
                     &natives);
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.status.message(),
            AtPc("raw span outside arena", entry + kInstrBytes, 2));
  EXPECT_LT(r.cycles, 10'000u);
}

TEST_F(InterpreterTest, OverlappingCopyMoves) {
  NativeTable natives;
  ASSERT_TRUE(RegisterStandardNatives(natives, {}).ok());
  const auto memcpy_idx = natives.IndexOf("tc_memcpy");
  ASSERT_TRUE(memcpy_idx.ok());
  const auto buf = mem_.Allocate(64, 64, mem::Perm::kRW, "buf");
  ASSERT_TRUE(buf.ok());
  std::vector<std::uint8_t> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(mem_.DmaWrite(*buf, bytes).ok());
  const auto r = Run(LoadRaw(kCallA3),
                     {*buf + 8, *buf, 32, MakeNativeHandle(*memcpy_idx)},
                     &natives);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.return_value, *buf + 8);
  std::vector<std::uint8_t> want = bytes;
  std::memmove(want.data() + 8, bytes.data(), 32);
  auto got = mem_.RawSpan(*buf, 64);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::vector<std::uint8_t>(got->begin(), got->end()), want);
}

TEST_F(InterpreterTest, EveryFaultReportsItsRecordedState) {
  // One row per fault site in Execute. Each pins the code, the full
  // message, the retired count, the cycles and a0, recorded on cold
  // caches; the cycles sum the ifetch, load and native charges with the
  // base cost per instruction and, under exec windows, per transfer.
  struct Row {
    std::string name;
    mem::VirtAddr entry;
    std::vector<std::uint64_t> args;
    ExecConfig config;
    const NativeTable* natives;
    StatusCode code;
    std::string message;
    std::uint64_t instructions;
    Cycles cycles;
    std::uint64_t return_value;
  };
  std::vector<Row> rows;

  NativeTable standard;
  ASSERT_TRUE(RegisterStandardNatives(standard, {}).ok());
  const std::uint64_t hash = MakeNativeHandle(*standard.IndexOf("tc_hash64"));
  NativeTable failing;
  ASSERT_TRUE(failing
                  .Register("fail",
                            [](NativeFrame& f) -> Status {
                              f.ChargeCycles(40);
                              f.SetResult(77);
                              return Internal("native failed");
                            })
                  .ok());
  const auto page = [&](mem::Perm perm) {
    auto addr = mem_.Allocate(mem::kPageSize, mem::kPageSize, perm, "page");
    EXPECT_TRUE(addr.ok());
    return *addr;
  };
  const mem::VirtAddr rw = page(mem::Perm::kRW);
  const mem::VirtAddr ro = page(mem::Perm::kRead);
  const mem::VirtAddr none = page(mem::Perm::kNone);
  // Raw words at an RWX allocation, for encodings the assembler refuses.
  const auto load_words = [&](const std::vector<std::uint64_t>& words) {
    auto addr = mem_.Allocate(words.size() * kInstrBytes, 64,
                              mem::Perm::kRWX, "words");
    EXPECT_TRUE(addr.ok());
    for (std::size_t i = 0; i < words.size(); ++i) {
      EXPECT_TRUE(mem_.StoreU64(*addr + i * kInstrBytes, words[i]).ok());
    }
    return *addr;
  };
  const auto word = [](Instr in) {
    std::uint8_t buf[kInstrBytes];
    Encode(in, buf);
    std::uint64_t w = 0;
    std::memcpy(&w, buf, sizeof(w));
    return w;
  };
  const std::uint64_t ret = word(Instr{Opcode::kJalr, kZr, kLr, 0, 0});

  {  // A tail call returns through lr, which holds a native handle.
    const auto e = LoadRaw("f: mov lr, a1\n jalr zr, a0, 0");
    rows.push_back({"native handle as pc", e, {hash, hash}, {}, &standard,
                    StatusCode::kPermissionDenied,
                    AtPc("jumped into a native handle", hash, 2), 2, 237,
                    1380322360509708497ull});
  }
  {
    const auto e = LoadRaw("f: jmp f");
    ExecConfig cfg;
    cfg.max_instructions = 5;
    cfg.exec_windows = {{e, kInstrBytes}};
    cfg.confine_branch_cycles = 100;
    rows.push_back({"instruction budget", e, {11}, cfg, nullptr,
                    StatusCode::kResourceExhausted,
                    AtPc("instruction budget exceeded", e, 5), 5, 734, 11});
  }
  {
    const auto e = LoadRaw("f: jalr lr, a1, 0");
    ExecConfig cfg;
    cfg.exec_windows = {{e, kInstrBytes}};
    cfg.confine_branch_cycles = 100;
    rows.push_back({"exec window escape", e, {3, rw}, cfg, nullptr,
                    StatusCode::kPermissionDenied,
                    AtPc("instruction fetch escapes the confined image", rw,
                         1),
                    1, 330, 3});
  }
  {
    const auto e = LoadRaw("f: jalr lr, a1, 0", mem::Perm::kRX);
    rows.push_back({"X denial", e, {3, rw}, {}, nullptr,
                    StatusCode::kPermissionDenied,
                    AtPc("page " + Hex(rw) + " is rw-, need --x", rw, 1), 1,
                    230, 3});
  }
  {  // A nop in the arena's last 8 bytes: the next fetch lies past the end.
    const mem::VirtAddr end = mem_.base() + mem_.size();
    EXPECT_TRUE(mem_.Protect(end - mem::kPageSize, mem::kPageSize,
                             mem::Perm::kRWX)
                    .ok());
    const auto nop = Assemble("f: nop");
    ASSERT_TRUE(nop.ok()) << nop.status();
    ASSERT_TRUE(mem_.DmaWrite(end - kInstrBytes, nop->text).ok());
    rows.push_back({"fetch off the arena, checked", end - kInstrBytes, {3},
                    {}, nullptr, StatusCode::kOutOfRange,
                    AtPc("access [" + Hex(end) + ",+8) outside host 0 arena",
                         end, 1),
                    1, 230, 3});
    ExecConfig unchecked;
    unchecked.enforce_exec_permission = false;
    rows.push_back({"fetch off the arena, unchecked", end - kInstrBytes, {3},
                    unchecked, nullptr, StatusCode::kOutOfRange,
                    AtPc("raw span outside arena", end, 1), 1, 244, 3});
  }
  {
    const auto e = load_words(
        {word(Instr{Opcode::kAddi, kA0, kA0, 0, 1}), 0xFFull});
    rows.push_back({"undecodable word", e, {3}, {}, nullptr,
                    StatusCode::kDataLoss,
                    AtPc("undecodable instruction", e + kInstrBytes, 1), 1,
                    230, 4});
  }
  for (const char* op : {"div", "divu", "rem", "remu"}) {
    const auto e =
        LoadRaw(StrFormat("f: addi a0, a0, 1\n %s a0, a0, zr\n ret", op));
    rows.push_back({op, e, {3}, {}, nullptr, StatusCode::kInvalidArgument,
                    AtPc("division by zero", e + kInstrBytes, 2), 2, 231,
                    4});
  }
  {
    const auto e = LoadRaw("f: ldd a0, [a1]\n ret");
    rows.push_back({"load", e, {3, none}, {}, nullptr,
                    StatusCode::kPermissionDenied,
                    AtPc("page " + Hex(none) + " is ---, need r--", e, 1), 1,
                    459, 3});
  }
  {
    const auto e = LoadRaw("f: std a0, [a1]\n ret");
    rows.push_back({"store", e, {3, ro}, {}, nullptr,
                    StatusCode::kPermissionDenied,
                    AtPc("page " + Hex(ro) + " is r--, need -w-", e, 1), 1,
                    459, 3});
  }
  {
    const auto e = load_words({0, ret});
    ASSERT_TRUE(mem_.StoreU64(e, word(Instr{
                                     Opcode::kLdgFix, kA0, 0, 0,
                                     static_cast<std::int32_t>(none - e)}))
                    .ok());
    rows.push_back({"ldg.fix", e, {3}, {}, nullptr,
                    StatusCode::kPermissionDenied,
                    AtPc("page " + Hex(none) + " is ---, need r--", e, 1), 1,
                    459, 3});
  }
  {  // The GOT pointer's preamble slot is unreadable.
    const auto e = load_words({0, ret});
    ASSERT_TRUE(mem_.StoreU64(e, word(Instr{
                                     Opcode::kLdgPre, kA0, 0, 1,
                                     static_cast<std::int32_t>(none - e)}))
                    .ok());
    rows.push_back({"ldg.pre preamble", e, {3}, {}, nullptr,
                    StatusCode::kPermissionDenied,
                    AtPc("page " + Hex(none) + " is ---, need r--", e, 1), 1,
                    459, 3});
  }
  {  // The preamble points the table at an unreadable page.
    ASSERT_TRUE(mem_.StoreU64(rw, none).ok());
    const auto e = load_words({0, ret});
    ASSERT_TRUE(mem_.StoreU64(e, word(Instr{
                                     Opcode::kLdgPre, kA0, 0, 1,
                                     static_cast<std::int32_t>(rw - e)}))
                    .ok());
    rows.push_back({"ldg.pre slot", e, {3}, {}, nullptr,
                    StatusCode::kPermissionDenied,
                    AtPc("page " + Hex(none) + " is ---, need r--", e, 1), 1,
                    688, 3});
  }
  {
    const auto e = LoadRaw("f: jalr lr, a0, 0\n ret");
    rows.push_back({"missing native table", e, {MakeNativeHandle(0)}, {},
                    nullptr, StatusCode::kFailedPrecondition,
                    AtPc("no native table bound", e, 1), 1, 230,
                    MakeNativeHandle(0)});
    rows.push_back({"unknown native index", e, {MakeNativeHandle(999)}, {},
                    &standard, StatusCode::kNotFound,
                    AtPc("native index 999", e, 1), 1, 230,
                    MakeNativeHandle(999)});
    rows.push_back({"failing native", e, {MakeNativeHandle(0)}, {}, &failing,
                    StatusCode::kInternal, AtPc("native failed", e, 1), 1, 270,
                    77});
  }

  const mem::VirtAddr stack = MakeStack();
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    cache::CacheHierarchy caches(CacheConfig());
    Interpreter interp(mem_, caches, 0, row.natives, row.config);
    const ExecResult r = interp.Execute(row.entry, row.args, stack);
    EXPECT_EQ(r.status.code(), row.code);
    EXPECT_EQ(r.status.message(), row.message);
    EXPECT_EQ(r.instructions, row.instructions);
    EXPECT_EQ(r.cycles, row.cycles);
    EXPECT_EQ(r.return_value, row.return_value);
  }
}

}  // namespace
}  // namespace twochains::vm
