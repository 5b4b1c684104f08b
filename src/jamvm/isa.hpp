// The jam virtual ISA.
//
// Jams are the mobile code segments of Two-Chains. On the paper's testbed
// they are native AArch64 functions compiled -fPIC -fno-plt and statically
// rewritten with Binutils; here they are functions in a small, fixed-width,
// position-independent register ISA executed by an interpreter whose every
// instruction fetch and memory access is charged to the host's cache model.
// The properties the experiments depend on are preserved exactly:
//
//   * fixed 8-byte encodings -> code footprint in bytes (and therefore in
//     cache lines fetched on the receiver) is well defined;
//   * all control flow and local data addressing is PC-relative -> code is
//     position independent and can execute from any mailbox address;
//   * every external reference goes through a GOT access instruction with
//     two addressing modes, mirroring the paper's §III-B binary rewrite:
//       - LDGFIX rd, imm       rd = M[pc + imm]
//         "fixed" mode: the GOT lives at a link-time-fixed PC-relative spot
//         inside the library image (classic -fPIC -fno-plt addressing);
//       - LDGPRE rd, idx, imm  rd = M[M[pc + imm] + 8*idx]
//         "preamble" mode: the instruction loads a GOT *pointer* from a
//         PC-relative preamble slot, then indexes it. The rewriter converts
//         fixed-mode accesses into preamble-mode so injected code can link
//         against a patched GOT travelling in (or installed next to) the
//         message, wherever the frame happens to land.
//
// Register convention (64-bit, 32 registers):
//   r0        zr   hardwired zero (writes discarded)
//   r1..r8    a0-a7 arguments / a0 is the return value
//   r9..r15   t0-t6 caller-saved temporaries
//   r16..r23  s0-s7 callee-saved
//   r24..r28  (reserved)
//   r29       fp   frame pointer (conventional)
//   r30       lr   link register
//   r31       sp   stack pointer
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace twochains::vm {

inline constexpr std::size_t kInstrBytes = 8;
inline constexpr unsigned kNumRegs = 32;

// Conventional register numbers.
inline constexpr std::uint8_t kZr = 0;
inline constexpr std::uint8_t kA0 = 1;  // ... a7 = 8
inline constexpr std::uint8_t kT0 = 9;  // ... t6 = 15
inline constexpr std::uint8_t kS0 = 16; // ... s7 = 23
inline constexpr std::uint8_t kFp = 29;
inline constexpr std::uint8_t kLr = 30;
inline constexpr std::uint8_t kSp = 31;

enum class Opcode : std::uint8_t {
  kHalt = 0,
  kNop,
  // Register ALU: rd = rs1 OP rs2 (64-bit).
  kAdd, kSub, kMul, kDiv, kDivu, kRem, kRemu,
  kAnd, kOr, kXor, kSll, kSrl, kSra,
  kSlt, kSltu, kSeq, kSne,
  // Immediate ALU: rd = rs1 OP signext(imm).
  kAddi, kMuli, kAndi, kOri, kXori, kSlli, kSrli, kSrai,
  kSlti, kSltiu, kSeqi, kSnei,
  // Constants: kMovi rd = signext(imm); kMovhi rd = (rd & 0xFFFFFFFF) |
  // (zeroext(imm) << 32).
  kMovi, kMovhi,
  // Loads: rd = M[rs1 + imm] (B/H/W signed, BU/HU/WU zero-extended, D=64).
  kLdb, kLdbu, kLdh, kLdhu, kLdw, kLdwu, kLdd,
  // Stores: M[rs1 + imm] = rs2 (low B/H/W bits, D=64).
  kStb, kSth, kStw, kStd,
  // Branches: if (rs1 CMP rs2) pc += imm (byte offset from this instr).
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  // kJal: rd = pc + 8; pc += imm.   kJalr: rd = pc + 8; pc = rs1 + imm.
  kJal, kJalr,
  // kLea: rd = pc + imm (position-independent address formation).
  kLea,
  // GOT access, the Two-Chains remote-linking hinge (see file header).
  kLdgFix, kLdgPre,
  kOpcodeCount,
};

/// Decoded instruction. Encoded form is [op:u8][rd:u8][rs1:u8][rs2:u8]
/// [imm:i32 little-endian].
struct Instr {
  Opcode op = Opcode::kHalt;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;

  friend bool operator==(const Instr&, const Instr&) = default;
};

/// Encodes into 8 bytes at @p out (caller guarantees space).
void Encode(const Instr& instr, std::uint8_t* out) noexcept;

/// An instruction's 8 bytes as one word: the opcode in bits 0-7, rd, rs1
/// and rs2 in bits 8-31, the immediate in bits 32-63.
inline std::uint64_t LoadWord(const std::uint8_t* in) noexcept {
  static_assert(std::endian::native == std::endian::little,
                "the word layout assumes a little-endian host");
  std::uint64_t word = 0;
  std::memcpy(&word, in, sizeof(word));
  return word;
}

/// The one validity rule of every decoder: the opcode byte names an opcode
/// and every register byte is below 32 (none of its top three bits set).
constexpr bool IsValidWord(std::uint64_t word) noexcept {
  static_assert(kNumRegs == 32);
  return (word & 0xFF) < static_cast<std::uint64_t>(Opcode::kOpcodeCount) &&
         (word & 0xE0E0E000ull) == 0;
}

/// The fields of a word IsValidWord accepts.
constexpr Instr DecodeWord(std::uint64_t word) noexcept {
  return Instr{static_cast<Opcode>(word & 0xFF),
               static_cast<std::uint8_t>(word >> 8),
               static_cast<std::uint8_t>(word >> 16),
               static_cast<std::uint8_t>(word >> 24),
               static_cast<std::int32_t>(word >> 32)};
}

/// Decodes 8 bytes. Returns nullopt on an invalid opcode byte or register.
inline std::optional<Instr> Decode(const std::uint8_t* in) noexcept {
  const std::uint64_t word = LoadWord(in);
  if (!IsValidWord(word)) return std::nullopt;
  return DecodeWord(word);
}

/// Mnemonic for an opcode ("add", "ldg.fix", ...).
std::string_view OpcodeName(Opcode op) noexcept;

/// Parses a mnemonic; nullopt if unknown.
std::optional<Opcode> OpcodeFromName(std::string_view name) noexcept;

/// Canonical register name ("zr", "a0", "t3", "sp", ...).
std::string RegName(std::uint8_t reg);

/// Parses a register name or alias ("r7", "a2", "sp"); nullopt if invalid.
std::optional<std::uint8_t> RegFromName(std::string_view name) noexcept;

/// Instruction classification helpers; the verifier uses IsBranch to find
/// branch targets. The opcode enum keeps each class contiguous.

/// Conditional branches.
constexpr bool IsBranch(Opcode op) noexcept {
  return op >= Opcode::kBeq && op <= Opcode::kBgeu;
}
constexpr bool IsLoad(Opcode op) noexcept {
  return op >= Opcode::kLdb && op <= Opcode::kLdd;
}
constexpr bool IsStore(Opcode op) noexcept {
  return op >= Opcode::kStb && op <= Opcode::kStd;
}
/// Loads + stores.
constexpr bool IsMemAccess(Opcode op) noexcept {
  return IsLoad(op) || IsStore(op);
}

}  // namespace twochains::vm
