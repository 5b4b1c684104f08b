#include "jamvm/isa.hpp"

#include <array>
#include <cstring>

#include "common/strfmt.hpp"

namespace twochains::vm {
namespace {

struct OpInfo {
  Opcode op;
  std::string_view name;
};

constexpr std::array<OpInfo, static_cast<std::size_t>(Opcode::kOpcodeCount)>
    kOpTable = {{
        {Opcode::kHalt, "halt"},
        {Opcode::kNop, "nop"},
        {Opcode::kAdd, "add"},
        {Opcode::kSub, "sub"},
        {Opcode::kMul, "mul"},
        {Opcode::kDiv, "div"},
        {Opcode::kDivu, "divu"},
        {Opcode::kRem, "rem"},
        {Opcode::kRemu, "remu"},
        {Opcode::kAnd, "and"},
        {Opcode::kOr, "or"},
        {Opcode::kXor, "xor"},
        {Opcode::kSll, "sll"},
        {Opcode::kSrl, "srl"},
        {Opcode::kSra, "sra"},
        {Opcode::kSlt, "slt"},
        {Opcode::kSltu, "sltu"},
        {Opcode::kSeq, "seq"},
        {Opcode::kSne, "sne"},
        {Opcode::kAddi, "addi"},
        {Opcode::kMuli, "muli"},
        {Opcode::kAndi, "andi"},
        {Opcode::kOri, "ori"},
        {Opcode::kXori, "xori"},
        {Opcode::kSlli, "slli"},
        {Opcode::kSrli, "srli"},
        {Opcode::kSrai, "srai"},
        {Opcode::kSlti, "slti"},
        {Opcode::kSltiu, "sltiu"},
        {Opcode::kSeqi, "seqi"},
        {Opcode::kSnei, "snei"},
        {Opcode::kMovi, "movi"},
        {Opcode::kMovhi, "movhi"},
        {Opcode::kLdb, "ldb"},
        {Opcode::kLdbu, "ldbu"},
        {Opcode::kLdh, "ldh"},
        {Opcode::kLdhu, "ldhu"},
        {Opcode::kLdw, "ldw"},
        {Opcode::kLdwu, "ldwu"},
        {Opcode::kLdd, "ldd"},
        {Opcode::kStb, "stb"},
        {Opcode::kSth, "sth"},
        {Opcode::kStw, "stw"},
        {Opcode::kStd, "std"},
        {Opcode::kBeq, "beq"},
        {Opcode::kBne, "bne"},
        {Opcode::kBlt, "blt"},
        {Opcode::kBge, "bge"},
        {Opcode::kBltu, "bltu"},
        {Opcode::kBgeu, "bgeu"},
        {Opcode::kJal, "jal"},
        {Opcode::kJalr, "jalr"},
        {Opcode::kLea, "lea"},
        {Opcode::kLdgFix, "ldg.fix"},
        {Opcode::kLdgPre, "ldg.pre"},
    }};

}  // namespace

void Encode(const Instr& instr, std::uint8_t* out) noexcept {
  out[0] = static_cast<std::uint8_t>(instr.op);
  out[1] = instr.rd;
  out[2] = instr.rs1;
  out[3] = instr.rs2;
  std::memcpy(out + 4, &instr.imm, sizeof(instr.imm));
}

std::string_view OpcodeName(Opcode op) noexcept {
  const auto idx = static_cast<std::size_t>(op);
  if (idx >= kOpTable.size()) return "<bad>";
  return kOpTable[idx].name;
}

std::optional<Opcode> OpcodeFromName(std::string_view name) noexcept {
  for (const auto& info : kOpTable) {
    if (info.name == name) return info.op;
  }
  return std::nullopt;
}

std::string RegName(std::uint8_t reg) {
  if (reg == kZr) return "zr";
  if (reg >= kA0 && reg <= 8) return StrFormat("a%d", reg - kA0);
  if (reg >= kT0 && reg <= 15) return StrFormat("t%d", reg - kT0);
  if (reg >= kS0 && reg <= 23) return StrFormat("s%d", reg - kS0);
  if (reg == kFp) return "fp";
  if (reg == kLr) return "lr";
  if (reg == kSp) return "sp";
  return StrFormat("r%d", reg);
}

std::optional<std::uint8_t> RegFromName(std::string_view name) noexcept {
  if (name == "zr") return kZr;
  if (name == "fp") return kFp;
  if (name == "lr") return kLr;
  if (name == "sp") return kSp;
  if (name.size() >= 2) {
    const char kind = name[0];
    unsigned n = 0;
    bool numeric = true;
    for (std::size_t i = 1; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      n = n * 10 + static_cast<unsigned>(name[i] - '0');
    }
    if (numeric) {
      switch (kind) {
        case 'a': return n <= 7 ? std::optional<std::uint8_t>(kA0 + n)
                                : std::nullopt;
        case 't': return n <= 6 ? std::optional<std::uint8_t>(kT0 + n)
                                : std::nullopt;
        case 's': return n <= 7 ? std::optional<std::uint8_t>(kS0 + n)
                                : std::nullopt;
        case 'r': return n < kNumRegs
                             ? std::optional<std::uint8_t>(
                                   static_cast<std::uint8_t>(n))
                             : std::nullopt;
        default: break;
      }
    }
  }
  return std::nullopt;
}

}  // namespace twochains::vm
