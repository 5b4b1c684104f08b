#include "jamvm/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "common/bitops.hpp"
#include "common/strfmt.hpp"
#include "jamvm/isa.hpp"
#include "mem/address.hpp"

namespace twochains::vm {
namespace {

// ----------------------------------------------------------- tokenizing

/// Splits an operand list on commas that are not inside quotes or brackets.
std::vector<std::string> SplitOperands(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  bool quoted = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (quoted) {
      cur += c;
      if (c == '\\' && i + 1 < s.size()) {
        cur += s[++i];
      } else if (c == '"') {
        quoted = false;
      }
      continue;
    }
    if (c == '"') {
      quoted = true;
      cur += c;
    } else if (c == '[') {
      ++depth;
      cur += c;
    } else if (c == ']') {
      --depth;
      cur += c;
    } else if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  for (auto& op : out) {
    while (!op.empty() && std::isspace(static_cast<unsigned char>(op.front())))
      op.erase(op.begin());
    while (!op.empty() && std::isspace(static_cast<unsigned char>(op.back())))
      op.pop_back();
  }
  std::erase_if(out, [](const std::string& o) { return o.empty(); });
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

/// Strips a trailing comment (';' or '#', not inside quotes).
std::string_view StripComment(std::string_view s) {
  bool quoted = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"' && (i == 0 || s[i - 1] != '\\')) quoted = !quoted;
    if (!quoted && (c == ';' || c == '#')) return s.substr(0, i);
  }
  return s;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '$';
}

bool IsIdentifier(std::string_view s) {
  if (s.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  return std::all_of(s.begin(), s.end(), IsIdentChar);
}

std::optional<std::int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  // Character literal.
  if (s.size() >= 3 && s.front() == '\'' && s.back() == '\'') {
    if (s.size() == 3) return static_cast<std::int64_t>(s[1]);
    if (s.size() == 4 && s[1] == '\\') {
      switch (s[2]) {
        case 'n': return '\n';
        case 't': return '\t';
        case '0': return 0;
        case 'r': return '\r';
        case '\\': return '\\';
        case '\'': return '\'';
        default: return std::nullopt;
      }
    }
    return std::nullopt;
  }
  bool negative = false;
  if (s.front() == '-') {
    negative = true;
    s.remove_prefix(1);
  } else if (s.front() == '+') {
    s.remove_prefix(1);
  }
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    for (char c : s.substr(2)) {
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      else return std::nullopt;
      value = value * 16 + static_cast<std::uint64_t>(digit);
    }
  } else {
    for (char c : s) {
      if (c < '0' || c > '9') return std::nullopt;
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
  }
  const auto signedv = static_cast<std::int64_t>(value);
  return negative ? -signedv : signedv;
}

/// Parses "sym", "sym+4", "sym-8" into (symbol, addend).
std::optional<std::pair<std::string, std::int64_t>> ParseSymbolRef(
    std::string_view s) {
  s = Trim(s);
  std::size_t split = s.size();
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i] == '+' || s[i] == '-') {
      split = i;
      break;
    }
  }
  const std::string_view name = Trim(s.substr(0, split));
  if (!IsIdentifier(name)) return std::nullopt;
  std::int64_t addend = 0;
  if (split < s.size()) {
    const auto v = ParseInt(s.substr(split));
    if (!v) return std::nullopt;
    addend = *v;
  }
  return std::make_pair(std::string(name), addend);
}

StatusOr<std::string> ParseStringLiteral(std::string_view s) {
  s = Trim(s);
  if (s.size() < 2 || s.front() != '"' || s.back() != '"') {
    return InvalidArgument("expected string literal");
  }
  std::string out;
  for (std::size_t i = 1; i + 1 < s.size(); ++i) {
    char c = s[i];
    if (c == '\\' && i + 2 < s.size() + 1) {
      ++i;
      switch (s[i]) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case '0': c = '\0'; break;
        case '\\': c = '\\'; break;
        case '"': c = '"'; break;
        default:
          return InvalidArgument(StrFormat("bad escape \\%c", s[i]));
      }
    }
    out += c;
  }
  return out;
}

// ----------------------------------------------------------- assembler

/// A parsed instruction statement, possibly expanded from a pseudo.
struct PendingInstr {
  Instr instr;
  // When non-empty, pass 2 must resolve this symbol for the imm field.
  std::string target_symbol;
  std::int64_t target_addend = 0;
  bool is_got = false;       // @symbol (ldg)
  bool is_pcrel = false;     // branch / jal / lea target
  int line = 0;
};

class Assembler {
 public:
  explicit Assembler(std::string unit) { obj_.source_name = std::move(unit); }

  Status Run(std::string_view source) {
    TC_RETURN_IF_ERROR(Parse(source));
    TC_RETURN_IF_ERROR(Finalize());
    return Status::Ok();
  }

  ObjectCode Take() { return std::move(obj_); }

 private:
  Status Err(int line, const std::string& msg) const {
    return InvalidArgument(
        StrFormat("%s:%d: %s", obj_.source_name.c_str(), line, msg.c_str()));
  }

  /// The current section, to append to. Bytes now follow the pending zero
  /// tail of .data, so it is written out first.
  std::vector<std::uint8_t>& Cur() {
    if (section_ == SectionKind::kData && obj_.data_zero_tail > 0) {
      obj_.data.resize(obj_.DataExtent(), 0);
      obj_.data_zero_tail = 0;
    }
    return obj_.section(section_);
  }

  /// Offset of the next byte in the current section, zero tail included.
  std::uint64_t Here() const {
    return section_ == SectionKind::kData ? obj_.DataExtent()
                                          : obj_.section(section_).size();
  }

  Status Parse(std::string_view source) {
    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= source.size()) {
      const std::size_t eol = source.find('\n', pos);
      std::string_view line = source.substr(
          pos, eol == std::string_view::npos ? source.size() - pos
                                             : eol - pos);
      pos = eol == std::string_view::npos ? source.size() + 1 : eol + 1;
      ++line_no;
      line = Trim(StripComment(line));
      if (line.empty()) continue;

      // Labels: possibly several on one line before a statement.
      while (true) {
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos) break;
        const std::string_view head = Trim(line.substr(0, colon));
        if (!IsIdentifier(head)) break;
        TC_RETURN_IF_ERROR(DefineLabel(std::string(head), line_no));
        line = Trim(line.substr(colon + 1));
      }
      if (line.empty()) continue;

      if (line.front() == '.') {
        // Could be a directive or a .-prefixed local label already consumed.
        TC_RETURN_IF_ERROR(Directive(line, line_no));
      } else {
        TC_RETURN_IF_ERROR(Instruction(line, line_no));
      }
    }
    return Status::Ok();
  }

  Status DefineLabel(std::string name, int line) {
    for (auto& sym : obj_.symbols) {
      if (sym.name == name) {
        if (sym.defined) return Err(line, "duplicate label '" + name + "'");
        sym.defined = true;
        sym.section = section_;
        sym.offset = Here();
        sym.kind = section_ == SectionKind::kText ? SymbolKind::kFunc
                                                  : SymbolKind::kObject;
        return Status::Ok();
      }
    }
    Symbol sym;
    sym.name = std::move(name);
    sym.section = section_;
    sym.offset = Here();
    sym.defined = true;
    sym.global = false;  // upgraded by .global
    sym.kind = section_ == SectionKind::kText ? SymbolKind::kFunc
                                              : SymbolKind::kObject;
    obj_.symbols.push_back(std::move(sym));
    return Status::Ok();
  }

  Symbol& EnsureSymbol(const std::string& name) {
    for (auto& sym : obj_.symbols) {
      if (sym.name == name) return sym;
    }
    Symbol sym;
    sym.name = name;
    sym.defined = false;
    obj_.symbols.push_back(std::move(sym));
    return obj_.symbols.back();
  }

  Status Directive(std::string_view line, int line_no) {
    const std::size_t sp = line.find_first_of(" \t");
    const std::string_view name = line.substr(0, sp);
    const std::string_view rest =
        sp == std::string_view::npos ? std::string_view{} : Trim(line.substr(sp));

    if (name == ".text") { section_ = SectionKind::kText; return Status::Ok(); }
    if (name == ".rodata") { section_ = SectionKind::kRodata; return Status::Ok(); }
    if (name == ".data") { section_ = SectionKind::kData; return Status::Ok(); }

    if (name == ".global" || name == ".globl") {
      if (!IsIdentifier(rest)) return Err(line_no, ".global needs a symbol");
      EnsureSymbol(std::string(rest)).global = true;
      return Status::Ok();
    }
    if (name == ".extern") {
      if (!IsIdentifier(rest)) return Err(line_no, ".extern needs a symbol");
      EnsureSymbol(std::string(rest));
      return Status::Ok();
    }
    if (name == ".align") {
      const auto n = ParseInt(rest);
      if (!n || *n <= 0 || !IsPowerOfTwo(static_cast<std::uint64_t>(*n))) {
        return Err(line_no, ".align needs a power of two");
      }
      const std::uint64_t align = static_cast<std::uint64_t>(*n);
      if (section_ == SectionKind::kText) {
        // Pad code with nops to keep the instruction stream decodable.
        while (obj_.text.size() % align != 0) {
          EmitRaw(Instr{Opcode::kNop, 0, 0, 0, 0});
        }
      } else {
        TC_RETURN_IF_ERROR(PadZeros((align - Here() % align) % align, line_no));
      }
      return Status::Ok();
    }
    if (name == ".byte" || name == ".half" || name == ".word" ||
        name == ".quad") {
      const unsigned width = name == ".byte"   ? 1u
                             : name == ".half" ? 2u
                             : name == ".word" ? 4u
                                               : 8u;
      for (const auto& opnd : SplitOperands(rest)) {
        const auto v = ParseInt(opnd);
        if (v) {
          auto u = static_cast<std::uint64_t>(*v);
          for (unsigned i = 0; i < width; ++i) {
            Cur().push_back(static_cast<std::uint8_t>(u & 0xFF));
            u >>= 8;
          }
          continue;
        }
        if (width == 8) {
          const auto ref = ParseSymbolRef(opnd);
          if (ref) {
            EnsureSymbol(ref->first);
            obj_.relocs.push_back(Reloc{RelocKind::kAbs64, section_,
                                        Cur().size(), ref->first,
                                        ref->second});
            for (unsigned i = 0; i < 8; ++i) Cur().push_back(0);
            continue;
          }
        }
        return Err(line_no, "bad " + std::string(name) + " operand: " + opnd);
      }
      return Status::Ok();
    }
    if (name == ".asciz" || name == ".ascii") {
      auto s = ParseStringLiteral(rest);
      if (!s.ok()) return Err(line_no, s.status().message());
      for (char c : *s) Cur().push_back(static_cast<std::uint8_t>(c));
      if (name == ".asciz") Cur().push_back(0);
      return Status::Ok();
    }
    if (name == ".space") {
      const auto n = ParseInt(rest);
      if (!n || *n < 0) return Err(line_no, ".space needs a size");
      return PadZeros(static_cast<std::uint64_t>(*n), line_no);
    }
    return Err(line_no, "unknown directive '" + std::string(name) + "'");
  }

  /// Appends @p n zero bytes. In .data they join the zero tail, which is
  /// written out only when a byte follows it. A section past one host's
  /// address range could never load; refusing it also keeps the tail count
  /// and the linker's layout sums from wrapping.
  Status PadZeros(std::uint64_t n, int line_no) {
    if (n > mem::kHostAddressStride - Here()) {
      return Err(line_no, "section would exceed a host's address range");
    }
    if (section_ == SectionKind::kData) {
      obj_.data_zero_tail += n;
    } else {
      Cur().resize(Cur().size() + n, 0);
    }
    return Status::Ok();
  }

  void EmitRaw(const Instr& instr) {
    std::uint8_t buf[kInstrBytes];
    Encode(instr, buf);
    obj_.text.insert(obj_.text.end(), buf, buf + kInstrBytes);
  }

  void Emit(const PendingInstr& pending) {
    PendingWithOffset p;
    static_cast<PendingInstr&>(p) = pending;
    p.instr_offset = obj_.text.size();
    pending_.push_back(std::move(p));
    EmitRaw(pending.instr);
  }

  StatusOr<std::uint8_t> Reg(const std::string& s, int line) const {
    const auto r = RegFromName(s);
    if (!r) return Err(line, "bad register '" + s + "'");
    return *r;
  }

  StatusOr<std::int32_t> Imm32(const std::string& s, int line) const {
    const auto v = ParseInt(s);
    if (!v) return Err(line, "bad immediate '" + s + "'");
    if (*v < INT32_MIN || *v > INT32_MAX) {
      return Err(line, "immediate out of 32-bit range: " + s);
    }
    return static_cast<std::int32_t>(*v);
  }

  /// Parses "[reg]", "[reg+imm]", "[reg-imm]".
  StatusOr<std::pair<std::uint8_t, std::int32_t>> MemOperand(
      const std::string& s, int line) const {
    if (s.size() < 3 || s.front() != '[' || s.back() != ']') {
      return Err(line, "bad memory operand '" + s + "'");
    }
    const std::string inner(Trim(s.substr(1, s.size() - 2)));
    std::size_t split = inner.size();
    for (std::size_t i = 1; i < inner.size(); ++i) {
      if (inner[i] == '+' || inner[i] == '-') {
        split = i;
        break;
      }
    }
    TC_ASSIGN_OR_RETURN(const std::uint8_t base,
                        Reg(std::string(Trim(inner.substr(0, split))), line));
    std::int32_t off = 0;
    if (split < inner.size()) {
      TC_ASSIGN_OR_RETURN(off, Imm32(inner.substr(split), line));
    }
    return std::make_pair(base, off);
  }

  Status Instruction(std::string_view line, int line_no) {
    const std::size_t sp = line.find_first_of(" \t");
    std::string mnemonic(line.substr(0, sp));
    std::transform(mnemonic.begin(), mnemonic.end(), mnemonic.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const std::vector<std::string> ops = SplitOperands(
        sp == std::string_view::npos ? std::string_view{}
                                     : line.substr(sp));

    auto need = [&](std::size_t n) -> Status {
      if (ops.size() != n) {
        return Err(line_no, StrFormat("'%s' expects %zu operands, got %zu",
                                      mnemonic.c_str(), n, ops.size()));
      }
      return Status::Ok();
    };

    // ---- pseudo-instructions -----------------------------------------
    if (mnemonic == "ret") {
      TC_RETURN_IF_ERROR(need(0));
      Emit({Instr{Opcode::kJalr, kZr, kLr, 0, 0}, {}, 0, false, false, line_no});
      return Status::Ok();
    }
    if (mnemonic == "mov") {
      TC_RETURN_IF_ERROR(need(2));
      TC_ASSIGN_OR_RETURN(const auto rd, Reg(ops[0], line_no));
      TC_ASSIGN_OR_RETURN(const auto rs, Reg(ops[1], line_no));
      Emit({Instr{Opcode::kAdd, rd, rs, kZr, 0}, {}, 0, false, false, line_no});
      return Status::Ok();
    }
    if (mnemonic == "li") {
      TC_RETURN_IF_ERROR(need(2));
      TC_ASSIGN_OR_RETURN(const auto rd, Reg(ops[0], line_no));
      const auto v = ParseInt(ops[1]);
      if (!v) return Err(line_no, "bad immediate '" + ops[1] + "'");
      const auto uv = static_cast<std::uint64_t>(*v);
      // Always two slots so pass-1 offsets are deterministic.
      Emit({Instr{Opcode::kMovi, rd, 0, 0,
                  static_cast<std::int32_t>(uv & 0xFFFFFFFF)},
            {}, 0, false, false, line_no});
      Emit({Instr{Opcode::kMovhi, rd, 0, 0,
                  static_cast<std::int32_t>(uv >> 32)},
            {}, 0, false, false, line_no});
      return Status::Ok();
    }
    if (mnemonic == "jmp" || mnemonic == "call") {
      TC_RETURN_IF_ERROR(need(1));
      const std::uint8_t rd = mnemonic == "call" ? kLr : kZr;
      PendingInstr p{Instr{Opcode::kJal, rd, 0, 0, 0}, {}, 0, false, true,
                     line_no};
      const auto imm = ParseInt(ops[0]);
      if (imm) {
        p.instr.imm = static_cast<std::int32_t>(*imm);
        p.is_pcrel = false;
      } else {
        const auto ref = ParseSymbolRef(ops[0]);
        if (!ref) return Err(line_no, "bad target '" + ops[0] + "'");
        p.target_symbol = ref->first;
        p.target_addend = ref->second;
      }
      Emit(p);
      return Status::Ok();
    }
    if (mnemonic == "not") {
      TC_RETURN_IF_ERROR(need(2));
      TC_ASSIGN_OR_RETURN(const auto rd, Reg(ops[0], line_no));
      TC_ASSIGN_OR_RETURN(const auto rs, Reg(ops[1], line_no));
      Emit({Instr{Opcode::kXori, rd, rs, 0, -1}, {}, 0, false, false, line_no});
      return Status::Ok();
    }
    if (mnemonic == "neg") {
      TC_RETURN_IF_ERROR(need(2));
      TC_ASSIGN_OR_RETURN(const auto rd, Reg(ops[0], line_no));
      TC_ASSIGN_OR_RETURN(const auto rs, Reg(ops[1], line_no));
      Emit({Instr{Opcode::kSub, rd, kZr, rs, 0}, {}, 0, false, false, line_no});
      return Status::Ok();
    }
    if (mnemonic == "seqz" || mnemonic == "snez") {
      TC_RETURN_IF_ERROR(need(2));
      TC_ASSIGN_OR_RETURN(const auto rd, Reg(ops[0], line_no));
      TC_ASSIGN_OR_RETURN(const auto rs, Reg(ops[1], line_no));
      const Opcode op = mnemonic == "seqz" ? Opcode::kSeq : Opcode::kSne;
      Emit({Instr{op, rd, rs, kZr, 0}, {}, 0, false, false, line_no});
      return Status::Ok();
    }
    if (mnemonic == "ldg") {
      TC_RETURN_IF_ERROR(need(2));
      TC_ASSIGN_OR_RETURN(const auto rd, Reg(ops[0], line_no));
      if (ops[1].empty() || ops[1][0] != '@') {
        return Err(line_no, "ldg needs '@symbol'");
      }
      const std::string sym = ops[1].substr(1);
      if (!IsIdentifier(sym)) return Err(line_no, "bad GOT symbol");
      EnsureSymbol(sym);
      PendingInstr p{Instr{Opcode::kLdgFix, rd, 0, 0, 0}, sym, 0, true, false,
                     line_no};
      Emit(p);
      return Status::Ok();
    }

    // ---- real opcodes -------------------------------------------------
    const auto op = OpcodeFromName(mnemonic);
    if (!op) return Err(line_no, "unknown mnemonic '" + mnemonic + "'");

    PendingInstr p{Instr{*op, 0, 0, 0, 0}, {}, 0, false, false, line_no};
    switch (*op) {
      case Opcode::kHalt:
      case Opcode::kNop:
        TC_RETURN_IF_ERROR(need(0));
        break;
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
      case Opcode::kDiv: case Opcode::kDivu: case Opcode::kRem:
      case Opcode::kRemu: case Opcode::kAnd: case Opcode::kOr:
      case Opcode::kXor: case Opcode::kSll: case Opcode::kSrl:
      case Opcode::kSra: case Opcode::kSlt: case Opcode::kSltu:
      case Opcode::kSeq: case Opcode::kSne: {
        TC_RETURN_IF_ERROR(need(3));
        TC_ASSIGN_OR_RETURN(p.instr.rd, Reg(ops[0], line_no));
        TC_ASSIGN_OR_RETURN(p.instr.rs1, Reg(ops[1], line_no));
        TC_ASSIGN_OR_RETURN(p.instr.rs2, Reg(ops[2], line_no));
        break;
      }
      case Opcode::kAddi: case Opcode::kMuli: case Opcode::kAndi:
      case Opcode::kOri: case Opcode::kXori: case Opcode::kSlli:
      case Opcode::kSrli: case Opcode::kSrai: case Opcode::kSlti:
      case Opcode::kSltiu: case Opcode::kSeqi: case Opcode::kSnei: {
        TC_RETURN_IF_ERROR(need(3));
        TC_ASSIGN_OR_RETURN(p.instr.rd, Reg(ops[0], line_no));
        TC_ASSIGN_OR_RETURN(p.instr.rs1, Reg(ops[1], line_no));
        TC_ASSIGN_OR_RETURN(p.instr.imm, Imm32(ops[2], line_no));
        break;
      }
      case Opcode::kMovi: case Opcode::kMovhi: {
        TC_RETURN_IF_ERROR(need(2));
        TC_ASSIGN_OR_RETURN(p.instr.rd, Reg(ops[0], line_no));
        TC_ASSIGN_OR_RETURN(p.instr.imm, Imm32(ops[1], line_no));
        break;
      }
      case Opcode::kLdb: case Opcode::kLdbu: case Opcode::kLdh:
      case Opcode::kLdhu: case Opcode::kLdw: case Opcode::kLdwu:
      case Opcode::kLdd: {
        TC_RETURN_IF_ERROR(need(2));
        TC_ASSIGN_OR_RETURN(p.instr.rd, Reg(ops[0], line_no));
        TC_ASSIGN_OR_RETURN(const auto memop, MemOperand(ops[1], line_no));
        p.instr.rs1 = memop.first;
        p.instr.imm = memop.second;
        break;
      }
      case Opcode::kStb: case Opcode::kSth: case Opcode::kStw:
      case Opcode::kStd: {
        TC_RETURN_IF_ERROR(need(2));
        TC_ASSIGN_OR_RETURN(p.instr.rs2, Reg(ops[0], line_no));
        TC_ASSIGN_OR_RETURN(const auto memop, MemOperand(ops[1], line_no));
        p.instr.rs1 = memop.first;
        p.instr.imm = memop.second;
        break;
      }
      case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
      case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu: {
        TC_RETURN_IF_ERROR(need(3));
        TC_ASSIGN_OR_RETURN(p.instr.rs1, Reg(ops[0], line_no));
        TC_ASSIGN_OR_RETURN(p.instr.rs2, Reg(ops[1], line_no));
        const auto imm = ParseInt(ops[2]);
        if (imm) {
          p.instr.imm = static_cast<std::int32_t>(*imm);
        } else {
          const auto ref = ParseSymbolRef(ops[2]);
          if (!ref) return Err(line_no, "bad branch target '" + ops[2] + "'");
          p.target_symbol = ref->first;
          p.target_addend = ref->second;
          p.is_pcrel = true;
        }
        break;
      }
      case Opcode::kJal: {
        TC_RETURN_IF_ERROR(need(2));
        TC_ASSIGN_OR_RETURN(p.instr.rd, Reg(ops[0], line_no));
        const auto imm = ParseInt(ops[1]);
        if (imm) {
          p.instr.imm = static_cast<std::int32_t>(*imm);
        } else {
          const auto ref = ParseSymbolRef(ops[1]);
          if (!ref) return Err(line_no, "bad jal target '" + ops[1] + "'");
          p.target_symbol = ref->first;
          p.target_addend = ref->second;
          p.is_pcrel = true;
        }
        break;
      }
      case Opcode::kJalr: {
        TC_RETURN_IF_ERROR(need(3));
        TC_ASSIGN_OR_RETURN(p.instr.rd, Reg(ops[0], line_no));
        TC_ASSIGN_OR_RETURN(p.instr.rs1, Reg(ops[1], line_no));
        TC_ASSIGN_OR_RETURN(p.instr.imm, Imm32(ops[2], line_no));
        break;
      }
      case Opcode::kLea: {
        TC_RETURN_IF_ERROR(need(2));
        TC_ASSIGN_OR_RETURN(p.instr.rd, Reg(ops[0], line_no));
        const auto imm = ParseInt(ops[1]);
        if (imm) {
          p.instr.imm = static_cast<std::int32_t>(*imm);
        } else {
          const auto ref = ParseSymbolRef(ops[1]);
          if (!ref) return Err(line_no, "bad lea target '" + ops[1] + "'");
          p.target_symbol = ref->first;
          p.target_addend = ref->second;
          p.is_pcrel = true;
        }
        break;
      }
      case Opcode::kLdgFix: {
        // Raw form for tests: ldg.fix rd, imm.
        TC_RETURN_IF_ERROR(need(2));
        TC_ASSIGN_OR_RETURN(p.instr.rd, Reg(ops[0], line_no));
        TC_ASSIGN_OR_RETURN(p.instr.imm, Imm32(ops[1], line_no));
        break;
      }
      case Opcode::kLdgPre: {
        // Raw form: ldg.pre rd, idx, imm.
        TC_RETURN_IF_ERROR(need(3));
        TC_ASSIGN_OR_RETURN(p.instr.rd, Reg(ops[0], line_no));
        const auto idx = ParseInt(ops[1]);
        if (!idx || *idx < 0 || *idx > 255) {
          return Err(line_no, "ldg.pre index must be 0..255");
        }
        p.instr.rs2 = static_cast<std::uint8_t>(*idx);
        TC_ASSIGN_OR_RETURN(p.instr.imm, Imm32(ops[2], line_no));
        break;
      }
      default:
        return Err(line_no, "unhandled mnemonic '" + mnemonic + "'");
    }
    Emit(p);
    return Status::Ok();
  }

  /// Pass 2: resolve branch/lea targets and emit relocations.
  Status Finalize() {
    for (const auto& p : pending_) {
      if (p.target_symbol.empty()) continue;
      const std::uint64_t site = p.instr_offset;

      if (p.is_got) {
        obj_.relocs.push_back(Reloc{RelocKind::kGotSlot, SectionKind::kText,
                                    site, p.target_symbol, 0});
        continue;
      }

      const Symbol* sym = obj_.FindSymbol(p.target_symbol);
      if (sym != nullptr && sym->defined &&
          sym->section == SectionKind::kText) {
        // Local text target: patch the imm directly.
        const std::int64_t delta =
            static_cast<std::int64_t>(sym->offset) + p.target_addend -
            static_cast<std::int64_t>(site);
        if (delta < INT32_MIN || delta > INT32_MAX) {
          return Err(p.line, "branch target out of range");
        }
        std::int32_t imm = static_cast<std::int32_t>(delta);
        std::memcpy(obj_.text.data() + site + 4, &imm, sizeof(imm));
        continue;
      }
      // Cross-section or external: leave for the linker.
      EnsureSymbol(p.target_symbol);
      obj_.relocs.push_back(Reloc{RelocKind::kPcrel32, SectionKind::kText,
                                  site, p.target_symbol, p.target_addend});
    }
    return Status::Ok();
  }

  struct PendingWithOffset : PendingInstr {
    std::uint64_t instr_offset = 0;
  };

  ObjectCode obj_;
  SectionKind section_ = SectionKind::kText;
  std::vector<PendingWithOffset> pending_;
};

}  // namespace

StatusOr<ObjectCode> Assemble(std::string_view source, std::string unit_name) {
  Assembler assembler(std::move(unit_name));
  TC_RETURN_IF_ERROR(assembler.Run(source));
  return assembler.Take();
}

}  // namespace twochains::vm
