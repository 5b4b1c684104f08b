// In-memory object-code model shared by the assembler, the static linker,
// and the GOT rewriter.
//
// An ObjectCode is the output of assembling one source unit: three section
// byte vectors, a symbol table, and relocations against symbols whose final
// placement is unknown until link time. This mirrors what the paper's
// toolchain gets out of gcc -fPIC -fno-plt + ELF .o files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace twochains::vm {

enum class SectionKind : std::uint8_t { kText = 0, kRodata = 1, kData = 2 };

inline const char* SectionName(SectionKind kind) {
  switch (kind) {
    case SectionKind::kText: return ".text";
    case SectionKind::kRodata: return ".rodata";
    case SectionKind::kData: return ".data";
  }
  return "?";
}

enum class SymbolKind : std::uint8_t { kFunc = 0, kObject = 1 };

struct Symbol {
  std::string name;
  SectionKind section = SectionKind::kText;
  std::uint64_t offset = 0;  ///< within its section (when defined)
  bool defined = false;      ///< false: extern reference
  bool global = false;       ///< exported beyond the object
  SymbolKind kind = SymbolKind::kFunc;
};

enum class RelocKind : std::uint8_t {
  /// Patch the instruction's imm field at `offset` with S + A - P, where S
  /// is the symbol address, A the addend, and P the instruction address.
  /// Used by lea/jal referencing other sections or other objects.
  kPcrel32 = 0,
  /// The instruction at `offset` is an ldg.fix whose imm must become the
  /// PC-relative offset of the GOT slot assigned to `symbol` by the linker.
  kGotSlot = 1,
  /// Patch 8 bytes at `offset` (data sections) with S + A. Internal targets
  /// become load-time base fixups; external ones resolve via the namespace.
  kAbs64 = 2,
};

struct Reloc {
  RelocKind kind = RelocKind::kPcrel32;
  SectionKind section = SectionKind::kText;  ///< where the patch site lives
  std::uint64_t offset = 0;                  ///< patch site within section
  std::string symbol;
  std::int64_t addend = 0;
};

struct ObjectCode {
  std::string source_name;  ///< diagnostics only
  std::vector<std::uint8_t> text;
  std::vector<std::uint8_t> rodata;
  std::vector<std::uint8_t> data;
  /// Zero bytes that end the .data section after `data`, kept as a count
  /// (a trailing `.space` or `.align` that no byte follows).
  std::uint64_t data_zero_tail = 0;
  std::vector<Symbol> symbols;
  std::vector<Reloc> relocs;

  /// Bytes .data spans when laid out: the written bytes and the zero tail.
  std::uint64_t DataExtent() const noexcept {
    return data.size() + data_zero_tail;
  }

  std::vector<std::uint8_t>& section(SectionKind kind) {
    switch (kind) {
      case SectionKind::kRodata: return rodata;
      case SectionKind::kData: return data;
      case SectionKind::kText:
      default: return text;
    }
  }
  const std::vector<std::uint8_t>& section(SectionKind kind) const {
    return const_cast<ObjectCode*>(this)->section(kind);
  }

  const Symbol* FindSymbol(const std::string& name) const {
    for (const auto& s : symbols) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

}  // namespace twochains::vm
