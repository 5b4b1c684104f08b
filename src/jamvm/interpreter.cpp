#include "jamvm/interpreter.hpp"

#include <cstring>

#include "common/strfmt.hpp"

namespace twochains::vm {

// ----------------------------------------------------------- NativeFrame

namespace {

bool IsScalarWidth(unsigned bytes) {
  return bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8;
}

}  // namespace

StatusOr<std::uint64_t> NativeFrame::Load(mem::VirtAddr addr, unsigned bytes) {
  if (!IsScalarWidth(bytes)) return InvalidArgument("native load width");
  std::uint64_t v = 0;
  Status fault;
  if (!interp_.LoadData(addr, bytes, v, fault)) return fault;
  return v;
}

Status NativeFrame::Store(mem::VirtAddr addr, std::uint64_t value,
                          unsigned bytes) {
  if (!IsScalarWidth(bytes)) return InvalidArgument("native store width");
  Status fault;
  interp_.StoreData(addr, value, bytes, fault);
  return fault;
}

Status NativeFrame::CopyBytes(mem::VirtAddr dst, mem::VirtAddr src,
                              std::uint64_t n) {
  if (n == 0) return Status::Ok();
  // The jam supplied both addresses; without these checks a confined jam
  // could still read or clobber anything by deputizing the native.
  TC_RETURN_IF_ERROR(interp_.CheckDataWindows(src, n));
  TC_RETURN_IF_ERROR(interp_.CheckDataWindows(dst, n));
  // Validate before charging: the cache model walks both ranges line by
  // line, so a jam-supplied n must be known to fit the arena first.
  TC_ASSIGN_OR_RETURN(const auto from, interp_.memory_.RawSpan(src, n));
  TC_RETURN_IF_ERROR(interp_.memory_.CheckPerms(src, n, mem::Perm::kRead));
  TC_RETURN_IF_ERROR(interp_.memory_.CheckPerms(dst, n, mem::Perm::kWrite));
  interp_.ChargeAccess(src, n, cache::AccessKind::kLoad);
  interp_.ChargeAccess(dst, n, cache::AccessKind::kStore);
  TC_ASSIGN_OR_RETURN(const auto to, interp_.memory_.RawSpan(dst, n));
  std::memmove(to.data(), from.data(), n);  // the ranges may overlap
  return Status::Ok();
}

StatusOr<std::string> NativeFrame::LoadCString(mem::VirtAddr addr,
                                               std::uint64_t max) {
  std::string out;
  for (std::uint64_t i = 0; i < max; ++i) {
    TC_RETURN_IF_ERROR(interp_.CheckDataWindows(addr + i, 1));
    TC_ASSIGN_OR_RETURN(const auto c, interp_.memory_.LoadU8(addr + i));
    if (c == 0) {
      interp_.ChargeAccess(addr, i + 1, cache::AccessKind::kLoad);
      return out;
    }
    out += static_cast<char>(c);
  }
  return OutOfRange("unterminated string");
}

void NativeFrame::ChargeCycles(Cycles cycles) { interp_.cycles_ += cycles; }
mem::HostMemory& NativeFrame::memory() { return interp_.memory_; }
cache::CacheHierarchy& NativeFrame::caches() { return interp_.caches_; }
std::uint32_t NativeFrame::core() const { return interp_.core_; }

// ----------------------------------------------------------- NativeTable

StatusOr<std::uint32_t> NativeTable::Register(std::string name, NativeFn fn) {
  if (!fn) return InvalidArgument("null native function");
  for (const auto& e : entries_) {
    if (e.name == name) {
      return AlreadyExists(StrFormat("native '%s'", name.c_str()));
    }
  }
  entries_.push_back(Entry{std::move(name), std::move(fn)});
  return static_cast<std::uint32_t>(entries_.size() - 1);
}

StatusOr<std::uint32_t> NativeTable::IndexOf(std::string_view name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return static_cast<std::uint32_t>(i);
  }
  return NotFound(StrFormat("native '%.*s'", static_cast<int>(name.size()),
                            name.data()));
}

const NativeFn* NativeTable::Get(std::uint32_t index) const {
  if (index >= entries_.size()) return nullptr;
  return &entries_[index].fn;
}

std::string_view NativeTable::NameOf(std::uint32_t index) const {
  if (index >= entries_.size()) return "<bad-native>";
  return entries_[index].name;
}

// ----------------------------------------------------------- Interpreter

Interpreter::Interpreter(mem::HostMemory& memory,
                         cache::CacheHierarchy& caches, std::uint32_t core,
                         const NativeTable* natives, ExecConfig config)
    : memory_(memory), caches_(caches), core_(core), natives_(natives),
      config_(std::move(config)) {}

Status Interpreter::CheckDataWindows(mem::VirtAddr addr,
                                     std::uint64_t bytes) const {
  if (config_.data_windows.empty() ||
      InWindows(config_.data_windows, addr, bytes)) {
    return Status::Ok();
  }
  return PermissionDenied(
      StrFormat("data access at 0x%llx (%llu B) escapes the sandbox",
                static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(bytes)));
}

bool Interpreter::WindowFault(mem::VirtAddr addr, unsigned bytes,
                              Status& fault) const {
  fault = CheckDataWindows(addr, bytes);
  return false;
}

bool Interpreter::LoadSlow(mem::VirtAddr addr, unsigned bytes,
                           std::uint64_t& out, Status& fault) const {
  std::uint8_t buf[8] = {};
  fault = memory_.Read(addr, std::span<std::uint8_t>(buf, bytes));
  if (!fault.ok()) return false;
  out = LoadLE(buf, bytes);
  return true;
}

bool Interpreter::StoreSlow(mem::VirtAddr addr, std::uint64_t value,
                            unsigned bytes, Status& fault) {
  std::uint8_t buf[8] = {};
  StoreLE(buf, value, bytes);
  fault = memory_.Write(addr, std::span<const std::uint8_t>(buf, bytes));
  return fault.ok();
}

namespace {

std::int64_t S(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::uint64_t U(std::int64_t v) { return static_cast<std::uint64_t>(v); }

/// A loaded value of type T (its width and signedness) extended to 64 bits.
template <typename T>
std::uint64_t Extend(std::uint64_t v) {
  return static_cast<std::uint64_t>(static_cast<T>(v));
}

/// Writes rd; a write to the hardwired zero register is discarded.
void SetRd(std::uint64_t* regs, unsigned rd, std::uint64_t v) {
  if (rd != kZr) regs[rd] = v;
}

/// The result of a faulting Execute: @p status with the pc and the retired
/// instruction count appended. Cold and out of line, with the loop's values
/// passed by value, so none of them ever has its address taken.
[[gnu::cold, gnu::noinline]] ExecResult Fault(const Status& status,
                                              mem::VirtAddr pc,
                                              std::uint64_t instructions,
                                              Cycles cycles,
                                              std::uint64_t a0) {
  return ExecResult{
      Status(status.code(),
             StrFormat("%s (pc=0x%llx, #%llu)", status.message().c_str(),
                       static_cast<unsigned long long>(pc),
                       static_cast<unsigned long long>(instructions))),
      instructions, cycles, a0};
}

}  // namespace

// Leaves Execute through Fault with the loop's state at this point.
#define TC_EXEC_FAULT(status)                                   \
  return Fault((status), pc, instructions,                      \
               TotalCycles(instructions, transfers), regs[kA0])

ExecResult Interpreter::Execute(mem::VirtAddr entry,
                                std::span<const std::uint64_t> args,
                                mem::VirtAddr stack_top) {
  cycles_ = 0;

  std::uint64_t regs[kNumRegs] = {};
  for (std::size_t i = 0; i < args.size() && i < 8; ++i) {
    regs[kA0 + i] = args[i];
  }
  regs[kSp] = stack_top & ~0xFull;
  regs[kLr] = kReturnSentinel;

  const std::uint64_t max_instructions = config_.max_instructions;
  const bool check_exec = config_.enforce_exec_permission;
  const bool confined = !config_.exec_windows.empty();
  constexpr std::uint64_t line_mask = ~(kCacheLineBytes - 1);

  mem::VirtAddr pc = entry;
  std::uint64_t instructions = 0;
  std::uint64_t transfers = 0;  // branches, jal and jalr retired
  std::uint64_t ifetch_line = ~0ull;
  // The page of the last fetch that took the checked path below, and its
  // arena bytes: a pc wholly inside it fetches through code_bytes. It
  // starts as a native handle's page, which no fetch reaches.
  mem::VirtAddr code_page = kNativeTagBit;
  const std::uint8_t* code_bytes = nullptr;
  Status fault;  // filled by a failing LoadData/StoreData
  std::uint64_t loaded = 0;  // what a load handler's LoadData read

  while (pc != kReturnSentinel) {
    if (IsNativeHandle(pc)) {
      TC_EXEC_FAULT(PermissionDenied("jumped into a native handle"));
    }
    if (instructions >= max_instructions) {
      TC_EXEC_FAULT(ResourceExhausted("instruction budget exceeded"));
    }
    // Control-flow confinement: checked on *every* fetch, not just taken
    // branches — straight-line execution can run off the end of the image
    // into adjacent bytes without a single jump.
    if (confined && !InWindows(config_.exec_windows, pc, kInstrBytes)) {
      TC_EXEC_FAULT(
          PermissionDenied("instruction fetch escapes the confined image"));
    }

    // Instruction fetch. A pc that enters a new page, straddles two pages
    // or leaves the arena takes the checked path: the X bit of every page
    // it touches when enforced, then the arena bounds. The cache is
    // charged when the fetch enters a new line.
    const std::uint8_t* code = nullptr;
    if (pc - code_page <= mem::kPageSize - kInstrBytes) {
      code = code_bytes + (pc - code_page);
    } else if (check_exec &&
               memory_.PageBytes(pc, kInstrBytes, mem::Perm::kExec) ==
                   nullptr) {
      const Status perm =
          memory_.CheckPerms(pc, kInstrBytes, mem::Perm::kExec);
      if (!perm.ok()) TC_EXEC_FAULT(perm);
    }
    if ((pc & line_mask) != ifetch_line) {
      ChargeAccess(pc, kInstrBytes, cache::AccessKind::kInstFetch);
      ifetch_line = pc & line_mask;
    }
    if (code == nullptr) {
      code = memory_.RawBytes(pc, kInstrBytes);
      if (code == nullptr) {
        TC_EXEC_FAULT(memory_.RawSpan(pc, kInstrBytes).status());
      }
      code_page = pc & ~(mem::kPageSize - 1);
      code_bytes = code - (pc - code_page);
    }
    const std::uint64_t word = LoadWord(code);
    if (!IsValidWord(word)) {
      TC_EXEC_FAULT(DataLoss("undecodable instruction"));
    }
    const Instr in = DecodeWord(word);
    ++instructions;

    const std::uint64_t a = regs[in.rs1];
    const std::uint64_t b = regs[in.rs2];
    const std::uint64_t imm = U(in.imm);
    const mem::VirtAddr next = pc + kInstrBytes;  // the fall-through pc
    // Each handler writes its own rd and its own next pc.
    switch (in.op) {
      case Opcode::kHalt: pc = kReturnSentinel; break;  // ends like a ret
      case Opcode::kNop: pc = next; break;

      case Opcode::kAdd: SetRd(regs, in.rd, a + b); pc = next; break;
      case Opcode::kSub: SetRd(regs, in.rd, a - b); pc = next; break;
      case Opcode::kMul: SetRd(regs, in.rd, a * b); pc = next; break;
      case Opcode::kDiv:
        if (b == 0) TC_EXEC_FAULT(InvalidArgument("division by zero"));
        SetRd(regs, in.rd,  // INT64_MIN / -1 wraps
              S(a) == INT64_MIN && S(b) == -1 ? a : U(S(a) / S(b)));
        pc = next;
        break;
      case Opcode::kDivu:
        if (b == 0) TC_EXEC_FAULT(InvalidArgument("division by zero"));
        SetRd(regs, in.rd, a / b);
        pc = next;
        break;
      case Opcode::kRem:
        if (b == 0) TC_EXEC_FAULT(InvalidArgument("division by zero"));
        SetRd(regs, in.rd,
              S(a) == INT64_MIN && S(b) == -1 ? 0 : U(S(a) % S(b)));
        pc = next;
        break;
      case Opcode::kRemu:
        if (b == 0) TC_EXEC_FAULT(InvalidArgument("division by zero"));
        SetRd(regs, in.rd, a % b);
        pc = next;
        break;
      case Opcode::kAnd: SetRd(regs, in.rd, a & b); pc = next; break;
      case Opcode::kOr: SetRd(regs, in.rd, a | b); pc = next; break;
      case Opcode::kXor: SetRd(regs, in.rd, a ^ b); pc = next; break;
      case Opcode::kSll: SetRd(regs, in.rd, a << (b & 63)); pc = next; break;
      case Opcode::kSrl: SetRd(regs, in.rd, a >> (b & 63)); pc = next; break;
      case Opcode::kSra:
        SetRd(regs, in.rd, U(S(a) >> (b & 63)));
        pc = next;
        break;
      case Opcode::kSlt: SetRd(regs, in.rd, S(a) < S(b)); pc = next; break;
      case Opcode::kSltu: SetRd(regs, in.rd, a < b); pc = next; break;
      case Opcode::kSeq: SetRd(regs, in.rd, a == b); pc = next; break;
      case Opcode::kSne: SetRd(regs, in.rd, a != b); pc = next; break;

      case Opcode::kAddi: SetRd(regs, in.rd, a + imm); pc = next; break;
      case Opcode::kMuli: SetRd(regs, in.rd, a * imm); pc = next; break;
      case Opcode::kAndi: SetRd(regs, in.rd, a & imm); pc = next; break;
      case Opcode::kOri: SetRd(regs, in.rd, a | imm); pc = next; break;
      case Opcode::kXori: SetRd(regs, in.rd, a ^ imm); pc = next; break;
      case Opcode::kSlli: SetRd(regs, in.rd, a << (imm & 63)); pc = next; break;
      case Opcode::kSrli: SetRd(regs, in.rd, a >> (imm & 63)); pc = next; break;
      case Opcode::kSrai:
        SetRd(regs, in.rd, U(S(a) >> (imm & 63)));
        pc = next;
        break;
      case Opcode::kSlti: SetRd(regs, in.rd, S(a) < S(imm)); pc = next; break;
      case Opcode::kSltiu: SetRd(regs, in.rd, a < imm); pc = next; break;
      case Opcode::kSeqi: SetRd(regs, in.rd, a == imm); pc = next; break;
      case Opcode::kSnei: SetRd(regs, in.rd, a != imm); pc = next; break;

      case Opcode::kMovi: SetRd(regs, in.rd, imm); pc = next; break;
      case Opcode::kMovhi:
        SetRd(regs, in.rd, (regs[in.rd] & 0xFFFFFFFFull) | (imm << 32));
        pc = next;
        break;

      case Opcode::kLdb:
        if (!LoadData(a + imm, 1, loaded, fault)) TC_EXEC_FAULT(fault);
        SetRd(regs, in.rd, Extend<std::int8_t>(loaded));
        pc = next;
        break;
      case Opcode::kLdbu:
        if (!LoadData(a + imm, 1, loaded, fault)) TC_EXEC_FAULT(fault);
        SetRd(regs, in.rd, loaded);
        pc = next;
        break;
      case Opcode::kLdh:
        if (!LoadData(a + imm, 2, loaded, fault)) TC_EXEC_FAULT(fault);
        SetRd(regs, in.rd, Extend<std::int16_t>(loaded));
        pc = next;
        break;
      case Opcode::kLdhu:
        if (!LoadData(a + imm, 2, loaded, fault)) TC_EXEC_FAULT(fault);
        SetRd(regs, in.rd, loaded);
        pc = next;
        break;
      case Opcode::kLdw:
        if (!LoadData(a + imm, 4, loaded, fault)) TC_EXEC_FAULT(fault);
        SetRd(regs, in.rd, Extend<std::int32_t>(loaded));
        pc = next;
        break;
      case Opcode::kLdwu:
        if (!LoadData(a + imm, 4, loaded, fault)) TC_EXEC_FAULT(fault);
        SetRd(regs, in.rd, loaded);
        pc = next;
        break;
      case Opcode::kLdd:
        if (!LoadData(a + imm, 8, loaded, fault)) TC_EXEC_FAULT(fault);
        SetRd(regs, in.rd, loaded);
        pc = next;
        break;

      case Opcode::kStb:
        if (!StoreData(a + imm, b, 1, fault)) TC_EXEC_FAULT(fault);
        pc = next;
        break;
      case Opcode::kSth:
        if (!StoreData(a + imm, b, 2, fault)) TC_EXEC_FAULT(fault);
        pc = next;
        break;
      case Opcode::kStw:
        if (!StoreData(a + imm, b, 4, fault)) TC_EXEC_FAULT(fault);
        pc = next;
        break;
      case Opcode::kStd:
        if (!StoreData(a + imm, b, 8, fault)) TC_EXEC_FAULT(fault);
        pc = next;
        break;

      case Opcode::kBeq: ++transfers; pc = a == b ? pc + imm : next; break;
      case Opcode::kBne: ++transfers; pc = a != b ? pc + imm : next; break;
      case Opcode::kBlt: ++transfers; pc = S(a) < S(b) ? pc + imm : next; break;
      case Opcode::kBge:
        ++transfers;
        pc = S(a) >= S(b) ? pc + imm : next;
        break;
      case Opcode::kBltu: ++transfers; pc = a < b ? pc + imm : next; break;
      case Opcode::kBgeu: ++transfers; pc = a >= b ? pc + imm : next; break;

      case Opcode::kJal:
        ++transfers;
        SetRd(regs, in.rd, next);
        pc += imm;
        break;

      case Opcode::kJalr: {
        ++transfers;
        const std::uint64_t target = a + imm;
        if (!IsNativeHandle(target)) {
          SetRd(regs, in.rd, next);
          pc = target;
          break;
        }
        // Native bridge: run the function, then return to the link
        // address (rd for a normal call; the current lr for a tail call).
        if (natives_ == nullptr) {
          TC_EXEC_FAULT(FailedPrecondition("no native table bound"));
        }
        const NativeFn* fn = natives_->Get(NativeIndexOf(target));
        if (fn == nullptr) {
          TC_EXEC_FAULT(
              NotFound(StrFormat("native index %u", NativeIndexOf(target))));
        }
        SetRd(regs, in.rd, next);
        NativeFrame frame(*this, regs);
        const Status st = (*fn)(frame);
        if (!st.ok()) TC_EXEC_FAULT(st);
        pc = in.rd != kZr ? next : regs[kLr];
        break;
      }

      case Opcode::kLea: SetRd(regs, in.rd, pc + imm); pc = next; break;

      case Opcode::kLdgFix:
        if (!LoadData(pc + imm, 8, loaded, fault)) TC_EXEC_FAULT(fault);
        SetRd(regs, in.rd, loaded);
        pc = next;
        break;

      case Opcode::kLdgPre:
        // The paper's rewritten form: GOT pointer at a PC-relative preamble
        // slot, then an index into the patched table.
        if (!LoadData(pc + imm, 8, loaded, fault)) TC_EXEC_FAULT(fault);
        if (!LoadData(loaded + 8ull * in.rs2, 8, loaded, fault)) {
          TC_EXEC_FAULT(fault);
        }
        SetRd(regs, in.rd, loaded);
        pc = next;
        break;

      default:
        TC_EXEC_FAULT(Internal("unhandled opcode"));
    }
  }

  return ExecResult{Status::Ok(), instructions,
                    TotalCycles(instructions, transfers), regs[kA0]};
}

#undef TC_EXEC_FAULT

// ----------------------------------------------------------- natives

Status RegisterStandardNatives(NativeTable& table,
                               const StandardNativesOptions& options) {
  std::string* sink = options.print_sink;

  TC_RETURN_IF_ERROR(table
                         .Register("tc_memcpy",
                                   [](NativeFrame& f) -> Status {
                                     const auto dst = f.Arg(0);
                                     const auto src = f.Arg(1);
                                     const auto n = f.Arg(2);
                                     TC_RETURN_IF_ERROR(
                                         f.CopyBytes(dst, src, n));
                                     f.SetResult(dst);
                                     return Status::Ok();
                                   })
                         .status());
  TC_RETURN_IF_ERROR(
      table
          .Register("tc_memset",
                    [](NativeFrame& f) -> Status {
                      const auto dst = f.Arg(0);
                      const auto byte = f.Arg(1) & 0xFF;
                      const auto n = f.Arg(2);
                      for (std::uint64_t i = 0; i < n; ++i) {
                        TC_RETURN_IF_ERROR(f.Store(dst + i, byte, 1));
                      }
                      f.SetResult(dst);
                      return Status::Ok();
                    })
          .status());
  TC_RETURN_IF_ERROR(
      table
          .Register("tc_print_str",
                    [sink](NativeFrame& f) -> Status {
                      TC_ASSIGN_OR_RETURN(const std::string s,
                                          f.LoadCString(f.Arg(0)));
                      if (sink != nullptr) *sink += s;
                      f.SetResult(0);
                      return Status::Ok();
                    })
          .status());
  TC_RETURN_IF_ERROR(
      table
          .Register("tc_print_u64",
                    [sink](NativeFrame& f) -> Status {
                      if (sink != nullptr) {
                        *sink += StrFormat(
                            "%llu",
                            static_cast<unsigned long long>(f.Arg(0)));
                      }
                      f.SetResult(0);
                      return Status::Ok();
                    })
          .status());
  TC_RETURN_IF_ERROR(
      table
          .Register("tc_hash64",
                    [](NativeFrame& f) -> Status {
                      std::uint64_t z = f.Arg(0) + 0x9e3779b97f4a7c15ull;
                      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
                      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
                      f.SetResult(z ^ (z >> 31));
                      f.ChargeCycles(6);
                      return Status::Ok();
                    })
          .status());
  return Status::Ok();
}

}  // namespace twochains::vm
