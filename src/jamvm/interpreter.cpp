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
  interp_.ChargeAccess(src, n, cache::AccessKind::kLoad);
  interp_.ChargeAccess(dst, n, cache::AccessKind::kStore);
  TC_ASSIGN_OR_RETURN(const auto from, interp_.memory_.RawSpan(src, n));
  TC_RETURN_IF_ERROR(interp_.memory_.CheckPerms(src, n, mem::Perm::kRead));
  TC_RETURN_IF_ERROR(interp_.memory_.CheckPerms(dst, n, mem::Perm::kWrite));
  std::vector<std::uint8_t> tmp(from.begin(), from.end());
  return interp_.memory_.DmaWrite(dst, tmp);  // perms checked above
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

}  // namespace

ExecResult Interpreter::Execute(mem::VirtAddr entry,
                                std::span<const std::uint64_t> args,
                                mem::VirtAddr stack_top) {
  ExecResult result;
  cycles_ = 0;

  std::uint64_t regs[kNumRegs] = {};
  for (std::size_t i = 0; i < args.size() && i < 8; ++i) {
    regs[kA0 + i] = args[i];
  }
  regs[kSp] = stack_top & ~0xFull;
  regs[kLr] = kReturnSentinel;

  mem::VirtAddr pc = entry;
  std::uint64_t last_ifetch_line = ~0ull;
  mem::VirtAddr checked_exec_page = ~0ull;
  const std::uint64_t line_bytes = caches_.config().line_bytes;

  Status fault;  // filled by a failing LoadData/StoreData
  auto fail = [&](Status status) {
    result.status = Status(status.code(),
                           StrFormat("%s (pc=0x%llx, #%llu)",
                                     status.message().c_str(),
                                     static_cast<unsigned long long>(pc),
                                     static_cast<unsigned long long>(
                                         result.instructions)));
    result.cycles = cycles_;
    result.return_value = regs[kA0];
    return result;
  };

  while (true) {
    if (pc == kReturnSentinel) {
      result.status = Status::Ok();
      break;
    }
    if (IsNativeHandle(pc)) {
      return fail(PermissionDenied("jumped into a native handle"));
    }
    if (result.instructions >= config_.max_instructions) {
      return fail(ResourceExhausted("instruction budget exceeded"));
    }
    // Control-flow confinement: checked on *every* fetch, not just taken
    // branches — straight-line execution can run off the end of the image
    // into adjacent bytes without a single jump.
    if (!config_.exec_windows.empty() &&
        !InWindows(config_.exec_windows, pc, kInstrBytes)) {
      return fail(
          PermissionDenied("instruction fetch escapes the confined image"));
    }

    // Execute-permission check, once per page.
    if (config_.enforce_exec_permission) {
      const mem::VirtAddr page = pc & ~(mem::kPageSize - 1);
      if (page != checked_exec_page) {
        if (memory_.PageBytes(pc, kInstrBytes, mem::Perm::kExec) == nullptr) {
          Status perm = memory_.CheckPerms(pc, kInstrBytes, mem::Perm::kExec);
          if (!perm.ok()) return fail(perm);
        }
        checked_exec_page = page;
      }
    }

    // Instruction fetch: charge the cache when entering a new line.
    const std::uint64_t ifetch_line = pc & ~(line_bytes - 1);
    if (ifetch_line != last_ifetch_line) {
      ChargeAccess(pc, kInstrBytes, cache::AccessKind::kInstFetch);
      last_ifetch_line = ifetch_line;
    }
    const std::uint8_t* code = memory_.RawBytes(pc, kInstrBytes);
    if (code == nullptr) return fail(memory_.RawSpan(pc, kInstrBytes).status());
    const auto decoded = Decode(code);
    if (!decoded) return fail(DataLoss("undecodable instruction"));
    const Instr in = *decoded;

    ++result.instructions;
    cycles_ += config_.base_cycles_per_instr;
    if (!config_.exec_windows.empty() &&
        (IsBranch(in.op) || in.op == Opcode::kJal ||
         in.op == Opcode::kJalr)) {
      cycles_ += config_.confine_branch_cycles;
    }

    mem::VirtAddr next_pc = pc + kInstrBytes;
    std::uint64_t rd_val = 0;
    bool write_rd = WritesRd(in.op);
    const std::uint64_t a = regs[in.rs1];
    const std::uint64_t b = regs[in.rs2];
    const auto imm64 = static_cast<std::int64_t>(in.imm);

    switch (in.op) {
      case Opcode::kHalt:
        result.status = Status::Ok();
        result.cycles = cycles_;
        result.return_value = regs[kA0];
        return result;
      case Opcode::kNop:
        break;

      case Opcode::kAdd: rd_val = a + b; break;
      case Opcode::kSub: rd_val = a - b; break;
      case Opcode::kMul: rd_val = a * b; break;
      case Opcode::kDiv:
        if (b == 0) return fail(InvalidArgument("division by zero"));
        if (S(a) == INT64_MIN && S(b) == -1) rd_val = a;  // wraps
        else rd_val = U(S(a) / S(b));
        break;
      case Opcode::kDivu:
        if (b == 0) return fail(InvalidArgument("division by zero"));
        rd_val = a / b;
        break;
      case Opcode::kRem:
        if (b == 0) return fail(InvalidArgument("division by zero"));
        if (S(a) == INT64_MIN && S(b) == -1) rd_val = 0;
        else rd_val = U(S(a) % S(b));
        break;
      case Opcode::kRemu:
        if (b == 0) return fail(InvalidArgument("division by zero"));
        rd_val = a % b;
        break;
      case Opcode::kAnd: rd_val = a & b; break;
      case Opcode::kOr: rd_val = a | b; break;
      case Opcode::kXor: rd_val = a ^ b; break;
      case Opcode::kSll: rd_val = a << (b & 63); break;
      case Opcode::kSrl: rd_val = a >> (b & 63); break;
      case Opcode::kSra: rd_val = U(S(a) >> (b & 63)); break;
      case Opcode::kSlt: rd_val = S(a) < S(b) ? 1 : 0; break;
      case Opcode::kSltu: rd_val = a < b ? 1 : 0; break;
      case Opcode::kSeq: rd_val = a == b ? 1 : 0; break;
      case Opcode::kSne: rd_val = a != b ? 1 : 0; break;

      case Opcode::kAddi: rd_val = a + U(imm64); break;
      case Opcode::kMuli: rd_val = a * U(imm64); break;
      case Opcode::kAndi: rd_val = a & U(imm64); break;
      case Opcode::kOri: rd_val = a | U(imm64); break;
      case Opcode::kXori: rd_val = a ^ U(imm64); break;
      case Opcode::kSlli: rd_val = a << (in.imm & 63); break;
      case Opcode::kSrli: rd_val = a >> (in.imm & 63); break;
      case Opcode::kSrai: rd_val = U(S(a) >> (in.imm & 63)); break;
      case Opcode::kSlti: rd_val = S(a) < imm64 ? 1 : 0; break;
      case Opcode::kSltiu: rd_val = a < U(imm64) ? 1 : 0; break;
      case Opcode::kSeqi: rd_val = a == U(imm64) ? 1 : 0; break;
      case Opcode::kSnei: rd_val = a != U(imm64) ? 1 : 0; break;

      case Opcode::kMovi: rd_val = U(imm64); break;
      case Opcode::kMovhi:
        rd_val = (regs[in.rd] & 0xFFFFFFFFull) |
                 (static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(in.imm))
                  << 32);
        break;

      case Opcode::kLdb: case Opcode::kLdbu: case Opcode::kLdh:
      case Opcode::kLdhu: case Opcode::kLdw: case Opcode::kLdwu:
      case Opcode::kLdd: {
        const mem::VirtAddr addr = a + U(imm64);
        unsigned bytes = 8;
        if (in.op == Opcode::kLdb || in.op == Opcode::kLdbu) bytes = 1;
        else if (in.op == Opcode::kLdh || in.op == Opcode::kLdhu) bytes = 2;
        else if (in.op == Opcode::kLdw || in.op == Opcode::kLdwu) bytes = 4;
        std::uint64_t v = 0;
        if (!LoadData(addr, bytes, v, fault)) return fail(std::move(fault));
        switch (in.op) {
          case Opcode::kLdb: v = U(static_cast<std::int8_t>(v)); break;
          case Opcode::kLdh: v = U(static_cast<std::int16_t>(v)); break;
          case Opcode::kLdw: v = U(static_cast<std::int32_t>(v)); break;
          default: break;
        }
        rd_val = v;
        break;
      }

      case Opcode::kStb: case Opcode::kSth: case Opcode::kStw:
      case Opcode::kStd: {
        const mem::VirtAddr addr = a + U(imm64);
        unsigned bytes = 8;
        if (in.op == Opcode::kStb) bytes = 1;
        else if (in.op == Opcode::kSth) bytes = 2;
        else if (in.op == Opcode::kStw) bytes = 4;
        if (!StoreData(addr, b, bytes, fault)) return fail(std::move(fault));
        break;
      }

      case Opcode::kBeq: if (a == b) next_pc = pc + U(imm64); break;
      case Opcode::kBne: if (a != b) next_pc = pc + U(imm64); break;
      case Opcode::kBlt: if (S(a) < S(b)) next_pc = pc + U(imm64); break;
      case Opcode::kBge: if (S(a) >= S(b)) next_pc = pc + U(imm64); break;
      case Opcode::kBltu: if (a < b) next_pc = pc + U(imm64); break;
      case Opcode::kBgeu: if (a >= b) next_pc = pc + U(imm64); break;

      case Opcode::kJal:
        rd_val = pc + kInstrBytes;
        next_pc = pc + U(imm64);
        break;

      case Opcode::kJalr: {
        rd_val = pc + kInstrBytes;
        const std::uint64_t target = a + U(imm64);
        if (IsNativeHandle(target)) {
          // Native bridge: run the function, then return to the link
          // address (rd for a normal call; the current lr for a tail call).
          if (natives_ == nullptr) {
            return fail(FailedPrecondition("no native table bound"));
          }
          const NativeFn* fn = natives_->Get(NativeIndexOf(target));
          if (fn == nullptr) {
            return fail(NotFound(StrFormat("native index %u",
                                           NativeIndexOf(target))));
          }
          if (write_rd && in.rd != kZr) regs[in.rd] = rd_val;
          write_rd = false;
          NativeFrame frame(*this, regs);
          Status st = (*fn)(frame);
          if (!st.ok()) return fail(st);
          next_pc = in.rd != kZr ? rd_val : regs[kLr];
          break;
        }
        next_pc = target;
        break;
      }

      case Opcode::kLea:
        rd_val = pc + U(imm64);
        break;

      case Opcode::kLdgFix: {
        const mem::VirtAddr slot = pc + U(imm64);
        if (!LoadData(slot, 8, rd_val, fault)) return fail(std::move(fault));
        break;
      }

      case Opcode::kLdgPre: {
        // The paper's rewritten form: GOT pointer at a PC-relative preamble
        // slot, then an index into the patched table.
        const mem::VirtAddr pre = pc + U(imm64);
        std::uint64_t gotp = 0;
        if (!LoadData(pre, 8, gotp, fault)) return fail(std::move(fault));
        const mem::VirtAddr slot = gotp + 8ull * in.rs2;
        if (!LoadData(slot, 8, rd_val, fault)) return fail(std::move(fault));
        break;
      }

      default:
        return fail(Internal("unhandled opcode"));
    }

    if (write_rd && in.rd != kZr) regs[in.rd] = rd_val;
    regs[kZr] = 0;
    pc = next_pc;
  }

  result.cycles = cycles_;
  result.return_value = regs[kA0];
  return result;
}

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
