// The jam interpreter: executes jam code out of simulated host memory,
// charging every instruction fetch and data access to the host's cache
// hierarchy. This is what makes "code arrived cold in DRAM" vs "code was
// stashed into the LLC" measurable — the interpreter *is* the receiving CPU
// for timing purposes.
//
// External linkage: GOT slots hold either the virtual address of jam code
// (a ried function loaded on this host, or another jam) or a tagged native
// handle (bit 63 set) indexing the host runtime's NativeTable. JALR to a
// tagged value dispatches the native function; everything else is
// interpreted. Natives model receiver-runtime primitives (memcpy, print)
// and charge their memory traffic through the same cache model.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "mem/host_memory.hpp"
#include "jamvm/isa.hpp"

namespace twochains::vm {

/// Bit 63 tags a GOT value as a native-function handle (host virtual
/// addresses in the simulator never reach that bit).
inline constexpr std::uint64_t kNativeTagBit = 1ull << 63;

constexpr bool IsNativeHandle(std::uint64_t v) noexcept {
  return (v & kNativeTagBit) != 0;
}
constexpr std::uint64_t MakeNativeHandle(std::uint32_t index) noexcept {
  return kNativeTagBit | index;
}
constexpr std::uint32_t NativeIndexOf(std::uint64_t v) noexcept {
  return static_cast<std::uint32_t>(v & 0xFFFFFFFF);
}

/// Jam code returns to this sentinel address to finish execution.
inline constexpr mem::VirtAddr kReturnSentinel = 0x7FFFFFFFFFFFFF00ull;

class Interpreter;

/// View of the machine state handed to a native function.
class NativeFrame {
 public:
  NativeFrame(Interpreter& interp, std::uint64_t* regs)
      : interp_(interp), regs_(regs) {}

  /// i-th argument register (a0..a7).
  std::uint64_t Arg(unsigned i) const { return regs_[kA0 + i]; }
  /// Sets the return value (a0).
  void SetResult(std::uint64_t v) { regs_[kA0] = v; }

  /// Cache-charged memory accesses into the executing host.
  StatusOr<std::uint64_t> Load(mem::VirtAddr addr, unsigned bytes);
  Status Store(mem::VirtAddr addr, std::uint64_t value, unsigned bytes);
  /// Cache-charged bulk copy (reads src, writes dst, per-line costs).
  Status CopyBytes(mem::VirtAddr dst, mem::VirtAddr src, std::uint64_t n);
  /// Reads a NUL-terminated string (bounded by @p max).
  StatusOr<std::string> LoadCString(mem::VirtAddr addr, std::uint64_t max = 4096);

  /// Adds pure-compute cycles on top of the charged memory traffic.
  void ChargeCycles(Cycles cycles);

  mem::HostMemory& memory();
  cache::CacheHierarchy& caches();
  std::uint32_t core() const;

 private:
  Interpreter& interp_;
  std::uint64_t* regs_;
};

using NativeFn = std::function<Status(NativeFrame&)>;

/// Per-host registry of native functions callable from jam code.
class NativeTable {
 public:
  /// Registers @p fn under @p name; returns the index to embed in a handle.
  StatusOr<std::uint32_t> Register(std::string name, NativeFn fn);

  StatusOr<std::uint32_t> IndexOf(std::string_view name) const;
  const NativeFn* Get(std::uint32_t index) const;
  std::string_view NameOf(std::uint32_t index) const;
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    NativeFn fn;
  };
  std::vector<Entry> entries_;
};

/// A half-open virtual-address window [base, base + size) for the sandbox
/// checks below.
struct MemWindow {
  mem::VirtAddr base = 0;
  std::uint64_t size = 0;

  constexpr bool Contains(mem::VirtAddr addr,
                          std::uint64_t bytes) const noexcept {
    return addr >= base && addr - base < size &&
           size - (addr - base) >= bytes;
  }
};

/// Fixed pipeline cost per instruction, on top of memory-system cycles.
inline constexpr Cycles kBaseCyclesPerInstr = 1;

struct ExecConfig {
  /// Hard cap on interpreted instructions (runaway-jam failsafe).
  std::uint64_t max_instructions = 50'000'000;
  /// Check the X permission of every page an instruction fetch touches
  /// (the W^X security mode relies on this; the paper's default mailbox is
  /// RWX).
  bool enforce_exec_permission = true;
  /// Control-flow confinement. When non-empty, every instruction fetch —
  /// whether reached sequentially, by branch/jal, or by a computed jalr —
  /// must land inside one of these windows; the return sentinel and tagged
  /// native handles stay reachable. An escaping pc faults with
  /// kPermissionDenied *before* executing whatever bytes happen to be
  /// readable there, which is what bounds register-based jumps the static
  /// verifier cannot prove. Empty reproduces the paper's unconfined
  /// receiver. Armed per-invoke by core::SecurityPolicy::
  /// confine_control_flow (frame code + loaded libraries).
  std::vector<MemWindow> exec_windows;
  /// Data-access confinement. When non-empty, every interpreted load/store
  /// — including GOT-pointer loads and native-mediated accesses (tc_memcpy
  /// and friends, which otherwise act as confused deputies) — must land
  /// inside one of these windows. The fuzz harness uses it to prove
  /// "verified code never touches memory outside its frame"; the runtime
  /// leaves it empty because jams legitimately address exported host
  /// objects whose extents the receiver does not track.
  std::vector<MemWindow> data_windows;
  /// Extra cycles charged per control-transfer instruction while exec
  /// windows are active (the SFI-style bounds check on the taken path).
  Cycles confine_branch_cycles = 1;
};

struct ExecResult {
  Status status;
  std::uint64_t instructions = 0;
  Cycles cycles = 0;          ///< base + memory + native cycles
  std::uint64_t return_value = 0;  ///< a0 at completion
};

class Interpreter {
 public:
  Interpreter(mem::HostMemory& memory, cache::CacheHierarchy& caches,
              std::uint32_t core, const NativeTable* natives,
              ExecConfig config = {});

  /// Runs code at @p entry with @p args in a0..a7 and sp set to
  /// @p stack_top. Returns when the code returns to the sentinel, halts, or
  /// faults.
  ExecResult Execute(mem::VirtAddr entry, std::span<const std::uint64_t> args,
                     mem::VirtAddr stack_top);

 private:
  friend class NativeFrame;

  static bool InWindows(const std::vector<MemWindow>& windows,
                        mem::VirtAddr addr, std::uint64_t bytes) noexcept {
    for (const MemWindow& w : windows) {
      if (w.Contains(addr, bytes)) return true;
    }
    return false;
  }

  /// OK when data windows are off or @p addr..+bytes is inside one.
  Status CheckDataWindows(mem::VirtAddr addr, std::uint64_t bytes) const;

  Cycles ChargeAccess(mem::VirtAddr addr, std::uint64_t size,
                      cache::AccessKind kind) {
    const Cycles c = caches_.Access(core_, addr, size, kind);
    cycles_ += c;
    return c;
  }

  /// An Execute result's cycles: the memory and native charges in cycles_,
  /// the base cost of @p instructions, and, under exec windows, the
  /// confinement cost of @p transfers.
  Cycles TotalCycles(std::uint64_t instructions,
                     std::uint64_t transfers) const noexcept {
    const Cycles transfer_cycles =
        config_.exec_windows.empty() ? 0 : config_.confine_branch_cycles;
    return cycles_ + instructions * kBaseCyclesPerInstr +
           transfers * transfer_cycles;
  }

  // Data accesses of 1, 2, 4 or 8 bytes, as jam code and natives issue them:
  // the sandbox window check, the cache charge, then the bytes. A legal
  // access within one page stays inline and builds no Status. Anything else
  // goes out of line to HostMemory's Status path, which serves a legal
  // page-straddling access or leaves the exact fault in @p fault. Both
  // return false on a fault. Forced inline: every load and store opcode has
  // its own call site with a constant width, where LoadLE/StoreLE fold to
  // one move, and Execute is too large for the compiler's own inlining
  // budget to take them all.

  /// Loads @p bytes at @p addr into @p out, zero-extended.
  [[gnu::always_inline]] bool LoadData(mem::VirtAddr addr, unsigned bytes,
                                       std::uint64_t& out, Status& fault) {
    if (!config_.data_windows.empty() &&
        !InWindows(config_.data_windows, addr, bytes)) {
      return WindowFault(addr, bytes, fault);
    }
    ChargeAccess(addr, bytes, cache::AccessKind::kLoad);
    if (const std::uint8_t* p =
            memory_.PageBytes(addr, bytes, mem::Perm::kRead)) {
      out = LoadLE(p, bytes);
      return true;
    }
    return LoadSlow(addr, bytes, out, fault);
  }

  /// Stores the low @p bytes of @p value at @p addr.
  [[gnu::always_inline]] bool StoreData(mem::VirtAddr addr,
                                        std::uint64_t value, unsigned bytes,
                                        Status& fault) {
    if (!config_.data_windows.empty() &&
        !InWindows(config_.data_windows, addr, bytes)) {
      return WindowFault(addr, bytes, fault);
    }
    ChargeAccess(addr, bytes, cache::AccessKind::kStore);
    if (std::uint8_t* p = memory_.PageBytes(addr, bytes, mem::Perm::kWrite)) {
      StoreLE(p, value, bytes);
      return true;
    }
    return StoreSlow(addr, value, bytes, fault);
  }

  // The out-of-line halves of LoadData/StoreData.
  bool WindowFault(mem::VirtAddr addr, unsigned bytes, Status& fault) const;
  bool LoadSlow(mem::VirtAddr addr, unsigned bytes, std::uint64_t& out,
                Status& fault) const;
  bool StoreSlow(mem::VirtAddr addr, std::uint64_t value, unsigned bytes,
                 Status& fault);

  // Host-endian scalars, as HostMemory's Load*/Store* read and write them;
  // a fixed-size memcpy per width compiles to one move.
  static std::uint64_t LoadLE(const std::uint8_t* p, unsigned bytes) {
    switch (bytes) {
      case 1: return *p;
      case 2: return LoadAs<std::uint16_t>(p);
      case 4: return LoadAs<std::uint32_t>(p);
      default: return LoadAs<std::uint64_t>(p);
    }
  }
  static void StoreLE(std::uint8_t* p, std::uint64_t value, unsigned bytes) {
    switch (bytes) {
      case 1: *p = static_cast<std::uint8_t>(value); break;
      case 2: StoreAs<std::uint16_t>(p, value); break;
      case 4: StoreAs<std::uint32_t>(p, value); break;
      default: StoreAs<std::uint64_t>(p, value); break;
    }
  }
  template <typename T>
  static T LoadAs(const std::uint8_t* p) {
    T v = 0;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }
  template <typename T>
  static void StoreAs(std::uint8_t* p, std::uint64_t value) {
    const auto v = static_cast<T>(value);
    std::memcpy(p, &v, sizeof(T));
  }

  mem::HostMemory& memory_;
  cache::CacheHierarchy& caches_;
  std::uint32_t core_;
  const NativeTable* natives_;
  ExecConfig config_;
  Cycles cycles_ = 0;  // memory and native charges during Execute
};

/// Options for the standard native set.
struct StandardNativesOptions {
  /// Where tc_print_* output goes (may be nullptr to discard).
  std::string* print_sink = nullptr;
};

/// Registers the baseline receiver-runtime natives:
///   tc_memcpy(dst, src, n)          -> dst
///   tc_memset(dst, byte, n)         -> dst
///   tc_print_str(ptr)               -> 0     (NUL-terminated)
///   tc_print_u64(v)                 -> 0
///   tc_hash64(x)                    -> splitmix64(x)
Status RegisterStandardNatives(NativeTable& table,
                               const StandardNativesOptions& options);

}  // namespace twochains::vm
