// Dynamic loading: per-host symbol namespaces and the library loader.
//
// Each simulated process (host) has one HostNamespace — the paper's
// "ELF library loading as a per-process name resolution mechanism" (§II-B).
// Loading a ried library allocates the image in host memory, binds its GOT
// against the namespace (bind-now), applies absolute fixups, registers its
// exports, and sets section page permissions. Rebinding support models the
// paper's remote-update story: replace a library, refresh dependents' GOTs,
// and subsequent active messages resolve to the new code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "jelf/image.hpp"
#include "mem/host_memory.hpp"

namespace twochains::jelf {

/// Per-process symbol table: name -> value (a virtual address for jam code
/// and data, or a tagged native handle — see jamvm/interpreter.hpp).
class HostNamespace {
 public:
  /// Defines @p name. Fails with kAlreadyExists unless @p allow_redefine.
  Status Define(const std::string& name, std::uint64_t value,
                bool allow_redefine = false);

  StatusOr<std::uint64_t> Lookup(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return values_.contains(name);
  }
  Status Remove(const std::string& name);

  /// All symbols, sorted by name (namespace-sync serialization).
  const std::map<std::string, std::uint64_t>& entries() const {
    return values_;
  }

 private:
  std::map<std::string, std::uint64_t> values_;
};

struct LoadedLibrary {
  std::string name;
  mem::VirtAddr base = 0;
  std::uint64_t size = 0;
  mem::VirtAddr got_addr = 0;
  std::uint32_t got_slots = 0;
  std::vector<std::string> got_symbols;  ///< for rebinding
  std::map<std::string, mem::VirtAddr> exports;  ///< absolute VAs
};

/// LoadLibrary always seals W^X section permissions (text RX, rodata R,
/// GOT RW, data RW), so the image must be page-aligned.
struct LoadOptions {
  /// Make the GOT read-only after binding (§V: receiver-side GOT hardening).
  bool got_read_only = false;
  /// Permit this library's exports to replace existing namespace entries
  /// (library hot-swap / remote update).
  bool allow_export_override = false;
  /// Run the static verifier (vm::VerifyCode with the image's fixed GOT
  /// window) over the text before anything goes live. Hardened receivers
  /// enable this for every package load; the default stays off because a
  /// local build's own libraries are trusted in the paper's model.
  bool verify_code = false;
};

/// Structural validation of a LinkedImage's declared layout: sections in
/// order (text, rodata, GOT, data), none overlapping, everything inside
/// total_size, exports and fixups in-image. Runtime::LoadPackage is where
/// any package enters a host, and it runs this over every image before
/// loading, so the offsets are not trusted — a hostile image with
/// got_offset < text.size() would otherwise wrap the verifier's rodata
/// bound and overflow the injectable-blob copy.
Status ValidateImageLayout(const LinkedImage& image);

/// Loads @p image into @p memory, binding against (and extending)
/// @p ns. Unresolved GOT symbols are an error (bind-now semantics).
StatusOr<LoadedLibrary> LoadLibrary(mem::HostMemory& memory,
                                    const LinkedImage& image,
                                    HostNamespace& ns,
                                    const LoadOptions& options = {});

/// Re-resolves every GOT slot of @p lib against the namespace's current
/// state (after a dependency was hot-swapped). Honors a read-only GOT by
/// temporarily restoring write permission.
Status RebindGot(mem::HostMemory& memory, const LoadedLibrary& lib,
                 const HostNamespace& ns);

}  // namespace twochains::jelf
