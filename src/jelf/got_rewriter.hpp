// The static GOT rewrite — the binary transformation at the heart of the
// paper's remote-linking mechanism (§III-B):
//
//   "At compile time, the binary is modified so that all references to the
//    global offset table (GOT) will redirect through a pointer stored a
//    fixed PC-relative location that we choose."
//
// Concretely: every `ldg.fix rd, imm` (a PC-relative load from the image's
// own GOT, the -fPIC -fno-plt idiom) is rewritten into
// `ldg.pre rd, slot, imm'`, which loads a GOT *pointer* from a preamble
// slot at a fixed offset before the code start and indexes it with the
// slot number. After the rewrite, the code no longer cares where its GOT
// lives — the sender packs a patched GOT (GOTP) into the message, or, in
// the hardened configuration, the receiver installs a pointer to its own
// securely built table on arrival.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "jelf/image.hpp"
#include "mem/host_memory.hpp"

namespace twochains::jelf {

/// Byte offset of the preamble GOT-pointer slot relative to the start of
/// the code blob ("the GOT redirect is located just before the code in the
/// message", §III-B). The frame codec places the PRE slot here.
inline constexpr std::int64_t kPreambleSlotOffset = -16;

struct RewriteStats {
  std::uint32_t rewritten = 0;  ///< ldg.fix instructions converted
};

/// Rewrites @p image's text in place. Fails if any GOT slot index exceeds
/// 255 (the ldg.pre index field) or an ldg.fix does not point into the
/// image's GOT.
StatusOr<RewriteStats> RewriteGotAccesses(LinkedImage& image);

/// True if the image's text contains no ldg.fix (i.e. it is safe to inject:
/// all GOT accesses go through the preamble pointer).
bool IsFullyRewritten(const LinkedImage& image);

// --- Receiver-side jam cache support ----------------------------------
//
// A cached jam image is a receiver-resident copy of the frame's linked
// prefix — [GOTP][pad][PRE][CODE] — laid out so the rewritten code's
// pc-relative preamble load (kPreambleSlotOffset) works unchanged. Once
// linked, a slim invoke-by-handle frame only has to name it by content
// hash: the hit cost is a PRE-slot validation instead of a full GOTP pack
// + rewrite-era link on every invoke (the DBI code-cache move: translate
// and link once, dispatch from the cache).

/// A receiver-resident, pre-linked jam image.
struct CachedJamImage {
  mem::VirtAddr base = 0;       ///< allocation start (== gotp_addr)
  std::uint64_t size = 0;       ///< total allocation bytes
  mem::VirtAddr gotp_addr = 0;  ///< patched GOT table
  mem::VirtAddr pre_addr = 0;   ///< preamble slot (code_addr - 16)
  mem::VirtAddr code_addr = 0;  ///< start of the code+rodata blob
  std::uint32_t got_slots = 0;
  std::uint64_t code_size = 0;
};

/// Content handle for a jam: FNV-1a 64 over the code+rodata blob and the
/// GOT shape (slot count + symbol names, in slot order). Sender and
/// receiver compute it independently from content, so a stale or mismatched
/// image can never be addressed by accident.
std::uint64_t ComputeJamHandle(std::span<const std::uint8_t> code,
                               std::span<const std::string> got_symbols);

/// Links @p code with @p gotp_values into a fresh receiver-side allocation
/// laid out exactly like the frame prefix (GOTP, then the PRE slot 16 bytes
/// before the code). The PRE slot is pointed at the embedded GOTP table.
/// Pages are RWX like mailbox banks (the interpreter fetch path checks X).
StatusOr<CachedJamImage> LinkCachedImage(
    mem::HostMemory& memory, std::span<const std::uint64_t> gotp_values,
    std::span<const std::uint8_t> code, std::string_view tag);

/// The per-hit relink: validates the cached image and re-points its PRE
/// slot at the embedded GOTP table. This is the table-lookup-cost
/// replacement for the full per-invoke GOT rewrite.
Status RelinkCachedImage(mem::HostMemory& memory, const CachedJamImage& image);

/// Releases a cached image's allocation.
Status ReleaseCachedImage(mem::HostMemory& memory,
                          const CachedJamImage& image);

}  // namespace twochains::jelf
