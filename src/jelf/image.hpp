// Linked images: the output of the static linker and the unit the dynamic
// loader maps into a host.
//
// Image layout (offsets within one contiguous allocation):
//
//   +0                .text     (all objects' code, 8-aligned)
//   +rodata_offset    .rodata   (merged, 16-aligned)
//   +got_offset       GOT       (8 bytes per slot, filled at load time)
//   +data_offset      .data     (merged writable data)
//
// `data` stores .data only up to its last non-zero byte. The rest, up to
// total_size, is zero and is never stored or written: the allocator hands
// out zeroed pages (mem/host_memory.hpp), so it reads as zero once loaded.
// This is ELF's NOBITS .bss idea with an unchanged layout.
//
// With `page_align_sections` (the default for ried libraries) each section
// starts on a page so the loader can enforce W^X: text RX, rodata R, GOT
// RW-then-RO, data RW. Jams link with it off — their images are code+rodata
// blobs that travel inside message frames (the GOT section is dropped and
// replaced by the patched GOT in the frame).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "jamvm/program.hpp"

namespace twochains::jelf {

/// A load-time 8-byte patch: either "base + target_offset" (internal) or
/// the namespace value of `symbol` plus addend (external).
struct LoadFixup {
  std::uint64_t image_offset = 0;  ///< where the 8 bytes live
  bool internal = false;
  std::uint64_t target_offset = 0;  ///< internal: offset within the image
  std::string symbol;               ///< external: resolve via namespace
  std::int64_t addend = 0;
};

struct ExportEntry {
  std::uint64_t offset = 0;  ///< within the image
  vm::SymbolKind kind = vm::SymbolKind::kFunc;
};

struct LinkedImage {
  std::string name;

  std::vector<std::uint8_t> text;
  std::vector<std::uint8_t> rodata;
  std::vector<std::uint8_t> data;  ///< up to the last non-zero byte

  std::uint64_t rodata_offset = 0;
  std::uint64_t got_offset = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t total_size = 0;
  bool page_aligned = false;

  /// GOT slot order: slot i belongs to got_symbols[i].
  std::vector<std::string> got_symbols;

  /// Exported (global, defined) symbols.
  std::map<std::string, ExportEntry> exports;

  std::vector<LoadFixup> fixups;

  std::uint32_t got_slot_count() const noexcept {
    return static_cast<std::uint32_t>(got_symbols.size());
  }

  /// The injectable blob for jams: text..rodata (everything before the
  /// GOT), which is what gets packed into a message CODE section.
  std::uint64_t code_blob_size() const noexcept { return got_offset; }
};

}  // namespace twochains::jelf
