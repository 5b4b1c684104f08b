// JELF: the serialized object/library container (stand-in for ELF .o /
// .so files in the paper's toolchain). Two record types share a header:
//
//   magic "JELF" | version u16 | type u8 (0=object, 1=image) | payload
//
// Object payloads carry sections (with .data's zero-tail count) + symbols
// + relocations (assembler output); image payloads carry the linked
// layout + GOT symbol list + exports + fixups (linker output). Both
// round-trip byte-exactly, so packages can be "installed" to byte blobs
// and loaded elsewhere — which is exactly what a ried shipped to a remote
// host is.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "jelf/image.hpp"
#include "jamvm/program.hpp"

namespace twochains::jelf {

inline constexpr std::uint32_t kJelfMagic = 0x464C454Au;  // "JELF" LE
inline constexpr std::uint16_t kJelfVersion = 1;

std::vector<std::uint8_t> SerializeObject(const vm::ObjectCode& object);
StatusOr<vm::ObjectCode> ParseObject(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> SerializeImage(const LinkedImage& image);
StatusOr<LinkedImage> ParseImage(std::span<const std::uint8_t> bytes);

}  // namespace twochains::jelf
