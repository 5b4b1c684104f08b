// Active-message frame layout and codec (Figures 1-3 of the paper).
//
// Injected Function frame:
//
//   +0      HDR   magic, flags, SN, FR_LEN, ELEM, ARGS_SIZE, USR_SIZE
//   +24     GOTP  patched GOT: 8 bytes per external symbol of the jam
//   ...     PRE   8-byte GOT pointer slot at (code_off - 16); the rewritten
//                 code loads it PC-relatively (jelf::kPreambleSlotOffset)
//   code_off      CODE: the jam's code+rodata blob (position independent)
//   args_off      ARGS: the invocation argument block
//   usr_off       USR : user payload
//   fr_len-8 SIG  signal word: (magic32 << 32) | SN
//
// Local Function frames drop GOTP/PRE/CODE (Fig. 3): the header's element
// ID selects the function from the receiver-resident library.
//
// Frames round up to the 64 B cache line; "messages are sized to the
// nearest 64B" (§VII-A). In fixed-size-frame mode (the paper's measurement
// configuration) the whole frame travels in one put and the receiver waits
// on the SIG word at a known offset. In variable mode the receiver first
// waits on the header magic, reads FR_LEN, then waits on SIG (§III-A).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "mem/address.hpp"

namespace twochains::core {

inline constexpr std::uint16_t kFrameMagic = 0x2C4A;     // "two-chains jam"
inline constexpr std::uint32_t kSignalMagic = 0x51C2C4Au;

/// Header flag bits.
enum FrameFlags : std::uint16_t {
  kFlagInjected = 1 << 0,     ///< GOTP/CODE sections present
  kFlagNoExecute = 1 << 1,    ///< deliver + signal but skip invocation
                              ///< (the paper's "without-execution" mode)
  kFlagByHandle = 1 << 3,     ///< slim invoke-by-handle frame: GOTP/CODE are
                              ///< dropped and a 64-bit content handle names
                              ///< the receiver's cached, pre-linked image
};

struct FrameHeader {
  std::uint16_t magic = kFrameMagic;
  std::uint16_t flags = 0;
  std::uint32_t sn = 0;
  std::uint32_t frame_len = 0;
  std::uint32_t elem_id = 0;
  std::uint32_t args_size = 0;
  std::uint32_t usr_size = 0;
};
inline constexpr std::uint64_t kHeaderBytes = 24;

/// Shape parameters from which a layout is computed.
struct FrameSpec {
  bool injected = false;
  std::uint32_t got_slots = 0;       ///< injected only
  std::uint64_t code_size = 0;       ///< injected only (code+rodata blob)
  std::uint64_t args_size = 0;
  std::uint64_t usr_size = 0;
  /// Pad so CODE and ARGS/USR live on distinct pages (the §V "separate the
  /// user data payload area" hardening; costs frame size).
  bool split_code_data = false;
  /// Invoke-by-handle: drop GOTP/CODE, carry an 8-byte content handle at
  /// kHeaderBytes instead. Mutually exclusive with `injected` on the wire
  /// (the jam is injected conceptually, but its body lives in the
  /// receiver's jam cache).
  bool by_handle = false;
};

struct FrameLayout {
  std::uint64_t gotp_off = 0;    ///< 0 if absent
  std::uint64_t pre_off = 0;     ///< GOT-pointer slot (code_off - 16)
  std::uint64_t code_off = 0;    ///< 0 if absent
  std::uint64_t handle_off = 0;  ///< 0 if absent (by-handle frames only)
  std::uint64_t args_off = 0;
  std::uint64_t usr_off = 0;
  std::uint64_t sig_off = 0;    ///< frame_len - 8
  std::uint64_t frame_len = 0;  ///< 64-byte multiple

  static FrameLayout Compute(const FrameSpec& spec);
};

/// The 64-bit signal word for sequence number @p sn.
constexpr std::uint64_t SignalWord(std::uint32_t sn) noexcept {
  return (static_cast<std::uint64_t>(kSignalMagic) << 32) | sn;
}

/// Serializes a header into @p out (>= kHeaderBytes).
void WriteHeader(const FrameHeader& header, std::span<std::uint8_t> out);

/// Parses + validates a header: magic, then self-consistency of the size
/// fields — frame_len must be a nonzero 64 B multiple that fits the header,
/// payload sections, and signal word, and (when @p slot_capacity is nonzero,
/// e.g. the receiving mailbox slot size) must not exceed the buffer the
/// frame claims to occupy. Rejecting here keeps a truncated or garbled
/// frame from ever reaching payload parsing.
StatusOr<FrameHeader> ReadHeader(std::span<const std::uint8_t> bytes,
                                 std::uint64_t slot_capacity = 0);

/// Builds a complete frame of the shape @p spec names; sizes in @p spec
/// must match the spans. A full-body frame carries @p gotp_values and
/// @p code. A by-handle frame carries exactly one @p gotp_values word, the
/// jam's 64-bit content handle, at handle_off (where GOTP would start).
/// A Local frame carries neither. The PRE slot is left zero — the sender
/// patches it with the receiver-side GOTP address once the target mailbox
/// is known (or the receiver installs it in the hardened mode).
StatusOr<std::vector<std::uint8_t>> PackFrame(
    const FrameSpec& spec, FrameHeader header,
    std::span<const std::uint64_t> gotp_values,
    std::span<const std::uint8_t> code, std::span<const std::uint8_t> args,
    std::span<const std::uint8_t> usr);

/// Writes @p value into the PRE slot of a packed frame.
Status PatchPreSlot(std::span<std::uint8_t> frame, const FrameLayout& layout,
                    std::uint64_t value);

}  // namespace twochains::core
