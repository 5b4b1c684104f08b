#include "core/frame.hpp"

#include <cstring>

#include "common/bitops.hpp"
#include "common/strfmt.hpp"

namespace twochains::core {

FrameLayout FrameLayout::Compute(const FrameSpec& spec) {
  FrameLayout layout;
  std::uint64_t cursor = kHeaderBytes;
  if (spec.by_handle) {
    layout.handle_off = cursor;
    cursor += 8;
  } else if (spec.injected) {
    layout.gotp_off = cursor;
    cursor += 8ull * spec.got_slots;
    // PRE region: 16 bytes ending exactly where code begins, so the
    // rewritten code's pc-relative preamble loads (offset -16) hit it.
    cursor = AlignUp(cursor + 16, 16);
    layout.code_off = cursor;
    layout.pre_off = layout.code_off - 16;
    cursor += spec.code_size;
    if (spec.split_code_data) cursor = AlignUp(cursor, mem::kPageSize);
  }
  layout.args_off = AlignUp(cursor, 8);
  layout.usr_off = layout.args_off + AlignUp(spec.args_size, 8);
  const std::uint64_t end = layout.usr_off + spec.usr_size;
  layout.frame_len = AlignUp(end + 8, kCacheLineBytes);
  layout.sig_off = layout.frame_len - 8;
  return layout;
}

void WriteHeader(const FrameHeader& header, std::span<std::uint8_t> out) {
  std::memcpy(out.data() + 0, &header.magic, 2);
  std::memcpy(out.data() + 2, &header.flags, 2);
  std::memcpy(out.data() + 4, &header.sn, 4);
  std::memcpy(out.data() + 8, &header.frame_len, 4);
  std::memcpy(out.data() + 12, &header.elem_id, 4);
  std::memcpy(out.data() + 16, &header.args_size, 4);
  std::memcpy(out.data() + 20, &header.usr_size, 4);
}

StatusOr<FrameHeader> ReadHeader(std::span<const std::uint8_t> bytes,
                                 std::uint64_t slot_capacity) {
  if (bytes.size() < kHeaderBytes) return DataLoss("truncated frame header");
  FrameHeader header;
  std::memcpy(&header.magic, bytes.data() + 0, 2);
  std::memcpy(&header.flags, bytes.data() + 2, 2);
  std::memcpy(&header.sn, bytes.data() + 4, 4);
  std::memcpy(&header.frame_len, bytes.data() + 8, 4);
  std::memcpy(&header.elem_id, bytes.data() + 12, 4);
  std::memcpy(&header.args_size, bytes.data() + 16, 4);
  std::memcpy(&header.usr_size, bytes.data() + 20, 4);
  if (header.magic != kFrameMagic) {
    return DataLoss(StrFormat("bad frame magic 0x%04x", header.magic));
  }
  // Size-field self-consistency: the smallest legal frame is one cache line
  // (header + signal word), frame_len is always a 64 B multiple, and the
  // declared payload sections plus the trailing signal word must fit inside
  // frame_len. A by-handle frame additionally reserves 8 bytes for the
  // content handle between the header and ARGS.
  if (header.frame_len < kCacheLineBytes ||
      header.frame_len % kCacheLineBytes != 0) {
    return DataLoss(StrFormat("bad frame_len %u", header.frame_len));
  }
  const std::uint64_t fixed =
      kHeaderBytes + ((header.flags & kFlagByHandle) ? 8 : 0);
  const std::uint64_t payload =
      AlignUp(header.args_size, 8) + header.usr_size + 8 /* SIG */;
  if (fixed + payload > header.frame_len) {
    return DataLoss(
        StrFormat("frame sections overflow frame_len %u (args %u usr %u)",
                  header.frame_len, header.args_size, header.usr_size));
  }
  if (slot_capacity != 0 && header.frame_len > slot_capacity) {
    return DataLoss(StrFormat("frame_len %u exceeds slot capacity %llu",
                              header.frame_len,
                              static_cast<unsigned long long>(slot_capacity)));
  }
  return header;
}

StatusOr<std::vector<std::uint8_t>> PackFrame(
    const FrameSpec& spec, FrameHeader header,
    std::span<const std::uint64_t> gotp_values,
    std::span<const std::uint8_t> code, std::span<const std::uint8_t> args,
    std::span<const std::uint8_t> usr) {
  const bool full_body = spec.injected && !spec.by_handle;
  const std::size_t words =
      spec.by_handle ? 1 : (full_body ? spec.got_slots : 0);
  if (gotp_values.size() != words) {
    return InvalidArgument(spec.by_handle ? "by-handle frame needs one handle"
                                          : "GOTP value count mismatch");
  }
  if (code.size() != (full_body ? spec.code_size : 0)) {
    return InvalidArgument(full_body ? "code size mismatch"
                                     : "only a full-body frame carries code");
  }
  if (args.size() != spec.args_size || usr.size() != spec.usr_size) {
    return InvalidArgument("payload size mismatch");
  }

  const FrameLayout layout = FrameLayout::Compute(spec);
  std::vector<std::uint8_t> frame(layout.frame_len, 0);

  header.frame_len = static_cast<std::uint32_t>(layout.frame_len);
  header.args_size = static_cast<std::uint32_t>(spec.args_size);
  header.usr_size = static_cast<std::uint32_t>(spec.usr_size);
  // A by-handle frame is still an Injected Function invocation — the code
  // just lives in the receiver's cache instead of the frame.
  const int shape = spec.by_handle ? (kFlagInjected | kFlagByHandle)
                                   : (spec.injected ? kFlagInjected : 0);
  header.flags = static_cast<std::uint16_t>(header.flags | shape);
  WriteHeader(header, frame);

  if (!gotp_values.empty()) {
    std::memcpy(frame.data() +
                    (spec.by_handle ? layout.handle_off : layout.gotp_off),
                gotp_values.data(), 8 * gotp_values.size());
  }
  if (!code.empty()) {
    std::memcpy(frame.data() + layout.code_off, code.data(), code.size());
  }
  if (!args.empty()) {
    std::memcpy(frame.data() + layout.args_off, args.data(), args.size());
  }
  if (!usr.empty()) {
    std::memcpy(frame.data() + layout.usr_off, usr.data(), usr.size());
  }
  const std::uint64_t sig = SignalWord(header.sn);
  std::memcpy(frame.data() + layout.sig_off, &sig, 8);
  return frame;
}

Status PatchPreSlot(std::span<std::uint8_t> frame, const FrameLayout& layout,
                    std::uint64_t value) {
  if (layout.code_off == 0) {
    return FailedPrecondition("local frames have no PRE slot");
  }
  if (layout.pre_off + 8 > frame.size()) {
    return OutOfRange("PRE slot outside frame");
  }
  std::memcpy(frame.data() + layout.pre_off, &value, 8);
  return Status::Ok();
}

}  // namespace twochains::core
