#include "jelf/got_rewriter.hpp"

#include "common/bitops.hpp"
#include "common/strfmt.hpp"
#include "jamvm/isa.hpp"

namespace twochains::jelf {

StatusOr<RewriteStats> RewriteGotAccesses(LinkedImage& image) {
  RewriteStats stats;
  for (std::size_t off = 0; off < image.text.size(); off += vm::kInstrBytes) {
    auto decoded = vm::Decode(image.text.data() + off);
    if (!decoded) {
      return DataLoss(StrFormat("undecodable instruction at +%zu", off));
    }
    if (decoded->op != vm::Opcode::kLdgFix) continue;

    // Recover the slot index this fixed access referenced.
    const std::int64_t target =
        static_cast<std::int64_t>(off) + decoded->imm;
    const auto got_begin = static_cast<std::int64_t>(image.got_offset);
    const auto got_end = got_begin + 8ll * image.got_slot_count();
    if (target < got_begin || target >= got_end || (target - got_begin) % 8) {
      return DataLoss(
          StrFormat("ldg.fix at +%zu does not address a GOT slot", off));
    }
    const std::int64_t slot = (target - got_begin) / 8;
    if (slot > 255) {
      return OutOfRange(
          StrFormat("GOT slot %lld exceeds the ldg.pre index range "
                    "(jams support at most 256 external symbols)",
                    static_cast<long long>(slot)));
    }

    vm::Instr rewritten;
    rewritten.op = vm::Opcode::kLdgPre;
    rewritten.rd = decoded->rd;
    rewritten.rs2 = static_cast<std::uint8_t>(slot);
    // PC-relative offset from this instruction to the preamble slot, which
    // sits at kPreambleSlotOffset bytes before the code start.
    const std::int64_t pre_delta =
        kPreambleSlotOffset - static_cast<std::int64_t>(off);
    if (pre_delta < INT32_MIN) return OutOfRange("preamble offset overflow");
    rewritten.imm = static_cast<std::int32_t>(pre_delta);
    vm::Encode(rewritten, image.text.data() + off);
    ++stats.rewritten;
  }
  return stats;
}

bool IsFullyRewritten(const LinkedImage& image) {
  for (std::size_t off = 0; off < image.text.size(); off += vm::kInstrBytes) {
    const auto decoded = vm::Decode(image.text.data() + off);
    if (decoded && decoded->op == vm::Opcode::kLdgFix) return false;
  }
  return true;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

constexpr std::uint64_t FnvMix(std::uint64_t h, std::uint8_t byte) noexcept {
  return (h ^ byte) * kFnvPrime;
}

std::uint64_t FnvBytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) h = FnvMix(h, p[i]);
  return h;
}

}  // namespace

std::uint64_t ComputeJamHandle(std::span<const std::uint8_t> code,
                               std::span<const std::string> got_symbols) {
  std::uint64_t h = kFnvOffset;
  const std::uint64_t code_size = code.size();
  h = FnvBytes(h, &code_size, 8);
  h = FnvBytes(h, code.data(), code.size());
  const std::uint64_t slots = got_symbols.size();
  h = FnvBytes(h, &slots, 8);
  for (const std::string& sym : got_symbols) {
    h = FnvBytes(h, sym.data(), sym.size());
    h = FnvMix(h, 0);  // terminator so {"ab","c"} != {"a","bc"}
  }
  return h;
}

StatusOr<CachedJamImage> LinkCachedImage(
    mem::HostMemory& memory, std::span<const std::uint64_t> gotp_values,
    std::span<const std::uint8_t> code, std::string_view tag) {
  if (code.empty()) return InvalidArgument("cached jam has no code");

  // Mirror the frame prefix layout (FrameLayout::Compute without the
  // header): GOTP at 0, then a 16-byte PRE region ending where code begins.
  const std::uint64_t gotp_bytes = 8ull * gotp_values.size();
  const std::uint64_t code_off = AlignUp(gotp_bytes + 16, 16);
  const std::uint64_t total = code_off + code.size();

  TC_ASSIGN_OR_RETURN(const mem::VirtAddr base,
                      memory.Allocate(total, 16, mem::Perm::kRWX, tag));
  CachedJamImage image;
  image.base = base;
  image.size = total;
  image.gotp_addr = base;
  image.code_addr = base + code_off;
  image.pre_addr = image.code_addr - 16;
  image.got_slots = static_cast<std::uint32_t>(gotp_values.size());
  image.code_size = code.size();

  if (!gotp_values.empty()) {
    TC_RETURN_IF_ERROR(memory.Write(
        image.gotp_addr,
        {reinterpret_cast<const std::uint8_t*>(gotp_values.data()),
         gotp_bytes}));
  }
  TC_RETURN_IF_ERROR(memory.StoreU64(image.pre_addr, image.gotp_addr));
  TC_RETURN_IF_ERROR(memory.Write(image.code_addr, code));
  return image;
}

Status RelinkCachedImage(mem::HostMemory& memory, const CachedJamImage& image) {
  if (image.base == 0 || image.code_size == 0) {
    return FailedPrecondition("cached image not linked");
  }
  const mem::VirtAddr target = image.gotp_addr;
  TC_ASSIGN_OR_RETURN(const std::uint64_t current,
                      memory.LoadU64(image.pre_addr));
  if (current != target) {
    // The PRE update is the runtime's own privileged store — jam code never
    // writes it — so it rides the DMA plane and stays legal when the
    // hardened receiver seals the cached image RX.
    TC_RETURN_IF_ERROR(memory.DmaWrite(
        image.pre_addr,
        {reinterpret_cast<const std::uint8_t*>(&target), 8}));
  }
  return Status::Ok();
}

Status ReleaseCachedImage(mem::HostMemory& memory,
                          const CachedJamImage& image) {
  if (image.base == 0) return Status::Ok();
  return memory.Free(image.base);
}

}  // namespace twochains::jelf
