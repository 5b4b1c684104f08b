// Ablation: the remote-linking toolchain itself — per-jam code sizes, GOT
// slot counts, rewrite coverage, the size split between the injectable
// image and the Local Function library built from the same sources, and
// the jam-cache relink column: measured per-invoke link cycles for a cold
// full-body arrival vs a warm by-handle cache hit.
#include <algorithm>

#include "fig_common.hpp"
#include "jelf/got_rewriter.hpp"

using namespace twochains;
using namespace twochains::bench;

namespace {

constexpr int kHotInvokes = 16;

/// Per-jam measured relink costs from a cache-armed testbed: one cold
/// full-body send (which installs), then kHotInvokes by-handle sends.
struct RelinkSample {
  std::uint64_t full_frame = 0;  ///< cold (full-body) frame bytes
  std::uint64_t hot_frame = 0;   ///< by-handle frame bytes
  double cold_cycles = 0;        ///< per-invoke link cycles, cold path
  double cached_cycles = 0;      ///< per-invoke relink cycles, hit path
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

RelinkSample MeasureRelink(core::Fabric& fabric,
                           const core::JamCacheConfig& cache,
                           const std::string& jam) {
  core::Runtime& sender = fabric.runtime(0);
  core::Runtime& receiver = fabric.runtime(1);
  const std::vector<std::uint64_t> args = {0};
  const std::vector<std::uint8_t> usr(8, 0x11);

  auto invoke = [&]() {
    bool done = false;
    receiver.SetOnExecuted([&](const core::ReceivedMessage& msg) {
      if (msg.executed) done = true;
    });
    auto receipt =
        MustOk(sender.Send(jam, core::Invoke::kInjected, args, usr), "send");
    fabric.RunUntil([&] { return done; });
    receiver.SetOnExecuted(nullptr);
    return receipt;
  };

  RelinkSample sample;
  const core::JamCacheStats before = receiver.jam_cache_stats();
  sample.full_frame = invoke().frame_len;
  for (int i = 0; i < kHotInvokes; ++i) sample.hot_frame = invoke().frame_len;
  const core::JamCacheStats after = receiver.jam_cache_stats();

  sample.hits = after.hits - before.hits;
  sample.misses = after.misses - before.misses;
  sample.cached_cycles = static_cast<double>(cache.hit_relink_cycles);
  // Every hit banks (cold - cached) link cycles into link_cycles_saved;
  // divide back out to recover the measured cold per-invoke cost.
  if (sample.hits > 0) {
    sample.cold_cycles =
        static_cast<double>(after.link_cycles_saved -
                            before.link_cycles_saved) /
            static_cast<double>(sample.hits) +
        sample.cached_cycles;
  }
  return sample;
}

}  // namespace

int main() {
  Banner("Ablation", "GOT rewrite + dual-variant package build");
  const pkg::Package& package = BenchPackage();

  Table table({"jam", "code+rodata(B)", "GOT slots", "rewritten",
               "1-int inj frame(B)"});
  bool ok = true;
  for (const auto& elem : package.elements) {
    if (elem.kind != pkg::ElementKind::kJam) continue;
    // Count rewritten GOT accesses by scanning for ldg.pre.
    std::uint32_t pre_count = 0;
    for (std::size_t off = 0; off < elem.injected_image.text.size();
         off += vm::kInstrBytes) {
      const auto instr = vm::Decode(elem.injected_image.text.data() + off);
      if (instr && instr->op == vm::Opcode::kLdgPre) ++pre_count;
    }
    ok &= jelf::IsFullyRewritten(elem.injected_image);

    core::FrameSpec spec;
    spec.injected = true;
    spec.got_slots = elem.injected_image.got_slot_count();
    spec.code_size = elem.injected_image.code_blob_size();
    spec.args_size = 8;
    spec.usr_size = 4;
    const auto layout = core::FrameLayout::Compute(spec);
    table.AddRow({elem.name, FmtU64(elem.injected_image.code_blob_size()),
                  FmtU64(elem.injected_image.got_slot_count()),
                  FmtU64(pre_count), FmtU64(layout.frame_len)});
  }
  table.Print();

  // Send-once/invoke-many: measure the per-invoke link cycles a warm jam
  // cache replaces with one PRE-slot validation, under the default
  // receiver and under the fully hardened one (code verification +
  // receiver-built GOT + W^X page flips — the per-arrival work the
  // security modes add to every full-body frame).
  const core::JamCacheConfig cache = HotJamCache();
  core::FabricOptions options = PaperFabric();
  options.runtime.jam_cache = cache;
  auto base_bed = MakeBenchFabric(options);
  options.runtime.security.verify_injected_code = true;
  options.runtime.security.receiver_installs_got = true;
  options.runtime.security.split_code_data_pages = true;
  auto hard_bed = MakeBenchFabric(options);

  Table relink({"jam", "full(B)", "by-handle(B)", "cold(cyc)", "cached(cyc)",
                "hardened cold(cyc)", "hardened gain"});
  double iput_base_ratio = 0;
  double min_hard_ratio = 1e18;
  std::uint64_t warm_misses = 0;
  bool frames_slim = true;
  for (const auto& elem : package.elements) {
    if (elem.kind != pkg::ElementKind::kJam) continue;
    const RelinkSample base = MeasureRelink(*base_bed, cache, elem.name);
    const RelinkSample hard = MeasureRelink(*hard_bed, cache, elem.name);
    warm_misses += base.misses + hard.misses;
    frames_slim &= base.hot_frame < base.full_frame;
    const double hard_ratio = hard.cold_cycles / hard.cached_cycles;
    min_hard_ratio = std::min(min_hard_ratio, hard_ratio);
    if (elem.name == "iput") {
      iput_base_ratio = base.cold_cycles / base.cached_cycles;
    }
    relink.AddRow({elem.name, FmtU64(base.full_frame),
                   FmtU64(base.hot_frame), FmtF(base.cold_cycles, "%.0f"),
                   FmtF(base.cached_cycles, "%.0f"),
                   FmtF(hard.cold_cycles, "%.0f"),
                   FmtF(hard_ratio, "%.1fx")});
  }
  std::printf("\njam cache (capacity %u): measured per-invoke relink, cold "
              "full-body vs warm by-handle\n",
              cache.capacity);
  relink.Print();

  std::printf("\nLocal Function library (all jams, unmodified): %llu B text"
              ", page aligned: %s\n",
              static_cast<unsigned long long>(package.local_library.text.size()),
              package.local_library.page_aligned ? "yes" : "no");
  std::printf("paper reference point: Indirect Put ships 1408 B of code; "
              "1-int injected frame 1472 B.\n");
  ok &= ShapeCheck("all jam images fully rewritten to preamble addressing",
                   ok);
  const auto* iput = package.Find(pkg::ElementKind::kJam, "iput");
  ok &= ShapeCheck("Indirect Put code size within 2x of the paper's 1408 B",
                   iput != nullptr &&
                       iput->injected_image.code_blob_size() >= 704 &&
                       iput->injected_image.code_blob_size() <= 2816);
  ok &= ShapeCheck("warm cache never misses (send-once, invoke-many)",
                   warm_misses == 0);
  ok &= ShapeCheck("by-handle frame smaller than full-body for every jam",
                   frames_slim);
  ok &= ShapeCheck("cached relink >=5x cheaper than cold (iput)",
                   iput_base_ratio >= 5.0);
  ok &= ShapeCheck("cached relink >=5x cheaper for every jam, hardened",
                   min_hard_ratio >= 5.0);
  return FinishChecks(ok);
}
