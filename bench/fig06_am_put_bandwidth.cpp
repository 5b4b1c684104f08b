// Figure 6: Server-Side Sum — AM put (without-execution) streaming
// bandwidth vs plain UCX data put, 256 B..32 KiB.
//
// Paper claims: "bandwidth improvement across all message sizes tested ...
// ranging from a 1.79x speedup up to a 4.48x speedup", because "the
// standard UCX put operation has more library overhead for flow control and
// detecting message completion".
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

namespace {

/// `--hot` variant: the Server-Side Sum stream *with* execution, cold
/// full-body vs warm jam cache. No-execute frames never go by-handle (the
/// receiver has nothing to memoize), so the hot comparison runs the
/// executed stream: payload bytes delivered per invoke are identical, but
/// the warm sender stops shipping code+GOTP, so wire bytes/invoke drop by
/// a constant (the code it no longer carries) at every payload size.
int RunHot() {
  Banner("Figure 6 --hot",
         "Server-Side Sum stream: cold full-body vs warm jam cache");
  Table table({"usr(B)", "cold B/inv", "hot B/inv", "wire saved",
               "cold(msg/s)", "hot(msg/s)", "link cyc/inv saved"});

  bool ok = true;
  bool bytes_drop = true;
  bool all_hits = true;
  double min_abs_saved = 1e18, max_abs_saved = 0;
  core::FabricOptions hot_options = PaperFabric();
  hot_options.runtime.jam_cache = HotJamCache();
  for (std::uint64_t size = 256; size <= 32768; size *= 2) {
    auto cold_bed = MakeBenchFabric();
    const auto cold = MustOk(
        RunAmInjectionRate(*cold_bed,
                           SsumConfig(size, core::Invoke::kInjected)),
        "cold stream");
    auto hot_bed = MakeBenchFabric(hot_options);
    const auto hot = MustOk(
        RunAmInjectionRate(*hot_bed,
                           SsumConfig(size, core::Invoke::kInjected)),
        "hot stream");

    const double cold_bpi =
        static_cast<double>(cold.wire_bytes) / cold.messages;
    const double hot_bpi = static_cast<double>(hot.wire_bytes) / hot.messages;
    const double cyc_saved =
        static_cast<double>(hot.rx_jam.link_cycles_saved) / hot.messages;
    bytes_drop &= hot_bpi < cold_bpi;
    all_hits &= hot.rx_jam.hits == hot.messages - 1 &&
                hot.rx_jam.misses == 0;
    min_abs_saved = std::min(min_abs_saved, cold_bpi - hot_bpi);
    max_abs_saved = std::max(max_abs_saved, cold_bpi - hot_bpi);
    table.AddRow({FmtU64(size), FmtF(cold_bpi, "%.0f"),
                  FmtF(hot_bpi, "%.0f"), FmtPct(1.0 - hot_bpi / cold_bpi),
                  FmtF(cold.messages_per_second, "%.0f"),
                  FmtF(hot.messages_per_second, "%.0f"),
                  FmtF(cyc_saved, "%.1f")});
  }
  table.Print();

  std::printf("\nwarm cache: the code+GOTP the frame stops carrying is a "
              "constant per-invoke saving, so the relative gain is largest "
              "for small payloads.\n");
  ok &= ShapeCheck("wire bytes/invoke below full-body at every size",
                   bytes_drop);
  ok &= ShapeCheck("every warm send is a cache hit (one install, no misses)",
                   all_hits);
  ok &= ShapeCheck("absolute saving is the dropped code (roughly constant)",
                   min_abs_saved > 0 && max_abs_saved < 2 * min_abs_saved);
  return FinishChecks(ok);
}

}  // namespace

int main(int argc, char** argv) {
  if (HasFlag(argc, argv, "--hot")) return RunHot();
  Banner("Figure 6", "AM put (without execution) bandwidth vs UCX data put");
  Table table({"size(B)", "data put(MB/s)", "AM put(MB/s)", "increase"});

  bool ok = true;
  double min_ratio = 1e9, max_ratio = 0;
  double first_ratio = 0, last_ratio = 0;
  for (std::uint64_t size = 256; size <= 32768; size *= 2) {
    auto data_bed = MakeBenchFabric();
    RawPutConfig raw;
    raw.size = size;
    raw.iterations = 2 * IterationsFor(size);
    const auto data = MustOk(RunRawPutStream(*data_bed, raw), "data stream");

    auto am_bed = MakeBenchFabric();
    AmConfig am = SsumConfig(UsrBytesForLocalFrame(size), core::Invoke::kLocal);
    am.no_execute = true;
    am.iterations = 2 * IterationsFor(size);
    const auto am_result =
        MustOk(RunAmInjectionRate(*am_bed, am), "AM stream");

    const double ratio =
        am_result.megabytes_per_second / data.megabytes_per_second;
    min_ratio = std::min(min_ratio, ratio);
    max_ratio = std::max(max_ratio, ratio);
    if (size == 256) first_ratio = ratio;
    if (size == 32768) last_ratio = ratio;
    table.AddRow({FmtU64(size), FmtF(data.megabytes_per_second, "%.0f"),
                  FmtF(am_result.megabytes_per_second, "%.0f"),
                  FmtPct(ratio - 1.0)});
  }
  table.Print();

  std::printf("\npaper: AM put 1.79x-4.48x higher bandwidth than data put.\n");
  ok &= ShapeCheck("AM put bandwidth higher at every size", min_ratio > 1.0);
  ok &= ShapeCheck("peak advantage is substantial (>= 1.5x)",
                   max_ratio >= 1.5);
  ok &= ShapeCheck("advantage shrinks as the wire saturates (small > large)",
                   first_ratio > last_ratio);
  return FinishChecks(ok);
}
