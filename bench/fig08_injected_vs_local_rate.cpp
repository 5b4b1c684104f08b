// Figure 8: Indirect Put — message rate, Injected vs Local Function,
// 1..16384 integers (injection-rate shape with bank flow control).
//
// Paper claims: mirror of Fig. 7 — ~40% lower rate for small payloads
// (more bytes per message), converging as payload grows.
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

namespace {

/// `--hot` variant: the same Injected sweep with the receiver-side jam
/// cache armed. The first send per testbed travels full-body and installs;
/// every later send rides the 64 B by-handle frame, so wire bytes/invoke
/// and link cycles/invoke collapse while the message rate only rises.
int RunHot() {
  Banner("Figure 8 --hot",
         "Indirect Put injected rate: cold full-body vs warm jam cache");
  Table table({"ints", "cold(msg/s)", "hot(msg/s)", "cold B/inv",
               "hot B/inv", "wire saved", "link cyc/inv saved"});

  bool ok = true;
  bool bytes_drop = true;
  bool all_hits = true;
  double small_speedup = 0;
  core::FabricOptions hot_options = PaperFabric();
  hot_options.runtime.jam_cache = HotJamCache();
  for (std::uint64_t n = 1; n <= 16384; n *= 2) {
    auto cold_bed = MakeBenchFabric();
    const auto cold = MustOk(
        RunAmInjectionRate(*cold_bed, IputConfig(n, core::Invoke::kInjected)),
        "cold");
    auto hot_bed = MakeBenchFabric(hot_options);
    const auto hot = MustOk(
        RunAmInjectionRate(*hot_bed, IputConfig(n, core::Invoke::kInjected)),
        "hot");

    const double cold_bpi =
        static_cast<double>(cold.wire_bytes) / cold.messages;
    const double hot_bpi = static_cast<double>(hot.wire_bytes) / hot.messages;
    const double cyc_saved =
        static_cast<double>(hot.rx_jam.link_cycles_saved) / hot.messages;
    bytes_drop &= hot_bpi < cold_bpi;
    // One install per fresh testbed; every later send must hit.
    all_hits &= hot.rx_jam.hits == hot.messages - 1 &&
                hot.rx_jam.misses == 0;
    if (n == 1) {
      small_speedup = hot.messages_per_second / cold.messages_per_second;
    }
    table.AddRow({FmtU64(n), FmtF(cold.messages_per_second, "%.0f"),
                  FmtF(hot.messages_per_second, "%.0f"),
                  FmtF(cold_bpi, "%.0f"), FmtF(hot_bpi, "%.0f"),
                  FmtPct(1.0 - hot_bpi / cold_bpi),
                  FmtF(cyc_saved, "%.1f")});
  }
  table.Print();

  std::printf("\nwarm cache: send-once/invoke-many — wire bytes/invoke and "
              "link cycles/invoke drop, rate never falls.\n");
  ok &= ShapeCheck("wire bytes/invoke below full-body at every size",
                   bytes_drop);
  ok &= ShapeCheck("every warm send is a cache hit (one install, no misses)",
                   all_hits);
  ok &= ShapeCheck("warm rate higher at 1 int (slimmer frames pump faster)",
                   small_speedup > 1.0);
  return FinishChecks(ok);
}

}  // namespace

int main(int argc, char** argv) {
  if (HasFlag(argc, argv, "--hot")) return RunHot();
  Banner("Figure 8", "Indirect Put message rate: Injected vs Local Function");
  Table table({"ints", "local(msg/s)", "injected(msg/s)", "change"});

  bool ok = true;
  double small_change = 0, large_change = 0;
  for (std::uint64_t n = 1; n <= 16384; n *= 2) {
    auto local_bed = MakeBenchFabric();
    const auto local = MustOk(
        RunAmInjectionRate(*local_bed, IputConfig(n, core::Invoke::kLocal)),
        "local");
    auto injected_bed = MakeBenchFabric();
    const auto injected = MustOk(
        RunAmInjectionRate(*injected_bed,
                           IputConfig(n, core::Invoke::kInjected)),
        "injected");

    const double change = (injected.messages_per_second -
                           local.messages_per_second) /
                          local.messages_per_second;
    if (n == 1) small_change = change;
    if (n == 16384) large_change = change;
    table.AddRow({FmtU64(n), FmtF(local.messages_per_second, "%.0f"),
                  FmtF(injected.messages_per_second, "%.0f"),
                  FmtPct(change)});
  }
  table.Print();

  std::printf("\npaper: injected rate ~40%% lower at small payloads, "
              "converging to ~0%% as payload dominates.\n");
  ok &= ShapeCheck("injected rate lower at 1 int", small_change < -0.10);
  ok &= ShapeCheck("rates converge at 16384 ints (within 5%)",
                   large_change > -0.05);
  return FinishChecks(ok);
}
