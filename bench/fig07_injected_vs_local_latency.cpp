// Figure 7: Indirect Put — latency, Injected Function vs Local Function,
// 1..16384 integers.
//
// Paper claims: ~40% latency loss for small payloads (the injected frame
// carries ~1.4 KB of code), converging to ~0% once the payload dominates
// (by 1024 integers for Indirect Put); protocol-threshold bumps at the 8-
// and 256-integer injected frames.
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

int main() {
  Banner("Figure 7", "Indirect Put latency: Injected vs Local Function");
  Table table({"ints", "local(us)", "injected(us)", "reduction",
               "local frame(B)", "inj frame(B)", "inj proto"});

  bool ok = true;
  double small_reduction = 0, large_reduction = 0;
  std::uint64_t injected_code_bytes = 0;
  for (std::uint64_t n = 1; n <= 16384; n *= 2) {
    auto local_bed = MakeBenchFabric();
    const auto local = MustOk(
        RunAmPingPong(*local_bed, IputConfig(n, core::Invoke::kLocal)),
        "local");
    auto injected_bed = MakeBenchFabric();
    const auto injected = MustOk(
        RunAmPingPong(*injected_bed, IputConfig(n, core::Invoke::kInjected)),
        "injected");

    const double local_us = ToMicroseconds(local.one_way.Median());
    const double injected_us = ToMicroseconds(injected.one_way.Median());
    const double reduction = (local_us - injected_us) / local_us;
    if (n == 1) {
      small_reduction = reduction;
      injected_code_bytes = injected.frame_len - local.frame_len;
    }
    if (n == 16384) large_reduction = reduction;
    table.AddRow({FmtU64(n), FmtF(local_us, "%.3f"),
                  FmtF(injected_us, "%.3f"), FmtPct(reduction),
                  FmtU64(local.frame_len), FmtU64(injected.frame_len),
                  std::string(ucxs::ProtocolName(injected.protocol))});
  }
  table.Print();

  std::printf(
      "\ncode+linkage overhead carried by the injected frame: ~%llu B "
      "(paper: 1408 B of code; 1-int frames 64 B local vs 1472 B "
      "injected)\n",
      static_cast<unsigned long long>(injected_code_bytes));
  std::printf("paper: ~-40%% at small payloads -> ~0%% by 1024 ints; "
              "bumps at 8 and 256 ints from UCX protocol thresholds.\n");
  ok &= ShapeCheck("injected slower at 1 int (code ships with the message)",
                   small_reduction < -0.10);
  ok &= ShapeCheck("overhead negligible at 16384 ints (<5%)",
                   large_reduction > -0.05);
  ok &= ShapeCheck("overhead shrinks monotonically in the large limit",
                   large_reduction > small_reduction);
  return FinishChecks(ok);
}
