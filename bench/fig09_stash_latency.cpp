// Figure 9: Indirect Put — Injected Function latency with LLC stashing
// enabled vs disabled, 1..8192 integers.
//
// Paper claims: "Stashing the message code and data to LLC improves latency
// by up to 31%. ... once the message size is large enough to trigger the
// prefetcher ... the difference in latency ... starts narrowing."
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

int main() {
  Banner("Figure 9", "Indirect Put latency: LLC stashing on vs off");
  Table table({"ints", "nonstash(us)", "stash(us)", "reduction"});

  bool ok = true;
  double max_reduction = 0, last_reduction = 0;
  core::FabricOptions nonstash_options = PaperFabric();
  nonstash_options.nic.stash_to_llc = false;
  for (std::uint64_t n = 1; n <= 8192; n *= 2) {
    auto stash_bed = MakeBenchFabric();
    const auto stash = MustOk(
        RunAmPingPong(*stash_bed, IputConfig(n, core::Invoke::kInjected)),
        "stash");
    auto nonstash_bed = MakeBenchFabric(nonstash_options);
    const auto nonstash = MustOk(
        RunAmPingPong(*nonstash_bed, IputConfig(n, core::Invoke::kInjected)),
        "nonstash");

    const double nonstash_us = ToMicroseconds(nonstash.one_way.Median());
    const double stash_us = ToMicroseconds(stash.one_way.Median());
    const double reduction = (nonstash_us - stash_us) / nonstash_us;
    max_reduction = std::max(max_reduction, reduction);
    last_reduction = reduction;
    table.AddRow({FmtU64(n), FmtF(nonstash_us, "%.3f"),
                  FmtF(stash_us, "%.3f"), FmtPct(reduction)});
  }
  table.Print();

  std::printf("\npaper: up to 31%% latency reduction, narrowing once the "
              "prefetcher covers large payloads.\n");
  ok &= ShapeCheck("stashing reduces latency substantially (peak >= 15%)",
                   max_reduction >= 0.15);
  ok &= ShapeCheck("gap narrows at the largest size (< peak)",
                   last_reduction < max_reduction);
  ok &= ShapeCheck("stashing never hurts", last_reduction > -0.02);
  return FinishChecks(ok);
}
