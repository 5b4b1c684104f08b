// Figure 10: Indirect Put — Injected Function message rate with LLC
// stashing enabled vs disabled, 1..8192 integers.
//
// Paper claims: "there is a 92% (1.9x) message rate increase for small put
// counts, with this advantage reducing as message sizes get large enough to
// benefit from the prefetcher."
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

int main() {
  Banner("Figure 10", "Indirect Put message rate: LLC stashing on vs off");
  Table table({"ints", "nonstash(msg/s)", "stash(msg/s)", "increase"});

  bool ok = true;
  double max_increase = 0, last_increase = 0;
  core::FabricOptions nonstash_options = PaperFabric();
  nonstash_options.nic.stash_to_llc = false;
  for (std::uint64_t n = 1; n <= 8192; n *= 2) {
    auto stash_bed = MakeBenchFabric();
    const auto stash = MustOk(
        RunAmInjectionRate(*stash_bed, IputConfig(n, core::Invoke::kInjected)),
        "stash");
    auto nonstash_bed = MakeBenchFabric(nonstash_options);
    const auto nonstash = MustOk(
        RunAmInjectionRate(*nonstash_bed,
                           IputConfig(n, core::Invoke::kInjected)),
        "nonstash");

    const double increase = (stash.messages_per_second -
                             nonstash.messages_per_second) /
                            nonstash.messages_per_second;
    max_increase = std::max(max_increase, increase);
    last_increase = increase;
    table.AddRow({FmtU64(n), FmtF(nonstash.messages_per_second, "%.0f"),
                  FmtF(stash.messages_per_second, "%.0f"),
                  FmtPct(increase)});
  }
  table.Print();

  std::printf("\npaper: up to 92%% (1.9x) rate increase at small puts, "
              "advantage reducing with size.\n");
  ok &= ShapeCheck("stashing raises the rate substantially (peak >= 30%)",
                   max_increase >= 0.30);
  ok &= ShapeCheck("advantage reduces at the largest size",
                   last_increase < max_increase);
  return FinishChecks(ok);
}
