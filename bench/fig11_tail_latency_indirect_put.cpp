// Figure 11: Indirect Put — median + 99.9th-percentile (tail) latency and
// tail-latency spread on a fully loaded system (stress co-runner),
// LLC stashing enabled vs disabled, 1..1024 integers.
//
// Paper claims: "tail latency is up to 2.4x better when LLC stashing is
// enabled. With stashing, the tail latency spread peaks at 182%, while
// non-stashing has an erratic behavior."
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

int main() {
  Banner("Figure 11",
         "Indirect Put tail latency under load: stash vs nonstash");
  Table table({"ints", "ns med(us)", "ns tail(us)", "ns spread",
               "st med(us)", "st tail(us)", "st spread", "tail ratio"});

  bool ok = true;
  double best_tail_ratio = 0;
  double worst_stash_spread = 0;
  int stash_tail_wins = 0, points = 0;
  core::FabricOptions nonstash_options = PaperFabric();
  nonstash_options.nic.stash_to_llc = false;
  for (std::uint64_t n = 1; n <= 1024; n *= 2) {
    AmConfig config = IputConfig(n, core::Invoke::kInjected);
    config.iterations = 2500;  // tail sampling needs depth
    config.warmup = 250;

    auto stash_bed = MakeBenchFabric();
    ApplyStress(*stash_bed, StressConfig{});
    const auto stash = MustOk(RunAmPingPong(*stash_bed, config), "stash");

    auto nonstash_bed = MakeBenchFabric(nonstash_options);
    ApplyStress(*nonstash_bed, StressConfig{});
    const auto nonstash =
        MustOk(RunAmPingPong(*nonstash_bed, config), "nonstash");

    const double ratio = static_cast<double>(nonstash.one_way.Tail()) /
                         static_cast<double>(stash.one_way.Tail());
    best_tail_ratio = std::max(best_tail_ratio, ratio);
    worst_stash_spread =
        std::max(worst_stash_spread, stash.one_way.TailSpread());
    ++points;
    if (ratio > 1.0) ++stash_tail_wins;
    table.AddRow({FmtU64(n), FmtUs(nonstash.one_way.Median()),
                  FmtUs(nonstash.one_way.Tail()),
                  FmtPct(nonstash.one_way.TailSpread()),
                  FmtUs(stash.one_way.Median()),
                  FmtUs(stash.one_way.Tail()),
                  FmtPct(stash.one_way.TailSpread()),
                  FmtF(ratio, "%.2fx")});
  }
  table.Print();

  std::printf("\npaper: stash tail up to 2.4x better; stash spread peaks at "
              "182%%; nonstash erratic.\n");
  ok &= ShapeCheck("stashing wins the tail at most sizes",
                   stash_tail_wins * 2 > points);
  ok &= ShapeCheck("peak tail advantage >= 1.5x", best_tail_ratio >= 1.5);
  ok &= ShapeCheck("stash spread stays bounded (< 300%)",
                   worst_stash_spread < 3.0);
  return FinishChecks(ok);
}
