// Figure 12: Server-Side Sum — median + tail latency and spread on a fully
// loaded system, stashing vs not, 512 B..32 KiB messages.
//
// Paper claims: "the Server-Side Sum LLC stashing 99.9th tail latency is
// generally better than that of the non-stashing scenario, in some cases
// performing twice as fast. Starting with the 2KB message size, stashing
// provides a tighter latency distribution ... tail latency no larger than
// 137% of the median."
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

int main() {
  Banner("Figure 12",
         "Server-Side Sum tail latency under load: stash vs nonstash");
  Table table({"size(B)", "ns med(us)", "ns tail(us)", "ns spread",
               "st med(us)", "st tail(us)", "st spread", "tail ratio"});

  bool ok = true;
  int stash_tail_wins = 0, points = 0;
  double spread_at_2k_and_up = 0;
  core::FabricOptions nonstash_options = PaperFabric();
  nonstash_options.nic.stash_to_llc = false;
  for (std::uint64_t size = 512; size <= 32768; size *= 2) {
    AmConfig config = SsumConfig(size, core::Invoke::kInjected);
    config.iterations = size <= 4096 ? 2500 : 1200;
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
    ++points;
    if (ratio > 1.0) ++stash_tail_wins;
    if (size >= 2048) {
      spread_at_2k_and_up =
          std::max(spread_at_2k_and_up, stash.one_way.TailSpread());
    }
    table.AddRow({FmtU64(size), FmtUs(nonstash.one_way.Median()),
                  FmtUs(nonstash.one_way.Tail()),
                  FmtPct(nonstash.one_way.TailSpread()),
                  FmtUs(stash.one_way.Median()),
                  FmtUs(stash.one_way.Tail()),
                  FmtPct(stash.one_way.TailSpread()),
                  FmtF(ratio, "%.2fx")});
  }
  table.Print();

  std::printf("\npaper: stash tail generally better (up to 2x); from 2 KB "
              "up, stash spread <= 137%% of median.\n");
  ok &= ShapeCheck("stashing wins the tail at most sizes",
                   stash_tail_wins * 2 > points);
  ok &= ShapeCheck("stash spread bounded from 2KB up (< 250%)",
                   spread_at_2k_and_up < 2.5);
  return FinishChecks(ok);
}
