// Figure 14: Server-Side Sum — WFE vs busy polling, 512 B..32 KiB.
//
// Paper claims: "virtually no latency difference ... When using the 512B
// message size, the WFE benchmark uses only 27% of the cycles required by
// the Polling benchmark, a 3.6x reduction. For the 32KB message size, the
// difference contracts to 1.84x."
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

int main() {
  Banner("Figure 14", "Server-Side Sum: WFE vs busy polling");
  Table table({"size(B)", "poll(us)", "wfe(us)", "penalty", "poll cycles",
               "wfe cycles", "cycle ratio"});

  bool ok = true;
  double worst_penalty = 0;
  double small_ratio = 0, large_ratio = 0;
  core::FabricOptions wfe_options = PaperFabric();
  wfe_options.runtime.wait.mode = cpu::WaitMode::kWfe;
  for (std::uint64_t size = 512; size <= 32768; size *= 2) {
    auto poll_bed = MakeBenchFabric();
    const auto poll = MustOk(
        RunAmPingPong(*poll_bed, SsumConfig(size, core::Invoke::kInjected)),
        "poll");
    auto wfe_bed = MakeBenchFabric(wfe_options);
    const auto wfe = MustOk(
        RunAmPingPong(*wfe_bed, SsumConfig(size, core::Invoke::kInjected)),
        "wfe");

    const double poll_us = ToMicroseconds(poll.one_way.Median());
    const double wfe_us = ToMicroseconds(wfe.one_way.Median());
    const double penalty = (wfe_us - poll_us) / poll_us;
    worst_penalty = std::max(worst_penalty, penalty);
    const double ratio = static_cast<double>(poll.responder_counters.Total()) /
                         static_cast<double>(wfe.responder_counters.Total());
    if (size == 512) small_ratio = ratio;
    if (size == 32768) large_ratio = ratio;
    table.AddRow({FmtU64(size), FmtF(poll_us, "%.3f"), FmtF(wfe_us, "%.3f"),
                  FmtPct(penalty),
                  FmtU64(poll.responder_counters.Total()),
                  FmtU64(wfe.responder_counters.Total()),
                  FmtF(ratio, "%.2fx")});
  }
  table.Print();

  std::printf("\npaper: no latency difference; 3.6x cycle reduction at "
              "512B contracting to 1.84x at 32KB.\n");
  ok &= ShapeCheck("WFE latency penalty small (< 3%)", worst_penalty < 0.03);
  ok &= ShapeCheck("cycle reduction larger at 512B than at 32KB",
                   small_ratio > large_ratio);
  ok &= ShapeCheck("32KB still shows a real reduction (> 1.3x)",
                   large_ratio > 1.3);
  return FinishChecks(ok);
}
