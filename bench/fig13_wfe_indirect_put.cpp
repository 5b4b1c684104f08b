// Figure 13: Indirect Put — effect of the WFE wait mode on latency and on
// whole-run CPU cycle counts, 1..1024 integers.
//
// Paper claims: "The latency remains the same for most payload sizes ...
// up to 1.5% latency penalty ... between a 3.8x and 2.5x CPU cycle
// reduction. The cycle-count reduction comes solely from the
// waiting-for-active-message portion of the code."
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

int main() {
  Banner("Figure 13", "Indirect Put: WFE vs busy polling");
  Table table({"ints", "poll(us)", "wfe(us)", "penalty", "poll cycles",
               "wfe cycles", "cycle ratio"});

  bool ok = true;
  double worst_penalty = 0;
  double min_ratio = 1e9, max_ratio = 0;
  core::FabricOptions wfe_options = PaperFabric();
  wfe_options.runtime.wait.mode = cpu::WaitMode::kWfe;
  for (std::uint64_t n = 1; n <= 1024; n *= 2) {
    auto poll_bed = MakeBenchFabric();
    const auto poll = MustOk(
        RunAmPingPong(*poll_bed, IputConfig(n, core::Invoke::kInjected)),
        "poll");
    auto wfe_bed = MakeBenchFabric(wfe_options);
    const auto wfe = MustOk(
        RunAmPingPong(*wfe_bed, IputConfig(n, core::Invoke::kInjected)),
        "wfe");

    const double poll_us = ToMicroseconds(poll.one_way.Median());
    const double wfe_us = ToMicroseconds(wfe.one_way.Median());
    const double penalty = (wfe_us - poll_us) / poll_us;
    worst_penalty = std::max(worst_penalty, penalty);
    const auto poll_cycles = poll.responder_counters.Total();
    const auto wfe_cycles = wfe.responder_counters.Total();
    const double ratio = static_cast<double>(poll_cycles) /
                         static_cast<double>(wfe_cycles);
    min_ratio = std::min(min_ratio, ratio);
    max_ratio = std::max(max_ratio, ratio);
    table.AddRow({FmtU64(n), FmtF(poll_us, "%.3f"), FmtF(wfe_us, "%.3f"),
                  FmtPct(penalty), FmtU64(poll_cycles), FmtU64(wfe_cycles),
                  FmtF(ratio, "%.2fx")});
  }
  table.Print();

  std::printf("\npaper: latency penalty <= 1.5%%; cycle reduction 3.8x -> "
              "2.5x (wait portion only).\n");
  ok &= ShapeCheck("WFE latency penalty small (< 3%)", worst_penalty < 0.03);
  ok &= ShapeCheck("WFE cuts cycles at least 2x everywhere",
                   min_ratio >= 2.0);
  ok &= ShapeCheck("cycle advantage shrinks as execution grows",
                   max_ratio > min_ratio);
  return FinishChecks(ok);
}
