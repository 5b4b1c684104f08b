// Ablation: the Fig. 1 configuration choices — write-ordering guarantees
// vs fence + separate signal put, and fixed- vs variable-size frames.
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

namespace {

double MedianUs(const core::FabricOptions& options, std::uint64_t n_ints) {
  auto fabric = MakeBenchFabric(options);
  AmConfig config = IputConfig(n_ints, core::Invoke::kInjected);
  config.iterations = 800;
  config.warmup = 100;
  const auto result = MustOk(RunAmPingPong(*fabric, config), "pingpong");
  return ToMicroseconds(result.one_way.Median());
}

}  // namespace

int main() {
  Banner("Ablation", "delivery ordering and frame-size modes");
  Table table({"configuration", "16 ints(us)", "1024 ints(us)"});

  auto ordered = PaperFabric();  // the paper's testbed guarantees ordering

  auto fenced = PaperFabric();
  fenced.nic.enforce_write_ordering = false;
  fenced.runtime.separate_signal_put = true;

  auto variable = PaperFabric();
  variable.runtime.fixed_size_frames = false;

  const double ord16 = MedianUs(ordered, 16);
  const double ord1k = MedianUs(ordered, 1024);
  const double fen16 = MedianUs(fenced, 16);
  const double fen1k = MedianUs(fenced, 1024);
  const double var16 = MedianUs(variable, 16);
  const double var1k = MedianUs(variable, 1024);

  table.AddRow({"ordered, single put, fixed frames (paper)",
                FmtF(ord16, "%.3f"), FmtF(ord1k, "%.3f")});
  table.AddRow({"unordered + fence + separate signal put",
                FmtF(fen16, "%.3f"), FmtF(fen1k, "%.3f")});
  table.AddRow({"variable-size frames (two-phase wait)",
                FmtF(var16, "%.3f"), FmtF(var1k, "%.3f")});
  table.Print();

  std::printf("\nthe paper picks ordered/fixed because \"Modern servers "
              "like the one we use as a testbed ... enforce ordering\" and "
              "fixed frames allow \"the entire message in one put\".\n");
  bool ok = true;
  ok &= ShapeCheck("fence + separate signal costs latency",
                   fen16 > ord16 * 1.01);
  ok &= ShapeCheck("variable frames cost no less than fixed",
                   var16 >= ord16 * 0.999);
  return FinishChecks(ok);
}
