// Figure 5: Server-Side Sum — Two-Chains AM put (without-execution) latency
// vs plain UCX data put, 256 B..32 KiB ping-pong.
//
// Paper claims: "no significant drop in latency, 1.5% at worst, for
// messages going to the Two-Chains reactive mailboxes."
#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

int main() {
  Banner("Figure 5", "AM put (without execution) latency vs UCX data put");
  Table table({"size(B)", "data put(us)", "AM put(us)", "reduction",
               "protocol"});

  bool ok = true;
  double worst_penalty = 0.0;
  for (std::uint64_t size = 256; size <= 32768; size *= 2) {
    // Fresh testbeds per size keep cache state comparable across points.
    auto data_bed = MakeBenchFabric();
    RawPutConfig raw;
    raw.size = size;
    raw.iterations = IterationsFor(size);
    raw.warmup = raw.iterations / 5;
    const auto data = MustOk(RunRawPutPingPong(*data_bed, raw), "data put");

    auto am_bed = MakeBenchFabric();
    AmConfig am = SsumConfig(UsrBytesForLocalFrame(size), core::Invoke::kLocal);
    am.no_execute = true;  // the paper's without-execution configuration
    const auto am_result = MustOk(RunAmPingPong(*am_bed, am), "AM put");

    const double data_us = ToMicroseconds(data.one_way.Median());
    const double am_us = ToMicroseconds(am_result.one_way.Median());
    const double reduction = (data_us - am_us) / data_us;
    worst_penalty = std::min(worst_penalty, reduction);
    table.AddRow({FmtU64(size), FmtF(data_us, "%.3f"), FmtF(am_us, "%.3f"),
                  FmtPct(reduction),
                  std::string(ucxs::ProtocolName(am_result.protocol))});
    if (am_result.frame_len != size) {
      std::fprintf(stderr, "frame sizing drift: %llu != %llu\n",
                   static_cast<unsigned long long>(am_result.frame_len),
                   static_cast<unsigned long long>(size));
    }
  }
  table.Print();

  std::printf("\npaper: AM put within ~1.5%% of data put at worst.\n");
  ok &= ShapeCheck("AM put latency within 4% of UCX put at every size",
                   worst_penalty > -0.04);
  return FinishChecks(ok);
}
