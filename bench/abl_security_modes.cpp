// Ablation: cost of each §V security mitigation (the paper defers this
// measurement to future work: "The performance impact of these options is
// a subject for future study").
//
// Two sections:
//   * latency — one-way Indirect Put median under each mitigation on the
//     two-host paper testbed (the original ablation),
//   * curve   — the full hardening cost curve: receiver-side *work cycles
//     per executed invoke* for every mitigation knob, swept across a
//     receiver pool of 1, 2, 4, and 8 cores on a 4-sender incast star.
//     Wait/spin cycles are excluded so the metric prices the mitigation
//     itself, not the load level.
//
// `--json` additionally writes BENCH_security_modes.json (machine-readable,
// uploaded as a CI artifact) so the cost curve is trackable run-over-run.
// `--curve` / `--latency` select one section; no argument runs both.
#include <cstdio>
#include <string>
#include <vector>

#include "fig_common.hpp"

using namespace twochains;
using namespace twochains::bench;

namespace {

// ------------------------------------------------------------- mode table

struct Mode {
  const char* name;
  core::SecurityPolicy policy;
  bool cache_on = false;  ///< jam cache armed (for the cached-invoke knobs)
};

/// Every mitigation knob in isolation, then the combined tiers. The two
/// cache modes price verify-on-install vs verify-on-every-invoke on the
/// by-handle fast path.
std::vector<Mode> ModeTable() {
  std::vector<Mode> modes;
  modes.push_back({"paper default", core::SecurityPolicy::PaperDefault()});
  {
    core::SecurityPolicy p;
    p.verify_injected_code = true;
    modes.push_back({"+verifier", p});
  }
  {
    core::SecurityPolicy p;
    p.receiver_installs_got = true;
    modes.push_back({"+receiver GOT", p});
  }
  {
    core::SecurityPolicy p;
    p.split_code_data_pages = true;
    p.enforce_exec_permission = true;
    modes.push_back({"+W^X split pages", p});
  }
  {
    core::SecurityPolicy p;
    p.confine_control_flow = true;
    modes.push_back({"+confinement", p});
  }
  modes.push_back({"hardened (all)", core::SecurityPolicy::Hardened()});
  modes.push_back({"hardened+cache", core::SecurityPolicy::Hardened(),
                   /*cache_on=*/true});
  {
    core::SecurityPolicy p = core::SecurityPolicy::Hardened();
    p.verify_cached_invokes = true;
    modes.push_back({"hardened+cache+verify-hits", p, /*cache_on=*/true});
  }
  return modes;
}

// --------------------------------------------------------------- latency

double MedianUs(const core::SecurityPolicy& policy, std::uint64_t usr_bytes) {
  core::FabricOptions options = PaperFabric();
  options.runtime.security = policy;
  auto fabric = MakeBenchFabric(options);
  AmConfig config = IputConfig(usr_bytes / 4, core::Invoke::kInjected);
  config.iterations = 600;
  config.warmup = 100;
  const auto result = MustOk(RunAmPingPong(*fabric, config), "pingpong");
  return ToMicroseconds(result.one_way.Median());
}

int LatencyMain() {
  Banner("Ablation", "security-mode latency cost (Indirect Put, injected)");
  Table table({"mode", "64B(us)", "4KiB(us)", "64B cost", "4KiB cost"});

  const double base64 = MedianUs(core::SecurityPolicy::PaperDefault(), 64);
  const double base4k = MedianUs(core::SecurityPolicy::PaperDefault(), 4096);
  table.AddRow({"paper default", FmtF(base64, "%.3f"), FmtF(base4k, "%.3f"),
                "-", "-"});
  bool ok = true;
  for (const Mode& mode : ModeTable()) {
    if (mode.cache_on || std::string(mode.name) == "paper default") continue;
    const double us64 = MedianUs(mode.policy, 64);
    const double us4k = MedianUs(mode.policy, 4096);
    table.AddRow({mode.name, FmtF(us64, "%.3f"), FmtF(us4k, "%.3f"),
                  FmtPct((us64 - base64) / base64),
                  FmtPct((us4k - base4k) / base4k)});
    ok &= us64 >= base64 * 0.99;  // mitigations never make things faster
  }
  table.Print();
  ok &= ShapeCheck("every mitigation costs >= baseline latency", ok);
  return FinishChecks(ok);
}

// ----------------------------------------------------------------- curve

constexpr std::uint32_t kSenders = 4;
constexpr std::uint32_t kIterationsPerSender = 150;
constexpr std::uint32_t kPoolSizes[] = {1, 2, 4, 8};

struct CurvePoint {
  const Mode* mode = nullptr;
  std::uint32_t receiver_cores = 0;
  std::uint64_t messages = 0;
  double work_cycles_per_invoke = 0;  ///< pool cycles minus wait, per invoke
  double kmsg_per_second = 0;
  std::uint64_t cache_hits = 0;
};

CurvePoint RunCurvePoint(const Mode& mode, std::uint32_t cores) {
  core::FabricOptions options =
      PaperFabric(kSenders + 1, core::Topology::kStar, 0);
  options.runtime.security = mode.policy;
  if (mode.cache_on) options.runtime.jam_cache = HotJamCache();
  WithHubPool(options, cores);
  core::Fabric fabric(options);
  LoadBenchPackage(fabric);

  IncastConfig config;
  config.jam = "iput";
  config.mode = core::Invoke::kInjected;
  config.usr_bytes = 64;
  config.iterations_per_sender = kIterationsPerSender;
  config.args = [](std::uint64_t iter) {
    return std::vector<std::uint64_t>{iter & 127};
  };

  std::vector<std::uint32_t> senders;
  for (std::uint32_t s = 1; s <= kSenders; ++s) senders.push_back(s);
  const IncastResult result =
      MustOk(RunIncastRate(fabric, 0, senders, config), "curve incast");

  CurvePoint point;
  point.mode = &mode;
  point.receiver_cores = cores;
  for (const auto& s : result.per_sender) point.messages += s.messages;
  const core::Runtime& hub = fabric.runtime(0);
  const cpu::PerfCounters pool = hub.ReceiverPoolCounters();
  const Cycles work = pool.Total() - pool.Of(cpu::CycleClass::kWait);
  point.work_cycles_per_invoke =
      point.messages ? static_cast<double>(work) /
                           static_cast<double>(point.messages)
                     : 0;
  point.kmsg_per_second = result.aggregate_messages_per_second / 1e3;
  point.cache_hits = hub.jam_cache_stats().hits;
  return point;
}

void WriteJson(const char* path, const std::vector<CurvePoint>& points) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"security_modes\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const CurvePoint& p = points[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"receiver_cores\": %u, "
                 "\"messages\": %llu, \"work_cycles_per_invoke\": %.1f, "
                 "\"kmsg_per_second\": %.1f, \"cache_hits\": %llu}%s\n",
                 p.mode->name, p.receiver_cores,
                 static_cast<unsigned long long>(p.messages),
                 p.work_cycles_per_invoke, p.kmsg_per_second,
                 static_cast<unsigned long long>(p.cache_hits),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

int CurveMain(bool json) {
  Banner("Ablation --curve",
         "hardening cost curve: receiver work cycles/invoke, pooled drain");
  std::printf("Indirect Put, 64 B payload, %u-sender incast, %u msgs per "
              "sender, pool of 1/2/4/8\n",
              kSenders, kIterationsPerSender);

  const std::vector<Mode> modes = ModeTable();
  std::vector<CurvePoint> points;
  for (const Mode& mode : modes) {
    for (const std::uint32_t cores : kPoolSizes) {
      points.push_back(RunCurvePoint(mode, cores));
    }
  }

  Table table({"mode", "rx cores", "cycles/invoke", "vs base", "Kmsg/s",
               "cache hits"});
  const auto at = [&](const char* name, std::uint32_t cores) -> const
      CurvePoint& {
    for (const CurvePoint& p : points) {
      if (std::string(p.mode->name) == name && p.receiver_cores == cores) {
        return p;
      }
    }
    std::abort();
  };
  for (const CurvePoint& p : points) {
    const double base =
        at("paper default", p.receiver_cores).work_cycles_per_invoke;
    table.AddRow({p.mode->name, FmtU64(p.receiver_cores),
                  FmtF(p.work_cycles_per_invoke, "%.0f"),
                  FmtF(p.work_cycles_per_invoke / base, "%.2fx"),
                  FmtF(p.kmsg_per_second), FmtU64(p.cache_hits)});
  }
  table.Print();
  if (json) WriteJson("BENCH_security_modes.json", points);

  bool ok = true;
  ok &= ShapeCheck("every (mode, cores) point executed the full incast load",
                   [&] {
                     for (const CurvePoint& p : points) {
                       if (p.messages != static_cast<std::uint64_t>(kSenders) *
                                             kIterationsPerSender) {
                         return false;
                       }
                     }
                     return true;
                   }());
  ok &= ShapeCheck(
      "every mitigation costs >= baseline work cycles/invoke at every pool "
      "size (cache modes excluded: hits legitimately skip link work)",
      [&] {
        for (const CurvePoint& p : points) {
          if (p.mode->cache_on) continue;
          const double base =
              at("paper default", p.receiver_cores).work_cycles_per_invoke;
          if (p.work_cycles_per_invoke < base * 0.99) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "hardened (all) is the costliest non-cached mode at every pool size",
      [&] {
        for (const std::uint32_t cores : kPoolSizes) {
          const double all = at("hardened (all)", cores).work_cycles_per_invoke;
          for (const Mode& mode : modes) {
            if (mode.cache_on) continue;
            if (at(mode.name, cores).work_cycles_per_invoke > all * 1.01) {
              return false;
            }
          }
        }
        return true;
      }());
  ok &= ShapeCheck(
      "verify-on-every-invoke charges more than verify-on-install on the "
      "cached path at every pool size",
      [&] {
        for (const std::uint32_t cores : kPoolSizes) {
          if (at("hardened+cache+verify-hits", cores).work_cycles_per_invoke <=
              at("hardened+cache", cores).work_cycles_per_invoke) {
            return false;
          }
        }
        return true;
      }());
  ok &= ShapeCheck("the cached modes actually rode the by-handle path", [&] {
    for (const CurvePoint& p : points) {
      if (p.mode->cache_on && p.cache_hits == 0) return false;
    }
    return true;
  }());
  return FinishChecks(ok);
}

}  // namespace

int main(int argc, char** argv) {
  const bool latency_only = HasFlag(argc, argv, "--latency");
  const bool curve_only = HasFlag(argc, argv, "--curve");
  const bool json = HasFlag(argc, argv, "--json");
  int rc = 0;
  if (!curve_only) rc |= LatencyMain();
  if (!latency_only) rc |= CurveMain(json);
  return rc;
}
