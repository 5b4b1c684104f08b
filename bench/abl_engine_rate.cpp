// Ablation: raw simulator throughput — host wall-clock events/sec of the
// discrete-event engine itself. Unlike every figure bench (which reports
// *simulated* time), this one times the simulator with a real clock: it is
// the suite's canary for engine regressions (heap churn, callback
// overhead) that simulated-time results can never see.
//
// Four layers:
//   * raw dispatch / deep heap: the engine alone (slab pool, timing wheel);
//   * hook on/off: tag capture is gated on hook presence — the delta is
//     what observability costs, and the event counts must match exactly;
//   * the full stack: the paper testbed's ssum stream, and incasts of 8,
//     32 and 128 spokes through a 2-tier switched tree, each spoke sending
//     800 messages; the three widths also print host ns per executed
//     frame, which stays flat when per-frame receive cost does not grow
//     with the number of senders;
//   * the full stack, single-lane and lane-sharded (a {1, 2, 4} lane sweep
//     over an 8-host full-mesh ring of injected ssum streams): wall-clock
//     speedup from conservative-lookahead parallel execution, with the
//     event count pinned identical at every lane count.
//
// `--json` additionally writes BENCH_engine_rate.json (machine-readable,
// uploaded as a CI artifact) so run-over-run engine throughput is
// trackable; tools/check_bench_floor.py guards the ssum-stream and
// tree-incast rows against tools/bench_floors.json.
#include <chrono>
#include <cstdio>
#include <thread>

#include "benchlib/send_loop.hpp"
#include "core/fabric.hpp"
#include "fig_common.hpp"
#include "sim/engine.hpp"

using namespace twochains;
using namespace twochains::bench;

namespace {

struct RateRow {
  std::string name;
  std::uint64_t events = 0;
  double seconds = 0;
  double events_per_second = 0;
  /// Frames the receivers executed (the tree-incast rows only).
  std::uint64_t frames = 0;
};

/// Host wall time per executed frame of a row with frames.
double NsPerFrame(const RateRow& row) {
  return row.seconds * 1e9 / static_cast<double>(row.frames);
}

double WallSeconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// @p chains self-rescheduling events ping through the queue until
/// @p total callbacks have run; deeper backlogs stress ordering, a single
/// chain measures pure dispatch overhead. With @p hook set, an event hook
/// observes every (time, tag) pair — the tag-capture cost that hook-less
/// runs must not pay.
RateRow EngineChainRate(const char* name, std::uint64_t chains,
                        std::uint64_t total, bool hook = false) {
  sim::Engine engine;
  std::uint64_t tags_seen = 0;
  if (hook) {
    engine.SetEventHook(
        [&tags_seen](PicoTime, const char* tag) { tags_seen += *tag != 0; });
  }
  std::uint64_t fired = 0;
  std::function<void()> tick = [&] {
    if (++fired >= total) {
      engine.Stop();
      return;
    }
    engine.ScheduleAfter(1, tick, "bench.tick");
  };
  for (std::uint64_t c = 0; c < chains; ++c) {
    engine.ScheduleAfter(1 + c, tick, "bench.tick");
  }

  const auto start = std::chrono::steady_clock::now();
  engine.Run();
  RateRow row{name};
  row.events = engine.EventsProcessed();
  row.seconds = WallSeconds(start);
  row.events_per_second = static_cast<double>(row.events) / row.seconds;
  if (hook && tags_seen != row.events) {
    std::fprintf(stderr, "hook missed tags: %llu of %llu\n",
                 static_cast<unsigned long long>(tags_seen),
                 static_cast<unsigned long long>(row.events));
  }
  return row;
}

/// The fabric rows' message: an injected Server-Side Sum over 64 B.
FlowMessage SsumMessage(std::uint64_t) {
  return {.jam = "ssum", .args = {64}, .usr = std::vector<std::uint8_t>(64, 7)};
}

/// The full stack as an event generator: wall-clock events/sec while the
/// paper testbed streams injected Server-Side Sums (every NIC hop, cache
/// access, and receiver wakeup is an engine event).
RateRow FullStackRate() {
  auto fabric = MakeBenchFabric();
  AmConfig config = SsumConfig(64, core::Invoke::kInjected);
  config.iterations = 2000;

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t before = fabric->engine().EventsProcessed();
  MustOk(RunAmInjectionRate(*fabric, config), "full-stack stream");
  RateRow row{"full stack (ssum stream)"};
  row.events = fabric->engine().EventsProcessed() - before;
  row.seconds = WallSeconds(start);
  row.events_per_second = static_cast<double>(row.events) / row.seconds;
  return row;
}

/// The lane-scaling workload: an 8-host full-mesh fabric where every host
/// streams injected ssums to its clockwise neighbor. Each host carries the
/// same send + receive load, so each engine lane has real work — the
/// balanced shape lane sharding exists for. Returns the streaming phase
/// only (fabric construction and package load excluded).
RateRow FabricRingRate(std::uint32_t lanes, std::uint32_t hosts,
                       std::uint32_t msgs_per_host) {
  core::FabricOptions options;
  options.hosts = hosts;
  options.topology = core::Topology::kFullMesh;
  options.engine.lanes = lanes;
  core::Fabric fabric(options);
  LoadBenchPackage(fabric);

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t before = fabric.engine().EventsProcessed();
  std::vector<SendFlow> flows;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    flows.push_back({.src = h,
                     .dst = (h + 1) % hosts,
                     .count = msgs_per_host,
                     .next = SsumMessage});
  }
  const SendLoops loops(fabric, std::move(flows));
  fabric.Run();
  MustOk(loops.status(), "ring stream");

  RateRow row;
  row.name = StrFormat("fabric ring 8-host (lanes=%u)", lanes);
  row.events = fabric.engine().EventsProcessed() - before;
  row.seconds = WallSeconds(start);
  row.events_per_second = static_cast<double>(row.events) / row.seconds;
  return row;
}

/// The switched-tree workload: @p spokes stream injected ssums into one
/// hub through a 2-tier, 2:1-oversubscribed switch fabric, so the row
/// prices the switch hops (admission, egress serialization, ECN checks)
/// the star shapes never execute. The 8-spoke row is floor-guarded in
/// tools/bench_floors.json — the canary for switch-path regressions.
RateRow TreeIncastRate(std::uint32_t spokes, std::uint32_t msgs_per_spoke) {
  core::FabricOptions options;
  options.hosts = spokes + 1;
  options.topology = core::Topology::kTree;
  options.hub = 0;
  options.tree.arity = 4;
  options.tree.tiers = 2;
  options.tree.oversub = 2.0;
  // The hub holds a mailbox slice and a staging ring per spoke; a wide
  // incast outgrows the default arena.
  const std::uint64_t per_peer = std::uint64_t{options.runtime.banks} *
                                 options.runtime.mailboxes_per_bank *
                                 options.runtime.mailbox_slot_bytes;
  const std::uint64_t hub_bytes = MiB(64) + 2 * per_peer * spokes;
  if (hub_bytes > options.host.memory_bytes) {
    options.host_overrides.assign(options.hosts, options.host);
    options.host_overrides[0].memory_bytes = hub_bytes;
  }
  core::Fabric fabric(options);
  LoadBenchPackage(fabric);

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t before = fabric.engine().EventsProcessed();
  std::vector<SendFlow> flows;
  for (std::uint32_t s = 1; s <= spokes; ++s) {
    flows.push_back(
        {.src = s, .dst = 0, .count = msgs_per_spoke, .next = SsumMessage});
  }
  const SendLoops loops(fabric, std::move(flows));
  fabric.Run();
  MustOk(loops.status(), "tree stream");

  RateRow row;
  row.name = StrFormat("tree incast %u-spoke (2-tier switched)", spokes);
  row.events = fabric.engine().EventsProcessed() - before;
  row.seconds = WallSeconds(start);
  row.events_per_second = static_cast<double>(row.events) / row.seconds;
  row.frames = fabric.runtime(0).stats().messages_executed;

  std::uint64_t forwarded = 0;
  for (std::uint32_t i = 0; i < fabric.switch_count(); ++i) {
    forwarded += fabric.sw(i).frames_forwarded();
  }
  if (forwarded == 0) {
    std::fprintf(stderr, "tree incast forwarded no frames\n");
    std::abort();
  }
  return row;
}

void WriteJson(const char* path, const std::vector<RateRow>& rows,
               const std::vector<std::uint32_t>& lanes,
               const std::vector<double>& by_lanes) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_rate\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"seconds\": %.6f, \"events_per_second\": %.0f",
                 rows[i].name.c_str(),
                 static_cast<unsigned long long>(rows[i].events),
                 rows[i].seconds, rows[i].events_per_second);
    if (rows[i].frames != 0) {
      std::fprintf(f, ", \"frames\": %llu, \"ns_per_frame\": %.0f",
                   static_cast<unsigned long long>(rows[i].frames),
                   NsPerFrame(rows[i]));
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"lanes\": [");
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    std::fprintf(f, "%s%u", i ? ", " : "", lanes[i]);
  }
  std::fprintf(f, "],\n  \"events_per_sec_by_lanes\": [");
  for (std::size_t i = 0; i < by_lanes.size(); ++i) {
    std::fprintf(f, "%s%.0f", i ? ", " : "", by_lanes[i]);
  }
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Banner("Ablation", "engine throughput (host wall-clock events/sec)");

  std::vector<RateRow> rows;
  rows.push_back(EngineChainRate("dispatch (1 chain)", 1, 1000000));
  rows.push_back(
      EngineChainRate("dispatch + event hook", 1, 1000000, /*hook=*/true));
  rows.push_back(EngineChainRate("heap depth 1024", 1024, 1000000));
  rows.push_back(FullStackRate());
  for (const std::uint32_t spokes : {8u, 32u, 128u}) {
    rows.push_back(TreeIncastRate(spokes, /*msgs_per_spoke=*/800));
  }

  const std::vector<std::uint32_t> lane_sweep = {1, 2, 4};
  std::vector<double> by_lanes;
  std::vector<std::uint64_t> lane_events;
  for (const std::uint32_t lanes : lane_sweep) {
    rows.push_back(FabricRingRate(lanes, /*hosts=*/8, /*msgs_per_host=*/800));
    by_lanes.push_back(rows.back().events_per_second);
    lane_events.push_back(rows.back().events);
  }
  const double lane_speedup = by_lanes.back() / by_lanes.front();

  Table table({"shape", "events", "wall(s)", "events/s"});
  for (const auto& row : rows) {
    table.AddRow({row.name, FmtU64(row.events), FmtF(row.seconds, "%.3f"),
                  FmtF(row.events_per_second, "%.0f")});
  }
  table.Print();

  std::printf("\ntree incast host cost per executed frame:\n");
  Table width({"shape", "frames", "host ns/frame"});
  for (const auto& row : rows) {
    if (row.frames == 0) continue;
    width.AddRow(
        {row.name, FmtU64(row.frames), FmtF(NsPerFrame(row), "%.0f")});
  }
  width.Print();
  std::printf("\nlane speedup at %u lanes: %.2fx (%u hardware threads)\n",
              lane_sweep.back(), lane_speedup,
              std::thread::hardware_concurrency());

  if (HasFlag(argc, argv, "--json")) {
    WriteJson("BENCH_engine_rate.json", rows, lane_sweep, by_lanes);
  }

  // Wall-clock thresholds stay very conservative: this is a canary for
  // order-of-magnitude regressions, not a precision benchmark.
  bool ok = true;
  ok &= ShapeCheck("raw dispatch exceeds 100k events/s",
                   rows[0].events_per_second > 1e5);
  ok &= ShapeCheck("deep heap stays above 50k events/s",
                   rows[2].events_per_second > 5e4);
  ok &= ShapeCheck("full stack generates events (stream completed)",
                   rows[3].events > 0);
  ok &= ShapeCheck("switched tree generates events (incast completed)",
                   rows[4].events > 0);
  ok &= ShapeCheck("laned runs process identical event counts",
                   lane_events[0] == lane_events[1] &&
                       lane_events[0] == lane_events[2]);
  // Parallel speedup needs parallel hardware; on starved machines the
  // sweep still proves correctness (identical counts) but the wall-clock
  // claim is unmeasurable, so it gates on available cores.
  if (std::thread::hardware_concurrency() >= 4) {
    ok &= ShapeCheck("lane speedup exceeds 1.5x at 4 lanes",
                     lane_speedup > 1.5);
  } else {
    std::printf("  (skipping lane-speedup check: %u hardware threads)\n",
                std::thread::hardware_concurrency());
  }
  return FinishChecks(ok);
}
