// tc_bench: the repository benchmark driver. One process runs one pass of
// one workload:
//
//   tc_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// The untraced pass (--trace 0) repeats the workload, each time from a
// fresh set-up, until S seconds have passed (at least three times when S >
// 0; extra set-ups alone make up three set-up samples otherwise) and
// reports the end-to-end metrics: medians for host times, the first run
// for simulated values, which every later run must reproduce exactly.
// The traced pass (--trace 1) runs the five probes, then repeats an
// untraced run and an event-hooked single-lane run (ring_laned adds an
// untraced single-lane run) and reports the per-layer metrics.
//
// Output: one "<workload> <metric> <value> <unit> <sim|host>" line per
// metric, then, as the last line, the result JSON
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// usage. --smoke shrinks every workload about 50x and skips the probes
// and the kv capacity bisection (the ctest smoke run).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

namespace tcbench {
namespace {

using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
  bool sim;  ///< simulated (must repeat exactly) vs host wall clock
};

// Kept in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", false},
    {"host_msgs_per_s", "msgs/s", false},
    {"host_peak_rss_mib", "MiB", false},
    {"sim_p50_us", "us", true},
    {"sim_p999_us", "us", true},
    {"sim_rate_mmsgs", "Mmsgs/s", true},
    {"wire_bytes_per_msg", "B", true},
};

constexpr MetricDef kPerLayer[] = {
    {"setup.fabric_s", "s", false},
    {"setup.package_s", "s", false},
    {"setup.load_s", "s", false},
    {"mem.arena_mib", "MiB", true},
    {"mem.arena_ms_per_gib", "ms/GiB", false},
    {"pkg.build_ms", "ms", false},
    {"sim.events_per_msg", "events/msg", true},
    {"wall.ns_per_event", "ns", false},
    {"sim.lane_speedup", "x", false},
    {"sim.dispatch_ns", "ns", false},
    {"trace.overhead_frac", "fraction", false},
    {"wall.net.nic_s", "s", false},
    {"nic.bytes_delivered_per_msg", "B", true},
    {"nic.ecn_marks_delivered", "count", true},
    {"wall.net.switch_s", "s", false},
    {"switch.frames_marked_frac", "fraction", true},
    {"switch.backpressure_holds", "count", true},
    {"switch.peak_buffer_kib", "KiB", true},
    {"switch.frames_dropped", "count", true},
    {"wall.ucxs_s", "s", false},
    {"wall.core.rx_s", "s", false},
    {"wall.core.tx_s", "s", false},
    {"rt.send_stalls_per_msg", "count/msg", true},
    {"rt.fc_waits_per_msg", "count/msg", true},
    {"rt.cwnd_decreases", "count", true},
    {"rt.adaptive_refusals", "count", true},
    {"rt.steals", "count", true},
    {"rt.frames_stolen_frac", "fraction", true},
    {"jam.hit_frac", "fraction", true},
    {"jam.misses", "count", true},
    {"jam.resends", "count", true},
    {"jam.bytes_saved_per_msg", "B", true},
    {"jamvm.instr_per_msg", "instr/msg", true},
    {"jamvm.ns_per_instr", "ns", false},
    {"cpu.exec_cycles_per_msg", "cycles/msg", true},
    {"cpu.wait_cycles_per_msg", "cycles/msg", true},
    {"cache.accesses_per_msg", "count/msg", true},
    {"cache.l1_hit_frac", "fraction", true},
    {"cache.dram_per_msg", "count/msg", true},
    {"cache.stash_lines_per_msg", "count/msg", true},
    {"cache.ns_per_access", "ns", false},
    {"wall.driver_s", "s", false},
    {"kv.queued_frac", "fraction", true},
    {"kv.queue_peak", "count", true},
    {"kv.shard_imbalance", "ratio", true},
    {"jain_fairness", "index", true},
    {"kv_slo_capacity_mops", "Mreq/s", true},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
};

/// Everything one pass reports.
struct Pass {
  std::map<std::string, double> values;  ///< absent metrics read 0
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Folds one run into the pass: its operations, failures and check
/// errors, and — against @p reference, the pass's first run — a check
/// that it reproduced every simulated value exactly.
void Absorb(Pass& pass, const RunResult& run, const RunResult& reference,
            const char* what) {
  std::fprintf(stderr, "%s: set-up %.3f s, measured %.3f s (%llu events)\n",
               what, run.setup_s, run.measure_s,
               static_cast<unsigned long long>(run.events));
  pass.attempted += run.ops;
  pass.failed += run.failed;
  for (const std::string& e : run.errors) pass.errors.push_back(e);
  if (&run != &reference && run.sim != reference.sim) {
    pass.errors.push_back(std::string(what) +
                          " did not reproduce the first run's sim values");
  }
}

void TakeSim(Pass& pass, const RunResult& run) {
  for (const auto& [name, value] : run.sim) pass.values[name] = value;
}

/// Keeps running @p round until @p seconds have passed and it ran at least
/// @p min_rounds times.
template <typename Round>
void Repeat(double seconds, std::size_t min_rounds, Round round) {
  const auto start = Clock::now();
  for (std::size_t n = 0; n < min_rounds || Since(start) < seconds; ++n) {
    round();
  }
}

Pass UntracedPass(const Args& args) {
  Pass pass;
  RunOptions options;
  options.seed = args.seed;
  options.smoke = args.smoke;
  std::vector<RunResult> runs;
  std::vector<double> setup, rate;
  Repeat(args.seconds, args.seconds > 0 ? 3 : 1, [&] {
    runs.push_back(RunWorkload(args.workload, options));
    const RunResult& run = runs.back();
    Absorb(pass, run, runs.front(), "run");
    setup.push_back(run.setup_s);
    rate.push_back(run.measure_s > 0 ? run.ops / run.measure_s : 0);
  });
  // A short pass measures once; its set-up time is still a median of three.
  options.setup_only = true;
  while (setup.size() < 3) {
    const RunResult extra = RunWorkload(args.workload, options);
    for (const std::string& e : extra.errors) pass.errors.push_back(e);
    setup.push_back(extra.setup_s);
  }
  TakeSim(pass, runs.front());
  pass.values["setup_s"] = Median(setup);
  pass.values["host_msgs_per_s"] = Median(rate);
  pass.values["host_peak_rss_mib"] = PeakRssMib();
  return pass;
}

Pass TracedPass(const Args& args) {
  Pass pass;
  if (!args.smoke) {
    for (const auto& [name, value] : RunProbes(&pass.errors)) {
      pass.values[name] = value;
    }
  }
  RunOptions options;
  options.seed = args.seed;
  options.smoke = args.smoke;
  const bool kv = args.workload == "kv_zipf";
  const bool laned = DefaultLanes(args.workload) > 1;

  std::vector<RunResult> runs;  // runs[0] is the reference
  std::vector<double> fabric, package, load;
  std::vector<double> nic, sw, ucxs, rx, tx, driver;
  std::vector<double> ns_per_event, overhead, speedup;
  const auto run = [&](std::uint32_t lanes, bool traced, const char* what) {
    RunOptions o = options;
    o.lanes = lanes;
    o.traced = traced;
    runs.push_back(RunWorkload(args.workload, o));
    Absorb(pass, runs.back(), runs.front(), what);
    if (!kv) {
      fabric.push_back(runs.back().fabric_s);
      package.push_back(runs.back().package_s);
      load.push_back(runs.back().load_s);
    }
    return runs.back();
  };
  Repeat(args.seconds, 1, [&] {
    if (kv) {
      // RunKvOpenLoop owns its engine, so there is no tag split; the
      // set-up split comes from the same calls on an identical fabric.
      run(0, false, "kv run");
      const RunResult split = KvSetupSplit();
      for (const std::string& e : split.errors) pass.errors.push_back(e);
      fabric.push_back(split.fabric_s);
      package.push_back(split.package_s);
      load.push_back(split.load_s);
      return;
    }
    const RunResult native = run(0, false, "untraced run");
    const RunResult single = laned ? run(1, false, "single-lane run") : native;
    const RunResult traced = run(1, true, "traced run");
    if (native.events != single.events || single.events != traced.events) {
      pass.errors.push_back("event counts differ across lane counts");
    }
    nic.push_back(traced.layers.nic_s);
    sw.push_back(traced.layers.switch_s);
    ucxs.push_back(traced.layers.ucxs_s);
    rx.push_back(traced.layers.rx_s);
    tx.push_back(traced.layers.tx_s);
    driver.push_back(traced.layers.driver_s);
    if (single.events > 0) {
      ns_per_event.push_back(single.measure_s * 1e9 / single.events);
    }
    overhead.push_back(traced.measure_s / single.measure_s - 1);
    if (laned) speedup.push_back(single.measure_s / native.measure_s);
  });
  TakeSim(pass, runs.front());
  if (kv && !args.smoke) {
    pass.values["kv_slo_capacity_mops"] =
        KvSloCapacityMops(args.seed, &pass.errors);
  }
  pass.values["setup.fabric_s"] = Median(fabric);
  pass.values["setup.package_s"] = Median(package);
  pass.values["setup.load_s"] = Median(load);
  pass.values["mem.arena_mib"] = ArenaMib(args.workload);
  pass.values["wall.net.nic_s"] = Median(nic);
  pass.values["wall.net.switch_s"] = Median(sw);
  pass.values["wall.ucxs_s"] = Median(ucxs);
  pass.values["wall.core.rx_s"] = Median(rx);
  pass.values["wall.core.tx_s"] = Median(tx);
  pass.values["wall.driver_s"] = Median(driver);
  pass.values["wall.ns_per_event"] = Median(ns_per_event);
  pass.values["trace.overhead_frac"] = Median(overhead);
  pass.values["sim.lane_speedup"] = Median(speedup);
  return pass;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "tc_bench: %s\nusage: tc_bench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke]\nworkloads:",
               why);
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace tcbench

int main(int argc, char** argv) {
  using namespace tcbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      args.trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        args.trace = argv[++i][0] == '1';
      }
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else {
      return Usage(("unknown argument " + flag).c_str());
    }
  }
  // Pin glibc's mmap threshold. Left dynamic, it rises after the first
  // large free, and later runs' arenas then come from recycled, already
  // faulted-in heap pages: their set-up reads twice as fast as a fresh
  // process's. Pinned, every run's set-up is as cold as the first.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return Usage("missing or unknown --workload");
  }

  const Pass pass = args.trace ? TracedPass(args) : UntracedPass(args);
  const bool correct = pass.errors.empty() && pass.failed == 0;
  for (const std::string& e : pass.errors) {
    std::fprintf(stderr, "%s: check failed: %s\n", args.workload.c_str(),
                 e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(1, pass.attempted));
  json += ", \"failed\": " + std::to_string(pass.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const MetricDef* begin =
      args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricDef* m = begin; m != end; ++m) {
    const auto it = pass.values.find(m->name);
    double value = it == pass.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    std::printf("%s %s %s %s %s\n", args.workload.c_str(), m->name, number,
                m->unit, m->sim ? "sim" : "host");
    json += first ? "" : ", ";
    json += std::string("\"") + m->name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m->unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
