// Probes: one public function per layer, timed on fixed inputs (never the
// workload seed), so a change to that layer shows up even where the
// workloads dilute it.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace tcbench {

/// Runs every probe once; returns (metric name, host-time value) pairs:
/// sim.dispatch_ns, mem.arena_ms_per_gib, jamvm.ns_per_instr,
/// cache.ns_per_access, pkg.build_ms.
std::vector<std::pair<std::string, double>> RunProbes(
    std::vector<std::string>* errors);

}  // namespace tcbench
