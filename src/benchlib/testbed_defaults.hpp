// Canonical testbed parameterization for all figure benches (§VI-C), so
// every bench measures the same simulated machine unless it deliberately
// deviates (e.g. toggling stashing or the wait mode).
#pragma once

#include <algorithm>

#include "core/fabric.hpp"

namespace twochains::bench {

/// The paper's two-server testbed (§VI-C) with the benchmark mailbox
/// shape. With no arguments this is the 2-host back-to-back testbed; more
/// hosts scale the same simulated machine out to an N-host fabric (the
/// incast / fan-out scenarios beyond the paper).
inline core::FabricOptions PaperFabric(
    std::uint32_t hosts = 2,
    core::Topology topology = core::Topology::kFullMesh,
    std::uint32_t hub = 0) {
  core::FabricOptions options;
  options.hosts = hosts;
  options.topology = topology;
  options.hub = hub;
  options.runtime.banks = 4;
  options.runtime.mailboxes_per_bank = 16;
  options.runtime.mailbox_slot_bytes = KiB(136);  // fits 128 KiB frames
  // The perftest process is single threaded per host (like ucx_perftest):
  // the same core waits on mailboxes and packs outgoing messages, so its
  // cycle counters cover both roles — what Figures 13/14 count.
  options.runtime.sender_core = 0;
  options.host.memory_bytes = MiB(512);
  return options;
}

/// Widens the hub of @p options into a receiver pool of @p cores: copies
/// the host and runtime templates into per-host overrides, gives the hub
/// at least cores + 1 cache cores, and keeps its (unused) sender core just
/// past the pool. Spokes keep the template's single-core runtime.
inline void WithHubPool(core::FabricOptions& options, std::uint32_t cores) {
  options.host_overrides.assign(options.hosts, options.host);
  options.host_overrides[options.hub].cache.cores =
      std::max(options.host.cache.cores, cores + 1);
  options.runtime_overrides.assign(options.hosts, options.runtime);
  options.runtime_overrides[options.hub].receiver_cores = cores;
  options.runtime_overrides[options.hub].sender_core = cores;
}

/// A star fabric whose hub is a 2-domain NUMA machine: hub cores {0,1}
/// form domain 0 and {2,3} domain 1 (clusters align with domains), with a
/// 2-core receiver pool on cores 1 and 2 — one pool core per domain — and
/// sends on core 3. This is the smallest shape where bank placement and
/// cross-domain drains are both observable (fig17, examples/numa_pinning).
inline core::FabricOptions PaperNumaFabric(std::uint32_t hosts,
                                           std::uint32_t hub = 0) {
  core::FabricOptions options = PaperFabric(hosts, core::Topology::kStar,
                                            hub);
  options.host_overrides.assign(hosts, options.host);
  options.host_overrides[hub].cache.domains = 2;
  options.runtime_overrides.assign(hosts, options.runtime);
  options.runtime_overrides[hub].receiver_core = 1;
  options.runtime_overrides[hub].receiver_cores = 2;
  options.runtime_overrides[hub].sender_core = 3;
  return options;
}

/// The wide variant: the hub is an 8-core, 2-domain machine ({0..3} and
/// {4..7}) with a 4-core receiver pool on cores 2..5 — members 0,1 in
/// domain 0 and members 2,3 in domain 1 — and sends on core 6. The
/// smallest shape where a pool core has both a same-domain sibling and
/// remote-domain siblings, i.e. where domain-aware steal victims and
/// same-domain re-shard targets are observable (fig17 --domain-steal,
/// quiesce_test's NUMA placement case).
inline core::FabricOptions PaperNumaWideFabric(std::uint32_t hosts,
                                               std::uint32_t hub = 0) {
  core::FabricOptions options = PaperFabric(hosts, core::Topology::kStar,
                                            hub);
  options.host_overrides.assign(hosts, options.host);
  options.host_overrides[hub].cache.cores = 8;
  options.host_overrides[hub].cache.domains = 2;
  options.runtime_overrides.assign(hosts, options.runtime);
  options.runtime_overrides[hub].receiver_core = 2;
  options.runtime_overrides[hub].receiver_cores = 4;
  options.runtime_overrides[hub].sender_core = 6;
  return options;
}

}  // namespace twochains::bench
