// Public API facade: a complete two-host Two-Chains deployment in one
// object. This is the header applications and benchmarks include.
//
//   two_chains::Testbed tb(two_chains::TestbedOptions{});
//   tb.BuildAndLoad(builder, "mypkg");           // compile + load both hosts
//   tb.runtime(0).Send("append", Invoke::kInjected, args, payload);
//   tb.Run();                                    // advance simulated time
//
// The Testbed is the paper's evaluation platform (§VI-C): two simulated
// hosts (memory, caches, cores), a back-to-back NIC pair, the ucxs
// workers, and the two runtimes — fully deterministic. It is implemented
// as the 2-host full-mesh special case of core::Fabric, so every figure
// bench exercises exactly the code path the N-host fabrics scale up.
#pragma once

#include <memory>

#include "core/fabric.hpp"
#include "core/runtime.hpp"
#include "net/host.hpp"
#include "net/nic.hpp"
#include "pkg/package.hpp"
#include "sim/engine.hpp"
#include "ucxs/ucxs.hpp"

namespace twochains::core {

/// Everything configurable about the two-host testbed. The With*()
/// helpers below cover the common toggles; benchlib's PaperTestbed()
/// is the canonical paper parameterization (§VI-C). docs/TUNING.md
/// documents every runtime/cache knob with measured effect sizes.
struct TestbedOptions {
  net::HostConfig host0{};  ///< memory / cache-hierarchy of host 0
  net::HostConfig host1{};  ///< memory / cache-hierarchy of host 1
  net::NicConfig nic{};     ///< shared NIC model (links, stash, DMA)
  ucxs::ProtocolConfig protocol{};  ///< put-protocol thresholds/costs
  RuntimeConfig runtime{};  ///< applied to *both* runtimes

  TestbedOptions() {
    host0.host_id = 0;
    host1.host_id = 1;
  }

  /// Firmware-style toggle: deliver inbound DMA into the LLC or to DRAM.
  TestbedOptions& WithStashing(bool on) {
    nic.stash_to_llc = on;
    return *this;
  }
  TestbedOptions& WithWaitMode(cpu::WaitMode mode) {
    runtime.wait.mode = mode;
    return *this;
  }
  /// Arms receiver-pool work stealing on both hosts (a no-op until the
  /// pool is widened past one core, see RuntimeConfig::steal).
  TestbedOptions& WithStealing(const StealConfig& steal) {
    runtime.steal = steal;
    return *this;
  }
  /// Splits both hosts' arenas and caches into @p domains memory domains
  /// (NUMA nodes); see cache::HierarchyConfig::domains.
  TestbedOptions& WithDomains(std::uint32_t domains) {
    host0.cache.domains = domains;
    host1.cache.domains = domains;
    return *this;
  }
  TestbedOptions& WithSecurity(const SecurityPolicy& policy) {
    runtime.security = policy;
    return *this;
  }
  /// Arms the receiver-side jam cache on both hosts (send-once,
  /// invoke-many; see RuntimeConfig::jam_cache).
  TestbedOptions& WithJamCache(const JamCacheConfig& cache) {
    runtime.jam_cache = cache;
    return *this;
  }
};

/// The paper's evaluation platform in one object: two simulated hosts
/// wired back-to-back, implemented as the 2-host full-mesh special case
/// of core::Fabric (so every figure bench exercises exactly the code
/// path the N-host fabrics scale up). Construction builds and cables
/// both hosts; call one of the Load* methods before sending — they run
/// the whole Initialize -> Connect -> LoadPackage -> SyncNamespaces ->
/// StartReceiver sequence (see docs/RUNTIME_LIFECYCLE.md).
class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {});

  /// Compiles the package and loads it on both hosts, then synchronizes
  /// namespaces and starts both receivers.
  Status BuildAndLoad(const pkg::PackageBuilder& builder,
                      const std::string& package_name);

  /// Loads an already-built package the same way.
  Status LoadPackage(const pkg::Package& package);

  /// Loads a *different* package on each host (same element names, possibly
  /// different implementations — the paper's per-process "function
  /// overloading", §IV), then synchronizes namespaces and starts receivers.
  Status LoadPackages(const pkg::Package& for_host0,
                      const pkg::Package& for_host1);

  /// The shared discrete-event engine both hosts run on.
  sim::Engine& engine() noexcept { return fabric_.engine(); }
  /// Runtime of host 0 or 1.
  Runtime& runtime(int host) {
    return fabric_.runtime(static_cast<std::uint32_t>(host));
  }
  /// Simulated host 0 or 1 (memory, caches, cores, regions).
  net::Host& host(int i) {
    return fabric_.host(static_cast<std::uint32_t>(i));
  }
  /// NIC of host 0 or 1.
  net::Nic& nic(int i) { return fabric_.nic(static_cast<std::uint32_t>(i)); }
  /// The underlying 2-host fabric.
  Fabric& fabric() noexcept { return fabric_; }

  /// Runs the engine until it drains.
  void Run() { fabric_.Run(); }
  /// Runs until @p done holds (or the event queue drains). True iff held.
  bool RunUntil(const std::function<bool()>& done) {
    return fabric_.RunUntil(done);
  }

 private:
  static FabricOptions ToFabricOptions(TestbedOptions options);

  Fabric fabric_;
};

}  // namespace twochains::core

/// Convenience namespace alias for applications.
namespace two_chains = twochains::core;
