// core::Fabric: an N-host Two-Chains deployment in one object.
//
// The paper's testbed is two hosts wired back-to-back; a production
// deployment serves many clients, which needs many-to-one (incast) and
// all-to-all injection topologies. Fabric owns the discrete-event engine
// and, per simulated host, the memory/caches/cores (net::Host), the NIC
// and the Two-Chains runtime. It cables the NICs per the chosen topology,
// connects every linked runtime pair (each side gets a dedicated
// mailbox-bank slice and per-peer flow control), loads packages,
// synchronizes namespaces cluster-wide, and starts the receivers.
//
//   core::FabricOptions opts;
//   opts.hosts = 9;
//   opts.topology = core::Topology::kStar;   // hub 0 = incast receiver
//   core::Fabric fabric(opts);
//   fabric.BuildAndLoad(builder, "mypkg");
//   auto peer = fabric.PeerIdFor(3, 0);      // host 3's handle on host 0
//   fabric.runtime(3).Send(*peer, "iput", Invoke::kInjected, args, usr);
//   fabric.Run();
//
// The default FabricOptions (2 hosts, full mesh) is the paper's testbed
// (§VI-C): two hosts wired back-to-back. Every figure bench runs on this
// same class, so it measures the code path the N-host scenarios run.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/runtime.hpp"
#include "net/host.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "pkg/package.hpp"
#include "sim/engine.hpp"

namespace twochains::core {

/// Which host pairs get a back-to-back cable (and a runtime peer link).
enum class Topology : std::uint8_t {
  kFullMesh,  ///< every pair connected: all-to-all injection
  kStar,      ///< every spoke connected to the hub only: incast / fan-out
  /// Switched host -> ToR -> spine tree (see TreeConfig): hosts uplink
  /// into net::Switch fabric instead of direct cables; runtime peering is
  /// hub-spoke like kStar (the incast/fan-out shape), but every frame
  /// crosses 2 or 4 cable segments and contends in shared switch buffers.
  kTree,
};

/// Shape of a Topology::kTree fabric.
struct TreeConfig {
  /// Hosts per ToR switch (ceil(hosts/arity) ToRs are built).
  std::uint32_t arity = 8;
  /// 1 = every host on one switch; 2 = ToRs + one spine.
  std::uint32_t tiers = 2;
  /// ToR-uplink oversubscription: the ToR<->spine trunk carries
  /// arity * net::kWireGbps / oversub. 1.0 = non-blocking; >1 models the
  /// classic under-provisioned trunk that makes incast marks fire.
  double oversub = 1.0;
};

struct FabricOptions {
  std::uint32_t hosts = 2;
  Topology topology = Topology::kFullMesh;
  /// Center of a kStar/kTree fabric (ignored for kFullMesh).
  std::uint32_t hub = 0;
  /// Shape of a kTree fabric (ignored otherwise).
  TreeConfig tree{};
  /// Knobs applied to every switch of a kTree fabric (ignored otherwise).
  net::SwitchConfig switches{};
  /// Template for every host (host i gets id i).
  net::HostConfig host{};
  /// Optional per-host overrides; when non-empty must have `hosts` entries
  /// (a size mismatch fails every Load* with kInvalidArgument).
  std::vector<net::HostConfig> host_overrides;
  net::NicConfig nic{};
  /// Event-engine execution config. `engine.lanes > 1` shards event
  /// execution by host lane under conservative lookahead; the fabric
  /// derives the safe horizon from its smallest cable latency (the
  /// smallest cross-host event delta). Results are byte-identical at every
  /// lane count.
  sim::EngineConfig engine{};
  RuntimeConfig runtime{};
  /// Optional per-host runtime overrides (same contract as host_overrides):
  /// lets e.g. an incast hub run a wide receiver pool while the spokes
  /// keep a single receiver core. Connected hosts must agree on banks,
  /// mailboxes_per_bank and mailbox_slot_bytes, or the load fails.
  std::vector<RuntimeConfig> runtime_overrides;
};

class Fabric {
 public:
  explicit Fabric(FabricOptions options = {});

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Compiles the package and loads it on every host, then wires peers,
  /// synchronizes namespaces cluster-wide, and starts all receivers.
  Status BuildAndLoad(const pkg::PackageBuilder& builder,
                      const std::string& package_name);

  /// Loads an already-built package the same way (same package everywhere).
  Status LoadPackage(const pkg::Package& package);

  /// Loads a *different* package on each host (same element names, possibly
  /// different implementations — the paper's per-process "function
  /// overloading", §IV). @p per_host must have one non-null entry per host;
  /// otherwise no host loads anything.
  ///
  /// The hosts load concurrently, on up to one thread per hardware thread
  /// (the caller's among them), and each ends in the state a serial load in
  /// host order leaves: a load touches only its own host. So a native a
  /// ried init calls must not share unsynchronised state across hosts.
  /// Every host attempts its load even if another's fails; the lowest
  /// failing host's Status is returned, and then no namespace is synced
  /// and no receiver started. An exception a load throws is rethrown here
  /// once every host has finished.
  Status LoadPackages(const std::vector<const pkg::Package*>& per_host);

  /// Re-runs the cluster-wide namespace exchange over every connected pair
  /// (idempotent; LoadPackage* already does it once).
  Status SyncNamespaces();

  // ------------------------------------------------------------ topology

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  const FabricOptions& options() const noexcept { return options_; }
  /// True when hosts @p a and @p b share a link in this topology.
  bool Connected(std::uint32_t a, std::uint32_t b) const noexcept;
  /// PeerId under which host @p dst is reachable from host @p src (i.e.
  /// the id to pass to runtime(src).Send). Error when not connected.
  StatusOr<PeerId> PeerIdFor(std::uint32_t src, std::uint32_t dst) const;

  // -------------------------------------------------------------- access

  sim::Engine& engine() noexcept { return engine_; }
  Runtime& runtime(std::uint32_t i) { return *nodes_.at(i).runtime; }
  net::Host& host(std::uint32_t i) { return *nodes_.at(i).host; }
  net::Nic& nic(std::uint32_t i) { return *nodes_.at(i).nic; }

  /// Switches of a kTree fabric (empty otherwise). tiers=2 lays them out
  /// as [ToR 0..T-1, spine].
  std::uint32_t switch_count() const noexcept {
    return static_cast<std::uint32_t>(switches_.size());
  }
  net::Switch& sw(std::uint32_t i) { return *switches_.at(i); }

  /// Runs the engine until it drains.
  void Run() { engine_.Run(); }
  /// Runs until @p done holds (or the event queue drains). True iff held.
  bool RunUntil(const std::function<bool()>& done) {
    return engine_.RunUntilCondition(done);
  }

 private:
  struct Node {
    std::unique_ptr<net::Host> host;
    std::unique_ptr<net::Nic> nic;
    std::unique_ptr<Runtime> runtime;
  };

  /// The topology's edge list as ordered (a, b) pairs with a < b. For
  /// kTree these are the *logical* runtime peerings (hub-spoke); the
  /// physical path runs through switches_.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> Edges() const;

  /// Builds the kTree switch fabric: switches, uplinks, routes, lanes.
  void BuildTree();

  /// Initializes runtimes and connects every edge (idempotent).
  Status WireUp();

  FabricOptions options_;
  sim::Engine engine_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
  /// First set-up failure (a miscounted overrides list, or a cabling
  /// failure such as a duplicate edge): surfaced by WireUp so a
  /// misconfigured fabric fails loudly instead of running on shadow state.
  Status setup_error_ = Status::Ok();
  bool wired_ = false;
};

}  // namespace twochains::core
