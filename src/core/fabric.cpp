#include "core/fabric.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/log.hpp"
#include "common/strfmt.hpp"

namespace twochains::core {

namespace {

// The laned engine's safe horizon is the smallest cross-host event delta:
// the direct-cable latency, or on a tree the smaller switch-cable latency
// (every switch hop is one switch-cable latency in the future).
PicoTime LookaheadFor(const FabricOptions& options) {
  double min_latency_ns = net::kWireLatencyNs;
  if (options.topology == Topology::kTree) {
    min_latency_ns = std::min(min_latency_ns,
                              std::max(0.0, options.switches.wire_latency_ns));
  }
  return Nanoseconds(min_latency_ns);
}

// A zero-latency cable leaves no horizon — fall back to a single executor
// (results are identical either way, only slower).
sim::EngineConfig EngineConfigFor(const FabricOptions& options) {
  sim::EngineConfig cfg = options.engine;
  if (cfg.lanes == 0) cfg.lanes = 1;
  if (cfg.lanes > 1 && LookaheadFor(options) == 0) {
    TC_WARN << "fabric: zero wire latency leaves no safe lookahead; "
               "running single-lane";
    cfg.lanes = 1;
  }
  return cfg;
}

/// Runs job(0) .. job(n - 1) on up to min(n, hardware threads) threads,
/// the caller's among them; each idle thread takes the next index. Jobs
/// must not share unsynchronised state. An exception a job throws is
/// rethrown here after every thread has joined (the lowest index's, if
/// several throw). With one thread this is a loop in index order.
/// Under glibc, what jobs freed in the helper threads' malloc arenas goes
/// back to the system after the join; kept, it would stay resident until
/// some later call's threads reused those arenas.
void RunIndexed(std::size_t n, const std::function<void(std::size_t)>& job) {
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> thrown(n);
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        job(i);
      } catch (...) {
        thrown[i] = std::current_exception();
      }
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      n, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  helpers.reserve(threads > 0 ? threads - 1 : 0);
  try {
    while (helpers.size() + 1 < threads) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Fewer helpers than asked for: the threads already running, and
    // this one, still take every index.
  }
  work();
  for (std::thread& helper : helpers) helper.join();
#if defined(__GLIBC__)
  if (!helpers.empty()) malloc_trim(0);
#endif
  for (const std::exception_ptr& e : thrown) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

Fabric::Fabric(FabricOptions options)
    : options_(std::move(options)),
      engine_(EngineConfigFor(options_), LookaheadFor(options_)) {
  if (options_.hosts == 0) {
    TC_WARN << "fabric: hosts=0 is not a fabric; building 1 host";
    options_.hosts = 1;
  }
  // A miscounted overrides list does not say which host each entry was
  // meant for, so it fails every load; the hosts are still built from the
  // templates so the object stays whole.
  if (!options_.host_overrides.empty() &&
      options_.host_overrides.size() != options_.hosts) {
    setup_error_ = InvalidArgument(
        StrFormat("%zu host_overrides for %u hosts",
                  options_.host_overrides.size(), options_.hosts));
    options_.host_overrides.clear();
  }
  if (!options_.runtime_overrides.empty() &&
      options_.runtime_overrides.size() != options_.hosts) {
    if (setup_error_.ok()) {
      setup_error_ = InvalidArgument(
          StrFormat("%zu runtime_overrides for %u hosts",
                    options_.runtime_overrides.size(), options_.hosts));
    }
    options_.runtime_overrides.clear();
  }
  if (options_.hub >= options_.hosts) {
    TC_WARN << "fabric: hub " << options_.hub << " out of range; using 0";
    options_.hub = 0;
  }
  if (options_.topology == Topology::kTree) {
    if (options_.tree.arity == 0) {
      TC_WARN << "fabric: tree arity 0; using 1";
      options_.tree.arity = 1;
    }
    if (options_.tree.tiers < 1 || options_.tree.tiers > 2) {
      TC_WARN << "fabric: tree tiers " << options_.tree.tiers
              << " unsupported; clamping to " << (options_.tree.tiers < 1 ? 1 : 2);
      options_.tree.tiers = options_.tree.tiers < 1 ? 1 : 2;
    }
    if (options_.tree.oversub <= 0) {
      TC_WARN << "fabric: tree oversub " << options_.tree.oversub
              << " not positive; using 1.0";
      options_.tree.oversub = 1.0;
    }
  }

  nodes_.reserve(options_.hosts);
  for (std::uint32_t i = 0; i < options_.hosts; ++i) {
    const net::HostConfig& host_cfg = options_.host_overrides.empty()
                                          ? options_.host
                                          : options_.host_overrides[i];
    Node node;
    node.host = std::make_unique<net::Host>(static_cast<int>(i), host_cfg);
    node.nic = std::make_unique<net::Nic>(engine_, *node.host, options_.nic);
    node.nic->set_lane(i);
    const RuntimeConfig& runtime_cfg = options_.runtime_overrides.empty()
                                           ? options_.runtime
                                           : options_.runtime_overrides[i];
    node.runtime =
        std::make_unique<Runtime>(engine_, *node.host, *node.nic, runtime_cfg);
    nodes_.push_back(std::move(node));
  }

  if (options_.topology == Topology::kTree) {
    // No direct cables: hosts uplink into the switch fabric, which also
    // homes each switch on its own virtual lane past the hosts.
    BuildTree();
    return;
  }

  // Cable the NICs: one dedicated back-to-back link per topology edge. A
  // cabling failure (a duplicate edge would silently shadow the first
  // cable's wire state) is remembered and surfaced by WireUp.
  for (const auto& [a, b] : Edges()) {
    const Status st = nodes_[a].nic->ConnectTo(*nodes_[b].nic);
    if (!st.ok() && setup_error_.ok()) setup_error_ = st;
  }

  // One virtual lane per host — always, even when running single-lane, so
  // scalar and laned runs assign identical event keys and every result is
  // byte-identical across lane counts.
  engine_.SetVirtualLanes(options_.hosts);
}

void Fabric::BuildTree() {
  const std::uint32_t hosts = options_.hosts;
  const std::uint32_t arity = options_.tree.arity;
  const std::uint32_t tors =
      options_.tree.tiers == 1 ? 1 : (hosts + arity - 1) / arity;
  const std::uint32_t count = options_.tree.tiers == 1 ? 1 : tors + 1;
  const double trunk_gbps =
      static_cast<double>(arity) * net::kWireGbps / options_.tree.oversub;

  switches_.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    const bool spine = options_.tree.tiers == 2 && s == tors;
    switches_.push_back(std::make_unique<net::Switch>(
        engine_, options_.switches,
        spine ? std::string("spine") : StrFormat("tor%u", s)));
    switches_.back()->set_lane(hosts + s);
  }

  if (options_.tree.tiers == 1) {
    net::Switch& tor = *switches_[0];
    for (std::uint32_t h = 0; h < hosts; ++h) {
      const std::uint32_t port = tor.AttachNic(*nodes_[h].nic, net::kWireGbps);
      (void)tor.SetRoute(nodes_[h].nic.get(), port);
      nodes_[h].nic->AttachUplink(tor, net::kWireGbps,
                                  options_.switches.wire_latency_ns);
    }
  } else {
    net::Switch& spine = *switches_[tors];
    std::vector<std::uint32_t> tor_uplink(tors);   // ToR -> spine port
    std::vector<std::uint32_t> spine_down(tors);   // spine -> ToR port
    for (std::uint32_t t = 0; t < tors; ++t) {
      tor_uplink[t] = switches_[t]->AttachSwitch(spine, trunk_gbps);
      spine_down[t] = spine.AttachSwitch(*switches_[t], trunk_gbps);
    }
    for (std::uint32_t h = 0; h < hosts; ++h) {
      const std::uint32_t t = h / arity;
      net::Switch& tor = *switches_[t];
      const std::uint32_t down = tor.AttachNic(*nodes_[h].nic, net::kWireGbps);
      nodes_[h].nic->AttachUplink(tor, net::kWireGbps,
                                  options_.switches.wire_latency_ns);
      // The host's ToR delivers it on the downlink; every other ToR sends
      // via the spine, which fans back out to the owning ToR.
      (void)tor.SetRoute(nodes_[h].nic.get(), down);
      (void)spine.SetRoute(nodes_[h].nic.get(), spine_down[t]);
      for (std::uint32_t o = 0; o < tors; ++o) {
        if (o == t) continue;
        (void)switches_[o]->SetRoute(nodes_[h].nic.get(), tor_uplink[o]);
      }
    }
  }

  engine_.SetVirtualLanes(hosts + count);
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> Fabric::Edges() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const std::uint32_t n = static_cast<std::uint32_t>(
      nodes_.empty() ? options_.hosts : nodes_.size());
  switch (options_.topology) {
    case Topology::kFullMesh:
      for (std::uint32_t a = 0; a < n; ++a) {
        for (std::uint32_t b = a + 1; b < n; ++b) edges.emplace_back(a, b);
      }
      break;
    case Topology::kStar:
    case Topology::kTree:
      // kTree peers hub-spoke like kStar — the incast/fan-out shape — but
      // the frames ride the switch fabric instead of dedicated cables.
      for (std::uint32_t b = 0; b < n; ++b) {
        if (b == options_.hub) continue;
        edges.emplace_back(std::min(options_.hub, b),
                           std::max(options_.hub, b));
      }
      break;
  }
  return edges;
}

bool Fabric::Connected(std::uint32_t a, std::uint32_t b) const noexcept {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) return false;
  if (options_.topology == Topology::kTree) {
    return (a == options_.hub) != (b == options_.hub);
  }
  return nodes_[a].nic->ConnectedTo(*nodes_[b].nic);
}

StatusOr<PeerId> Fabric::PeerIdFor(std::uint32_t src,
                                   std::uint32_t dst) const {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    return InvalidArgument("host index out of range");
  }
  const PeerId id = nodes_[src].runtime->PeerIdOf(*nodes_[dst].runtime);
  if (id == kInvalidPeer) {
    return NotFound(StrFormat(
        "hosts %u and %u are not connected in this topology", src, dst));
  }
  return id;
}

Status Fabric::WireUp() {
  if (wired_) return Status::Ok();
  TC_RETURN_IF_ERROR(setup_error_);
  for (auto& node : nodes_) {
    TC_RETURN_IF_ERROR(node.runtime->Initialize());
  }
  for (const auto& [a, b] : Edges()) {
    TC_RETURN_IF_ERROR(
        Runtime::Connect(*nodes_[a].runtime, *nodes_[b].runtime).status());
  }
  wired_ = true;
  return Status::Ok();
}

Status Fabric::BuildAndLoad(const pkg::PackageBuilder& builder,
                            const std::string& package_name) {
  TC_ASSIGN_OR_RETURN(const pkg::Package package, builder.Build(package_name));
  return LoadPackage(package);
}

Status Fabric::LoadPackage(const pkg::Package& package) {
  std::vector<const pkg::Package*> per_host(nodes_.size(), &package);
  return LoadPackages(per_host);
}

Status Fabric::LoadPackages(const std::vector<const pkg::Package*>& per_host) {
  if (per_host.size() != nodes_.size()) {
    return InvalidArgument(StrFormat("need %zu packages, got %zu",
                                     nodes_.size(), per_host.size()));
  }
  if (std::find(per_host.begin(), per_host.end(), nullptr) != per_host.end()) {
    return InvalidArgument("null package");
  }
  TC_RETURN_IF_ERROR(WireUp());
  // A host's load touches only its own memory, caches, namespace, natives
  // and runtime tables, never the engine or another host, so the hosts
  // load concurrently and each ends in the state a serial load leaves.
  std::vector<Status> loaded(nodes_.size(), Status::Ok());
  RunIndexed(nodes_.size(), [&](std::size_t i) {
    loaded[i] = nodes_[i].runtime->LoadPackage(*per_host[i]);
  });
  for (const Status& st : loaded) TC_RETURN_IF_ERROR(st);
  TC_RETURN_IF_ERROR(SyncNamespaces());
  for (auto& node : nodes_) {
    TC_RETURN_IF_ERROR(node.runtime->StartReceiver());
  }
  return Status::Ok();
}

Status Fabric::SyncNamespaces() {
  TC_RETURN_IF_ERROR(WireUp());
  for (const auto& [a, b] : Edges()) {
    TC_RETURN_IF_ERROR(
        Runtime::SyncNamespaces(*nodes_[a].runtime, *nodes_[b].runtime));
  }
  return Status::Ok();
}

}  // namespace twochains::core
