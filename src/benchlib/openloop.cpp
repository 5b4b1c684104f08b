#include "benchlib/openloop.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "core/fabric.hpp"
#include "jamlib/jamlib.hpp"
#include "jamlib/kv_service.hpp"

namespace twochains::bench {
namespace {

/// The value stored under @p key (deterministic, never kKvMiss, so a
/// completed get can be checked for hit vs. miss by return value alone).
std::int64_t ValueFor(std::uint64_t key) {
  return static_cast<std::int64_t>(key * 2 + 7);
}

struct Pending {
  PicoTime arrival = 0;
  bool is_get = false;
};

/// One request waiting on its link, with the instant it arrived.
struct Queued {
  jamlib::KvRequest request;
  PicoTime arrival = 0;
};

/// One (client host, shard) link's open-loop state: the overflow queue
/// requests wait in when flow control blocks, and whether a slot waiter
/// is already parked on the runtime.
struct Link {
  std::deque<Queued> backlog;
  bool waiting = false;
};

// The driver is lane-partitioned so `config.lanes > 1` runs race-free and
// byte-identical to single-lane: every mutable field below is written by
// exactly one engine lane. ClientState belongs to its client host's lane
// (arrival generator, flow control, send counters); ShardState belongs to
// its shard host's lane (completion matching, latency). The only
// client->shard handoff — the arrival stamp a completion is matched
// against — travels as an engine event homed to the shard's lane, posted
// at Now() + lookahead so it lands before the message it describes (the
// NIC adds doorbell + serialization on top of the wire latency the
// lookahead is derived from). Partials merge in host order after the run.

/// Per-client-host open-loop state; every field is written only by events
/// on this host's lane. Each host draws its own Poisson process (rate/C),
/// so the merged offered load matches OpenLoopConfig.offered_rate_mops.
struct ClientState {
  Xoshiro256 rng{1};
  std::uint64_t quota = 0;      ///< this host's share of config.requests
  std::uint64_t scheduled = 0;  ///< arrivals drawn so far
  /// Simulated clients multiplexed on this host (ids with id % C == c).
  std::uint64_t population = 0;
  std::vector<char> spoke;  ///< per-population-member "has spoken" bit

  std::uint64_t sent = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t queued = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t distinct_clients = 0;
  std::uint64_t hot_head_requests = 0;
  std::string error;

  std::vector<Link> links;  ///< per shard
};

/// Per-shard completion state; written only by events on the shard host's
/// lane (the executed hook and the arrival-record handoff events).
struct ShardState {
  /// In-flight requests, keyed by (from peer << 32) | sn.
  std::map<std::uint64_t, Pending> pending;
  /// Requests whose by-handle frame missed the cache and is being resent
  /// full-body (new sn), per from-peer, in NAK order. The resend completes
  /// under an sn the primary map never saw; it is matched FIFO here.
  /// Concurrent misses on one link can swap two near-simultaneous arrival
  /// stamps — a bounded, documented distortion.
  std::map<core::PeerId, std::deque<Pending>> missed;

  std::uint64_t executed = 0;
  std::uint64_t get_hits = 0;
  PicoTime last_completed_at = 0;
  LatencySample latency;
};

struct Ctx {
  const OpenLoopConfig* config = nullptr;
  core::Fabric* fabric = nullptr;
  jamlib::KvShardMap shard_map{1, 0};
  /// Cross-lane handoff horizon: the engine's conservative lookahead.
  PicoTime record_horizon = 1;

  std::vector<ClientState> clients;  ///< [client host]
  std::vector<ShardState> shards;    ///< [shard]

  /// tx_peer[client][shard]: the shard's PeerId on the client's runtime.
  std::vector<std::vector<core::PeerId>> tx_peer;
  /// rx_peer[shard][client]: the client's PeerId on the shard's runtime
  /// (what ReceivedMessage::from reports).
  std::vector<std::vector<core::PeerId>> rx_peer;

  /// Read at the window boundary (all lanes barrier-parked), written by
  /// whichever lane fails first; atomic only to make the flag itself
  /// race-free.
  std::atomic<bool> failed{false};

  OpenLoopResult result;  ///< merged after the run; untouched during it
};

std::uint64_t PendingKey(core::PeerId from, std::uint32_t sn) {
  return (static_cast<std::uint64_t>(from) << 32) | sn;
}

std::uint64_t ShareOf(std::uint64_t total, std::uint32_t parts,
                      std::uint32_t index) {
  return total / parts + (index < total % parts ? 1 : 0);
}

/// Sends everything the link's backlog holds while slots last; parks a
/// slot waiter when flow control blocks mid-backlog. Runs on client
/// @p client's lane (generator events and slot-free callbacks both home
/// there); the arrival record rides a homed event to the shard's lane.
void DrainLink(const std::shared_ptr<Ctx>& ctx, std::uint32_t client,
               std::uint32_t shard) {
  ClientState& cs = ctx->clients[client];
  Link& link = cs.links[shard];
  core::Runtime& rt = ctx->fabric->runtime(client);
  const core::PeerId peer = ctx->tx_peer[client][shard];
  while (!link.backlog.empty()) {
    if (!rt.HasFreeSlot(peer)) {
      if (!link.waiting) {
        link.waiting = true;
        rt.NotifyWhenSlotFree(peer, [ctx, client, shard]() {
          ctx->clients[client].links[shard].waiting = false;
          DrainLink(ctx, client, shard);
        });
      }
      return;
    }
    const jamlib::KvRequest request = link.backlog.front().request;
    const Pending meta{link.backlog.front().arrival,
                       request.op == jamlib::KvOp::kGet};
    link.backlog.pop_front();
    const std::vector<std::uint64_t> args = jamlib::KvArgsFor(request);
    const auto receipt = rt.Send(peer, jamlib::KvJamFor(request.op),
                                 core::Invoke::kInjected, args, {});
    if (!receipt.ok()) {
      cs.error = "send failed: " + receipt.status().ToString();
      ctx->failed.store(true, std::memory_order_relaxed);
      return;
    }
    ++cs.sent;
    // Hand the arrival stamp to the shard's lane. At Now() + lookahead the
    // record sorts strictly before the message's own rx event (which pays
    // doorbell + serialization on top of the same wire latency), so the
    // executed hook always finds it — at every executor count.
    sim::Engine& engine = ctx->fabric->engine();
    const std::uint64_t key =
        PendingKey(ctx->rx_peer[shard][client], receipt->sn);
    engine.ScheduleAtOn(
        ctx->config->client_hosts + shard,
        engine.Now() + ctx->record_horizon,
        [ctx, shard, key, meta]() { ctx->shards[shard].pending[key] = meta; },
        "openloop.record");
  }
}

/// One arrival on client host @p client: draw a population member, key
/// (Zipf rank), and op from the host's own stream; enqueue on the owning
/// link; schedule the host's next arrival.
void Arrive(const std::shared_ptr<Ctx>& ctx, std::uint32_t client) {
  ClientState& cs = ctx->clients[client];
  if (ctx->failed.load(std::memory_order_relaxed) || cs.scheduled >= cs.quota) {
    return;
  }
  ++cs.scheduled;
  const OpenLoopConfig& config = *ctx->config;

  const std::uint64_t member = cs.rng.NextBelow(cs.population);
  if (!cs.spoke[member]) {
    cs.spoke[member] = 1;
    ++cs.distinct_clients;
  }
  const std::uint64_t rank =
      cs.rng.NextZipf(config.keyspace, config.zipf_theta);
  if (rank < 10) ++cs.hot_head_requests;

  jamlib::KvRequest request;
  request.key = rank;  // rank is the key; KvShardMap's mix spreads the head
  if (cs.rng.NextBernoulli(config.put_fraction)) {
    request.op = jamlib::KvOp::kPut;
    request.value = ValueFor(request.key);
    ++cs.puts;
  } else {
    request.op = jamlib::KvOp::kGet;
    ++cs.gets;
  }

  const std::uint32_t shard = ctx->shard_map.ShardOf(request.key);
  Link& link = cs.links[shard];
  if (!link.backlog.empty() || link.waiting) ++cs.queued;
  link.backlog.push_back(Queued{request, ctx->fabric->engine().Now()});
  cs.queue_peak = std::max<std::uint64_t>(cs.queue_peak, link.backlog.size());
  DrainLink(ctx, client, shard);

  if (cs.scheduled < cs.quota) {
    // C merged per-host Poisson processes at rate/C each superpose to the
    // configured offered rate.
    const double gap = cs.rng.NextExponential(
        1'000'000.0 / config.offered_rate_mops * config.client_hosts);
    ctx->fabric->engine().ScheduleAfterOn(
        client, static_cast<PicoTime>(gap) + 1,
        [ctx, client]() { Arrive(ctx, client); }, "openloop-arrival");
  }
}

/// Completion hook for shard @p shard (runs on the shard host's lane):
/// matches executed jams back to their arrival stamps; reroutes
/// cache-missed frames to the resend FIFO.
void OnShardExecuted(const std::shared_ptr<Ctx>& ctx, std::uint32_t shard,
                     const core::ReceivedMessage& msg) {
  ShardState& ss = ctx->shards[shard];
  if (msg.cache_miss) {
    const auto it = ss.pending.find(PendingKey(msg.from, msg.sn));
    if (it != ss.pending.end()) {
      ss.missed[msg.from].push_back(it->second);
      ss.pending.erase(it);
    }
    return;
  }
  if (!msg.executed) return;

  Pending meta;
  const auto it = ss.pending.find(PendingKey(msg.from, msg.sn));
  if (it != ss.pending.end()) {
    meta = it->second;
    ss.pending.erase(it);
  } else {
    auto& fifo = ss.missed[msg.from];
    if (fifo.empty()) return;  // preload traffic or foreign frame
    meta = fifo.front();
    fifo.pop_front();
  }

  ++ss.executed;
  ss.last_completed_at = std::max(ss.last_completed_at, msg.completed_at);
  ss.latency.Add(msg.completed_at - meta.arrival);
  if (meta.is_get &&
      static_cast<std::int64_t>(msg.return_value) != jamlib::kKvMiss) {
    ++ss.get_hits;
  }
}

/// Closed-loop, unmeasured: writes every key once so measured gets hit.
Status Preload(const std::shared_ptr<Ctx>& ctx) {
  const OpenLoopConfig& config = *ctx->config;
  for (std::uint64_t key = 0; key < config.keyspace; ++key) {
    const std::uint32_t client =
        static_cast<std::uint32_t>(key % config.client_hosts);
    const std::uint32_t shard = ctx->shard_map.ShardOf(key);
    core::Runtime& rt = ctx->fabric->runtime(client);
    const core::PeerId peer = ctx->tx_peer[client][shard];
    while (!rt.HasFreeSlot(peer)) {
      bool freed = false;
      rt.NotifyWhenSlotFree(peer, [&freed]() { freed = true; });
      if (!ctx->fabric->RunUntil([&freed]() { return freed; })) {
        return Internal("preload stalled: no slot ever freed");
      }
    }
    const std::uint64_t args[] = {key,
                                  static_cast<std::uint64_t>(ValueFor(key))};
    const auto receipt =
        rt.Send(peer, "kv_put", core::Invoke::kInjected, args, {});
    if (!receipt.ok()) return receipt.status();
  }
  ctx->fabric->Run();  // drain the tail of the preload
  return Status::Ok();
}

void AccumulateJamStats(const core::JamCacheStats& s, std::int64_t sign,
                        core::JamCacheStats* into) {
  const auto add = [sign](std::uint64_t& field, std::uint64_t v) {
    field = sign > 0 ? field + v : field - v;
  };
  add(into->hits, s.hits);
  add(into->misses, s.misses);
  add(into->installs, s.installs);
  add(into->evictions, s.evictions);
  add(into->invalidations, s.invalidations);
  add(into->naks_sent, s.naks_sent);
  add(into->bytes_saved, s.bytes_saved);
  add(into->link_cycles_saved, s.link_cycles_saved);
  add(into->by_handle_sends, s.by_handle_sends);
  add(into->naks_received, s.naks_received);
  add(into->resends, s.resends);
}

/// Folds the lane-partitioned partials into the flat result, in host
/// order, so the merge itself is deterministic. Latency percentiles are
/// order-independent anyway (nearest-rank over the multiset).
void MergePartials(Ctx& ctx) {
  OpenLoopResult& r = ctx.result;
  for (const ClientState& cs : ctx.clients) {
    r.sent += cs.sent;
    r.gets += cs.gets;
    r.puts += cs.puts;
    r.queued += cs.queued;
    r.queue_peak = std::max(r.queue_peak, cs.queue_peak);
    r.distinct_clients += cs.distinct_clients;
    r.hot_head_requests += cs.hot_head_requests;
    if (r.error.empty() && !cs.error.empty()) r.error = cs.error;
  }
  for (std::size_t s = 0; s < ctx.shards.size(); ++s) {
    const ShardState& ss = ctx.shards[s];
    r.completed += ss.executed;
    r.per_shard_executed[s] = ss.executed;
    r.get_hits += ss.get_hits;
    for (PicoTime sample : ss.latency.samples()) r.latency.Add(sample);
  }
}

}  // namespace

StatusOr<OpenLoopResult> RunKvOpenLoop(const OpenLoopConfig& config) {
  if (config.client_hosts == 0 || config.shards == 0) {
    return InvalidArgument("need at least one client and one shard");
  }
  if (config.requests == 0) return InvalidArgument("requests == 0");
  if (config.simulated_clients < config.client_hosts) {
    return InvalidArgument("simulated_clients < client_hosts");
  }
  if (!(config.offered_rate_mops > 0)) {
    return InvalidArgument("offered_rate_mops must be > 0");
  }
  if (config.put_fraction < 0 || config.put_fraction > 1) {
    return InvalidArgument("put_fraction outside [0, 1]");
  }
  if (config.keyspace == 0 ||
      config.keyspace > config.shards * (jamlib::kKvSlots * 3 / 4)) {
    return InvalidArgument(
        "keyspace must be in [1, shards * 3/4 * kKvSlots] (an overfull "
        "open-addressed table degrades into full-table probes)");
  }

  core::FabricOptions opts;
  opts.hosts = config.client_hosts + config.shards;
  opts.topology = core::Topology::kFullMesh;
  opts.runtime.jam_cache = config.jam_cache;
  opts.engine.lanes = config.lanes;
  auto fabric = std::make_unique<core::Fabric>(opts);
  Status loaded =
      fabric->BuildAndLoad(jamlib::MakeJamlibPackageBuilder(), "tcjamlib");
  if (!loaded.ok()) return loaded;

  auto ctx = std::make_shared<Ctx>();
  ctx->config = &config;
  ctx->fabric = fabric.get();
  ctx->shard_map = jamlib::KvShardMap(config.shards, config.client_hosts);
  ctx->record_horizon = fabric->engine().Lookahead();
  ctx->shards.resize(config.shards);
  ctx->result.per_shard_executed.assign(config.shards, 0);

  ctx->clients.resize(config.client_hosts);
  for (std::uint32_t c = 0; c < config.client_hosts; ++c) {
    ClientState& cs = ctx->clients[c];
    // Decorrelated per-host streams from one seed (golden-ratio stride).
    cs.rng = Xoshiro256(config.seed + 0x9E3779B97F4A7C15ull * (c + 1));
    cs.quota = ShareOf(config.requests, config.client_hosts, c);
    cs.population = ShareOf(config.simulated_clients, config.client_hosts, c);
    cs.spoke.assign(cs.population, 0);
    cs.links.resize(config.shards);
  }

  ctx->tx_peer.resize(config.client_hosts);
  ctx->rx_peer.resize(config.shards);
  for (std::uint32_t c = 0; c < config.client_hosts; ++c) {
    for (std::uint32_t s = 0; s < config.shards; ++s) {
      auto tx = fabric->PeerIdFor(c, config.client_hosts + s);
      auto rx = fabric->PeerIdFor(config.client_hosts + s, c);
      if (!tx.ok()) return tx.status();
      if (!rx.ok()) return rx.status();
      ctx->tx_peer[c].push_back(*tx);
      ctx->rx_peer[s].resize(config.client_hosts);
      ctx->rx_peer[s][c] = *rx;
    }
  }

  if (Status warm = Preload(ctx); !warm.ok()) return warm;

  // Baselines so the measured window excludes preload traffic.
  std::uint64_t wire_base = 0;
  core::JamCacheStats jam_base{};
  for (std::uint32_t h = 0; h < opts.hosts; ++h) {
    wire_base += fabric->runtime(h).stats().bytes_sent;
    AccumulateJamStats(fabric->runtime(h).jam_cache_stats(), +1, &jam_base);
  }
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    fabric->runtime(config.client_hosts + s)
        .SetOnExecuted([ctx, s](const core::ReceivedMessage& msg) {
          OnShardExecuted(ctx, s, msg);
        });
  }

  const PicoTime started = fabric->engine().Now();
  for (std::uint32_t c = 0; c < config.client_hosts; ++c) {
    if (ctx->clients[c].quota == 0) continue;
    fabric->engine().ScheduleAtOn(
        c, started + 1, [ctx, c]() { Arrive(ctx, c); }, "openloop-arrival");
  }
  // Exactly config.requests arrivals are generated and each completes
  // once, so the laned window-granular condition check cannot overshoot
  // the sample count — results stay identical at every lane count.
  const bool drained = fabric->RunUntil([&ctx]() {
    if (ctx->failed.load(std::memory_order_relaxed)) return true;
    std::uint64_t done = 0;
    for (const ShardState& ss : ctx->shards) done += ss.executed;
    return done >= ctx->config->requests;
  });

  for (std::uint32_t s = 0; s < config.shards; ++s) {
    fabric->runtime(config.client_hosts + s).SetOnExecuted(nullptr);
  }
  MergePartials(*ctx);
  OpenLoopResult result = std::move(ctx->result);

  if (ctx->failed.load(std::memory_order_relaxed)) {
    return StatusOr<OpenLoopResult>(std::move(result));
  }
  if (result.completed < config.requests) {
    result.error = drained ? "run ended short of the request count"
                           : "engine drained with requests still in flight";
    return StatusOr<OpenLoopResult>(std::move(result));
  }

  // Duration from the shard-recorded completion stamps, not the idle
  // engine clock: a laned run's final window may fire trailing NIC events
  // past the last completion, and those must not skew the rate.
  PicoTime last_completed = started;
  for (const ShardState& ss : ctx->shards) {
    last_completed = std::max(last_completed, ss.last_completed_at);
  }
  result.duration = last_completed - started;
  if (result.duration > 0) {
    result.achieved_mops = static_cast<double>(result.completed) * 1e6 /
                           static_cast<double>(result.duration);
  }
  std::uint64_t wire_total = 0;
  for (std::uint32_t h = 0; h < opts.hosts; ++h) {
    wire_total += fabric->runtime(h).stats().bytes_sent;
    AccumulateJamStats(fabric->runtime(h).jam_cache_stats(), +1, &result.jam);
  }
  result.wire_bytes = wire_total - wire_base;
  AccumulateJamStats(jam_base, -1, &result.jam);
  result.ok = true;
  return StatusOr<OpenLoopResult>(std::move(result));
}

}  // namespace twochains::bench
