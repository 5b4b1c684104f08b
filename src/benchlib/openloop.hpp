// Open-loop KV serving driver: the load model the closed-loop perftest
// harnesses cannot express. A closed-loop sender waits for each reply, so
// server slowdowns throttle the offered load and hide queueing delay; an
// open-loop generator arrives by its own clock (Poisson process), queues
// when flow control blocks, and charges that wait to the request — the
// latency a real client would see.
//
// The scenario: a sharded in-memory KV store on a core::Fabric. Shard
// hosts hold the jamlib kv table as resident state; client hosts
// multiplex a large simulated-client population, injecting kv_get /
// kv_put jams at each key's owner (jamlib::KvShardMap). Key popularity is
// Zipf (Xoshiro256::NextZipf), so a hot head hammers a few keys — the mix
// the receiver-side jam cache's invoke-by-handle fast path exists for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "core/runtime.hpp"

namespace twochains::bench {

/// Every knob of one open-loop KV serving run. docs/TUNING.md (section
/// "## OpenLoopConfig") documents each with its measured effect size.
struct OpenLoopConfig {
  /// Sender hosts the simulated-client population is multiplexed over.
  std::uint32_t client_hosts = 2;
  /// Shard owner hosts (fabric hosts client_hosts..client_hosts+shards).
  std::uint32_t shards = 4;
  /// Simulated client population; each arrival is drawn uniformly from
  /// it and routed to fabric host (client % client_hosts).
  std::uint64_t simulated_clients = 1'000'000;
  /// Distinct keys. Keep under ~3/4 of shards * jamlib::kKvSlots or the
  /// run is rejected (an overfull open-addressed table livelocks puts).
  std::uint64_t keyspace = 4096;
  /// Zipf skew of key popularity (1.0 = classic web-serving skew;
  /// <= 0 degenerates to uniform).
  double zipf_theta = 1.0;
  /// Fraction of requests that are kv_put (the rest are kv_get).
  double put_fraction = 0.10;
  /// Measured requests (after the unmeasured preload that writes every
  /// key once, closed-loop, so gets hit a warm store).
  std::uint64_t requests = 20'000;
  /// Offered load in requests per simulated microsecond. Arrivals are a
  /// merged Poisson process: exponential gaps with mean 1/rate.
  double offered_rate_mops = 1.0;
  std::uint64_t seed = 1;
  /// Receiver-side jam cache of the shard hosts (off = every injection
  /// carries the full jam body; on = hot path degenerates to slim
  /// invoke-by-handle frames). Every host runs the default RuntimeConfig
  /// with this jam_cache.
  core::JamCacheConfig jam_cache{};
  /// Engine executor lanes (FabricOptions.engine.lanes): >1 shards event
  /// execution by host under conservative lookahead. The driver keeps all
  /// per-host state single-writer, so results are byte-identical at every
  /// lane count — only wall-clock changes.
  std::uint32_t lanes = 1;
};

/// What one run measured. `latency` is arrival -> jam executed, so queue
/// time spent waiting for a free mailbox slot counts (open-loop honesty).
struct OpenLoopResult {
  bool ok = false;
  std::string error;

  std::uint64_t sent = 0;       ///< requests handed to Send()
  std::uint64_t completed = 0;  ///< requests whose jam executed
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t get_hits = 0;   ///< gets returning a stored value (not miss)
  /// Requests that found their (client, shard) link blocked and queued.
  std::uint64_t queued = 0;
  std::uint64_t queue_peak = 0; ///< deepest single-link backlog
  std::uint64_t distinct_clients = 0;  ///< population members that spoke
  /// Requests on the 10 hottest Zipf ranks (the skew sanity signal).
  std::uint64_t hot_head_requests = 0;
  /// Wire bytes the client hosts sent during the measured window,
  /// including full-body resends after cache-miss NAKs (honest).
  std::uint64_t wire_bytes = 0;
  PicoTime duration = 0;        ///< first arrival -> last completion
  double achieved_mops = 0.0;   ///< completed / duration
  LatencySample latency;
  /// Jam-cache counters summed over every host for the measured window
  /// (receiver fields from the shards, sender fields from the clients).
  core::JamCacheStats jam{};
  std::vector<std::uint64_t> per_shard_executed;  ///< size = shards
};

/// Builds the fabric, loads the jamlib package, preloads the keyspace,
/// then drives the measured open-loop window. Configuration
/// errors return a Status; in-run failures come back in result.error.
StatusOr<OpenLoopResult> RunKvOpenLoop(const OpenLoopConfig& config);

}  // namespace twochains::bench
