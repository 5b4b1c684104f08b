#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "benchlib/openloop.hpp"
#include "benchlib/workloads.hpp"
#include "common/pump.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/fabric.hpp"
#include "jamlib/jamlib.hpp"

namespace tcbench {
namespace {

using namespace twochains;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Us(PicoTime ps) { return static_cast<double>(ps) * 1e-6; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t Scaled(std::uint64_t full, bool smoke) {
  return smoke ? std::max<std::uint64_t>(1, full / 50) : full;
}

// ----------------------------------------------------------------- shapes

/// The paper's testbed host and runtime (§VI-C): 512 MiB arenas, 4 banks
/// of 16 mailboxes of 136 KiB per peer, sends charged to core 0.
core::FabricOptions PaperShape(std::uint32_t hosts, core::Topology topology) {
  core::FabricOptions o;
  o.hosts = hosts;
  o.topology = topology;
  o.hub = 0;
  o.runtime.banks = 4;
  o.runtime.mailboxes_per_bank = 16;
  o.runtime.mailbox_slot_bytes = KiB(136);
  o.runtime.sender_core = 0;
  o.host.memory_bytes = MiB(512);
  return o;
}

/// One closed-loop sender stream: @p src injects @p count jams at @p dst,
/// each sent only when a mailbox slot toward @p dst is free.
struct Flow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t count = 0;
};

struct ClosedLoop {
  core::FabricOptions fabric;
  std::string jam = "ssum";
  std::uint64_t usr_bytes = 64;
  std::vector<Flow> flows;
};

/// 64 senders into hub 0 through host -> ToR -> spine with a 4:1 trunk, so
/// ToR uplinks congest, switches mark, and adaptive banks back off.
/// Small arenas: the mailbox footprint, not the paper's 512 MiB.
ClosedLoop IncastTree(bool smoke) {
  constexpr std::uint32_t kSpokes = 64;
  ClosedLoop w;
  core::FabricOptions& o = w.fabric;
  o = PaperShape(kSpokes + 1, core::Topology::kTree);
  o.tree.arity = 8;
  o.tree.tiers = 2;
  o.tree.oversub = 4.0;
  o.switches.buffer_bytes = KiB(64);
  o.switches.ecn_threshold_bytes = KiB(8);
  o.runtime.mailboxes_per_bank = 8;
  o.runtime.mailbox_slot_bytes = KiB(4);
  o.runtime.adaptive.enabled = true;
  o.host.memory_bytes = MiB(24);
  o.host_overrides.assign(o.hosts, o.host);
  o.host_overrides[0].memory_bytes =
      MiB(48) + std::uint64_t{kSpokes} * o.runtime.banks *
                    o.runtime.mailboxes_per_bank * o.runtime.mailbox_slot_bytes;
  w.jam = "iput";
  w.usr_bytes = 64;
  for (std::uint32_t s = 1; s <= kSpokes; ++s) {
    w.flows.push_back({s, 0, Scaled(2000, smoke)});
  }
  return w;
}

/// 8 spokes into a hub whose 4-core receiver pool steals. Two banks per
/// peer; spokes 1 and 8 (hub peers 0 and 7) carry 8x the load and their
/// banks shard onto the same pool core, so the other cores idle unless
/// they steal. Stealing is armed on the hub only: the spokes have a
/// single receiver core, where the knob is a no-op.
ClosedLoop StealSkew(bool smoke) {
  constexpr std::uint32_t kSpokes = 8;
  ClosedLoop w;
  core::FabricOptions& o = w.fabric;
  o = PaperShape(kSpokes + 1, core::Topology::kStar);
  o.runtime.banks = 2;
  o.host_overrides.assign(o.hosts, o.host);
  o.host_overrides[0].cache.cores = 5;
  o.runtime_overrides.assign(o.hosts, o.runtime);
  core::RuntimeConfig& hub = o.runtime_overrides[0];
  hub.receiver_cores = 4;
  hub.sender_core = 4;
  hub.steal.enabled = true;
  hub.steal.threshold = 2;
  hub.steal.hysteresis = 1;
  w.jam = "ssum";
  w.usr_bytes = 1024;
  for (std::uint32_t s = 1; s <= kSpokes; ++s) {
    const std::uint64_t weight = (s == 1 || s == kSpokes) ? 8 : 1;
    w.flows.push_back({s, 0, Scaled(2000, smoke) * weight});
  }
  return w;
}

/// 8-host full mesh, every host streaming to its clockwise neighbour: the
/// balanced all-to-all load the lane-sharded engine is built for.
ClosedLoop Ring(bool smoke) {
  constexpr std::uint32_t kHosts = 8;
  ClosedLoop w;
  w.fabric.hosts = kHosts;
  w.fabric.topology = core::Topology::kFullMesh;
  w.jam = "ssum";
  w.usr_bytes = 64;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    w.flows.push_back({h, (h + 1) % kHosts, Scaled(40000, smoke)});
  }
  return w;
}

/// The closed-loop workload named @p workload (any name but kv_zipf).
ClosedLoop ClosedLoopOf(const std::string& workload, bool smoke) {
  if (workload == "incast_tree") return IncastTree(smoke);
  if (workload == "steal_skew") return StealSkew(smoke);
  return Ring(smoke);
}

/// The fabric bench::RunKvOpenLoop builds for KvConfig (2 clients + 4
/// shards, full mesh, default hosts, jam cache on).
core::FabricOptions KvFabric() {
  core::FabricOptions o;
  o.hosts = 6;
  o.topology = core::Topology::kFullMesh;
  o.runtime.jam_cache.enabled = true;
  o.runtime.jam_cache.capacity = 8;
  return o;
}

bench::OpenLoopConfig KvConfig(std::uint64_t seed, std::uint64_t requests,
                               double offered_mops) {
  bench::OpenLoopConfig c;
  c.client_hosts = 2;
  c.shards = 4;
  c.simulated_clients = 1'000'000;
  c.keyspace = 2048;
  c.zipf_theta = 1.0;
  c.put_fraction = 0.10;
  c.requests = requests;
  c.offered_rate_mops = offered_mops;
  c.seed = seed;
  c.jam_cache.enabled = true;
  c.jam_cache.capacity = 8;
  return c;
}

double ArenaMibOf(const core::FabricOptions& o) {
  std::uint64_t bytes = 0;
  for (std::uint32_t h = 0; h < o.hosts; ++h) {
    bytes += o.host_overrides.empty() ? o.host.memory_bytes
                                      : o.host_overrides[h].memory_bytes;
  }
  return static_cast<double>(bytes) / static_cast<double>(MiB(1));
}

// --------------------------------------------------------------- counters

/// Fabric-wide sums of every counter the benchmark reports or checks.
enum Counter : std::size_t {
  kMsgsSent,
  kMsgsExecuted,
  kBytesSent,
  kSendStalls,
  kSecurityRejections,
  kSteals,
  kFramesStolen,
  kCwndDecreases,
  kAdaptiveRefusals,
  kEchoesSent,
  kEchoesSeen,
  kDrainedOwner,
  kDrainedStolen,
  kFlagsReturned,
  kJamHits,
  kJamMisses,
  kJamResends,
  kJamBytesSaved,
  kNicBytes,
  kNicMarks,
  kSwForwarded,
  kSwMarked,
  kSwDropped,
  kSwHolds,
  kSwPeakBytes,  ///< max over switches, not a sum
  kCpuExec,
  kCpuWait,
  kCacheAccesses,
  kCacheL1Hits,
  kCacheDram,
  kCacheStash,
  kCounterCount,
};
using Counters = std::array<std::uint64_t, kCounterCount>;

Counters Collect(core::Fabric& fabric) {
  Counters c{};
  for (std::uint32_t h = 0; h < fabric.size(); ++h) {
    const core::RuntimeStats& rt = fabric.runtime(h).stats();
    c[kMsgsSent] += rt.messages_sent;
    c[kMsgsExecuted] += rt.messages_executed;
    c[kBytesSent] += rt.bytes_sent;
    c[kSendStalls] += rt.send_stalls;
    c[kSecurityRejections] += rt.security_rejections;
    c[kSteals] += rt.steals;
    c[kFramesStolen] += rt.frames_stolen;
    c[kCwndDecreases] += rt.cwnd_decreases;
    c[kAdaptiveRefusals] += rt.adaptive_refusals;
    c[kEchoesSent] += rt.ecn_echoes_sent;
    c[kEchoesSeen] += rt.ecn_echoes_seen;
    c[kDrainedOwner] += rt.banks_drained_owner;
    c[kDrainedStolen] += rt.banks_drained_stolen;
    c[kFlagsReturned] += rt.bank_flags_returned;
    const core::JamCacheStats& jam = fabric.runtime(h).jam_cache_stats();
    c[kJamHits] += jam.hits;
    c[kJamMisses] += jam.misses;
    c[kJamResends] += jam.resends;
    c[kJamBytesSaved] += jam.bytes_saved;
    c[kNicBytes] += fabric.nic(h).bytes_delivered();
    c[kNicMarks] += fabric.nic(h).ecn_marks_delivered();
    net::Host& host = fabric.host(h);
    for (std::uint32_t k = 0; k < host.core_count(); ++k) {
      const cpu::PerfCounters& pc = host.core(k).counters();
      c[kCpuExec] += pc.Of(cpu::CycleClass::kExecute);
      c[kCpuWait] += pc.Of(cpu::CycleClass::kWait);
    }
    const cache::HierarchyStats& cs = host.caches().stats();
    c[kCacheAccesses] += cs.TotalAccesses();
    c[kCacheL1Hits] += cs.l1_hits;
    c[kCacheDram] += cs.dram_accesses;
    c[kCacheStash] += cs.stash_lines;
  }
  for (std::uint32_t s = 0; s < fabric.switch_count(); ++s) {
    const net::Switch& sw = fabric.sw(s);
    c[kSwForwarded] += sw.frames_forwarded();
    c[kSwMarked] += sw.frames_marked();
    c[kSwDropped] += sw.frames_dropped();
    c[kSwHolds] += sw.backpressure_holds();
    c[kSwPeakBytes] = std::max(c[kSwPeakBytes], sw.peak_buffer_bytes());
  }
  return c;
}

void Check(RunResult& r, bool ok, const std::string& what) {
  if (!ok) r.errors.push_back(what);
}

// ----------------------------------------------------- closed-loop driver

/// Seeded inputs of one flow: iput keys are drawn per message; ssum
/// cycles through kPayloads random payloads whose sums are known.
constexpr std::size_t kPayloads = 16;
constexpr std::uint64_t kIputKeys = 1024;
/// Senders start at seeded offsets within 1 us and pause a seeded 0-1 ns
/// after each send, so every seed drives its own event schedule: without
/// it, closed loops of fixed-size jams settle into the same steady state
/// and report the same latencies for every seed.
constexpr PicoTime kStartJitterPs = 1'000'000;
constexpr PicoTime kSendJitterPs = 1'000;

struct FlowState {
  core::Runtime* runtime = nullptr;
  core::PeerId peer = core::kInvalidPeer;  ///< dst on the sender
  std::uint32_t lane = 0;
  std::uint64_t count = 0;
  Xoshiro256 rng;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint64_t> payload_sums;

  // Written only by events on the sender's lane.
  std::uint64_t sent = 0;
  std::uint32_t first_sn = 0;
  std::vector<PicoTime> sent_at;     ///< by message index
  std::vector<std::uint64_t> keys;   ///< iput key by message index
  std::uint64_t fc_waits = 0;
  std::uint64_t send_errors = 0;
};

/// One executed frame as the receiver saw it. Recorded by events on the
/// receiver's lane and matched to its send only after the run, so no lane
/// ever reads another lane's state.
struct Completion {
  core::PeerId from = core::kInvalidPeer;
  std::uint32_t sn = 0;
  bool executed = false;
  PicoTime at = 0;
  std::uint64_t ret = 0;
  std::uint64_t instructions = 0;
};

RunResult RunClosedLoop(const ClosedLoop& w, const RunOptions& options,
                        std::uint32_t lanes) {
  RunResult r;
  const bool iput = w.jam == "iput";

  auto t = Clock::now();
  core::FabricOptions fabric_options = w.fabric;
  fabric_options.engine.lanes = lanes;
  auto fabric = std::make_unique<core::Fabric>(fabric_options);
  r.fabric_s = Since(t);
  t = Clock::now();
  auto package = bench::BuildBenchPackage();
  r.package_s = Since(t);
  if (!package.ok()) {
    r.errors.push_back("package build: " + package.status().ToString());
    return r;
  }
  t = Clock::now();
  const Status loaded = fabric->LoadPackage(*package);
  r.load_s = Since(t);
  r.setup_s = r.fabric_s + r.package_s + r.load_s;
  if (!loaded.ok()) {
    r.errors.push_back("package load: " + loaded.ToString());
    return r;
  }
  if (options.setup_only) return r;

  // ---- inputs, from the seed only
  std::vector<FlowState> flows(w.flows.size());
  std::map<std::pair<std::uint32_t, core::PeerId>, std::size_t> flow_of;
  std::vector<std::uint64_t> inbound(fabric->size(), 0);
  Xoshiro256 jitter(options.seed ^ 0x5DEECE66Dull);
  std::vector<PicoTime> start_at(w.flows.size());
  for (std::size_t i = 0; i < w.flows.size(); ++i) {
    const Flow& spec = w.flows[i];
    FlowState& f = flows[i];
    auto to = fabric->PeerIdFor(spec.src, spec.dst);
    auto from = fabric->PeerIdFor(spec.dst, spec.src);
    if (!to.ok() || !from.ok()) {
      r.errors.push_back("flow endpoints not connected");
      return r;
    }
    f.runtime = &fabric->runtime(spec.src);
    f.peer = *to;
    f.lane = fabric->nic(spec.src).lane();
    f.count = spec.count;
    f.rng = Xoshiro256(options.seed + 0x9E3779B97F4A7C15ull * (i + 1));
    f.sent_at.assign(spec.count, 0);
    if (iput) {
      f.keys.assign(spec.count, 0);
    } else {
      for (std::size_t p = 0; p < kPayloads; ++p) {
        std::vector<std::uint8_t> bytes(w.usr_bytes);
        for (std::uint8_t& b : bytes) {
          b = static_cast<std::uint8_t>(f.rng.Next());
        }
        std::uint64_t sum = 0;  // jam_ssum returns the sum of 8-byte words
        for (std::size_t off = 0; off + 8 <= bytes.size(); off += 8) {
          std::uint64_t word = 0;
          std::memcpy(&word, bytes.data() + off, 8);
          sum += word;
        }
        f.payloads.push_back(std::move(bytes));
        f.payload_sums.push_back(sum);
      }
    }
    flow_of[{spec.dst, *from}] = i;
    inbound[spec.dst] += spec.count;
    start_at[i] = jitter.NextBelow(kStartJitterPs);
    r.ops += spec.count;
  }
  const std::vector<std::uint8_t> iput_usr(w.usr_bytes, 0xC3);

  std::vector<std::vector<Completion>> done(fabric->size());
  for (std::uint32_t h = 0; h < fabric->size(); ++h) {
    if (inbound[h] == 0) continue;
    done[h].reserve(inbound[h]);
    fabric->runtime(h).SetOnExecuted(
        [&log = done[h]](const core::ReceivedMessage& msg) {
          log.push_back({msg.from, msg.sn, msg.executed, msg.completed_at,
                         msg.return_value, msg.instructions});
        });
  }

  sim::Engine& engine = fabric->engine();
  std::vector<PumpLoop<>> pumps(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    pumps[i].Set([&f = flows[i], &engine, &w, &iput_usr, iput,
                  resume = pumps[i].Handle()]() {
      if (f.sent >= f.count) return;
      if (!f.runtime->HasFreeSlot(f.peer)) {
        ++f.fc_waits;
        f.runtime->NotifyWhenSlotFree(f.peer, resume);
        return;
      }
      const std::uint64_t n = f.sent;
      const std::uint64_t key = iput ? f.rng.NextBelow(kIputKeys) : 0;
      const auto args = iput ? std::span<const std::uint64_t>(&key, 1)
                             : std::span<const std::uint64_t>();
      const std::vector<std::uint8_t>& usr =
          iput ? iput_usr : f.payloads[n % kPayloads];
      auto receipt =
          f.runtime->Send(f.peer, w.jam, core::Invoke::kInjected, args, usr);
      if (!receipt.ok()) {
        ++f.send_errors;
        return;  // the flow stops; its unsent messages count as failed
      }
      if (n == 0) f.first_sn = receipt->sn;
      f.sent_at[n] = engine.Now();
      if (iput) f.keys[n] = key;
      ++f.sent;
      engine.ScheduleAfterOn(
          f.lane, receipt->sender_cost + f.rng.NextBelow(kSendJitterPs),
          resume, "bench.send");
    });
  }

  const Counters before = Collect(*fabric);
  std::optional<TagProfile> profile;
  if (options.traced) profile.emplace(engine);
  t = Clock::now();
  const std::uint64_t events_before = engine.EventsProcessed();
  const PicoTime t0 = engine.Now();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    engine.ScheduleAtOn(flows[i].lane, t0 + start_at[i], pumps[i].Handle(),
                        "bench.start");
  }
  fabric->Run();
  r.measure_s = Since(t);
  if (profile) r.layers = profile->Finish();
  profile.reset();
  r.events = engine.EventsProcessed() - events_before;
  const Counters after = Collect(*fabric);
  Counters d{};
  for (std::size_t k = 0; k < kCounterCount; ++k) d[k] = after[k] - before[k];

  // ---- match every completion to its send; check outputs
  std::vector<std::vector<std::uint8_t>> seen(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    seen[i].assign(flows[i].count, 0);
  }
  std::vector<PicoTime> last_done(flows.size(), 0);
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> iput_offset;
  LatencySample latency(r.ops);
  std::uint64_t good = 0, executed = 0, wrong = 0, unmatched = 0,
                duplicates = 0, instructions = 0;
  for (std::uint32_t h = 0; h < fabric->size(); ++h) {
    for (const Completion& c : done[h]) {
      if (!c.executed) continue;
      ++executed;
      instructions += c.instructions;
      const auto it = flow_of.find({h, c.from});
      if (it == flow_of.end()) {
        ++unmatched;
        continue;
      }
      const std::size_t i = it->second;
      FlowState& f = flows[i];
      const std::uint64_t n = c.sn - f.first_sn;
      if (c.sn < f.first_sn || n >= f.sent) {
        ++unmatched;
        continue;
      }
      if (seen[i][n] != 0) {
        ++duplicates;
        continue;
      }
      seen[i][n] = 1;
      // Steady state only: each flow's first and last tenth (ramp-up and
      // the drain after other flows finished) stay out of the percentiles.
      const std::uint64_t edge = f.count / 10;
      if (n >= edge && n < f.count - edge) latency.Add(c.at - f.sent_at[n]);
      last_done[i] = std::max(last_done[i], c.at);
      bool correct = false;
      if (iput) {
        // jam_iput returns the heap offset of its key: the same offset for
        // every put of one key on one receiver, never -1.
        const auto [slot, fresh] =
            iput_offset.try_emplace({h, f.keys[n]}, c.ret);
        correct = c.ret < bench::kHeapBytes && (fresh || slot->second == c.ret);
      } else {
        correct = c.ret == f.payload_sums[n % kPayloads];
      }
      if (correct) {
        ++good;
      } else {
        ++wrong;
      }
    }
  }
  for (std::uint32_t h = 0; h < fabric->size(); ++h) {
    fabric->runtime(h).SetOnExecuted(nullptr);
  }

  std::uint64_t sent = 0, send_errors = 0, fc_waits = 0;
  PicoTime start = ~PicoTime{0}, end = 0;
  double jain_sum = 0, jain_sq = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowState& f = flows[i];
    sent += f.sent;
    send_errors += f.send_errors;
    fc_waits += f.fc_waits;
    if (f.sent > 0) start = std::min(start, f.sent_at[0]);
    end = std::max(end, last_done[i]);
  }
  // Jain's index over weight-normalized per-flow rates. A flow's rate is
  // count / (finish - start), and its weight is its share of the load, so
  // the normalized rate is 1 / (finish - start): 1.0 when every flow
  // finishes together, lower when some are starved until the end.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (last_done[i] <= start) continue;
    const double x = 1.0 / static_cast<double>(last_done[i] - start);
    jain_sum += x;
    jain_sq += x * x;
  }
  const double jain =
      Ratio(jain_sum * jain_sum, static_cast<double>(flows.size()) * jain_sq);

  r.failed = r.ops - good + d[kSecurityRejections] + d[kSwDropped];
  Check(r, send_errors == 0, "every Send succeeds");
  Check(r, after[kSecurityRejections] == 0, "security_rejections == 0");
  Check(r,
        d[kMsgsExecuted] == d[kMsgsSent] && d[kMsgsSent] == sent &&
            executed == sent && sent == r.ops,
        "executed == sent == attempted");
  Check(r, unmatched == 0 && duplicates == 0,
        "every completion matches one send, exactly once");
  Check(r, wrong == 0, "every jam returned the expected value");
  Check(r, after[kSwDropped] == 0, "switch frames_dropped == 0");
  Check(r, after[kSwMarked] == after[kNicMarks],
        "switch frames_marked == nic ecn_marks_delivered");
  Check(r, after[kEchoesSent] == after[kEchoesSeen],
        "ecn echoes sent == echoes seen");
  Check(r,
        after[kDrainedOwner] + after[kDrainedStolen] == after[kFlagsReturned],
        "banks drained by owner + thief == bank flags returned");

  const double ops = static_cast<double>(r.ops);
  const double exec = static_cast<double>(executed);
  const double duration = end > start ? static_cast<double>(end - start) : 0;
  r.sim = {
      {"sim_p50_us", Us(latency.Percentile(0.50))},
      {"sim_p999_us", Us(latency.Percentile(0.999))},
      {"sim_rate_mmsgs", Ratio(exec * 1e6, duration)},
      {"wire_bytes_per_msg", Ratio(d[kBytesSent], ops)},
      {"jain_fairness", jain},
      {"sim.events_per_msg", Ratio(static_cast<double>(r.events), ops)},
      {"nic.bytes_delivered_per_msg", Ratio(d[kNicBytes], ops)},
      {"nic.ecn_marks_delivered", static_cast<double>(d[kNicMarks])},
      {"switch.frames_marked_frac", Ratio(d[kSwMarked], d[kSwForwarded])},
      {"switch.backpressure_holds", static_cast<double>(d[kSwHolds])},
      {"switch.peak_buffer_kib", d[kSwPeakBytes] / 1024.0},
      {"switch.frames_dropped", static_cast<double>(d[kSwDropped])},
      {"rt.send_stalls_per_msg", Ratio(d[kSendStalls], ops)},
      {"rt.fc_waits_per_msg", Ratio(fc_waits, ops)},
      {"rt.cwnd_decreases", static_cast<double>(d[kCwndDecreases])},
      {"rt.adaptive_refusals", static_cast<double>(d[kAdaptiveRefusals])},
      {"rt.steals", static_cast<double>(d[kSteals])},
      {"rt.frames_stolen_frac", Ratio(d[kFramesStolen], exec)},
      {"jam.hit_frac", Ratio(d[kJamHits], d[kJamHits] + d[kJamMisses])},
      {"jam.misses", static_cast<double>(d[kJamMisses])},
      {"jam.resends", static_cast<double>(d[kJamResends])},
      {"jam.bytes_saved_per_msg", Ratio(d[kJamBytesSaved], ops)},
      {"jamvm.instr_per_msg", Ratio(instructions, exec)},
      {"cpu.exec_cycles_per_msg", Ratio(d[kCpuExec], ops)},
      {"cpu.wait_cycles_per_msg", Ratio(d[kCpuWait], ops)},
      {"cache.accesses_per_msg", Ratio(d[kCacheAccesses], ops)},
      {"cache.l1_hit_frac", Ratio(d[kCacheL1Hits], d[kCacheAccesses])},
      {"cache.dram_per_msg", Ratio(d[kCacheDram], ops)},
      {"cache.stash_lines_per_msg", Ratio(d[kCacheStash], ops)},
  };
  return r;
}

// ---------------------------------------------------------------- kv_zipf

constexpr double kKvOfferedMops = 6.0;
constexpr std::uint64_t kKvRequests = 1'000'000;
constexpr PicoTime kKvSloP99Ps = 40'000'000;  // fig19's 40 us p99 SLO

RunResult RunKv(const RunOptions& options) {
  RunResult r;
  // RunKvOpenLoop owns its fabric, so set-up is timed as a whole call that
  // serves one request: fabric, jamlib compile and load, 2048-key preload.
  auto t = Clock::now();
  const auto warm =
      bench::RunKvOpenLoop(KvConfig(options.seed, 1, kKvOfferedMops));
  r.setup_s = Since(t);
  if (!warm.ok() || !warm->ok) {
    r.errors.push_back("kv set-up run failed");
  }
  if (options.setup_only) return r;

  const std::uint64_t requests = Scaled(kKvRequests, options.smoke);
  r.ops = requests;
  r.failed = requests;
  t = Clock::now();
  const auto run =
      bench::RunKvOpenLoop(KvConfig(options.seed, requests, kKvOfferedMops));
  r.measure_s = std::max(Since(t) - r.setup_s, 1e-9);
  if (!run.ok()) {
    r.errors.push_back("kv run: " + run.status().ToString());
    return r;
  }
  const bench::OpenLoopResult& k = *run;
  Check(r, k.ok && k.error.empty(), "kv run: " + k.error);
  Check(r, k.completed == requests, "completed == requests");
  Check(r, k.get_hits == k.gets, "get_hits == gets");
  Check(r, k.jam.hits + k.jam.misses == k.jam.by_handle_sends,
        "hits + misses == by_handle_sends");
  Check(r, k.jam.naks_sent == k.jam.misses && k.jam.misses == k.jam.resends,
        "naks_sent == misses == resends");
  r.failed =
      (requests - std::min(requests, k.completed)) + (k.gets - k.get_hits);

  std::uint64_t shard_max = 0, shard_sum = 0;
  for (const std::uint64_t n : k.per_shard_executed) {
    shard_max = std::max(shard_max, n);
    shard_sum += n;
  }
  const double done = static_cast<double>(k.completed);
  r.sim = {
      {"sim_p50_us", Us(k.latency.Percentile(0.50))},
      {"sim_p999_us", Us(k.latency.Percentile(0.999))},
      {"sim_rate_mmsgs", k.achieved_mops},
      {"wire_bytes_per_msg", Ratio(k.wire_bytes, done)},
      {"jam.hit_frac", Ratio(k.jam.hits, k.jam.hits + k.jam.misses)},
      {"jam.misses", static_cast<double>(k.jam.misses)},
      {"jam.resends", static_cast<double>(k.jam.resends)},
      {"jam.bytes_saved_per_msg", Ratio(k.jam.bytes_saved, done)},
      {"kv.queued_frac", Ratio(k.queued, k.sent)},
      {"kv.queue_peak", static_cast<double>(k.queue_peak)},
      {"kv.shard_imbalance",
       Ratio(shard_max * static_cast<double>(k.per_shard_executed.size()),
             shard_sum)},
  };
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"kv_zipf", "incast_tree",
                                                 "steal_skew", "ring_laned"};
  return names;
}

std::uint32_t DefaultLanes(const std::string& workload) {
  // 2 lanes, not 4: on a 4-core box the 4-lane ring varied by a third from
  // run to run, 2 lanes by under a tenth.
  return workload == "ring_laned" ? 2 : 1;
}

RunResult RunWorkload(const std::string& workload, const RunOptions& options) {
  if (workload == "kv_zipf") return RunKv(options);
  const std::uint32_t lanes =
      options.lanes != 0 ? options.lanes : DefaultLanes(workload);
  return RunClosedLoop(ClosedLoopOf(workload, options.smoke), options, lanes);
}

double ArenaMib(const std::string& workload) {
  if (workload == "kv_zipf") return ArenaMibOf(KvFabric());
  return ArenaMibOf(ClosedLoopOf(workload, false).fabric);
}

RunResult KvSetupSplit() {
  RunResult r;
  auto t = Clock::now();
  auto fabric = std::make_unique<core::Fabric>(KvFabric());
  r.fabric_s = Since(t);
  t = Clock::now();
  auto package = jamlib::MakeJamlibPackageBuilder().Build("tcjamlib");
  r.package_s = Since(t);
  if (!package.ok()) {
    r.errors.push_back("jamlib build: " + package.status().ToString());
    return r;
  }
  t = Clock::now();
  const Status loaded = fabric->LoadPackage(*package);
  r.load_s = Since(t);
  r.setup_s = r.fabric_s + r.package_s + r.load_s;
  Check(r, loaded.ok(), "jamlib load: " + loaded.ToString());
  return r;
}

double KvSloCapacityMops(std::uint64_t seed, std::vector<std::string>* errors) {
  constexpr std::uint64_t kRequests = 50'000;
  double lo = 4.0, hi = 12.0;
  for (int step = 0; step < 7; ++step) {
    const double mid = (lo + hi) / 2;
    const auto run = bench::RunKvOpenLoop(KvConfig(seed, kRequests, mid));
    if (!run.ok()) {
      errors->push_back("kv capacity run: " + run.status().ToString());
      return 0;
    }
    const bool met = run->ok && run->completed == kRequests &&
                     run->latency.Percentile(0.99) <= kKvSloP99Ps;
    (met ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace tcbench
