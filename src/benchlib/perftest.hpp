// Benchmark shapes (§VI-A): ping-pong and injection rate, for Two-Chains
// active messages and for the raw UCX put baseline of Figures 5/6.
//
// All shapes run inside the deterministic simulation; results are simulated
// latencies/rates, reproducible bit-for-bit across runs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "benchlib/table.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "core/fabric.hpp"
#include "ucxs/ucxs.hpp"

namespace twochains::bench {

/// Per-iteration argument generator (e.g. the Indirect Put key).
using ArgsFn = std::function<std::vector<std::uint64_t>(std::uint64_t iter)>;

struct AmConfig {
  std::string jam = "ssum";
  core::Invoke mode = core::Invoke::kInjected;
  std::uint64_t usr_bytes = 64;
  ArgsFn args;                    ///< defaults to {iter & 127}
  std::uint32_t warmup = 200;
  std::uint32_t iterations = 2000;
  bool no_execute = false;        ///< fig 5/6 "without-execution" mode
};

struct PingPongResult {
  LatencySample one_way;          ///< half round-trip per iteration
  std::uint64_t frame_len = 0;
  ucxs::Protocol protocol = ucxs::Protocol::kShort;
  /// Receiver-side core counters accumulated over the whole run (host 1).
  cpu::PerfCounters responder_counters{};
  std::uint64_t messages = 0;
};

/// Half round-trip active-message latency between hosts 0 and 1 (§VI-A1).
StatusOr<PingPongResult> RunAmPingPong(core::Fabric& fabric,
                                       const AmConfig& config);

struct RateResult {
  double messages_per_second = 0;
  double megabytes_per_second = 0;
  PicoTime duration = 0;
  std::uint64_t frame_len = 0;  ///< last receipt (slim when by-handle)
  std::uint64_t messages = 0;
  /// Total frame bytes the sender put on the wire (sum of receipt
  /// frame_len over every send). With the jam cache warm this collapses
  /// toward messages * 64 while frame_len alone would hide the cold
  /// full-body sends; wire_bytes / messages is the honest bytes/invoke.
  std::uint64_t wire_bytes = 0;
  /// Receiver-side jam-cache counters at the end of the run (all zero
  /// when the cache is disabled).
  core::JamCacheStats rx_jam{};
};

/// Injection rate from host 0 to host 1 with bank flow control (§VI-A2):
/// the sender pushes as fast as its banks allow; the receiver drains and
/// recycles.
StatusOr<RateResult> RunAmInjectionRate(core::Fabric& fabric,
                                        const AmConfig& config);

// ----------------------------------------------------------------- incast

struct IncastConfig {
  std::string jam = "iput";
  core::Invoke mode = core::Invoke::kInjected;
  std::uint64_t usr_bytes = 64;
  ArgsFn args;                            ///< defaults to {iter & 127}
  std::uint32_t iterations_per_sender = 1000;
  /// Skewed-incast load: per-sender message multipliers, one per entry of
  /// `senders` (sender i pushes iterations_per_sender * sender_weights[i]
  /// messages). Empty = uniform (weight 1 everywhere). This is what makes
  /// receiver-pool skew observable: concentrating load on the senders
  /// whose banks shard to one pool core leaves the other cores idle
  /// unless they steal. Weight 0 = a *silent* sender: wired into the
  /// topology but pushing nothing, and excluded from the Jain fairness
  /// normalization (all-zero weights are rejected). Silent senders model
  /// provisioned-but-idle clients in the serving scenarios.
  std::vector<std::uint32_t> sender_weights;
};

struct IncastSenderResult {
  std::uint32_t host = 0;                 ///< fabric host index
  std::uint64_t messages = 0;
  double messages_per_second = 0;
  /// Times this sender had to park on NotifyWhenSlotFree (its bank
  /// flags toward the receiver were all out).
  std::uint64_t flow_control_waits = 0;
};

struct IncastResult {
  std::vector<IncastSenderResult> per_sender;
  double aggregate_messages_per_second = 0;
  double aggregate_megabytes_per_second = 0;
  /// Jain's fairness index over per-sender completion rates (1 = fair).
  double fairness = 1.0;
  /// Send-to-completion latency across all messages (p99 = the incast tail).
  LatencySample latency;
  PicoTime duration = 0;
  /// Total frame bytes the senders put on the wire (sum of receipt
  /// frame_len over every send), as in RateResult.
  std::uint64_t wire_bytes = 0;
};

/// N senders inject into one receiver, each paced only by its own per-peer
/// bank flow control — the many-to-one deployment shape. All senders start
/// at the same simulated instant and push `iterations_per_sender` messages.
StatusOr<IncastResult> RunIncastRate(core::Fabric& fabric,
                                     std::uint32_t receiver,
                                     const std::vector<std::uint32_t>& senders,
                                     const IncastConfig& config);

/// Per-peer counter table for @p runtime (one row per PeerId) — how the
/// incast bench reports per-sender fairness from the receiver's view.
Table PeerStatsTable(const core::Runtime& runtime);

// ---------------------------------------------------------------- raw UCX

struct RawPutConfig {
  std::uint64_t size = 256;
  std::uint32_t warmup = 200;
  std::uint32_t iterations = 2000;
};

/// Raw UCX put ping-pong baseline ("Data put" in Figs. 5/6): puts through
/// the kUcx endpoint, receiver detects by polling the trailing flag byte
/// with the standard completion-tracking overhead.
StatusOr<PingPongResult> RunRawPutPingPong(core::Fabric& fabric,
                                           const RawPutConfig& config);

/// Raw UCX put streaming bandwidth: window-limited pipelining with per-op
/// completion tracking.
StatusOr<RateResult> RunRawPutStream(core::Fabric& fabric,
                                     const RawPutConfig& config);

}  // namespace twochains::bench
