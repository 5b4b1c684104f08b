// ucxs: a UCX-shaped communication shim over the NIC model.
//
// Two-Chains is "implemented as a plugin to the UCX communication
// framework" (§I); its benchmarks compare against plain UCX puts (§VII).
// This shim reproduces the two UCX behaviours those experiments depend on:
//
//  1. *Size-dependent protocol selection.* UCX switches wire protocols as
//     message size grows (short -> eager bcopy -> eager zcopy ->
//     rendezvous). Each protocol trades higher fixed setup cost for lower
//     per-byte cost, so a message that has *just* crossed a threshold pays
//     the new protocol's setup without amortizing it — the latency bumps
//     the paper calls out at the 8- and 256-integer Injected Function
//     sizes (§VII-A).
//
//  2. *Flow-control / completion-tracking overhead.* The standard put path
//     tracks completions and enforces an outstanding-operation window;
//     Two-Chains bypasses it with its own mailbox-bank flow control ("the
//     standard UCX put operation has more library overhead for flow
//     control and detecting message completion", §VII). PutMode selects
//     which cost model applies.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>

#include "common/status.hpp"
#include "common/units.hpp"
#include "mem/region.hpp"
#include "net/nic.hpp"
#include "sim/engine.hpp"

namespace twochains::ucxs {

enum class Protocol : std::uint8_t { kShort, kBcopy, kZcopy, kRndv };

std::string_view ProtocolName(Protocol p) noexcept;

/// Upper size bounds (inclusive) per protocol; sizes above kZcopyMax use
/// rendezvous. They are placed so that the Injected Function frames of the
/// paper's Indirect Put (1472 B + 64 B per 16 ints) cross into
/// bcopy->zcopy at the 8-integer frame (1536 B) and into rendezvous at the
/// 256-integer frame (2496 B), reproducing Fig. 7's bumps.
inline constexpr std::uint64_t kShortMax = 192;
inline constexpr std::uint64_t kBcopyMax = 1535;
inline constexpr std::uint64_t kZcopyMax = 2495;

/// Fixed sender-side setup cost per protocol (ns).
inline constexpr double kShortOverheadNs = 20;
inline constexpr double kBcopyOverheadNs = 90;
inline constexpr double kZcopyOverheadNs = 260;
inline constexpr double kRndvOverheadNs = 650;

/// bcopy copies through a bounce buffer: extra per-byte cost (ns/byte).
inline constexpr double kBcopyNsPerByte = 0.012;

/// UCX-mode completion tracking: extra sender cost per op (ns) and the
/// outstanding-operation window. Tracking does not delay the wire post
/// (the CQ is polled after posting, and overlaps the wait in ping-pong)
/// but it fully paces back-to-back streaming — which is exactly why the
/// paper sees put *bandwidth* collapse while put *latency* stays fine.
/// kUser mode (Two-Chains' own bank flow control) pays neither.
inline constexpr double kTrackingNsPerOp = 1050;
inline constexpr std::uint32_t kMaxOutstanding = 16;

/// The protocol a message of @p size uses.
Protocol SelectProtocol(std::uint64_t size) noexcept;

/// Which flow-control stack a put goes through.
enum class PutMode : std::uint8_t {
  kUcx,   ///< standard UCX put: tracking cost + window
  kUser,  ///< Two-Chains path: bare protocol + NIC (own flow control)
};

struct PutReceipt {
  Protocol protocol = Protocol::kShort;
  /// Sender CPU time consumed before the NIC doorbell (protocol setup +
  /// tracking). Callers model their busy time with this.
  PicoTime sender_overhead = 0;
  /// True if the op was queued behind the outstanding window instead of
  /// being posted immediately (kUcx mode only).
  bool queued = false;
};

class Endpoint {
 public:
  /// Posts from @p local into @p remote, one endpoint per connected peer
  /// like a UCX ep.
  Endpoint(sim::Engine& engine, net::Nic& local, net::Nic& remote,
           PutMode mode)
      : engine_(engine), local_(local), remote_(remote), mode_(mode) {}

  /// Completion tracking rides sender-side CQE events that may still be in
  /// flight when an endpoint dies (e.g. a benchmark stops the engine and
  /// returns); the liveness token lets those events no-op safely.
  ~Endpoint() { *alive_ = false; }

  /// Sender-side setup cost a put of @p size will pay (protocol setup plus
  /// tracking in kUcx mode) — for callers that model CPU busy time.
  PicoTime EstimateOverhead(std::uint64_t size) const;

  /// One-sided put into the connected peer. @p on_delivered fires when the
  /// bytes are visible remotely.
  StatusOr<PutReceipt> PutNbi(mem::VirtAddr local, mem::VirtAddr remote,
                              std::uint64_t size, mem::RKey rkey,
                              bool fence = false,
                              net::DeliveredFn on_delivered = nullptr);

  /// 8-byte immediate put (signals, flags).
  StatusOr<PutReceipt> PutInline(std::uint64_t value, mem::VirtAddr remote,
                                 mem::RKey rkey, bool fence = false,
                                 net::DeliveredFn on_delivered = nullptr);

  std::uint32_t outstanding() const noexcept { return outstanding_; }

 private:
  /// Prices @p put, then posts it or queues it behind the window.
  PutReceipt Submit(net::PutRequest put);
  /// A put's sender-side CQE callback: frees its window slot.
  net::DeliveredFn CompletionTracker();
  void PostNow(net::PutRequest put);
  void OnComplete();

  sim::Engine& engine_;
  net::Nic& local_;
  net::Nic& remote_;
  PutMode mode_;
  std::uint32_t outstanding_ = 0;
  /// NIC posting is serialized in submission order (WQEs reach the HCA in
  /// the order the sender posted them, regardless of per-op setup time).
  PicoTime post_serial_ = 0;
  std::deque<net::PutRequest> queue_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace twochains::ucxs
