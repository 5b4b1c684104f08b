// RDMA NIC + link model (ConnectX-6-class HCA over PCIe Gen4, 200 Gb/s,
// back-to-back — the paper's interconnect, §VI-C).
//
// A one-sided put moves through a fixed pipeline:
//
//   doorbell -> sender DMA read (PCIe) -> wire serialization + propagation
//            -> receiver HCA processing -> rkey check -> DMA write
//            -> cache action (LLC stash or DRAM delivery) -> delivered
//
// Bytes are captured at DMA-read time (so later sender-side writes cannot
// corrupt an in-flight message) and become visible in receiver memory at
// delivery time. Stage occupancy is tracked per NIC and per link direction,
// which is what limits streaming message rate and bandwidth. The stage
// costs are the k* constants below.
//
// Topology: a NIC carries one back-to-back cable per ConnectTo() call, so
// N-host fabrics (full mesh, star/incast) are built from pairwise links.
// Outbound serialization and in-order delivery are tracked per link
// direction; the send engine (doorbell/DMA-read path) is shared across all
// of a NIC's links, and inbound DMA-write occupancy is shared across all
// links delivering *into* a NIC — the PCIe write path is what an incast of
// senders ultimately contends on.
//
// Ordering: when `enforce_write_ordering` is set (true for the paper's
// testbed: "Modern servers like the one we use ... enforce ordering"),
// deliveries on a link direction happen in post order. When cleared, each
// delivery suffers an extra deterministic pseudo-random skew, so a signal
// written in the same put train can land before its payload — unless the
// posting NIC was told to fence. This is the configuration the mailbox
// protocol's separate-signal-put mode exists for (Fig. 1 of the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "mem/region.hpp"
#include "net/host.hpp"
#include "sim/engine.hpp"

namespace twochains::net {

class Switch;

inline constexpr double kWireGbps = 200.0;      ///< link bandwidth (Gb/s)
inline constexpr double kPcieGbps = 252.0;      ///< PCIe Gen4 x16 (Gb/s)
inline constexpr double kDoorbellNs = 70.0;     ///< CPU MMIO post to HCA
inline constexpr double kPerMessageNs = 40.0;   ///< send engine time per WQE
/// PCIe round trip to fetch a put's payload.
inline constexpr double kDmaReadOverheadNs = 180.0;
/// Propagation over a back-to-back cable. Also the laned engine's derived
/// lookahead on a direct-cabled fabric.
inline constexpr double kWireLatencyNs = 250.0;
inline constexpr double kRxProcessingNs = 160.0;  ///< receiver HCA per packet
/// Max skew added to a delivery when write ordering is not enforced.
inline constexpr double kReorderWindowNs = 400.0;

/// The two NIC behaviours a testbed chooses (docs/TUNING.md, ## NicConfig).
struct NicConfig {
  /// Deliver each link direction's puts in post order. Cleared, every
  /// unfenced delivery is skewed by up to kReorderWindowNs.
  bool enforce_write_ordering = true;
  /// Deliver inbound bytes into the LLC (cache stashing) or DRAM. On a
  /// multi-domain host the stash lands in the target address's *home
  /// domain's* LLC slice — next to the cores that own the bank when the
  /// runtime places banks domain-aware.
  bool stash_to_llc = true;
};

/// Sender-visible completion of a posted operation.
struct PutCompletion {
  Status status = Status::Ok();
  PicoTime delivered_at = 0;
  /// True when a switch on the path ECN-marked the frame (congested
  /// egress queue). Always false on direct-cabled paths.
  bool ecn_marked = false;
};

using DeliveredFn = std::function<void(const PutCompletion&)>;

/// One put as a NIC posts it.
struct PutRequest {
  /// Sender address the payload is DMA-read from; for an inline put, the
  /// 8-byte immediate value itself (no DMA read).
  std::uint64_t source = 0;
  mem::VirtAddr remote_addr = 0;
  /// Bytes to move; an inline put always moves its 8-byte value.
  std::uint64_t size = 0;
  mem::RKey rkey;
  bool inline_op = false;
  /// Holds this put until every put posted before it has been delivered
  /// (IBTA fence semantics).
  bool fence = false;
  /// Fires at the simulated instant the bytes are visible in remote memory
  /// (or with an error status if the rkey check failed) and runs on the
  /// *destination* lane — receive-side logic only.
  DeliveredFn on_delivered;
  /// The sender-visible CQE: fires one wire latency after delivery, back on
  /// the posting NIC's lane — the place for sender-side bookkeeping
  /// (completion tracking, windows).
  DeliveredFn on_complete;
};

class Nic {
 public:
  Nic(sim::Engine& engine, Host& host, NicConfig config);

  /// Wires this NIC back-to-back with @p peer (both directions). A NIC may
  /// be connected to many peers, one dedicated cable each. Re-cabling an
  /// already-linked pair fails with kAlreadyExists — a duplicate cable
  /// would silently shadow the first cable's wire state — and a
  /// self-connect fails with kInvalidArgument.
  Status ConnectTo(Nic& peer);

  /// Attaches this NIC's uplink to a switch port: puts toward peers with
  /// no direct cable serialize onto this uplink (at @p gbps, one cable
  /// latency of @p latency_ns to the switch) and are routed hop by hop.
  /// One uplink per NIC (re-attaching replaces it); direct cables keep
  /// priority when both exist.
  void AttachUplink(Switch& sw, double gbps, double latency_ns) noexcept;
  /// True when an uplink switch port is attached.
  bool HasUplink() const noexcept { return uplink_.sw != nullptr; }
  /// True when a put to @p peer can be carried: a direct cable, or both
  /// ends attached to a switched fabric.
  bool CanReach(const Nic& peer) const noexcept {
    return ConnectedTo(peer) || (HasUplink() && peer.HasUplink());
  }

  /// Virtual engine lane this NIC's host lives on (the fabric wires one
  /// lane per host). Receive-side events (HCA processing, DMA write,
  /// delivery) run on the *destination* NIC's lane; sender-side events
  /// (post, completion) on the poster's. Lane 0 — the default — is correct
  /// for single-lane testbeds.
  void set_lane(std::uint32_t lane) noexcept { lane_ = lane; }
  std::uint32_t lane() const noexcept { return lane_; }

  /// True when a cable to @p peer exists.
  bool ConnectedTo(const Nic& peer) const noexcept;

  /// Posts @p put from this host into @p dst, over a direct cable or the
  /// switched fabric. A put this NIC cannot make (no path to @p dst, zero
  /// length, a DMA read outside the arena) completes at once, on this lane,
  /// with the error through both callbacks, and the error is returned.
  Status Post(Nic& dst, PutRequest put);

  /// Posts a one-sided RDMA put of [local_addr, +size) from this host into
  /// [remote_addr, +size) on @p dst, authorized by @p rkey (see Post and
  /// PutRequest).
  Status PostPut(Nic& dst, mem::VirtAddr local_addr, mem::VirtAddr remote_addr,
                 std::uint64_t size, mem::RKey rkey, bool fence = false,
                 DeliveredFn on_delivered = nullptr,
                 DeliveredFn on_complete = nullptr) {
    return Post(dst, {.source = local_addr,
                      .remote_addr = remote_addr,
                      .size = size,
                      .rkey = rkey,
                      .fence = fence,
                      .on_delivered = std::move(on_delivered),
                      .on_complete = std::move(on_complete)});
  }

  /// Posts an 8-byte immediate put into @p dst (value supplied inline, no
  /// sender DMA read) — used for signals and flow-control flags.
  Status PostInlinePut(Nic& dst, std::uint64_t value,
                       mem::VirtAddr remote_addr, mem::RKey rkey,
                       bool fence = false, DeliveredFn on_delivered = nullptr,
                       DeliveredFn on_complete = nullptr) {
    return Post(dst, {.source = value,
                      .remote_addr = remote_addr,
                      .size = sizeof(value),
                      .rkey = rkey,
                      .inline_op = true,
                      .fence = fence,
                      .on_delivered = std::move(on_delivered),
                      .on_complete = std::move(on_complete)});
  }

  /// Number of puts posted since construction.
  std::uint64_t puts_posted() const noexcept { return puts_posted_; }
  /// Number of deliveries rejected by rkey validation.
  std::uint64_t rkey_rejections() const noexcept { return rkey_rejections_; }
  /// Total payload bytes delivered into this NIC's host.
  std::uint64_t bytes_delivered() const noexcept { return bytes_delivered_; }
  /// Inbound ops that arrived carrying an ECN mark. The fabric-wide mark
  /// ledger the soak suite reconciles: at quiescence the sum of this over
  /// a fabric's NICs equals the sum of Switch::frames_marked over its
  /// switches (marks are set exactly once and never dropped).
  std::uint64_t ecn_marks_delivered() const noexcept {
    return ecn_marks_delivered_;
  }

 private:
  friend class Switch;

  /// One put in flight. Kept to 104 B so the nic.rx, nic.deliver and
  /// switch.ingress events (two pointers and an Op) fit sim::SmallFn's
  /// inline buffer.
  struct Op {
    /// The payload snapshot: `size` bytes DMA-read at post time, or an
    /// inline put's 8-byte value.
    std::unique_ptr<std::uint8_t[]> bytes;
    mem::VirtAddr remote_addr;
    std::uint32_t size;
    mem::RKey rkey;
    bool inline_op;
    /// Set (once) by the first congested switch on the path; surfaces to
    /// the sender and receiver via PutCompletion::ecn_marked.
    bool ecn_marked = false;
    /// Host id of the destination NIC: what switches route on.
    std::uint32_t dst_host = 0;
    DeliveredFn on_delivered;
    DeliveredFn on_complete;
    /// Uncontended delivery estimate from post time; when rx contention
    /// pushes the real delivery later, the sender's fence state learns the
    /// correction via the completion event.
    PicoTime est_deliver = 0;
  };

  /// One back-to-back cable: outbound serialization + in-order delivery
  /// state for the direction this NIC transmits on.
  struct Link {
    Nic* peer = nullptr;
    PicoTime wire_free_at = 0;        ///< outbound link direction
    PicoTime last_sched_delivery = 0; ///< for in-order delivery
  };

  /// This NIC's uplink into a switched fabric (Topology::kTree): puts to
  /// peers with no direct cable serialize here and hop through switches.
  struct Uplink {
    Switch* sw = nullptr;
    double gbps = 0;
    double latency_ns = 0;
    PicoTime wire_free_at = 0;  ///< host -> switch serialization occupancy
  };

  Link* FindLink(const Nic* dst) noexcept;
  /// Post without the failure completion: leaves @p put's callbacks in
  /// place unless the put is on its way.
  Status Launch(Nic& dst, PutRequest& put);
  /// A frame from @p src reaches this (destination) NIC at @p arrival, off
  /// a direct cable or the last switch: the inbound DMA-write engine takes
  /// it in true arrival order, then it is delivered.
  void Arrive(Op op, Nic* src, PicoTime arrival);
  void DeliverAt(PicoTime when, Op op, Nic* dst);
  void FinishOp(Op op, PutCompletion completion);

  sim::Engine& engine_;
  Host& host_;
  NicConfig config_;
  std::vector<Link> links_;
  Uplink uplink_;

  std::uint32_t lane_ = 0;       ///< virtual engine lane of this NIC's host
  PicoTime tx_free_at_ = 0;      ///< send engine (DMA read + WQE processing)
  PicoTime last_delivery_at_ = 0;  ///< for fence semantics
  /// Inbound DMA-write engine occupancy: shared across every link that
  /// delivers into this NIC (the incast bottleneck at the PCIe write path).
  PicoTime rx_busy_until_ = 0;
  Xoshiro256 reorder_rng_{0x0dd5eedull};

  std::uint64_t puts_posted_ = 0;
  std::uint64_t rkey_rejections_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t ecn_marks_delivered_ = 0;
};

}  // namespace twochains::net
