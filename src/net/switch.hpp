// net::Switch: a simulated cut-through switch with a shared packet buffer,
// per-egress-port queues, ECN-style congestion marking, and drop-free
// backpressure — the shared-buffer contention a production cluster adds on
// top of the paper's back-to-back testbed (§VI-C).
//
// Forwarding is head-timed cut-through: a frame's *head* reaches the
// switch one cable latency after it starts serializing upstream; the
// egress port starts re-serializing at
//
//   start = max(head_arrival + forward_latency, egress wire free)
//
// and hands the head to the next hop one cable latency after `start`. The
// frame's *tail* — what the destination NIC ultimately waits for — leaves
// the last egress at `start + bytes/port_rate`. On an uncontended path
// whose per-hop latencies sum to a direct cable's propagation delay, a
// frame of any size is delivered at exactly the instant the direct cable
// would deliver it, which is what lets the determinism suite compare a
// 1:1-oversubscribed tree against direct cabling byte for byte.
//
// Buffering: every admitted frame occupies the switch's *shared* buffer
// from admission until its egress serialization ends. A frame arriving at
// a full buffer is never dropped — it is held (FIFO, preserving per-path
// order) and re-admitted when enough in-flight bytes serialize out, which
// models the upstream-port pause a lossless fabric applies. ECN: when a
// frame's egress-port queue exceeds the configured occupancy threshold at
// admission, the frame is marked; the mark rides the op to the receiver
// (net::PutCompletion::ecn_marked) where the runtime's adaptive bank flow
// control echoes it back to the sender in the bank-flag word. Inline ops
// (signals, bank flags) are never marked, so the mark ledger the soak
// suite reconciles counts exactly the frames the runtime can observe:
// at quiescence, sum(Switch::frames_marked) over a fabric's switches ==
// sum(Nic::ecn_marks_delivered) over its NICs.
//
// Determinism: all switch state is touched only from events on the
// switch's own virtual lane (core::Fabric homes each switch one lane past
// the hosts); every cross-lane hop is at least one cable latency in the
// future, so the engine's conservative-lookahead sharding replays tree
// fabrics byte-identically at any lane count.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "net/nic.hpp"
#include "sim/engine.hpp"

namespace twochains::net {

/// Every knob of one switch. docs/TUNING.md (## SwitchConfig) documents
/// each; bad values are clamped with a warning at construction so a
/// misconfigured switch degrades loudly instead of dropping or wedging.
struct SwitchConfig {
  /// Head-forwarding pipeline per hop: route lookup + crossbar transit
  /// (ns). Zero models an ideal cut-through crossbar.
  double forward_latency_ns = 35.0;
  /// Propagation latency of each cable attached to this switch (ns).
  double wire_latency_ns = 250.0;
  /// Shared packet buffer (bytes) across all egress ports. A frame
  /// occupies it from admission until its egress serialization ends; a
  /// zero value could never admit a frame and is clamped to 256 KiB.
  std::uint64_t buffer_bytes = MiB(1);
  /// ECN marking threshold: a frame whose egress-port queue exceeds this
  /// occupancy (bytes) at admission is marked. Clamped to `buffer_bytes`
  /// when it exceeds the buffer (an unreachable threshold would be a
  /// silently dead knob, not conservative marking).
  std::uint64_t ecn_threshold_bytes = KiB(64);
};

/// A multi-port cut-through switch (see the file comment for the model).
/// Wire-up: AttachNic/AttachSwitch create egress ports, SetRoute binds
/// each destination NIC to a port, Nic::AttachUplink points hosts here.
/// core::Fabric does all of this for Topology::kTree.
class Switch {
 public:
  Switch(sim::Engine& engine, SwitchConfig config, std::string name);

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Virtual engine lane this switch's events run on. Must be set before
  /// traffic flows when the fabric runs laned.
  void set_lane(std::uint32_t lane) noexcept { lane_ = lane; }
  std::uint32_t lane() const noexcept { return lane_; }

  const SwitchConfig& config() const noexcept { return config_; }
  const std::string& name() const noexcept { return name_; }

  /// Adds an egress port serializing toward @p nic at @p gbps. Returns
  /// the port index (stable; route targets).
  std::uint32_t AttachNic(Nic& nic, double gbps);
  /// Adds an egress port toward another switch (ToR -> spine uplink or
  /// spine -> ToR downlink) at @p gbps.
  std::uint32_t AttachSwitch(Switch& next, double gbps);

  /// Frames destined to @p dst's host leave through @p port.
  Status SetRoute(const Nic* dst, std::uint32_t port);

  std::uint32_t port_count() const noexcept {
    return static_cast<std::uint32_t>(ports_.size());
  }

  // ------------------------------------------------------------- counters

  /// Frames admitted and forwarded out an egress port.
  std::uint64_t frames_forwarded() const noexcept { return frames_forwarded_; }
  /// Frames this switch freshly ECN-marked (a frame already marked
  /// upstream is not re-counted, so the fabric-wide mark ledger stays
  /// exactly-once).
  std::uint64_t frames_marked() const noexcept { return frames_marked_; }
  /// Frames lost. The model is drop-free by construction — a full buffer
  /// holds, never drops — so anything nonzero means a wiring bug (a
  /// destination with no route); the invariant harness asserts zero.
  std::uint64_t frames_dropped() const noexcept { return frames_dropped_; }
  /// Frames that found the shared buffer full and were held at ingress
  /// (the upstream-pause events of a lossless fabric).
  std::uint64_t backpressure_holds() const noexcept {
    return backpressure_holds_;
  }
  /// High-water mark of shared-buffer occupancy (bytes).
  std::uint64_t peak_buffer_bytes() const noexcept {
    return peak_buffer_bytes_;
  }

 private:
  friend class Nic;

  struct Port {
    Nic* nic = nullptr;        ///< set for host-facing ports
    Switch* next = nullptr;    ///< set for switch-facing ports
    double gbps = 0;
    PicoTime wire_free_at = 0; ///< egress serialization occupancy
    std::uint64_t queued_bytes = 0;  ///< bytes admitted, not yet serialized
  };

  /// One frame in flight through this switch (admitted or held).
  struct Transit {
    Nic::Op op;
    Nic* src = nullptr;
  };

  /// One admitted frame's buffer reservation: released (lazily, on the
  /// next event) when its egress serialization ends.
  struct Release {
    PicoTime at = 0;
    std::uint64_t bytes = 0;
    std::uint32_t port = 0;
    bool operator>(const Release& o) const noexcept { return at > o.at; }
  };

  /// Entry point for the upstream hop (sender NIC or previous switch):
  /// schedules the ingress event on this switch's lane at the instant the
  /// frame head arrives. @p head_arrival must be >= the caller's now plus
  /// the engine lookahead (one cable latency guarantees it).
  void ScheduleIngress(Nic::Op op, Nic* src, PicoTime head_arrival);

  /// Runs on this switch's lane when a frame head arrives: admit (or hold
  /// under buffer pressure) and forward.
  void Ingress(Transit t);
  /// Buffer admission + egress scheduling for one frame, at time @p now.
  void Admit(Transit t, PicoTime now);
  /// Retires every buffer reservation whose serialization ended by @p now.
  void PurgeReleased(PicoTime now);
  /// Arms a wake event at the earliest pending buffer release, so held
  /// frames re-try admission the moment bytes free up.
  void ArmWake();

  sim::Engine& engine_;
  SwitchConfig config_;
  std::string name_;
  std::uint32_t lane_ = 0;

  std::vector<Port> ports_;
  /// Destination host id -> egress port, linear (fabrics are small and
  /// wire-up-time).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> routes_;

  std::uint64_t buffer_used_ = 0;
  std::priority_queue<Release, std::vector<Release>, std::greater<Release>>
      releases_;
  /// Frames held at ingress by a full buffer, FIFO (order within a path
  /// is preserved across a hold).
  std::deque<Transit> pending_;
  bool wake_armed_ = false;

  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_marked_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t backpressure_holds_ = 0;
  std::uint64_t peak_buffer_bytes_ = 0;
};

}  // namespace twochains::net
