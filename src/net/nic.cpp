#include "net/nic.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/log.hpp"
#include "common/strfmt.hpp"
#include "net/switch.hpp"

namespace twochains::net {

namespace {

PicoTime GbpsToDuration(double gbps, std::uint64_t bytes) noexcept {
  if (gbps <= 0) return 0;
  const double ns = static_cast<double>(bytes) * 8.0 / gbps;
  return Nanoseconds(ns);
}

}  // namespace

Nic::Nic(sim::Engine& engine, Host& host, NicConfig config)
    : engine_(engine), host_(host), config_(config) {}

Status Nic::ConnectTo(Nic& peer) {
  if (&peer == this) {
    return InvalidArgument("cannot cable a NIC to itself");
  }
  if (FindLink(&peer) != nullptr) {
    return AlreadyExists(StrFormat(
        "hosts %d and %d are already cabled — a duplicate cable would "
        "shadow the existing link's wire state",
        host_.id(), peer.host_.id()));
  }
  links_.push_back(Link{&peer});
  peer.links_.push_back(Link{this});
  return Status::Ok();
}

void Nic::AttachUplink(Switch& sw, double gbps, double latency_ns) noexcept {
  uplink_.sw = &sw;
  uplink_.gbps = gbps;
  uplink_.latency_ns = latency_ns;
  uplink_.wire_free_at = 0;
}

bool Nic::ConnectedTo(const Nic& peer) const noexcept {
  for (const auto& link : links_) {
    if (link.peer == &peer) return true;
  }
  return false;
}

Nic::Link* Nic::FindLink(const Nic* dst) noexcept {
  for (auto& link : links_) {
    if (link.peer == dst) return &link;
  }
  return nullptr;
}

Status Nic::Post(Nic& dst, PutRequest put) {
  Status st = Launch(dst, put);
  if (!st.ok()) {
    // A put the NIC cannot make still completes — at once, with the error
    // — so the poster's completion tracking never waits on it.
    PutCompletion failed;
    failed.status = st;
    if (put.on_delivered) put.on_delivered(failed);
    if (put.on_complete) put.on_complete(failed);
  }
  return st;
}

Status Nic::Launch(Nic& dst, PutRequest& put) {
  Link* link = FindLink(&dst);
  if (link == nullptr && !CanReach(dst)) {
    return FailedPrecondition("NIC not connected");
  }
  const std::uint64_t size = put.inline_op ? sizeof(put.source) : put.size;
  if (size == 0) return InvalidArgument("zero-length put");
  if (size > UINT32_MAX) return InvalidArgument("put larger than 4 GiB");
  Op op;
  op.bytes = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  op.size = static_cast<std::uint32_t>(size);

  // Sender pipeline, the same for cabled and switched puts. Doorbell: the
  // posting CPU writes the WQE to the HCA over PCIe.
  PicoTime t = engine_.Now() + Nanoseconds(kDoorbellNs);

  // Fence: the HCA holds this WQE until every prior op has been delivered.
  if (put.fence) t = std::max(t, last_delivery_at_);

  // Send engine occupancy (one WQE at a time, shared across all links) +
  // payload DMA read.
  t = std::max(t, tx_free_at_);
  t += Nanoseconds(kPerMessageNs);
  if (put.inline_op) {
    std::memcpy(op.bytes.get(), &put.source, size);
  } else {
    t += Nanoseconds(kDmaReadOverheadNs);
    t += GbpsToDuration(kPcieGbps, size);
    // Capture the payload bytes *now* in simulation order: schedule the
    // snapshot at DMA time would race with CPU writes scheduled in between,
    // so the model snapshots at post time — the sender contract for put_nbi
    // is that the buffer must be stable until local completion anyway.
    TC_RETURN_IF_ERROR(host_.memory().DmaRead(
        put.source, std::span<std::uint8_t>(op.bytes.get(), size)));
  }
  tx_free_at_ = t;
  op.remote_addr = put.remote_addr;
  op.rkey = put.rkey;
  op.inline_op = put.inline_op;
  op.dst_host = static_cast<std::uint32_t>(dst.host_.id());
  op.on_delivered = std::move(put.on_delivered);
  op.on_complete = std::move(put.on_complete);
  ++puts_posted_;

  if (link == nullptr) {
    // Uplink wire: serialize toward the ToR after the uplink frees up.
    const PicoTime wire_start = std::max(t, uplink_.wire_free_at);
    const PicoTime wire_end = wire_start + GbpsToDuration(uplink_.gbps, size);
    uplink_.wire_free_at = wire_end;

    // The true delivery time depends on queueing inside the switches, which
    // is resolved hop by hop in arrival order — unknowable at post time. A
    // zero estimate forces the CQE event to always be scheduled, and the
    // fence state tracks the best-known lower bound until the CQE corrects
    // it with the real delivery instant.
    op.est_deliver = 0;
    last_delivery_at_ =
        std::max(last_delivery_at_, wire_end + Nanoseconds(uplink_.latency_ns) +
                                        Nanoseconds(kRxProcessingNs));

    // Hand the frame head to the first switch one cable latency after it
    // starts serializing (cut-through: the switch sees the head while the
    // tail is still on this wire). The cable latency keeps the cross-lane
    // schedule at or beyond the engine's lookahead horizon.
    uplink_.sw->ScheduleIngress(std::move(op), this,
                                wire_start + Nanoseconds(uplink_.latency_ns));
    return Status::Ok();
  }

  // Wire: serialize after this cable's transmit direction frees up.
  const PicoTime wire_start = std::max(t, link->wire_free_at);
  const PicoTime wire_end = wire_start + GbpsToDuration(kWireGbps, size);
  link->wire_free_at = wire_end;

  // Arrival: propagation to the destination HCA. The uncontended delivery
  // estimate (arrival + rx processing) drives ordering and fence state;
  // contention for the destination's inbound DMA-write engine is resolved
  // at the arrival instant, in true arrival order.
  const PicoTime rx_proc = Nanoseconds(kRxProcessingNs);
  PicoTime deliver_at = wire_end + Nanoseconds(kWireLatencyNs) + rx_proc;

  if (!config_.enforce_write_ordering && !put.fence) {
    // Relaxed ordering: this op may be skewed past ops posted after it.
    deliver_at += Nanoseconds(static_cast<double>(reorder_rng_.NextBelow(
        static_cast<std::uint64_t>(kReorderWindowNs))));
  } else {
    // In-order delivery: never before anything already scheduled on this
    // link direction.
    deliver_at = std::max(deliver_at, link->last_sched_delivery);
  }
  link->last_sched_delivery = std::max(link->last_sched_delivery, deliver_at);
  last_delivery_at_ = std::max(last_delivery_at_, deliver_at);
  op.est_deliver = deliver_at;
  dst.Arrive(std::move(op), this, deliver_at - rx_proc);
  return Status::Ok();
}

void Nic::Arrive(Op op, Nic* src, PicoTime arrival) {
  // Inbound DMA-write engine: occupancy is shared across every path that
  // delivers into this NIC — the incast bottleneck at the PCIe write path.
  // Arbitrated on this NIC's lane when the frame actually arrives (events
  // fire in time order), so an incast of senders queues
  // first-come-first-served regardless of how far ahead any one sender's
  // wire is backed up. From here on the op touches only destination state;
  // the sender learns the true delivery time via the completion event one
  // wire latency later.
  auto rx = [this, src, op = std::move(op)]() mutable {
    const PicoTime rx_start = std::max(engine_.Now(), rx_busy_until_);
    rx_busy_until_ = rx_start + GbpsToDuration(kPcieGbps, op.size);
    src->DeliverAt(rx_start + Nanoseconds(kRxProcessingNs), std::move(op),
                   this);
  };
  static_assert(sizeof(rx) <= sim::SmallFn::kInlineBytes &&
                    std::is_nothrow_move_constructible_v<decltype(rx)>,
                "a put's receive event must not allocate");
  engine_.ScheduleAtOn(lane_, arrival, std::move(rx), "nic.rx");
}

void Nic::DeliverAt(PicoTime when, Op op, Nic* dst) {
  // Runs on the destination lane (called from the nic.rx event there);
  // ScheduleAt inherits that lane.
  auto deliver = [this, dst, op = std::move(op)]() mutable {
    const std::uint64_t size = op.size;
    PutCompletion completion;
    completion.delivered_at = engine_.Now();
    completion.ecn_marked = op.ecn_marked;
    // Count marks on every arrival (before validation): the fabric
    // mark ledger reconciles against switch-side marking, which has
    // no view of rkey validity.
    if (op.ecn_marked) ++dst->ecn_marks_delivered_;

    // Hardware-level rkey validation at the target HCA.
    Status valid = dst->host_.regions().Validate(
        op.rkey, op.remote_addr, size, mem::RemoteAccess::kWrite);
    if (!valid.ok()) {
      ++dst->rkey_rejections_;
      TC_DEBUG << "put rejected: " << valid;
      completion.status = std::move(valid);
      if (op.on_delivered) op.on_delivered(completion);
      FinishOp(std::move(op), std::move(completion));
      return;
    }

    // DMA write into target memory, then the cache action that the
    // whole paper hinges on: stash into the target's home-domain LLC
    // slice or push to (that domain's) DRAM.
    Status wr = dst->host_.memory().DmaWrite(
        op.remote_addr,
        std::span<const std::uint8_t>(op.bytes.get(), size));
    if (!wr.ok()) {
      completion.status = wr;
      if (op.on_delivered) op.on_delivered(completion);
      FinishOp(std::move(op), std::move(completion));
      return;
    }
    if (dst->config_.stash_to_llc) {
      dst->host_.caches().StashDeliver(op.remote_addr, size);
    } else {
      dst->host_.caches().DramDeliver(op.remote_addr, size);
    }
    dst->bytes_delivered_ += size;
    if (op.on_delivered) op.on_delivered(completion);
    FinishOp(std::move(op), std::move(completion));
  };
  static_assert(sizeof(deliver) <= sim::SmallFn::kInlineBytes &&
                    std::is_nothrow_move_constructible_v<decltype(deliver)>,
                "a put's delivery event must not allocate");
  engine_.ScheduleAt(when, std::move(deliver), "nic.deliver");
}

void Nic::FinishOp(Op op, PutCompletion completion) {
  // The sender-side CQE: one wire latency after delivery (the ack's return
  // trip), back on this NIC's lane — which is also what keeps the schedule
  // inside the lookahead horizon when lanes run in parallel. Skipped
  // entirely when nothing observes it: no completion callback, and the
  // post-time fence estimate already covers the real delivery time.
  const PicoTime deliver = completion.delivered_at;
  if (!op.on_complete && deliver <= op.est_deliver) return;
  auto complete = [this, deliver, completion = std::move(completion),
                   on_complete = std::move(op.on_complete)]() mutable {
    last_delivery_at_ = std::max(last_delivery_at_, deliver);
    if (on_complete) on_complete(completion);
  };
  static_assert(sizeof(complete) <= sim::SmallFn::kInlineBytes &&
                    std::is_nothrow_move_constructible_v<decltype(complete)>,
                "a put's completion event must not allocate");
  engine_.ScheduleAtOn(lane_, deliver + Nanoseconds(kWireLatencyNs),
                       std::move(complete), "nic.complete");
}

}  // namespace twochains::net
