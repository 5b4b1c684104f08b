#include "net/nic.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "common/strfmt.hpp"
#include "net/switch.hpp"

namespace twochains::net {

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
        host_.config().host_id, peer.host_.config().host_id));
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

Status Nic::PostPut(Nic& dst, mem::VirtAddr local_addr,
                    mem::VirtAddr remote_addr, std::uint64_t size,
                    mem::RKey rkey, bool fence, DeliveredFn on_delivered,
                    DeliveredFn on_complete) {
  Link* link = FindLink(&dst);
  if (link == nullptr && !CanReach(dst)) {
    return FailedPrecondition("NIC not connected");
  }
  if (size == 0) return InvalidArgument("zero-length put");
  Op op;
  op.bytes.resize(size);
  op.remote_addr = remote_addr;
  op.rkey = rkey;
  op.fence = fence;
  op.inline_op = false;
  op.on_delivered = std::move(on_delivered);
  op.on_complete = std::move(on_complete);
  if (link == nullptr) return PostSwitchedOp(std::move(op), local_addr, dst);
  return PostOp(std::move(op), local_addr, *link);
}

Status Nic::PostInlinePut(Nic& dst, std::uint64_t value,
                          mem::VirtAddr remote_addr, mem::RKey rkey,
                          bool fence, DeliveredFn on_delivered,
                          DeliveredFn on_complete) {
  Link* link = FindLink(&dst);
  if (link == nullptr && !CanReach(dst)) {
    return FailedPrecondition("NIC not connected");
  }
  Op op;
  op.bytes.resize(sizeof(value));
  std::memcpy(op.bytes.data(), &value, sizeof(value));
  op.remote_addr = remote_addr;
  op.rkey = rkey;
  op.fence = fence;
  op.inline_op = true;
  op.on_delivered = std::move(on_delivered);
  op.on_complete = std::move(on_complete);
  if (link == nullptr) return PostSwitchedOp(std::move(op), /*local_addr=*/0,
                                             dst);
  return PostOp(std::move(op), /*local_addr=*/0, *link);
}

Status Nic::PostPut(mem::VirtAddr local_addr, mem::VirtAddr remote_addr,
                    std::uint64_t size, mem::RKey rkey, bool fence,
                    DeliveredFn on_delivered, DeliveredFn on_complete) {
  if (links_.empty()) return FailedPrecondition("NIC not connected");
  return PostPut(*links_.front().peer, local_addr, remote_addr, size, rkey,
                 fence, std::move(on_delivered), std::move(on_complete));
}

Status Nic::PostInlinePut(std::uint64_t value, mem::VirtAddr remote_addr,
                          mem::RKey rkey, bool fence, DeliveredFn on_delivered,
                          DeliveredFn on_complete) {
  if (links_.empty()) return FailedPrecondition("NIC not connected");
  return PostInlinePut(*links_.front().peer, value, remote_addr, rkey, fence,
                       std::move(on_delivered), std::move(on_complete));
}

Status Nic::PostOp(Op op, mem::VirtAddr local_addr, Link& link) {
  const PicoTime now = engine_.Now();
  const std::uint64_t size = op.bytes.size();
  Nic* dst = link.peer;

  // Doorbell: the posting CPU writes the WQE to the HCA over PCIe.
  PicoTime t = now + Nanoseconds(config_.doorbell_ns);

  // Fence: the HCA holds this WQE until every prior op has been delivered.
  if (op.fence) t = std::max(t, last_delivery_at_);

  // Send engine occupancy (one WQE at a time, shared across all links) +
  // payload DMA read.
  t = std::max(t, tx_free_at_);
  t += Nanoseconds(config_.per_message_ns);
  if (!op.inline_op) {
    t += Nanoseconds(config_.dma_read_overhead_ns);
    t += GbpsToDuration(config_.pcie_gbps, size);
    // Capture the payload bytes *now* in simulation order: schedule the
    // snapshot at DMA time would race with CPU writes scheduled in between,
    // so the model snapshots at post time — the sender contract for put_nbi
    // is that the buffer must be stable until local completion anyway.
    TC_RETURN_IF_ERROR(host_.memory().DmaRead(
        local_addr, std::span<std::uint8_t>(op.bytes.data(), size)));
  }
  tx_free_at_ = t;

  // Wire: serialize after this cable's transmit direction frees up.
  PicoTime wire_start = std::max(t, link.wire_free_at);
  PicoTime wire_end = wire_start + GbpsToDuration(config_.wire_gbps, size);
  link.wire_free_at = wire_end;

  // Arrival: propagation to the destination HCA. The uncontended delivery
  // estimate (arrival + rx processing) drives ordering and fence state;
  // contention for the destination's inbound DMA-write engine is resolved
  // at the arrival instant below, in true arrival order.
  const PicoTime arrival = wire_end + Nanoseconds(config_.wire_latency_ns);
  const PicoTime rx_proc = Nanoseconds(config_.rx_processing_ns);
  PicoTime deliver_at = arrival + rx_proc;

  if (!config_.enforce_write_ordering && !op.fence) {
    // Relaxed ordering: this op may be skewed past ops posted after it.
    deliver_at += Nanoseconds(static_cast<double>(
        reorder_rng_.NextBelow(static_cast<std::uint64_t>(
            std::max(1.0, config_.reorder_window_ns)))));
  } else {
    // In-order delivery: never before anything already scheduled on this
    // link direction.
    deliver_at = std::max(deliver_at, link.last_sched_delivery);
  }
  link.last_sched_delivery = std::max(link.last_sched_delivery, deliver_at);
  last_delivery_at_ = std::max(last_delivery_at_, deliver_at);

  ++puts_posted_;

  // Inbound DMA-write engine at the destination: occupancy is shared across
  // every link delivering into @p dst — the incast bottleneck at the PCIe
  // write path. Arbitrated when the frame actually arrives (events fire in
  // time order), so an incast of senders queues first-come-first-served
  // regardless of how far ahead any one sender's wire is backed up. From
  // here on the op runs on the destination's lane: rx contention and
  // delivery touch only destination state, and the sender learns the true
  // delivery time via the completion event one wire latency later.
  op.est_deliver = deliver_at;
  const PicoTime rx_occupancy =
      dst->GbpsToDuration(dst->config_.pcie_gbps, size);
  engine_.ScheduleAtOn(
      dst->lane_, deliver_at - rx_proc,
      [this, dst, rx_occupancy, rx_proc, op = std::move(op)]() mutable {
        const PicoTime rx_start = std::max(engine_.Now(), dst->rx_busy_until_);
        dst->rx_busy_until_ = rx_start + rx_occupancy;
        DeliverAt(rx_start + rx_proc, std::move(op), dst);
      },
      "nic.rx");
  return Status::Ok();
}

Status Nic::PostSwitchedOp(Op op, mem::VirtAddr local_addr, Nic& dst) {
  const PicoTime now = engine_.Now();
  const std::uint64_t size = op.bytes.size();

  // Sender pipeline: identical to the direct-cabled head of PostOp —
  // doorbell, fence hold, shared send-engine occupancy, payload DMA read.
  PicoTime t = now + Nanoseconds(config_.doorbell_ns);
  if (op.fence) t = std::max(t, last_delivery_at_);
  t = std::max(t, tx_free_at_);
  t += Nanoseconds(config_.per_message_ns);
  if (!op.inline_op) {
    t += Nanoseconds(config_.dma_read_overhead_ns);
    t += GbpsToDuration(config_.pcie_gbps, size);
    TC_RETURN_IF_ERROR(host_.memory().DmaRead(
        local_addr, std::span<std::uint8_t>(op.bytes.data(), size)));
  }
  tx_free_at_ = t;

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
      std::max(last_delivery_at_,
               wire_end + Nanoseconds(uplink_.latency_ns) +
                   Nanoseconds(config_.rx_processing_ns));
  ++puts_posted_;

  // Hand the frame head to the first switch one cable latency after it
  // starts serializing (cut-through: the switch sees the head while the
  // tail is still on this wire). The cable latency keeps the cross-lane
  // schedule at or beyond the engine's lookahead horizon.
  uplink_.sw->ScheduleIngress(std::move(op), this, &dst,
                              wire_start + Nanoseconds(uplink_.latency_ns));
  return Status::Ok();
}

void Nic::ArriveFromSwitch(Op op, Nic* src, PicoTime tail_arrival) {
  // Called from the last switch's lane; hop to this (destination) NIC's
  // lane at the instant the frame tail arrives, then resolve inbound
  // DMA-write contention in true arrival order exactly like the
  // direct-cabled path does.
  const std::uint64_t size = op.bytes.size();
  const PicoTime rx_proc = Nanoseconds(config_.rx_processing_ns);
  const PicoTime rx_occupancy = GbpsToDuration(config_.pcie_gbps, size);
  engine_.ScheduleAtOn(
      lane_, tail_arrival,
      [this, src, rx_occupancy, rx_proc, op = std::move(op)]() mutable {
        const PicoTime rx_start = std::max(engine_.Now(), rx_busy_until_);
        rx_busy_until_ = rx_start + rx_occupancy;
        src->DeliverAt(rx_start + rx_proc, std::move(op), this);
      },
      "nic.rx");
}

void Nic::DeliverAt(PicoTime when, Op op, Nic* dst) {
  // Runs on the destination lane (called from the nic.rx event there);
  // ScheduleAt inherits that lane.
  engine_.ScheduleAt(
      when,
      [this, dst, op = std::move(op)]() mutable {
        const std::uint64_t size = op.bytes.size();
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
          FinishOp(std::move(op), completion);
          return;
        }

        // DMA write into target memory, then the cache action that the
        // whole paper hinges on: stash into the target's home-domain LLC
        // slice or push to (that domain's) DRAM.
        Status wr = dst->host_.memory().DmaWrite(
            op.remote_addr,
            std::span<const std::uint8_t>(op.bytes.data(), size));
        if (!wr.ok()) {
          completion.status = wr;
          if (op.on_delivered) op.on_delivered(completion);
          FinishOp(std::move(op), completion);
          return;
        }
        if (dst->config_.stash_to_llc) {
          dst->host_.caches().StashDeliver(op.remote_addr, size);
        } else {
          dst->host_.caches().DramDeliver(op.remote_addr, size);
        }
        dst->bytes_delivered_ += size;
        if (op.on_delivered) op.on_delivered(completion);
        FinishOp(std::move(op), completion);
      },
      "nic.deliver");
}

void Nic::FinishOp(Op op, const PutCompletion& completion) {
  // The sender-side CQE: one wire latency after delivery (the ack's return
  // trip), back on this NIC's lane — which is also what keeps the schedule
  // inside the lookahead horizon when lanes run in parallel. Skipped
  // entirely when nothing observes it: no completion callback, and the
  // post-time fence estimate already covers the real delivery time.
  const PicoTime deliver = completion.delivered_at;
  if (!op.on_complete && deliver <= op.est_deliver) return;
  engine_.ScheduleAtOn(
      lane_, deliver + Nanoseconds(config_.wire_latency_ns),
      [this, deliver, completion,
       on_complete = std::move(op.on_complete)]() mutable {
        last_delivery_at_ = std::max(last_delivery_at_, deliver);
        if (on_complete) on_complete(completion);
      },
      "nic.complete");
}

void ControlChannel::SetHandler(int host_id, Handler handler,
                                std::uint32_t lane) {
  for (auto& entry : handlers_) {
    if (entry.host_id == host_id) {
      entry.handler = std::move(handler);
      entry.lane = lane;
      return;
    }
  }
  handlers_.push_back(Entry{host_id, lane, std::move(handler)});
}

Status ControlChannel::Send(int dst_host, std::vector<std::uint8_t> payload) {
  Entry* entry = nullptr;
  for (auto& e : handlers_) {
    if (e.host_id == dst_host) entry = &e;
  }
  if (entry == nullptr || !entry->handler) {
    return NotFound(StrFormat("no control handler for host %d", dst_host));
  }
  const PicoTime when = std::max(engine_.Now() + latency_, next_free_);
  next_free_ = when;  // in-order delivery
  Handler h = entry->handler;  // copy: handler may be replaced before delivery
  engine_.ScheduleAtOn(
      entry->lane, when,
      [h = std::move(h), payload = std::move(payload)]() mutable {
        h(std::move(payload));
      },
      "control.deliver");
  return Status::Ok();
}

}  // namespace twochains::net
