#include "net/switch.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/log.hpp"
#include "common/strfmt.hpp"

namespace twochains::net {

namespace {
PicoTime SerializationTime(double gbps, std::uint64_t bytes) noexcept {
  if (gbps <= 0) return 0;
  return Nanoseconds(static_cast<double>(bytes) * 8.0 / gbps);
}
}  // namespace

Switch::Switch(sim::Engine& engine, SwitchConfig config, std::string name)
    : engine_(engine), config_(config), name_(std::move(name)) {
  if (config_.forward_latency_ns < 0) {
    TC_WARN << name_ << ": negative forward_latency_ns clamped to 0";
    config_.forward_latency_ns = 0;
  }
  if (config_.wire_latency_ns < 0) {
    TC_WARN << name_ << ": negative wire_latency_ns clamped to 0";
    config_.wire_latency_ns = 0;
  }
  if (config_.buffer_bytes == 0) {
    TC_WARN << name_
            << ": buffer_bytes=0 could never admit a frame; clamped to 256 KiB";
    config_.buffer_bytes = KiB(256);
  }
  if (config_.ecn_threshold_bytes > config_.buffer_bytes) {
    TC_WARN << name_ << ": ecn_threshold_bytes "
            << config_.ecn_threshold_bytes << " exceeds buffer_bytes "
            << config_.buffer_bytes << " (dead knob); clamped to the buffer";
    config_.ecn_threshold_bytes = config_.buffer_bytes;
  }
}

std::uint32_t Switch::AttachNic(Nic& nic, double gbps) {
  Port port;
  port.nic = &nic;
  port.gbps = gbps;
  ports_.push_back(port);
  return static_cast<std::uint32_t>(ports_.size() - 1);
}

std::uint32_t Switch::AttachSwitch(Switch& next, double gbps) {
  Port port;
  port.next = &next;
  port.gbps = gbps;
  ports_.push_back(port);
  return static_cast<std::uint32_t>(ports_.size() - 1);
}

Status Switch::SetRoute(const Nic* dst, std::uint32_t port) {
  if (port >= ports_.size()) {
    return InvalidArgument(StrFormat("%s: route to port %u but only %zu ports",
                                     name_.c_str(), port, ports_.size()));
  }
  const auto host = static_cast<std::uint32_t>(dst->host_.id());
  for (auto& route : routes_) {
    if (route.first == host) {
      route.second = port;
      return Status::Ok();
    }
  }
  routes_.emplace_back(host, port);
  return Status::Ok();
}

void Switch::ScheduleIngress(Nic::Op op, Nic* src, PicoTime head_arrival) {
  auto ingress = [this, src, op = std::move(op)]() mutable {
    Ingress(Transit{std::move(op), src});
  };
  static_assert(sizeof(ingress) <= sim::SmallFn::kInlineBytes &&
                    std::is_nothrow_move_constructible_v<decltype(ingress)>,
                "a switch hop's ingress event must not allocate");
  engine_.ScheduleAtOn(lane_, head_arrival, std::move(ingress),
                       "switch.ingress");
}

void Switch::Ingress(Transit t) {
  const PicoTime now = engine_.Now();
  PurgeReleased(now);
  const std::uint64_t size = t.op.size;
  // Hold when the shared buffer cannot take the frame — or when earlier
  // frames are already held, so a small frame can never overtake a big
  // one that is waiting (order within a path is preserved). A frame
  // bigger than the whole buffer is still admitted once the buffer is
  // empty; holding it forever would wedge the fabric.
  const bool fits = buffer_used_ + size <= config_.buffer_bytes ||
                    (buffer_used_ == 0 && size > config_.buffer_bytes);
  if (!pending_.empty() || !fits) {
    ++backpressure_holds_;
    pending_.push_back(std::move(t));
    ArmWake();
    return;
  }
  Admit(std::move(t), now);
}

void Switch::Admit(Transit t, PicoTime now) {
  std::uint32_t port_idx = ports_.size();
  for (const auto& route : routes_) {
    if (route.first == t.op.dst_host) {
      port_idx = route.second;
      break;
    }
  }
  if (port_idx >= ports_.size()) {
    // Wiring bug: the fabric never built a route for this destination.
    // The invariant harness asserts this counter stays zero.
    ++frames_dropped_;
    TC_WARN << name_ << ": no route for destination NIC, frame dropped";
    return;
  }
  Port& port = ports_[port_idx];
  const std::uint64_t size = t.op.size;

  buffer_used_ += size;
  peak_buffer_bytes_ = std::max(peak_buffer_bytes_, buffer_used_);
  port.queued_bytes += size;

  // ECN: mark on admission when this egress queue (including the frame
  // itself) is over threshold. Inline ops (signals, bank flags) carry the
  // flag word itself and are never marked; freshly-marked only, so the
  // fabric-wide ledger counts each mark exactly once.
  if (port.queued_bytes > config_.ecn_threshold_bytes && !t.op.inline_op &&
      !t.op.ecn_marked) {
    t.op.ecn_marked = true;
    ++frames_marked_;
  }

  // Cut-through egress: the head starts re-serializing after the
  // forwarding pipeline, no earlier than the port frees up.
  const PicoTime start =
      std::max(now + Nanoseconds(config_.forward_latency_ns),
               port.wire_free_at);
  const PicoTime ser_end = start + SerializationTime(port.gbps, size);
  port.wire_free_at = ser_end;
  releases_.push(Release{ser_end, size, port_idx});
  ++frames_forwarded_;

  const PicoTime wire = Nanoseconds(config_.wire_latency_ns);
  if (port.nic != nullptr) {
    // Last hop: the destination NIC waits for the frame *tail*.
    port.nic->Arrive(std::move(t.op), t.src, ser_end + wire);
  } else {
    // Switch-to-switch: hand the head over head-timed, so an uncontended
    // multi-hop path costs exactly the sum of its latencies.
    port.next->ScheduleIngress(std::move(t.op), t.src, start + wire);
  }
}

void Switch::PurgeReleased(PicoTime now) {
  while (!releases_.empty() && releases_.top().at <= now) {
    const Release r = releases_.top();
    releases_.pop();
    buffer_used_ -= r.bytes;
    ports_[r.port].queued_bytes -= r.bytes;
  }
}

void Switch::ArmWake() {
  if (wake_armed_ || releases_.empty()) return;
  wake_armed_ = true;
  const PicoTime at = std::max(releases_.top().at, engine_.Now());
  engine_.ScheduleAtOn(
      lane_, at,
      [this]() {
        wake_armed_ = false;
        const PicoTime now = engine_.Now();
        PurgeReleased(now);
        while (!pending_.empty()) {
          const std::uint64_t size = pending_.front().op.size;
          const bool fits =
              buffer_used_ + size <= config_.buffer_bytes ||
              (buffer_used_ == 0 && size > config_.buffer_bytes);
          if (!fits) break;
          Transit t = std::move(pending_.front());
          pending_.pop_front();
          Admit(std::move(t), now);
        }
        if (!pending_.empty()) ArmWake();
      },
      "switch.wake");
}

}  // namespace twochains::net
