#include "ucxs/ucxs.hpp"

#include <algorithm>

namespace twochains::ucxs {

namespace {

/// Protocol setup cost of a @p size-byte message (ns), before tracking.
double SetupNs(Protocol protocol, std::uint64_t size) noexcept {
  switch (protocol) {
    case Protocol::kShort: return kShortOverheadNs;
    case Protocol::kBcopy:
      return kBcopyOverheadNs + kBcopyNsPerByte * static_cast<double>(size);
    case Protocol::kZcopy: return kZcopyOverheadNs;
    case Protocol::kRndv: return kRndvOverheadNs;
  }
  return 0;
}

}  // namespace

std::string_view ProtocolName(Protocol p) noexcept {
  switch (p) {
    case Protocol::kShort: return "short";
    case Protocol::kBcopy: return "bcopy";
    case Protocol::kZcopy: return "zcopy";
    case Protocol::kRndv: return "rndv";
  }
  return "?";
}

Protocol SelectProtocol(std::uint64_t size) noexcept {
  if (size <= kShortMax) return Protocol::kShort;
  if (size <= kBcopyMax) return Protocol::kBcopy;
  if (size <= kZcopyMax) return Protocol::kZcopy;
  return Protocol::kRndv;
}

PicoTime Endpoint::EstimateOverhead(std::uint64_t size) const {
  const double tracking = mode_ == PutMode::kUcx ? kTrackingNsPerOp : 0.0;
  return Nanoseconds(SetupNs(SelectProtocol(size), size) + tracking);
}

StatusOr<PutReceipt> Endpoint::PutNbi(mem::VirtAddr local,
                                      mem::VirtAddr remote,
                                      std::uint64_t size, mem::RKey rkey,
                                      bool fence,
                                      net::DeliveredFn on_delivered) {
  if (size == 0) return InvalidArgument("zero-length put");
  return Submit({.source = local,
                 .remote_addr = remote,
                 .size = size,
                 .rkey = rkey,
                 .fence = fence,
                 .on_delivered = std::move(on_delivered),
                 .on_complete = CompletionTracker()});
}

StatusOr<PutReceipt> Endpoint::PutInline(std::uint64_t value,
                                         mem::VirtAddr remote, mem::RKey rkey,
                                         bool fence,
                                         net::DeliveredFn on_delivered) {
  return Submit({.source = value,
                 .remote_addr = remote,
                 .size = sizeof(value),
                 .rkey = rkey,
                 .inline_op = true,
                 .fence = fence,
                 .on_delivered = std::move(on_delivered),
                 .on_complete = CompletionTracker()});
}

net::DeliveredFn Endpoint::CompletionTracker() {
  // The delivery callback is receive-side logic and runs on the
  // destination's lane; the endpoint's own completion tracking (the
  // window) is sender state, so it rides the NIC's sender-side CQE back on
  // this host's lane.
  return [this, alive = alive_](const net::PutCompletion&) {
    if (*alive) OnComplete();
  };
}

PutReceipt Endpoint::Submit(net::PutRequest put) {
  PutReceipt receipt;
  receipt.protocol = SelectProtocol(put.size);
  receipt.sender_overhead = EstimateOverhead(put.size);
  if (mode_ == PutMode::kUcx && outstanding_ >= kMaxOutstanding) {
    receipt.queued = true;
    queue_.push_back(std::move(put));
    return receipt;
  }
  PostNow(std::move(put));
  return receipt;
}

void Endpoint::PostNow(net::PutRequest put) {
  ++outstanding_;

  // Serialize NIC posting in submission order: a WQE posted later must not
  // reach the HCA before an earlier one, even if its setup is cheaper.
  // Only the protocol setup delays the doorbell; completion tracking runs
  // after it. The post event is homed to this host's lane — PutNbi may be
  // called from outside any lane (driver pumps), and the post mutates
  // sender NIC state.
  const PicoTime post_delay =
      Nanoseconds(SetupNs(SelectProtocol(put.size), put.size));
  const PicoTime post_at = std::max(engine_.Now() + post_delay, post_serial_);
  post_serial_ = post_at;

  const char* tag = put.inline_op ? "ucxs.inline" : "ucxs.put";
  auto post = [&local = local_, &remote = remote_,
               put = std::move(put)]() mutable {
    // A put the NIC cannot make reports its error through both callbacks.
    (void)local.Post(remote, std::move(put));
  };
  static_assert(sizeof(post) <= sim::SmallFn::kInlineBytes,
                "a put's post event must not allocate");
  engine_.ScheduleAtOn(local_.lane(), post_at, std::move(post), tag);
}

void Endpoint::OnComplete() {
  if (outstanding_ > 0) --outstanding_;
  // Drain the window queue.
  while (!queue_.empty() && outstanding_ < kMaxOutstanding) {
    net::PutRequest next = std::move(queue_.front());
    queue_.pop_front();
    PostNow(std::move(next));
  }
}

}  // namespace twochains::ucxs
