#include "benchlib/send_loop.hpp"

#include <atomic>
#include <utility>

namespace twochains::bench {

struct SendLoops::State {
  struct Flow {
    SendFlow spec;
    core::PeerId peer = core::kInvalidPeer;
    std::uint64_t sent = 0;
    std::uint64_t waits = 0;
    Status status;
  };
  core::Fabric* fabric = nullptr;
  std::vector<Flow> flows;
  std::atomic<bool> stopped{false};
};

SendLoops::SendLoops(core::Fabric& fabric, std::vector<SendFlow> flows)
    : state_(std::make_shared<State>()) {
  state_->fabric = &fabric;
  state_->flows.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    State::Flow& flow = state_->flows[i];
    const StatusOr<core::PeerId> peer =
        fabric.PeerIdFor(flows[i].src, flows[i].dst);
    if (!peer.ok()) {
      // A slot waiter toward a peer that was never wired never fires.
      flow.status = peer.status();
      return;
    }
    flow.peer = *peer;
    flow.spec = std::move(flows[i]);
  }
  for (std::size_t i = 0; i < state_->flows.size(); ++i) Step(state_, i);
}

void SendLoops::Step(const std::shared_ptr<State>& state, std::size_t i) {
  State::Flow& flow = state->flows[i];
  if (state->stopped.load(std::memory_order_relaxed) ||
      flow.sent >= flow.spec.count) {
    return;
  }
  const auto resume = [weak = std::weak_ptr<State>(state), i] {
    if (const auto locked = weak.lock()) Step(locked, i);
  };
  core::Runtime& rt = state->fabric->runtime(flow.spec.src);
  if (!rt.HasFreeSlot(flow.peer)) {
    ++flow.waits;
    rt.NotifyWhenSlotFree(flow.peer, resume);
    return;
  }
  const FlowMessage msg = flow.spec.next(flow.sent);
  const StatusOr<core::SendReceipt> receipt =
      rt.Send(flow.peer, msg.jam, msg.mode, msg.args, msg.usr, msg.flags);
  if (!receipt.ok()) {
    flow.status = receipt.status();
    state->stopped.store(true, std::memory_order_relaxed);
    state->fabric->engine().Stop();
    return;
  }
  ++flow.sent;
  if (flow.spec.on_sent) flow.spec.on_sent(*receipt);
  // Homed to the sender's lane, the only lane that may touch its runtime.
  state->fabric->engine().ScheduleAfterOn(
      flow.spec.src, receipt->sender_cost + flow.spec.gap, resume,
      "send_loop");
}

std::uint64_t SendLoops::sent(std::size_t flow) const {
  return state_->flows.at(flow).sent;
}

std::uint64_t SendLoops::flow_control_waits(std::size_t flow) const {
  return state_->flows.at(flow).waits;
}

void SendLoops::Stop() {
  state_->stopped.store(true, std::memory_order_relaxed);
}

Status SendLoops::status() const {
  for (const State::Flow& flow : state_->flows) {
    if (!flow.status.ok()) return flow.status;
  }
  return Status::Ok();
}

}  // namespace twochains::bench
