// Closed-loop senders: the injection-rate sender of §VI-A2, written
// once. Each flow sends `count` messages from one fabric host to another
// as fast as its sender CPU and per-peer bank flow control allow: one
// Send per `sender_cost + gap`, parking on NotifyWhenSlotFree while the
// current bank is closed. Every step of a flow runs on its sender's
// engine lane, so on a laned fabric a flow's counters and callbacks are
// only ever touched from that lane; the stop flag is the one field more
// than one lane touches, and it is atomic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "core/fabric.hpp"

namespace twochains::bench {

/// One message of a flow: the arguments of Runtime::Send. Every member
/// has an initializer, so a designated initializer may leave any out.
struct FlowMessage {
  std::string jam{};
  core::Invoke mode = core::Invoke::kInjected;
  std::vector<std::uint64_t> args{};
  std::vector<std::uint8_t> usr{};
  std::uint16_t flags = 0;
};

/// One closed-loop sender, from fabric host `src` to host `dst`.
struct SendFlow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t count = 0;  ///< messages to send
  /// The n-th message (n counts successful sends from 0).
  std::function<FlowMessage(std::uint64_t n)> next{};
  /// Optional: called after each successful send.
  std::function<void(const core::SendReceipt&)> on_sent{};
  PicoTime gap = 0;  ///< extra sender idle time after each send
};

/// Sends the first message of every flow at construction, in flow order;
/// the rest are paced on the engine, so the caller then runs the fabric.
/// Callbacks left in the engine or on slot waiters hold only a weak
/// reference and do nothing once the last copy of this object is gone.
class SendLoops {
 public:
  /// Resolves every flow's PeerId first: if any pair is not connected,
  /// nothing is sent and status() says why.
  SendLoops(core::Fabric& fabric, std::vector<SendFlow> flows);

  std::uint64_t sent(std::size_t flow) const;
  /// Times @p flow parked because its banks toward `dst` were closed.
  std::uint64_t flow_control_waits(std::size_t flow) const;
  /// Ends every flow at its next step. Callable from any lane.
  void Stop();
  /// Ok, or the first failure in flow order. A failed Send also stops
  /// every flow and the engine's current run. Read between runs.
  Status status() const;

 private:
  struct State;
  static void Step(const std::shared_ptr<State>& state, std::size_t i);

  std::shared_ptr<State> state_;
};

}  // namespace twochains::bench
