// Self-rescheduling callback loops ("pumps"): a pump parks itself on a
// flow-control waiter or a scheduled event and re-enters when poked.
// Closed-loop Runtime::Send senders use bench::SendLoops
// (benchlib/send_loop.hpp), which follows the same weak-handle rule.
//
// The naive idiom —
//   auto pump = std::make_shared<std::function<void()>>();
//   *pump = [pump] { ...; NotifyWhenSlotFree([pump] { (*pump)(); }); };
// — makes the function own itself through the capture, a shared_ptr cycle
// that never frees (LeakSanitizer flags every such loop). PumpLoop keeps
// ownership with the driver and hands the loop body a *weak* re-entry
// handle instead: parked callbacks that outlive the driver become inert
// no-ops rather than leaks or dangling calls.
#pragma once

#include <functional>
#include <memory>
#include <utility>

namespace twochains {

template <typename... Args>
class PumpLoop {
 public:
  using Fn = std::function<void(Args...)>;

  PumpLoop() : fn_(std::make_shared<Fn>()) {}

  /// Installs the loop body. The body typically captures `Handle()` and
  /// passes it wherever the loop must resume (never an owning copy,
  /// which would cycle).
  void Set(Fn fn) { *fn_ = std::move(fn); }

  /// Runs one iteration now (no-op until Set()).
  void operator()(Args... args) const {
    if (*fn_) (*fn_)(std::forward<Args>(args)...);
  }

  /// A copyable re-entry callback holding only a weak reference: safe to
  /// park in schedulers or flow-control waiters that may fire after this
  /// PumpLoop is gone.
  Fn Handle() const {
    return [weak = std::weak_ptr<Fn>(fn_)](Args... args) {
      if (const auto fn = weak.lock()) {
        if (*fn) (*fn)(std::forward<Args>(args)...);
      }
    };
  }

 private:
  std::shared_ptr<Fn> fn_;
};

}  // namespace twochains
