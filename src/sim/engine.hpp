// Discrete-event simulation engine.
//
// The whole testbed (hosts, NICs, links, receiver agents, noise processes)
// runs on one Engine. Components schedule callbacks at absolute or relative
// simulated times; the engine fires them in (time, lane, sequence) order, so
// same-timestamp events fire in scheduling order and every run is
// deterministic. Callbacks may schedule further events and may call Stop().
//
// Internally events live in a slab-allocated pool whose fired slots are
// reused through a free list (no per-event heap allocation: callbacks are
// held inline by SmallFn, tags are unowned string literals), ordered by a
// timing wheel with a heap for far timestamps. There is no cancellation: a
// scheduled event stays queued until it fires.
//
// Scale-out: the event population is partitioned into per-host *lanes*
// (`SetVirtualLanes`); with `EngineConfig::lanes > 1` the lanes are sharded
// across that many executor threads and executed in conservative-lookahead
// windows — a lane may run ahead of the global clock by up to the
// constructor's `lookahead_ps`, the minimum cross-lane scheduling latency
// (core::Fabric derives it from the smallest cable latency). Cross-lane
// schedules post to the target lane's inbox and are merged in (time, lane,
// sequence) order, so results are byte-identical to the single-lane engine
// at every lane count. See docs/ARCHITECTURE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "common/status.hpp"
#include "common/units.hpp"

namespace twochains::sim {

/// Move-only callable holder with 120 bytes of inline storage, so scheduling
/// a typical capture list never touches the heap (std::function's small
/// buffer is ~16 bytes and every fabric callback spills). Larger or
/// throwing-move captures fall back to a heap pointer transparently.
class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 120;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& fn) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(unsigned char*);
    // dst <- src: move-construct into dst, destroy src.
    void (*relocate)(unsigned char*, unsigned char*);
    void (*destroy)(unsigned char*);
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* At(unsigned char* s) noexcept {
      return std::launder(reinterpret_cast<Fn*>(s));
    }
    static void Invoke(unsigned char* s) { (*At(s))(); }
    static void Relocate(unsigned char* d, unsigned char* s) {
      Fn* src = At(s);
      ::new (static_cast<void*>(d)) Fn(std::move(*src));
      src->~Fn();
    }
    static void Destroy(unsigned char* s) { At(s)->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Ptr(unsigned char* s) noexcept {
      return *std::launder(reinterpret_cast<Fn**>(s));
    }
    static void Invoke(unsigned char* s) { (*Ptr(s))(); }
    static void Relocate(unsigned char* d, unsigned char* s) {
      ::new (static_cast<void*>(d)) Fn*(Ptr(s));
    }
    static void Destroy(unsigned char* s) { delete Ptr(s); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Executor configuration. Documented in docs/TUNING.md (## EngineConfig);
/// the docs gate (tools/check_docs.sh) keeps that table honest.
struct EngineConfig {
  std::uint32_t lanes = 1;
};

class Engine {
 public:
  using Callback = SmallFn;

  /// @p lookahead_ps is the horizon laned runs may execute ahead of the
  /// global clock (clamped to >= 1 ps). It must not exceed the smallest
  /// cross-lane scheduling delay, or laned runs diverge from the scalar
  /// order; core::Fabric derives it from its cables.
  explicit Engine(EngineConfig config = {}, PicoTime lookahead_ps = 1);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time: the firing event's timestamp inside a
  /// callback, the global maximum across lanes when idle.
  PicoTime Now() const noexcept;

  /// Schedules @p cb at absolute time @p when (>= Now(); earlier times are
  /// clamped so causality cannot run backwards). Inside a callback the event
  /// lands on the scheduling lane; from outside a run it lands on lane 0.
  /// @p tag must have static storage duration (string literal): it is kept
  /// by pointer, never copied, and only read when an event hook is set.
  void ScheduleAt(PicoTime when, Callback cb, const char* tag = nullptr);

  /// Schedules @p cb @p delay picoseconds from now.
  void ScheduleAfter(PicoTime delay, Callback cb, const char* tag = nullptr);

  /// As ScheduleAt/ScheduleAfter, but the event executes on virtual lane
  /// @p lane. Cross-lane schedules from inside a callback must respect the
  /// lookahead horizon (when >= Now() + Lookahead()).
  void ScheduleAtOn(std::uint32_t lane, PicoTime when, Callback cb,
                    const char* tag = nullptr);
  void ScheduleAfterOn(std::uint32_t lane, PicoTime delay, Callback cb,
                       const char* tag = nullptr);

  /// Runs until the event queue is empty (or Stop()).
  void Run();

  /// Runs until simulated time would exceed @p deadline; events at exactly
  /// the deadline still fire. Pending later events remain queued. Every
  /// lane's clock advances to the deadline, so a following RunUntil resumes
  /// from a deterministic point at any lane count.
  void RunUntil(PicoTime deadline);

  /// Runs until @p done() returns true, the queue drains, or Stop() is
  /// called. Returns true iff @p done() held. Single-executor runs check
  /// after every event; laned runs check at window boundaries (the lookahead
  /// round), so drivers that need an exact cut use RunUntil deadlines.
  bool RunUntilCondition(const std::function<bool()>& done);

  /// Requests that the current Run*() call return: after the in-flight
  /// callback on a single executor, at the current window boundary when
  /// laned (every lane finishes the window, keeping state deterministic).
  void Stop() noexcept;

  /// True when no events are pending.
  bool Idle() const noexcept { return PendingEvents() == 0; }

  /// Number of events scheduled but not yet fired. Exact between runs and
  /// inside a single-executor run; a laned run's callbacks must not call
  /// it, because the other shards' queues change underneath them.
  std::size_t PendingEvents() const noexcept;

  /// Total callbacks executed since construction.
  std::uint64_t EventsProcessed() const noexcept;

  /// Optional observation hook called before each event executes
  /// (time, tag; "" when the event was scheduled without a tag). Installing
  /// a hook is what makes tags observable — without one they cost nothing.
  void SetEventHook(std::function<void(PicoTime, const char*)> hook);

  /// Declares the number of virtual lanes (one per fabric host; a switched
  /// fabric homes each net::Switch on its own lane past the hosts, so
  /// switch-buffer state is only ever touched from events in that lane's
  /// order). Must be called while idle, before events are scheduled. Lanes
  /// are sharded across min(config.lanes, lanes) executor threads; with
  /// the default single executor the lane structure only feeds the
  /// (time, lane, seq) order, which is why laned runs replay
  /// byte-identically.
  void SetVirtualLanes(std::uint32_t lanes);

  std::uint32_t VirtualLanes() const noexcept;
  std::uint32_t ExecutorShards() const noexcept;

  /// The active lookahead horizon (picoseconds). Drivers that hand work
  /// across lanes directly (not through the NIC) schedule at
  /// Now() + Lookahead() — the earliest cross-lane time that is safe at
  /// every executor count.
  PicoTime Lookahead() const noexcept;

  /// Lane of the currently firing event (0 outside a run). What plain
  /// ScheduleAt inherits.
  std::uint32_t CurrentLane() const noexcept;

  /// Total event-slab slots allocated (capacity, not pending count). Fired
  /// slots are reused, so this tracks the pending high-water mark; the
  /// bounded-memory regression asserts it stays flat across
  /// schedule-and-fire churn.
  std::size_t AllocatedEventSlots() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace twochains::sim
