#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace twochains::sim {
namespace {

constexpr PicoTime kNoEvent = std::numeric_limits<PicoTime>::max();

// Event slab geometry: chunks of 512 nodes, threaded onto a free list.
constexpr std::uint32_t kChunkSize = 512;

// Timing wheel: 2048 slots of 4096 ps (~8.4 us horizon). The window size
// equals the wheel size, so an occupied slot maps to exactly one granule
// and no per-bucket granule disambiguation is needed. Events beyond the
// horizon wait in the overflow heap and are pulled granule-at-a-time as the
// cursor reaches them.
constexpr std::uint32_t kGranuleShift = 12;
constexpr std::uint32_t kWheelSlots = 2048;
constexpr std::uint32_t kWheelMask = kWheelSlots - 1;
constexpr std::uint32_t kBitmapWords = kWheelSlots / 64;

struct EventNode {
  PicoTime when = 0;
  std::uint64_t key_lo = 0;  // (source lane << 48) | per-lane sequence
  SmallFn cb;
  const char* tag = nullptr;
  EventNode* next_free = nullptr;
  std::uint32_t home_lane = 0;
};

// What the ordering structures hold: 24 bytes instead of the node, so heap
// sifts move small POD items.
struct LightItem {
  PicoTime when;
  std::uint64_t key_lo;
  EventNode* node;
};

struct ItemAfter {
  bool operator()(const LightItem& a, const LightItem& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.key_lo > b.key_lo;  // key_lo is globally unique: no ties
  }
};

inline void HeapPush(std::vector<LightItem>& h, const LightItem& it) {
  h.push_back(it);
  std::push_heap(h.begin(), h.end(), ItemAfter{});
}
inline void HeapPop(std::vector<LightItem>& h) {
  std::pop_heap(h.begin(), h.end(), ItemAfter{});
  h.pop_back();
}

// A cross-shard schedule, parked until the target shard drains its inbox at
// the next round boundary.
struct InboxItem {
  PicoTime when;
  std::uint64_t key_lo;
  const char* tag;
  std::uint32_t lane;
  SmallFn cb;
};

struct alignas(64) Shard {
  // Ordering structures (owner thread only).
  std::vector<LightItem> active;    // current-granule min-heap
  std::vector<LightItem> overflow;  // beyond-horizon min-heap
  std::array<std::vector<LightItem>, kWheelSlots> buckets;
  std::uint64_t bitmap[kBitmapWords] = {};
  std::uint64_t cursor_granule = 0;
  std::size_t bucket_items = 0;
  PicoTime now = 0;

  // Slab (owner thread only).
  std::vector<std::unique_ptr<EventNode[]>> chunks;
  EventNode* free_head = nullptr;

  // Owner-written; only read across threads behind the round barrier.
  std::uint64_t fired = 0;

  // Cross-shard inbox.
  std::mutex inbox_mu;
  std::vector<InboxItem> inbox;
  std::vector<InboxItem> inbox_scratch;

  // Published at the plan barrier.
  PicoTime local_min = kNoEvent;

  std::size_t queued() const noexcept {
    return active.size() + overflow.size() + bucket_items;
  }
};

// First occupied wheel slot strictly after `after` in circular order, or -1.
// Scans whole bitmap words; the final pass re-checks the starting word's low
// bits (slots that wrapped all the way around).
int NextOccupiedSlot(const std::uint64_t* bm, std::uint32_t after) noexcept {
  const std::uint32_t start = (after + 1) & kWheelMask;
  const std::uint32_t w0 = start / 64;
  for (std::uint32_t i = 0; i <= kBitmapWords; ++i) {
    const std::uint32_t wi = (w0 + i) % kBitmapWords;
    std::uint64_t word = bm[wi];
    if (i == 0) word &= ~std::uint64_t{0} << (start % 64);
    if (word != 0) {
      return static_cast<int>(wi * 64 +
                              static_cast<std::uint32_t>(std::countr_zero(word)));
    }
  }
  return -1;
}

struct TlsCtx {
  const void* impl = nullptr;
  Shard* shard = nullptr;
  std::uint32_t lane = 0;
};
thread_local TlsCtx g_tls;

}  // namespace

struct Engine::Impl {
  EngineConfig config;
  std::uint32_t virtual_lanes = 1;
  std::uint32_t shard_count = 1;
  PicoTime lookahead = 1;
  std::vector<std::unique_ptr<Shard>> shards;
  struct alignas(64) LaneSeq {
    std::uint64_t next = 0;
  };
  std::vector<LaneSeq> lane_seq;
  std::function<void(PicoTime, const char*)> hook;
  std::uint64_t processed_base = 0;  // fired counts from torn-down shard sets

  std::atomic<bool> stop{false};
  bool parallel_run = false;  // a laned Run*() is in flight

  // Laned-run round state, written by the serial section at the plan
  // barrier (the barrier's release/acquire publishes the plain fields).
  enum class Mode { kRun, kUntil, kCondition };
  Mode mode = Mode::kRun;
  PicoTime deadline = 0;
  const std::function<bool()>* condition = nullptr;
  bool condition_met = false;
  std::atomic<PicoTime> window_end{0};
  std::atomic<bool> finished{false};

  // Sense-reversing spin barrier across the executor shards.
  std::atomic<std::uint32_t> arrivals{0};
  std::atomic<std::uint64_t> phase{0};

  // Worker pool: shard_count-1 persistent threads, parked on the condition
  // variable between runs; main executes shard 0.
  std::vector<std::thread> workers;
  std::mutex pool_mu;
  std::condition_variable pool_cv;
  std::condition_variable done_cv;
  std::uint64_t epoch = 0;
  std::uint32_t done_count = 0;
  bool shutdown = false;

  ~Impl() { TeardownWorkers(); }

  // ---------------------------------------------------------------- context

  bool InRun() const noexcept {
    return g_tls.impl == this && g_tls.shard != nullptr;
  }

  PicoTime IdleNow() const noexcept {
    PicoTime m = 0;
    for (const auto& s : shards) m = std::max(m, s->now);
    return m;
  }

  PicoTime ContextNow() const noexcept {
    return InRun() ? g_tls.shard->now : IdleNow();
  }

  struct TlsGuard {
    TlsCtx saved;
    TlsGuard(const Impl* impl, Shard* shard) : saved(g_tls) {
      g_tls = TlsCtx{impl, shard, 0};
    }
    ~TlsGuard() { g_tls = saved; }
  };

  // ------------------------------------------------------------------- slab

  EventNode* AllocNode(Shard& sh) {
    EventNode* n = sh.free_head;
    if (n != nullptr) {
      sh.free_head = n->next_free;
      return n;
    }
    auto chunk = std::make_unique<EventNode[]>(kChunkSize);
    for (std::uint32_t i = kChunkSize - 1; i >= 1; --i) {
      chunk[i].next_free = sh.free_head;
      sh.free_head = &chunk[i];
    }
    EventNode* first = &chunk[0];
    sh.chunks.push_back(std::move(chunk));
    return first;
  }

  void FreeNode(Shard& sh, EventNode* n) noexcept {
    n->next_free = sh.free_head;
    sh.free_head = n;
  }

  // -------------------------------------------------------------- the wheel

  void InsertNode(Shard& sh, EventNode* n) {
    const std::uint64_t g = n->when >> kGranuleShift;
    const LightItem it{n->when, n->key_lo, n};
    if (g <= sh.cursor_granule) {
      assert(g == sh.cursor_granule || n->when >= sh.now);
      HeapPush(sh.active, it);
    } else if (g - sh.cursor_granule < kWheelSlots) {
      const std::uint32_t slot = static_cast<std::uint32_t>(g) & kWheelMask;
      sh.bitmap[slot / 64] |= std::uint64_t{1} << (slot % 64);
      sh.buckets[slot].push_back(it);
      ++sh.bucket_items;
    } else {
      HeapPush(sh.overflow, it);
    }
  }

  // Advances the cursor to the next occupied granule, draining that granule
  // from both the wheel bucket and the overflow heap into the active heap.
  // Returns false when no events remain anywhere.
  bool AdvanceCursor(Shard& sh) {
    const std::uint32_t cslot =
        static_cast<std::uint32_t>(sh.cursor_granule) & kWheelMask;
    std::uint64_t bucket_granule = kNoEvent;
    const int s = NextOccupiedSlot(sh.bitmap, cslot);
    if (s >= 0) {
      bucket_granule =
          sh.cursor_granule +
          ((static_cast<std::uint32_t>(s) - cslot) & kWheelMask);
    }
    const std::uint64_t overflow_granule =
        sh.overflow.empty() ? kNoEvent
                            : sh.overflow.front().when >> kGranuleShift;
    const std::uint64_t g = std::min(bucket_granule, overflow_granule);
    if (g == kNoEvent) return false;
    sh.cursor_granule = g;
    if (bucket_granule == g) {
      const std::uint32_t slot = static_cast<std::uint32_t>(g) & kWheelMask;
      sh.bitmap[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
      auto& bucket = sh.buckets[slot];
      sh.bucket_items -= bucket.size();
      sh.active.insert(sh.active.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    while (!sh.overflow.empty() &&
           (sh.overflow.front().when >> kGranuleShift) == g) {
      sh.active.push_back(sh.overflow.front());
      HeapPop(sh.overflow);
    }
    std::make_heap(sh.active.begin(), sh.active.end(), ItemAfter{});
    return true;
  }

  PicoTime PeekMin(Shard& sh) {
    if (sh.active.empty() && !AdvanceCursor(sh)) return kNoEvent;
    return sh.active.front().when;
  }

  // Pops the next event with when < limit, or returns nullptr.
  EventNode* PopBefore(Shard& sh, PicoTime limit) {
    if (sh.active.empty() && !AdvanceCursor(sh)) return nullptr;
    const LightItem& top = sh.active.front();
    if (top.when >= limit) return nullptr;
    EventNode* n = top.node;
    HeapPop(sh.active);
    return n;
  }

  void Fire(Shard& sh, EventNode* n) {
    sh.now = n->when;
    g_tls.lane = n->home_lane;
    ++sh.fired;
    if (hook) hook(n->when, n->tag != nullptr ? n->tag : "");
    SmallFn cb = std::move(n->cb);
    FreeNode(sh, n);
    cb();
  }

  // ------------------------------------------------------------- scheduling

  void ScheduleOn(std::uint32_t lane, PicoTime when, SmallFn cb,
                  const char* tag) {
    assert(lane < virtual_lanes);
    if (lane >= virtual_lanes) lane %= virtual_lanes;
    std::uint32_t src_lane;
    Shard* cur = nullptr;
    PicoTime floor;
    if (InRun()) {
      cur = g_tls.shard;
      src_lane = g_tls.lane;
      floor = cur->now;
    } else {
      src_lane = lane;
      floor = IdleNow();
    }
    if (when < floor) when = floor;
    const std::uint64_t key_lo =
        (std::uint64_t{src_lane} << 48) | lane_seq[src_lane].next++;
    Shard& dst = *shards[lane % shard_count];
    if (&dst == cur || !parallel_run) {
      // Same shard, or no laned run in flight: this thread owns dst.
      Insert(dst, when, key_lo, std::move(cb), tag, lane);
      return;
    }
    // Cross-shard during a laned run: the lookahead horizon is the safety
    // contract — the target cannot have executed past it.
    assert(cur == nullptr || when >= cur->now + lookahead);
    std::lock_guard<std::mutex> l(dst.inbox_mu);
    dst.inbox.push_back(InboxItem{when, key_lo, tag, lane, std::move(cb)});
  }

  void Insert(Shard& sh, PicoTime when, std::uint64_t key_lo, SmallFn cb,
              const char* tag, std::uint32_t lane) {
    EventNode* n = AllocNode(sh);
    n->when = when;
    n->key_lo = key_lo;
    n->cb = std::move(cb);
    n->tag = tag;
    n->home_lane = lane;
    InsertNode(sh, n);
  }

  // ----------------------------------------------------------- scalar runs

  // Fires events due before @p limit until the queue runs dry, Stop() is
  // called, or @p done (when given) holds; @p done is checked before the
  // first event and after every event. Returns whether @p done held.
  bool RunScalar(PicoTime limit, const std::function<bool()>* done) {
    stop.store(false, std::memory_order_relaxed);
    const auto met = [done] { return done != nullptr && (*done)(); };
    if (met()) return true;
    Shard& sh = *shards[0];
    TlsGuard ctx(this, &sh);
    while (!stop.load(std::memory_order_relaxed)) {
      EventNode* n = PopBefore(sh, limit);
      if (n == nullptr) break;
      Fire(sh, n);
      if (met()) return true;
    }
    return met();
  }

  // ------------------------------------------------------------ laned runs

  // One conservative-lookahead round, executed by every shard thread:
  //   drain inbox -> publish local min -> [barrier: plan] -> execute window
  //   -> [barrier]
  // The plan (serial) computes GVT = min local_min and the window
  // [GVT, GVT+lookahead). Any cross-shard schedule posted from inside a
  // window has when >= source_now + lookahead >= GVT + lookahead, i.e. at or
  // past the window end — so no shard can receive work it should already
  // have executed, and the merge order equals the scalar engine's.
  void RoundLoop(std::uint32_t shard_idx) {
    Shard& sh = *shards[shard_idx];
    while (true) {
      DrainInbox(sh);
      sh.local_min = PeekMin(sh);
      BarrierWait([this] { PlanRound(); });
      if (finished.load(std::memory_order_relaxed)) return;
      const PicoTime limit = window_end.load(std::memory_order_relaxed);
      while (true) {
        EventNode* n = PopBefore(sh, limit);
        if (n == nullptr) break;
        Fire(sh, n);
      }
      BarrierWait([] {});
    }
  }

  void DrainInbox(Shard& sh) {
    {
      std::lock_guard<std::mutex> l(sh.inbox_mu);
      sh.inbox_scratch.swap(sh.inbox);
    }
    // Arrival order in the inbox is wall-clock nondeterministic, but every
    // structure orders by (when, key_lo), so insertion order is invisible.
    for (InboxItem& it : sh.inbox_scratch) {
      Insert(sh, it.when, it.key_lo, std::move(it.cb), it.tag, it.lane);
    }
    sh.inbox_scratch.clear();
  }

  void PlanRound() {
    PicoTime gvt = kNoEvent;
    for (const auto& s : shards) gvt = std::min(gvt, s->local_min);
    bool fin = false;
    if (stop.load(std::memory_order_relaxed)) {
      fin = true;
    } else if (mode == Mode::kCondition && (*condition)()) {
      condition_met = true;
      fin = true;
    } else if (gvt == kNoEvent) {
      fin = true;
    } else if (mode == Mode::kUntil && gvt > deadline) {
      fin = true;
    }
    if (fin) {
      if (mode == Mode::kUntil) {
        for (const auto& s : shards) s->now = std::max(s->now, deadline);
      }
      finished.store(true, std::memory_order_relaxed);
      return;
    }
    PicoTime we = gvt + lookahead;
    if (we < gvt) we = kNoEvent;  // saturate
    if (mode == Mode::kUntil && deadline != kNoEvent) {
      we = std::min(we, deadline + 1);
    }
    window_end.store(we, std::memory_order_relaxed);
  }

  template <typename SerialFn>
  void BarrierWait(SerialFn&& serial) {
    const std::uint64_t my_phase = phase.load(std::memory_order_acquire);
    if (arrivals.fetch_add(1, std::memory_order_acq_rel) + 1 == shard_count) {
      serial();
      arrivals.store(0, std::memory_order_relaxed);
      phase.store(my_phase + 1, std::memory_order_release);
    } else {
      int spins = 0;
      while (phase.load(std::memory_order_acquire) == my_phase) {
        if (++spins > 4096) std::this_thread::yield();
      }
    }
  }

  bool RunLaned(Mode m, PicoTime deadline_ps,
                const std::function<bool()>* done) {
    stop.store(false, std::memory_order_relaxed);
    mode = m;
    deadline = deadline_ps;
    condition = done;
    condition_met = false;
    finished.store(false, std::memory_order_relaxed);
    parallel_run = true;
    EnsureWorkers();
    {
      std::lock_guard<std::mutex> l(pool_mu);
      ++epoch;
    }
    pool_cv.notify_all();
    {
      TlsGuard ctx(this, shards[0].get());
      RoundLoop(0);
    }
    // Wait for every worker to leave its round loop before returning: a
    // back-to-back Run*() call resets `finished`, and a worker still
    // draining the final barrier must not observe that reset as "the run
    // continues" (the barriers would desynchronize).
    {
      std::unique_lock<std::mutex> l(pool_mu);
      done_cv.wait(l, [&] { return done_count == shard_count - 1; });
      done_count = 0;
    }
    parallel_run = false;
    return condition_met;
  }

  void EnsureWorkers() {
    if (workers.size() == static_cast<std::size_t>(shard_count) - 1) return;
    TeardownWorkers();
    for (std::uint32_t i = 1; i < shard_count; ++i) {
      workers.emplace_back(
          [this, i, seen = epoch]() mutable { WorkerMain(i, seen); });
    }
  }

  void TeardownWorkers() {
    if (workers.empty()) return;
    {
      std::lock_guard<std::mutex> l(pool_mu);
      shutdown = true;
    }
    pool_cv.notify_all();
    for (std::thread& t : workers) t.join();
    workers.clear();
    shutdown = false;
  }

  void WorkerMain(std::uint32_t shard_idx, std::uint64_t seen) {
    while (true) {
      {
        std::unique_lock<std::mutex> l(pool_mu);
        pool_cv.wait(l, [&] { return shutdown || epoch != seen; });
        if (shutdown) return;
        seen = epoch;
      }
      TlsGuard ctx(this, shards[shard_idx].get());
      RoundLoop(shard_idx);
      {
        std::lock_guard<std::mutex> l(pool_mu);
        ++done_count;
      }
      done_cv.notify_one();
    }
  }

  // ---------------------------------------------------------------- mgmt

  std::size_t Pending() const noexcept {
    std::size_t queued = 0;
    for (const auto& s : shards) queued += s->queued();
    return queued;
  }

  void Reconfigure(std::uint32_t lanes) {
    assert(Pending() == 0 && "SetVirtualLanes requires an idle engine");
    for (const auto& s : shards) processed_base += s->fired;
    TeardownWorkers();
    virtual_lanes = std::max<std::uint32_t>(1, lanes);
    shard_count = std::min(std::max<std::uint32_t>(1, config.lanes),
                           virtual_lanes);
    // Each shard past the first is an executor thread: keep that bounded.
    if (shard_count > 255) shard_count = 255;
    shards.clear();
    shards.reserve(shard_count);
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      shards.push_back(std::make_unique<Shard>());
    }
    lane_seq.assign(virtual_lanes, LaneSeq{});
  }
};

Engine::Engine(EngineConfig config, PicoTime lookahead_ps)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  impl_->lookahead = std::max<PicoTime>(1, lookahead_ps);
  impl_->Reconfigure(1);
}

Engine::~Engine() = default;

PicoTime Engine::Now() const noexcept { return impl_->ContextNow(); }

void Engine::ScheduleAt(PicoTime when, Callback cb, const char* tag) {
  const std::uint32_t lane = impl_->InRun() ? g_tls.lane : 0;
  impl_->ScheduleOn(lane, when, std::move(cb), tag);
}

void Engine::ScheduleAfter(PicoTime delay, Callback cb, const char* tag) {
  const std::uint32_t lane = impl_->InRun() ? g_tls.lane : 0;
  impl_->ScheduleOn(lane, impl_->ContextNow() + delay, std::move(cb), tag);
}

void Engine::ScheduleAtOn(std::uint32_t lane, PicoTime when, Callback cb,
                          const char* tag) {
  impl_->ScheduleOn(lane, when, std::move(cb), tag);
}

void Engine::ScheduleAfterOn(std::uint32_t lane, PicoTime delay, Callback cb,
                             const char* tag) {
  impl_->ScheduleOn(lane, impl_->ContextNow() + delay, std::move(cb), tag);
}

void Engine::Run() {
  if (impl_->shard_count > 1) {
    impl_->RunLaned(Impl::Mode::kRun, 0, nullptr);
  } else {
    impl_->RunScalar(kNoEvent, nullptr);
  }
}

void Engine::RunUntil(PicoTime deadline) {
  if (impl_->shard_count > 1) {
    impl_->RunLaned(Impl::Mode::kUntil, deadline, nullptr);
    return;
  }
  impl_->RunScalar(deadline == kNoEvent ? kNoEvent : deadline + 1, nullptr);
  // Even with no events at/below the deadline, time advances to it so
  // callers can measure elapsed windows.
  PicoTime& now = impl_->shards[0]->now;
  now = std::max(now, deadline);
}

bool Engine::RunUntilCondition(const std::function<bool()>& done) {
  if (impl_->shard_count > 1) {
    return impl_->RunLaned(Impl::Mode::kCondition, 0, &done);
  }
  return impl_->RunScalar(kNoEvent, &done);
}

void Engine::Stop() noexcept {
  impl_->stop.store(true, std::memory_order_relaxed);
}

std::size_t Engine::PendingEvents() const noexcept { return impl_->Pending(); }

std::uint64_t Engine::EventsProcessed() const noexcept {
  std::uint64_t fired = impl_->processed_base;
  for (const auto& s : impl_->shards) fired += s->fired;
  return fired;
}

void Engine::SetEventHook(std::function<void(PicoTime, const char*)> hook) {
  impl_->hook = std::move(hook);
}

void Engine::SetVirtualLanes(std::uint32_t lanes) {
  impl_->Reconfigure(lanes);
}

std::uint32_t Engine::VirtualLanes() const noexcept {
  return impl_->virtual_lanes;
}

std::uint32_t Engine::ExecutorShards() const noexcept {
  return impl_->shard_count;
}

PicoTime Engine::Lookahead() const noexcept { return impl_->lookahead; }

std::uint32_t Engine::CurrentLane() const noexcept {
  return impl_->InRun() ? g_tls.lane : 0;
}

std::size_t Engine::AllocatedEventSlots() const noexcept {
  std::size_t slots = 0;
  for (const auto& s : impl_->shards) slots += s->chunks.size() * kChunkSize;
  return slots;
}

}  // namespace twochains::sim
