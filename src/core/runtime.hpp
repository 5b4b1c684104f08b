// The Two-Chains runtime: one instance per host process.
//
// Responsibilities (§III-§IV of the paper):
//   * reactive mailboxes — pinned, RDMA-writable mailbox banks plus the
//     sender-side bank flags that implement the paper's own flow control
//     ("the receiver has M banks, where each bank has N mailboxes; ...
//     the sender will not send new messages to a bank until the flag for
//     that bank is set", §VI-A2);
//   * package management — loading rieds (auto-running their inits),
//     loading the Local Function library and building the element-ID ->
//     function-pointer vector, and caching each jam's injectable image;
//   * namespace synchronization — after packages load, peers exchange
//     their export tables so a sender can pack a patched GOT (GOTP) with
//     *receiver* virtual addresses;
//   * sending — packing Injected or Local frames, patching the PRE slot,
//     posting one-sided puts through the per-peer ucxs endpoint (kUser
//     mode: the runtime's own flow control, not UCX's);
//   * receiving — the reactive receiver agent, generalized to a *pool* of
//     receiver cores: inbound mailbox banks are sharded across the pool
//     (stable bank -> core affinity, so LLC-stashed frame bytes land next
//     to the core that will execute them), each pool core runs its own
//     wait loop (POLL or WFE) on the heads of its banks, validates, links
//     (PRE/GOT handling per the security policy), executes through the
//     cache-charged interpreter on its own core and stack, and recycles
//     drained mailbox banks back to the owning sender. Frames stay in
//     order *within* a bank; banks drain concurrently in simulated time.
//     With work stealing enabled (RuntimeConfig::steal), a pool core whose
//     own banks are drained may claim the oldest ready bank head from the
//     most-loaded sibling; the claim — and the duty to drain the bank and
//     return its flag after a full drain — follows the bank until the
//     stolen backlog is cleared, then reverts to the affinity owner. A bank mid-frame can never
//     change claim, so no frame is ever begun twice and in-bank order
//     survives the handoff. Execution is bit-for-bit deterministic:
//     concurrent completions are ordered by the engine's (time, seq) key,
//     never by host-side iteration order, and steal scans sweep pool
//     members and (peer, bank) pairs in index order.
//
// NUMA model: on a multi-domain host (cache::HierarchyConfig.domains > 1)
// every mailbox bank and pool-core stack is placed in the memory domain of
// the pool core that owns it (RuntimeConfig::domain_aware_placement), so
// the NIC's stash lands in the LLC slice next to the executing core.
// Draining a bank away from its home domain — a stolen bank, or flat
// placement — pays the cross-domain penalty on every fill that reaches the
// remote LLC slice or DRAM; the cost is surfaced per frame in
// RuntimeStats::remote_drain_cycles and each pool core's WaitStats.
//
// Hotplug model: a pool core can be taken out of service at runtime
// (Runtime::QuiesceCore): the core stops accepting new frames, finishes the
// frame it is executing (a bank mid-frame never changes hands), and every
// bank homed to it is re-sharded to the surviving active cores — a
// *permanent* home handoff through the same claim machinery work stealing
// uses, not a revertible steal lease. Re-shard placement prefers survivors
// in the bank's own memory domain and falls back across the interconnect
// (paying the measured remote-drain penalty). Bank flags keep returning
// throughout the drain — the survivors now owe them — so senders never
// deadlock on a quiesced core. Runtime::ReviveCore restores the original
// bank -> core affinity map. docs/RUNTIME_LIFECYCLE.md documents the full
// bank-claim state machine (owned -> stolen -> reverted -> re-sharded).
//
// Peer model: a runtime holds a PeerId-indexed peer table. Each connected
// peer gets its own ucxs endpoint, its own slice of inbound mailbox banks
// (so an incast of senders cannot corrupt each other's slots), its own
// sender-side bank-flag mirror, and its own remote-namespace snapshot. The
// paper's testbed is the 2-host special case: two runtimes, one peer each,
// wired back-to-back. N-host fabrics (full mesh, star/incast) are built by
// core::Fabric from the same pairwise Connect() primitive.
//
// Everything runs on one sim::Engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "core/frame.hpp"
#include "core/security.hpp"
#include "cpu/core.hpp"
#include "cpu/spinwait.hpp"
#include "jamvm/interpreter.hpp"
#include "jelf/got_rewriter.hpp"
#include "jelf/loader.hpp"
#include "net/host.hpp"
#include "net/nic.hpp"
#include "pkg/package.hpp"
#include "sim/engine.hpp"
#include "ucxs/ucxs.hpp"

namespace twochains::core {

/// Index into a runtime's peer table (dense, assigned at Connect time).
using PeerId = std::uint32_t;
inline constexpr PeerId kInvalidPeer = ~PeerId{0};
/// The peer single-peer callers mean: the first (often only) one wired.
inline constexpr PeerId kDefaultPeer = 0;

/// Work stealing between receiver-pool cores. The bank->core affinity
/// sharding keeps a bank's frames in the cache next to the core that
/// executes them, but leaves a pool core idle whenever its banks are empty
/// while a sibling's banks run deep — exactly the skew an incast fabric
/// produces. With stealing enabled, an idle pool core may claim the oldest
/// ready bank head from the most-loaded sibling; the claim (and with it the
/// duty to drain the bank and, on a full drain, return its flag) follows
/// the bank until the stolen backlog is cleared — at flag return, or as
/// soon as no delivered frame of the bank remains — then reverts to the
/// affinity owner.
struct StealConfig {
  bool enabled = false;
  /// Minimum ready-frame backlog across a sibling's claimed banks before an
  /// idle core sacrifices stash locality and steals. 0 would let a claim
  /// flip with no work behind it (pure claim churn), so Initialize clamps
  /// it to >= 1; oversized values are clamped at steal time to the total
  /// inbound capacity (peers * banks * mailboxes_per_bank — backlog spans
  /// every peer's slice, and the peer table only fills at Connect), so a
  /// huge knob degrades to "steal only at full capacity" instead of a
  /// silently dead config. EffectiveStealThreshold() reports the value
  /// actually in force.
  std::uint32_t threshold = 2;
  /// Schmitt-trigger margin damping claim ping-pong: a core whose previous
  /// steal scan failed needs backlog >= threshold + hysteresis to start
  /// stealing again; while its steals keep succeeding, backlog >= threshold
  /// suffices. Clamped at steal time like threshold.
  std::uint32_t hysteresis = 1;
  /// Domain-aware victim selection: a thief prefers the most-loaded sibling
  /// in its *own* memory domain — even past a deeper remote-domain backlog —
  /// and only crosses the interconnect when no same-domain victim clears
  /// the trigger. Keeps the steal gain while shrinking the cross-domain
  /// toll fig17 measures; a no-op on single-domain hosts.
  bool domain_aware = true;
};

/// Receiver-side jam cache: send-once, invoke-many. The first full-body
/// Injected Function frame of a jam installs its post-GOT-rewrite image
/// (content-addressed by jelf::ComputeJamHandle) in a receiver-resident
/// cache; subsequent invokes ride a slim invoke-by-handle frame
/// (kFlagByHandle) that drops GOTP/CODE, and a hit costs a PRE-slot
/// validation instead of the full per-invoke link. A receiver miss — cold
/// cache, eviction, or a content mismatch after a package reload — is
/// NAKed back to the sender through a per-slot bit mask in the bank flag
/// word, and the sender resends full-body; the protocol degrades
/// gracefully, never errors. The cache is flushed (and senders' handle
/// beliefs cleared) on every namespace re-sync, so a reloaded package can
/// never serve a stale image.
struct JamCacheConfig {
  bool enabled = false;
  /// Cached images per host. The eviction victim is the entry with the
  /// fewest invokes (ties: least recently used, then lowest handle) —
  /// clamped to >= 1 at Initialize when enabled.
  std::uint32_t capacity = 8;
};

/// Link cost of one jam-cache hit: validate the cached image's PRE slot
/// (the table-lookup replacement for the full GOT rewrite).
inline constexpr Cycles kJamCacheHitRelinkCycles = 12;

/// Counter plane of the receiver-side jam cache (monotonic; never reset).
/// Ledger contracts the invariant harnesses enforce at quiescence:
/// receiver-side `hits + misses` == the senders' `by_handle_sends`,
/// `misses == naks_sent`, and across a connected fabric
/// sum(naks_received) == sum(naks_sent) == sum(resends).
struct JamCacheStats {
  // Receiver side.
  std::uint64_t hits = 0;        ///< by-handle frames served from the cache
  std::uint64_t misses = 0;      ///< by-handle frames whose handle was absent
  std::uint64_t installs = 0;    ///< images linked into the cache
  std::uint64_t evictions = 0;   ///< capacity-pressure removals
  std::uint64_t invalidations = 0;  ///< flushes (namespace re-sync, reload)
  std::uint64_t naks_sent = 0;   ///< missed slots flagged back (== misses)
  /// Wire bytes hits avoided: full-body frame_len minus by-handle
  /// frame_len, accumulated per hit.
  std::uint64_t bytes_saved = 0;
  /// Link cycles hits avoided: the cold per-invoke link cost (GOTP pack,
  /// verification, permission flips) minus the hit relink cost.
  std::uint64_t link_cycles_saved = 0;
  // Sender side.
  std::uint64_t by_handle_sends = 0;  ///< slim frames posted
  std::uint64_t naks_received = 0;    ///< NAK bits seen in returned flags
  std::uint64_t resends = 0;          ///< full-body resends after a NAK
};

/// Adaptive per-peer bank flow control (AIMD on the bank-flag RTT signal).
/// The paper's protocol gives a sender a *fixed* number of banks per peer;
/// on a switched fabric an incast hub's uplink saturates long before the
/// bank budget does, and every queued frame pays tail latency. With this
/// enabled, each sender runs a congestion window over its closed-bank
/// count: an ECN mark picked up in a switch queue rides the delivered
/// frame (net::PutCompletion::ecn_marked), the receiver echoes it home in
/// bit 2 of that bank's flag word, and the sender multiplicatively shrinks
/// its window — admission control refuses new banks past the window, so a
/// saturated hub sheds queue depth instead of growing it. Flag returns
/// without an echo additively re-open the window, a quarter bank per clean
/// flag return, up to the configured bank count; an echo halves it, at most
/// once per observed flag RTT, so a burst of echoes from one congestion
/// event does not collapse the window. Window bounds are a harness
/// invariant: the window always stays within [1, banks] — one bank must
/// always be admissible or the sender deadlocks.
struct AdaptiveBankConfig {
  bool enabled = false;
};

/// Lifecycle state of one receiver-pool member (see Runtime::QuiesceCore /
/// ReviveCore and docs/RUNTIME_LIFECYCLE.md).
enum class PoolCoreState : std::uint8_t {
  kActive,    ///< serving its homed banks (and stealing, if enabled)
  kDraining,  ///< quiesce requested; finishing its one in-flight frame
  kQuiesced,  ///< out of the pool: no homed banks, no claims, no scans
};

/// Sentinel pool index ("no member"): re-shard target when no core is
/// active, and the bank_pending_home resting value.
inline constexpr std::uint32_t kInvalidPoolIndex = ~std::uint32_t{0};

/// Every knob of one runtime. docs/TUNING.md documents each with its
/// measured effect size and when it is inert; values are clamped (with a
/// warning) against the host's cache model at Initialize().
struct RuntimeConfig {
  /// Inbound mailbox banks per connected peer (the flow-control unit:
  /// a sender may not reuse a bank until its flag returns).
  std::uint32_t banks = 2;
  /// Mailbox slots per bank; banks * mailboxes_per_bank frames can be
  /// outstanding toward each peer.
  std::uint32_t mailboxes_per_bank = 8;
  /// Fixed per-slot capacity; frames must fit.
  std::uint64_t mailbox_slot_bytes = KiB(64);
  /// How pool cores wait on their bank heads (POLL spin vs Arm WFE).
  cpu::WaitModelConfig wait{};
  /// First core of the receiver pool (clamped to the cache model).
  std::uint32_t receiver_core = 0;
  /// Receiver pool size: cores receiver_core .. receiver_core +
  /// receiver_cores - 1 each run their own wait/link/execute loop over
  /// the mailbox banks sharded to them (clamped to the host's core count
  /// at Initialize).
  std::uint32_t receiver_cores = 1;
  /// Core charged for packing + protocol setup on sends. Placing it
  /// inside a widened pool double-books that core's simulated time
  /// (warned); equal to receiver_core with a 1-core pool is the paper's
  /// single-threaded perftest shape.
  std::uint32_t sender_core = 1;
  /// Receiver-pool work stealing (no-op while the pool has a single core).
  StealConfig steal{};
  /// Receiver-side jam cache + invoke-by-handle fast path (see
  /// JamCacheConfig). Requires mailboxes_per_bank <= 32 when enabled (the
  /// NAK mask rides in bits [32, 64) of the bank flag word; clamped with a
  /// warning at Initialize).
  JamCacheConfig jam_cache{};
  /// Domain-aware placement: allocate each inbound mailbox bank and each
  /// pool-core execution stack in the memory domain of the pool core that
  /// owns it, so NIC-stashed frame bytes land in the LLC slice next to the
  /// core that will execute them. Off = everything lands in domain 0 (the
  /// flat-arena behavior); a no-op on single-domain hosts either way.
  bool domain_aware_placement = true;
  /// Adaptive per-peer bank flow control: AIMD over the closed-bank count,
  /// driven by ECN echoes in returned bank-flag words (see
  /// AdaptiveBankConfig). Off = the paper's fixed-bank protocol.
  AdaptiveBankConfig adaptive{};
  /// Verification / GOT-installation / page-permission hardening modes
  /// (§V of the paper); see core/security.hpp.
  SecurityPolicy security{};
  /// Fixed-size frames (one put per message, §VI: "we use fixed-size
  /// frames for this study"). Variable mode waits on the header first,
  /// then on the signal, costing an extra wait phase.
  bool fixed_size_frames = true;
  /// Send the signal word as a separate fenced put (required when the
  /// transport does not guarantee write ordering, Fig. 1).
  bool separate_signal_put = false;
  /// Interpreter limits for executing jams; enforce_exec_permission is
  /// overwritten from `security` at Initialize().
  vm::ExecConfig exec{};
};

/// How a jam is invoked (§IV-B).
enum class Invoke : std::uint8_t { kInjected, kLocal };

/// What Send() reports back about one posted frame.
struct SendReceipt {
  std::uint32_t sn = 0;             ///< frame sequence number (wire HDR)
  std::uint64_t frame_len = 0;      ///< total packed bytes
  ucxs::Protocol protocol = ucxs::Protocol::kShort;  ///< put path chosen
  /// Sender CPU time consumed (pack + protocol setup).
  PicoTime sender_cost = 0;
  /// True when the frame went out as a slim invoke-by-handle frame (the
  /// sender believed the peer holds the jam's cached image).
  bool by_handle = false;
};

/// One completed inbound frame, as delivered to the SetOnExecuted hook
/// (in simulated time, on the engine).
struct ReceivedMessage {
  std::uint32_t sn = 0;       ///< sender-assigned sequence number
  std::uint32_t elem_id = 0;  ///< element (jam) the frame invoked
  /// Peer table index of the sender on the *receiving* runtime.
  PeerId from = kInvalidPeer;
  bool injected = false;          ///< Injected (code-carrying) vs Local
  bool executed = false;          ///< false for kFlagNoExecute frames
  bool by_handle = false;         ///< arrived as a slim invoke-by-handle frame
  /// By-handle frame whose handle was not cached: not executed, NAKed back
  /// to the sender for a full-body resend.
  bool cache_miss = false;
  std::uint64_t frame_len = 0;    ///< bytes the wire carried
  std::uint64_t return_value = 0; ///< jam return value
  std::uint64_t instructions = 0; ///< VM instructions the jam retired
  /// Mailbox slot (within the sender's slice) the frame arrived in; the
  /// bank is slot / mailboxes_per_bank.
  std::uint32_t slot = 0;
  /// Receiver-pool member that executed the frame (equals the bank's
  /// affinity core unless the bank was stolen).
  std::uint32_t pool = 0;
  PicoTime delivered_at = 0;  ///< signal visible in mailbox memory
  PicoTime completed_at = 0;  ///< processing finished
};

/// Per-peer traffic counters (one entry per peer table slot).
struct PeerStats {
  std::uint64_t messages_sent = 0;      ///< sends *to* this peer
  std::uint64_t messages_delivered = 0; ///< frames delivered *from* this peer
  std::uint64_t messages_executed = 0;  ///< frames executed *from* this peer
  std::uint64_t bytes_sent = 0;
  std::uint64_t send_stalls = 0;        ///< sends to this peer refused
  std::uint64_t bank_flags_returned = 0;///< flags recycled back to this peer
};

/// Whole-runtime counter plane (monotonic; never reset). Ledger
/// invariants the test suites enforce: banks_drained_owner +
/// banks_drained_stolen == bank_flags_returned, and banks_resharded ==
/// the sum of every pool core's WaitStats re-shard mirrors.
struct RuntimeStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_executed = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bank_flags_returned = 0;
  std::uint64_t send_stalls = 0;       ///< sends refused: bank flag clear
  std::uint64_t security_rejections = 0;
  std::uint64_t wait_episodes = 0;
  // Work-stealing ledger. Every returned bank flag is accounted exactly
  // once below: banks_drained_owner + banks_drained_stolen ==
  // bank_flags_returned (the reconciliation the soak suite asserts).
  std::uint64_t steals = 0;            ///< bank-claim handoffs to idle cores
  std::uint64_t frames_stolen = 0;     ///< frames executed off-affinity
  std::uint64_t banks_drained_owner = 0;   ///< flags returned by the owner
  std::uint64_t banks_drained_stolen = 0;  ///< flags returned by a thief
  // NUMA ledger (all zero on single-domain hosts): the locality cost of
  // draining a bank away from its home memory domain — a stolen bank, or
  // flat placement with domain_aware_placement off.
  std::uint64_t frames_drained_remote = 0; ///< frames executed off the bank's home domain
  std::uint64_t remote_drain_cycles = 0;   ///< cross-domain penalty cycles those drains paid
  // Adaptive bank flow control (see AdaptiveBankConfig). ECN ledger the
  // switch harness reconciles at quiescence: every mark delivered into
  // this runtime's frames is echoed home exactly once, so across a fabric
  // sum(ecn_echoes_sent) == sum(ecn_echoes_seen), and each receiver's
  // ecn_marks_seen equals its NIC's marked non-flag deliveries.
  std::uint64_t ecn_marks_seen = 0;    ///< marked frames delivered to us
  std::uint64_t ecn_echoes_sent = 0;   ///< marks echoed home in flag words
  std::uint64_t ecn_echoes_seen = 0;   ///< echoes observed in returned flags
  std::uint64_t cwnd_increases = 0;    ///< additive window openings
  std::uint64_t cwnd_decreases = 0;    ///< multiplicative backoffs
  std::uint64_t adaptive_refusals = 0; ///< sends refused by the window gate
  // Hotplug ledger (QuiesceCore / ReviveCore). A re-shard is a permanent
  // bank-home migration — counted once per applied home change, in either
  // direction (quiesce handoff or revive restore); per-core mirrors live
  // in each member's WaitStats (banks_resharded_in/out sum to this).
  std::uint64_t banks_resharded = 0;
  /// Frames already delivered into a quiescing core's banks — in flight or
  /// ready — at QuiesceCore time: the stranded backlog the drain protocol
  /// hands over (each QuiesceCore call also returns its own share).
  std::uint64_t frames_drained_during_quiesce = 0;
  /// Counters keyed by PeerId (index == peer table slot).
  std::vector<PeerStats> per_peer;
};

/// The Two-Chains runtime: one per host process (see the file comment
/// for the full model). Lifecycle: construct -> Initialize() ->
/// Connect() -> LoadPackage() -> SyncNamespaces() ->
/// StartReceiver(); docs/RUNTIME_LIFECYCLE.md spells out the order and
/// the hotplug protocol. All callbacks (SetOnExecuted, slot waiters) run
/// on the simulation engine — there is no host-thread concurrency
/// anywhere in the model; "thread affinity" always means *simulated*
/// cores (receiver pool members, sender_core).
class Runtime {
 public:
  /// Binds the runtime to its host's engine, memory/caches, NIC, and
  /// ucxs worker. Does not allocate runtime state — Initialize() does.
  Runtime(sim::Engine& engine, net::Host& host, net::Nic& nic,
          ucxs::Worker& worker, RuntimeConfig config);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Allocates the execution stack, registers the standard natives. Must be
  /// called before Connect().
  Status Initialize();

  /// Connects two runtimes pairwise: each side allocates a dedicated slice
  /// of mailbox banks + bank flags + staging for the other, builds a
  /// per-peer endpoint, and exchanges addresses + rkeys (the out-of-band
  /// wireup of §V). Returns the PeerId each side assigned the other:
  /// `first` is b's id within a, `second` is a's id within b. Their NICs
  /// must already be cabled (net::Nic::ConnectTo).
  static StatusOr<std::pair<PeerId, PeerId>> Connect(Runtime& a, Runtime& b);

  /// Loads a package on this host: rieds first (with auto-init), then the
  /// Local Function library; caches injectable jam images. With
  /// @p allow_reload, a package may redefine symbols and elements already
  /// loaded (hot reload): same-name elements are replaced *in place* and
  /// every jam-cache entry of a replaced element is invalidated, so a
  /// reloaded jam can never execute its stale cached image.
  Status LoadPackage(const pkg::Package& package, bool allow_reload = false);

  /// Copies each runtime's export table into the other's per-peer remote
  /// namespace — the "exchange with the receiver" that lets senders pack
  /// GOTP with receiver VAs (§III-B). Call after both sides loaded
  /// packages; requires Connect() first. Fabric::SyncNamespaces runs this
  /// over every connected pair. Re-syncing also invalidates both sides'
  /// jam-cache state: each receiver flushes its cached images and each
  /// sender forgets which handles the other holds, so a package reloaded
  /// before the sync can never be served stale.
  static Status SyncNamespaces(Runtime& a, Runtime& b);

  // ------------------------------------------------------------- send

  /// True when the current bank toward @p peer accepts another message.
  bool HasFreeSlot(PeerId peer) const;
  bool HasFreeSlot() const { return HasFreeSlot(kDefaultPeer); }

  /// Runs @p cb (once) as soon as a bank flag returns from @p peer. If a
  /// slot is already free, runs it immediately. Flow control is per peer:
  /// exhausting one peer's banks never blocks sends to another.
  void NotifyWhenSlotFree(PeerId peer, std::function<void()> cb);
  void NotifyWhenSlotFree(std::function<void()> cb) {
    NotifyWhenSlotFree(kDefaultPeer, std::move(cb));
  }

  /// Sends jam @p name to @p peer with the given argument block and user
  /// payload. Fails with kResourceExhausted when flow control blocks (no
  /// free bank toward that peer).
  StatusOr<SendReceipt> Send(PeerId peer, const std::string& name, Invoke mode,
                             std::span<const std::uint64_t> args,
                             std::span<const std::uint8_t> usr,
                             std::uint16_t extra_flags = 0);
  StatusOr<SendReceipt> Send(const std::string& name, Invoke mode,
                             std::span<const std::uint64_t> args,
                             std::span<const std::uint8_t> usr,
                             std::uint16_t extra_flags = 0) {
    return Send(kDefaultPeer, name, mode, args, usr, extra_flags);
  }

  /// Frame length a Send of this shape would produce (bench sizing).
  StatusOr<FrameLayout> LayoutFor(const std::string& name, Invoke mode,
                                  std::uint64_t args_bytes,
                                  std::uint64_t usr_bytes) const;

  // ----------------------------------------------------------- receive

  /// Arms the receiver agent (idempotent).
  Status StartReceiver();

  /// Adversarial-testing surface (the fuzz suite): writes @p bytes
  /// verbatim into this receiver's inbound mailbox slot for @p from and
  /// schedules delivery — exactly what a compromised peer with the
  /// exchanged rkey could put on the wire, bypassing every sender-side
  /// packing invariant. Slots must be injected in bank order (the real
  /// transport delivers them that way); @p bytes must fit the slot. The
  /// frame then runs the normal validate/verify/invoke pipeline, so a
  /// hostile frame is expected to surface as a security_rejections tick
  /// and a returned bank flag, never as a stuck or crashed receiver.
  Status InjectRawFrame(PeerId from, std::uint32_t slot,
                        std::span<const std::uint8_t> bytes);

  // ------------------------------------------------------------ hotplug

  /// Takes pool member @p pool_index out of service: marks it draining,
  /// lets its one in-flight frame (if any) complete, and re-shards every
  /// bank homed to it onto the surviving active cores — a *permanent*
  /// handoff (the survivors now own the banks' drains and flag returns),
  /// not a revertible steal. With domain_aware_placement on, re-shard
  /// targets prefer survivors in the bank's own memory domain and fall
  /// back across the interconnect. A bank mid-frame re-homes the moment
  /// its frame completes, so in-bank order and exactly-once execution
  /// survive the hotplug. Returns the stranded backlog handed over:
  /// frames delivered but not yet executed on the quiescing core's banks
  /// (also accumulated in RuntimeStats::frames_drained_during_quiesce).
  /// Fails when the member is already draining/quiesced or when it is the
  /// last active core (the pool must keep at least one survivor).
  StatusOr<std::uint64_t> QuiesceCore(std::uint32_t pool_index);

  /// Brings a quiesced (or still-draining — the drain is simply called
  /// off) pool member back: restores the original affinity map by
  /// re-homing every bank whose affinity owner is @p pool_index back to
  /// it (banks re-sharded away from *other*, still-quiesced cores stay
  /// where they are). Mid-frame banks re-home at frame completion, like
  /// the quiesce path. Fails when the member is already active.
  Status ReviveCore(std::uint32_t pool_index);

  /// Lifecycle state of pool member @p pool_index (bounds-checked, like
  /// the QuiesceCore/ReviveCore mutators it pairs with).
  PoolCoreState pool_core_state(std::uint32_t pool_index) const {
    return pool_.at(pool_index).state;
  }
  /// Pool members currently in PoolCoreState::kActive.
  std::uint32_t ActivePoolCores() const noexcept;
  /// Inbound banks (across every peer's slice) whose current home is pool
  /// member @p pool_index. Zero for a quiesced member once its in-flight
  /// bank (if any) finished re-homing.
  std::uint32_t BanksHomedTo(std::uint32_t pool_index) const noexcept;
  /// Bank re-homes deferred behind an in-flight frame and not yet applied.
  /// Zero whenever the runtime is drained.
  std::uint32_t PendingRehomes() const noexcept;

  /// Hook invoked (in simulated time) after each message completes.
  void SetOnExecuted(std::function<void(const ReceivedMessage&)> cb) {
    on_executed_ = std::move(cb);
  }

  /// Interference hook: extra delay injected before each message is
  /// processed (models scheduler preemption of the receiver thread by a
  /// co-located stress workload — the Figures 11/12 setup). Return 0 for
  /// "not preempted this time".
  void SetPreemptionHook(std::function<PicoTime()> hook) {
    preemption_hook_ = std::move(hook);
  }

  // ------------------------------------------------------------- intro

  net::Host& host() noexcept { return host_; }        ///< owning host
  sim::Engine& engine() noexcept { return engine_; }  ///< shared engine
  /// The configuration in force (post-Initialize clamping).
  const RuntimeConfig& config() const noexcept { return config_; }
  /// Whole-runtime counters (see RuntimeStats for the ledger contracts).
  const RuntimeStats& stats() const noexcept { return stats_; }
  /// Jam-cache counters (see JamCacheStats for the ledger contracts).
  const JamCacheStats& jam_cache_stats() const noexcept { return jam_stats_; }
  /// Images currently resident in the receiver-side jam cache.
  std::uint32_t JamCacheSize() const noexcept {
    return static_cast<std::uint32_t>(jam_cache_.size());
  }
  /// Bytes of receiver memory the cached images occupy right now.
  std::uint64_t JamCacheResidentBytes() const noexcept {
    return jam_cache_bytes_;
  }
  /// True when the sender believes @p peer holds the cached image of jam
  /// @p name (i.e. the next Send would go by-handle). False for unknown
  /// jams or peers.
  bool PeerHasJamHandle(PeerId peer, const std::string& name) const noexcept;
  /// Number of connected peers (== size of stats().per_peer).
  std::uint32_t peer_count() const noexcept {
    return static_cast<std::uint32_t>(peers_.size());
  }
  /// The PeerId under which @p other is connected, or kInvalidPeer.
  PeerId PeerIdOf(const Runtime& other) const noexcept;
  /// This host's symbol namespace (ried/local exports + natives).
  jelf::HostNamespace& ns() noexcept { return ns_; }
  /// Native functions callable from jams (tc_print_*, etc).
  vm::NativeTable& natives() noexcept { return natives_; }
  /// Output of tc_print_* natives executed on this host.
  const std::string& print_output() const noexcept { return print_sink_; }
  /// The first pool core. With a widened pool this sees only core 0's
  /// share of the drain — use receiver_cpu(i) / ReceiverPoolCounters()
  /// for per-member or whole-pool numbers.
  cpu::CpuCore& receiver_cpu() { return host_.core(config_.receiver_core); }
  /// The core sends are charged to (pack + protocol setup).
  cpu::CpuCore& sender_cpu() { return host_.core(config_.sender_core); }
  /// Size of the receiver pool (after Initialize clamped the config).
  std::uint32_t receiver_pool_size() const noexcept {
    return static_cast<std::uint32_t>(pool_.size());
  }
  /// Counters summed across every pool core — the whole receiver's work
  /// regardless of pool width.
  cpu::PerfCounters ReceiverPoolCounters() const;
  /// The CPU core pool member @p pool_index executes on.
  cpu::CpuCore& receiver_cpu(std::uint32_t pool_index) {
    return host_.core(pool_[pool_index].core_id);
  }
  /// Idle/wakeup ledger of pool member @p pool_index.
  const cpu::WaitStats& receiver_wait_stats(std::uint32_t pool_index) const {
    return pool_[pool_index].wait_stats;
  }
  /// True when work stealing is actually armed: config_.steal.enabled and
  /// the pool has at least two cores. A single-core pool never allocates
  /// steal state (claim tables, steal queues) — enabling stealing there is
  /// a documented no-op.
  bool stealing_active() const noexcept { return stealing_active_; }
  /// Banks pool member @p pool_index currently claims via steal (stolen
  /// backlog not yet cleared). Zero at quiescence: every stolen claim
  /// reverts to the affinity owner when its bank's flag goes home or the
  /// bank has no delivered frames left.
  std::uint32_t StolenBanksHeld(std::uint32_t pool_index) const noexcept {
    return static_cast<std::uint32_t>(pool_[pool_index].stolen_banks.size());
  }
  /// The steal threshold actually in force: config value clamped to the
  /// total inbound capacity across connected peers (an unreachable
  /// threshold would be a dead config, not conservative stealing).
  std::uint32_t EffectiveStealThreshold() const noexcept {
    return std::min(config_.steal.threshold, std::max(1u, MaxStealBacklog()));
  }
  /// The hysteresis margin actually in force (same clamp as the
  /// threshold).
  std::uint32_t EffectiveStealHysteresis() const noexcept {
    return std::min(config_.steal.hysteresis, MaxStealBacklog());
  }
  /// Frames delivered into this runtime's mailboxes and not yet fully
  /// processed (including any a pool core is currently executing). Zero at
  /// drain — the mailbox-leak invariant the soak suite asserts.
  std::uint64_t InFlightFrames() const noexcept;
  /// Outbound banks toward @p peer whose flag has not come back yet. Zero
  /// at drain: every filled bank was recycled by the receiver.
  std::uint32_t ClosedSendBanks(PeerId peer) const noexcept;
  /// Reads a value from this host's memory (test/bench verification).
  StatusOr<std::uint64_t> PeekU64(const std::string& symbol,
                                  std::uint64_t index = 0) const;

  // --------------------------------------------- adaptive flow control

  /// Current adaptive congestion window toward @p peer, in milli-banks
  /// (banks * 1000 when the adaptive config is off).
  std::uint64_t AdaptiveWindowMilli(PeerId peer) const {
    return peers_.at(peer).cwnd_milli;
  }
  /// Observed window bounds since Connect — the harness invariant is that
  /// both always lie within [1, banks] * 1000.
  std::uint64_t AdaptiveWindowMinMilli(PeerId peer) const {
    return peers_.at(peer).cwnd_min_seen;
  }
  std::uint64_t AdaptiveWindowMaxMilli(PeerId peer) const {
    return peers_.at(peer).cwnd_max_seen;
  }
  /// Most recent / smallest bank-flag round-trip observed from @p peer
  /// (0 until the first flag returns).
  PicoTime LastFlagRtt(PeerId peer) const { return peers_.at(peer).rtt_last; }
  PicoTime MinFlagRtt(PeerId peer) const { return peers_.at(peer).rtt_min; }

  /// Test surface: writes @p word into this sender's local flag mirror for
  /// (@p peer, @p bank) and runs the flag-return path on it — exactly what
  /// the peer's inline flag put would do. Lets directed tests forge an ECN
  /// echo (bit 2) and watch the AIMD decrease without building a congested
  /// switch fabric.
  Status InjectFlagWordForTest(PeerId peer, std::uint32_t bank,
                               std::uint64_t word);

 private:
  struct ElementInfo {
    pkg::ElementKind kind;
    std::uint32_t elem_id = 0;
    std::string name;
    jelf::LinkedImage injected_image;     // jams
    std::vector<std::uint8_t> code_blob;  // text..rodata, frame CODE bytes
    std::uint64_t entry_offset = 0;       // within the injected blob
    mem::VirtAddr local_entry = 0;        // in the local library (receiver)
    mem::VirtAddr receiver_got = 0;       // hardened: receiver-side table
    /// Content handle (jelf::ComputeJamHandle over code_blob + GOT shape),
    /// memoized at LoadPackage. Zero for rieds.
    std::uint64_t content_handle = 0;
  };

  /// One resident jam-cache entry: the pre-linked image plus the ledger
  /// the eviction policy and the savings accounting read.
  struct JamCacheEntry {
    jelf::CachedJamImage image;
    std::uint32_t elem_id = 0;
    std::uint64_t entry_offset = 0;  // within the code blob
    std::uint64_t text_size = 0;     // verifiable prefix of the code blob
    std::uint64_t invokes = 0;       // hits served (eviction key)
    std::uint64_t last_used = 0;     // monotonic use tick (tie-break)
    Cycles cold_link_cycles = 0;     // per-invoke link cost a hit skips
  };

  struct ReadyFrame {
    PeerId peer = kInvalidPeer;
    std::uint32_t slot = 0;
    PicoTime delivered_at = 0;
    /// Pool member processing this frame (set when the frame is claimed).
    std::uint32_t pool = 0;
  };

  /// One member of the receiver pool: a core with its own wait loop,
  /// execution stack, and idle bookkeeping, serving the banks sharded
  /// to it.
  struct PoolCore {
    std::uint32_t core_id = 0;
    std::unique_ptr<cpu::WaitModel> wait_model;
    cpu::WaitStats wait_stats;
    mem::VirtAddr stack_top = 0;
    bool processing = false;
    /// Hotplug lifecycle (QuiesceCore / ReviveCore). Only kActive members
    /// scan bank heads, steal, or receive re-sharded banks.
    PoolCoreState state = PoolCoreState::kActive;
    std::optional<PicoTime> idle_since;
    /// Steal queue: banks this core claimed from a sibling and has not yet
    /// drained through flag return (claim reverts to the affinity owner at
    /// that point). Populated only while stealing is active.
    std::vector<std::pair<PeerId, std::uint32_t>> stolen_banks;
    /// Schmitt-trigger state: true while this core's steals keep
    /// succeeding, so re-stealing needs only `threshold` backlog; a failed
    /// steal scan disarms it, raising the bar back to
    /// `threshold + hysteresis`.
    bool steal_armed = false;
  };

  /// Everything this runtime holds per connected peer: the outbound path
  /// (endpoint, staging ring, bank-flag mirror, remote mailbox windows,
  /// remote namespace) and the inbound path (this runtime's mailbox bank
  /// slices that the peer writes, plus where to return that peer's bank
  /// flags). Mailbox banks are allocated and registered *per bank* so each
  /// bank can live in the memory domain of the pool core that owns it.
  struct PeerState {
    Runtime* runtime = nullptr;
    PeerId remote_id = kInvalidPeer;  ///< our slot in the peer's table
    std::unique_ptr<ucxs::Endpoint> endpoint;

    // Outbound: sending to this peer.
    std::vector<mem::VirtAddr> remote_bank_base;  ///< peer memory, per bank
    std::vector<mem::RKey> remote_bank_rkey;
    mem::VirtAddr staging_base = 0;         ///< own memory
    mem::VirtAddr flag_base = 0;   ///< own memory; the peer sets these words
    mem::RKey flag_rkey_own;
    std::vector<std::uint8_t> bank_open;  ///< local mirror of flag words
    std::uint32_t send_bank = 0;     ///< bank currently being filled
    std::uint32_t send_in_bank = 0;  ///< next slot within send_bank
    std::vector<std::function<void()>> slot_waiters;
    // Adaptive bank flow control, sender side (allocated/maintained only
    // while config_.adaptive.enabled; see AdaptiveBankConfig).
    /// Congestion window over closed banks, in milli-banks. Invariant:
    /// within [1, banks] * 1000 at all times.
    std::uint64_t cwnd_milli = 0;
    std::uint64_t cwnd_min_seen = 0;  ///< observed window low-water mark
    std::uint64_t cwnd_max_seen = 0;  ///< observed window high-water mark
    /// When each bank was closed (engine time; 0 = not closed): the
    /// flag-return RTT sample is now - bank_close_at[bank].
    std::vector<PicoTime> bank_close_at;
    PicoTime rtt_last = 0;  ///< most recent flag-return RTT
    PicoTime rtt_min = 0;   ///< smallest RTT seen (0 until first sample)
    /// One multiplicative decrease per RTT: echoes before this instant
    /// belong to the congestion event already acted on.
    PicoTime ecn_hold_until = 0;
    std::map<std::string, std::uint64_t> remote_ns;  ///< peer exports
    /// Content handles this sender believes the peer's jam cache holds
    /// (populated by the first full-body send, pruned by NAKs, cleared on
    /// namespace re-sync). Only populated while the cache is enabled.
    std::set<std::uint64_t> peer_handles;
    /// In-flight by-handle sends by slot: what to resend full-body if the
    /// returned bank flag NAKs the slot. Entries retire when the flag
    /// comes home (NAK or not). Survives namespace re-syncs on purpose —
    /// a post-sync NAK must still find its resend recipe.
    struct PendingByHandle {
      std::string name;
      std::uint64_t handle = 0;
      std::vector<std::uint64_t> args;
      std::vector<std::uint8_t> usr;
      std::uint16_t extra_flags = 0;
    };
    std::map<std::uint32_t, PendingByHandle> pending_by_handle;

    // Inbound: receiving from this peer.
    std::vector<mem::VirtAddr> bank_base;  ///< own memory; the peer puts here
    std::vector<mem::RKey> bank_rkey_own;
    mem::VirtAddr peer_flag_base = 0;  ///< peer memory (flag return target)
    mem::RKey peer_flag_rkey;
    /// Next in-bank slot to serve, per bank (frames stay ordered within a
    /// bank; banks are independent so the pool can drain them in parallel).
    std::vector<std::uint32_t> bank_cursor;
    std::map<std::uint32_t, ReadyFrame> ready;  ///< by slot
    /// Current *home* of each bank: the pool member that owns its drain
    /// and flag return. Starts at the affinity owner (PoolIndexFor) and
    /// moves only through hotplug re-sharding (QuiesceCore migrates it to
    /// a survivor, ReviveCore restores it) — a steal never touches it.
    std::vector<std::uint32_t> bank_home;
    /// Deferred re-home target for a bank whose frame was in flight when a
    /// quiesce/revive wanted to move it (kInvalidPoolIndex otherwise); the
    /// handoff applies the moment the frame completes, preserving the
    /// "a bank mid-frame never changes hands" rule.
    std::vector<std::uint32_t> bank_pending_home;
    /// Pool member currently claiming each bank (home owner unless
    /// stolen). Allocated only while stealing is active — a 1-core pool or
    /// steal-off run carries no steal-claim state at all.
    std::vector<std::uint32_t> bank_claim;
    /// 1 while a frame of this bank is being processed. Guards every
    /// handoff — steal and re-shard alike: a bank mid-frame cannot change
    /// hands, so no two cores ever serve the same bank concurrently and
    /// the head is never double-begun.
    std::vector<std::uint8_t> bank_in_flight;
    /// Delivered-and-unprocessed frames per bank — kept in lockstep with
    /// `ready` so steal/re-shard decisions read per-holder backlog in O(1)
    /// instead of re-counting the map on every event.
    std::vector<std::uint32_t> bank_ready;
    /// Per-bank NAK accumulator: bit i set when the frame in in-bank slot
    /// i was a by-handle cache miss. Rides home in bits [32, 64) of the
    /// bank flag word at flag-return time, then clears. Allocated only
    /// while the jam cache is enabled.
    std::vector<std::uint32_t> bank_nak_mask;
    /// Receiver-side ECN accumulator: 1 when a frame of this bank arrived
    /// carrying a switch mark; echoed home as bit 2 of the bank's flag
    /// word at return time, then cleared. Allocated only while the
    /// adaptive config is enabled.
    std::vector<std::uint8_t> bank_ecn;
  };

  std::uint32_t TotalSlots() const {
    return config_.banks * config_.mailboxes_per_bank;
  }
  /// Largest ready backlog one claim holder could accumulate: every slot
  /// of every connected peer's inbound slice.
  std::uint32_t MaxStealBacklog() const noexcept {
    return static_cast<std::uint32_t>(peers_.size()) * config_.banks *
           config_.mailboxes_per_bank;
  }
  mem::VirtAddr SlotAddr(const PeerState& peer, std::uint32_t slot) const {
    return peer.bank_base[slot / config_.mailboxes_per_bank] +
           static_cast<std::uint64_t>(slot % config_.mailboxes_per_bank) *
               config_.mailbox_slot_bytes;
  }
  mem::VirtAddr StagingAddr(const PeerState& peer, std::uint32_t slot) const {
    return peer.staging_base + static_cast<std::uint64_t>(slot) *
                                   config_.mailbox_slot_bytes;
  }

  /// Allocates this side's resources for a new peer (mailbox slice, flags,
  /// staging, endpoint); address exchange happens in Connect().
  StatusOr<PeerId> AttachPeer(Runtime& remote);

  StatusOr<const ElementInfo*> FindElement(const std::string& name) const;

  /// The pool member whose *affinity* (peer, bank) is — the stable default
  /// home, so a bank's frames always land in the cache next to the core
  /// that executes them. The peer offset staggers different peers'
  /// same-numbered banks across cores, so shallow traffic from many peers
  /// still spreads. Hotplug re-sharding overrides this per bank via
  /// bank_home; ReviveCore restores it.
  std::uint32_t PoolIndexFor(PeerId peer, std::uint32_t bank) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(peer) + bank) % pool_.size());
  }

  /// The pool member that currently *owns* (peer, bank): the affinity
  /// owner unless a quiesce re-sharded the bank to a survivor.
  std::uint32_t HomeOf(PeerId peer, std::uint32_t bank) const noexcept {
    return peers_[peer].bank_home[bank];
  }

  /// The pool member currently responsible for (peer, bank): the claim
  /// holder when stealing is active, the home owner otherwise.
  std::uint32_t ClaimOf(PeerId peer, std::uint32_t bank) const noexcept {
    return stealing_active_ ? peers_[peer].bank_claim[bank]
                            : peers_[peer].bank_home[bank];
  }

  // Receiver pipeline (each pool core runs its own instance).
  void OnFrameDelivered(PeerId from, std::uint32_t slot,
                        PicoTime delivered_at, bool ecn_marked = false);
  void OnBankFlag(PeerId peer, std::uint32_t bank);
  /// Sender-side admission gate: true when the adaptive window (or, with
  /// the adaptive config off, the plain bank budget) admits opening
  /// another bank toward this peer. Only consulted at bank boundaries.
  bool AdaptiveAdmits(const PeerState& peer) const noexcept;
  /// AIMD window update on a returned bank flag: samples the flag RTT
  /// from the bank's close stamp, shrinks multiplicatively on an ECN echo
  /// (at most once per RTT), grows additively on a clean return.
  void AdaptiveOnFlag(PeerState& peer, std::uint32_t bank, bool ece);
  void MaybeBeginNext(std::uint32_t pool_index);
  /// Earliest-delivered ready bank head among the banks @p pool_index
  /// claims, or nullptr. The returned pointer lives in a peer's ready map.
  const ReadyFrame* ScanBankHeads(std::uint32_t pool_index);
  /// Steal attempt for an idle @p thief: picks the most-loaded sibling
  /// (ready-frame backlog over its claimed banks, ties to the lowest pool
  /// index), and — if the backlog clears the hysteresis-adjusted threshold
  /// — claims that sibling's oldest ready bank head. Returns the stolen
  /// bank's head frame, or nullptr (which disarms the Schmitt trigger).
  const ReadyFrame* TrySteal(std::uint32_t thief);
  /// Removes (peer, bank) from every pool member's steal queue (claim
  /// handoffs migrate the entry; releases retire it).
  void DropFromStealQueues(PeerId peer, std::uint32_t bank);
  /// Reverts (peer, bank) to its home owner and drops it from any
  /// steal queue — called when the bank's flag returns (fully drained)
  /// or its stolen backlog empties out.
  void ReleaseBankClaim(PeerId peer, std::uint32_t bank);
  /// Re-shard target for a bank whose bytes live in @p preferred_domain:
  /// an active survivor in that domain when domain_aware_placement can
  /// find one, any active member otherwise, rotating a cursor through the
  /// candidate list for balance. Returns kInvalidPoolIndex when no member
  /// is active (callers guard against that before re-homing).
  std::uint32_t PickReshardTarget(std::uint32_t preferred_domain);
  /// Applies a bank-home migration *now*: moves the backlog ledger (and
  /// the steal claim, superseding any lease) to @p new_home and bumps the
  /// re-shard counters. Callers must ensure the bank is not mid-frame.
  void ApplyBankHome(PeerId peer, std::uint32_t bank, std::uint32_t new_home);
  /// Re-homes (peer, bank) to @p new_home: immediately when idle, else
  /// deferred until its in-flight frame completes (bank_pending_home).
  void RehomeBank(PeerId peer, std::uint32_t bank, std::uint32_t new_home);
  /// kDraining -> kQuiesced: releases every steal claim the member still
  /// holds so no bank stays parked on a core that will never scan again.
  void FinishQuiesce(std::uint32_t pool_index);
  /// MaybeBeginNext for every pool member except @p first (which already
  /// ran), in pool-index order: gives idle cores a deterministic steal
  /// opportunity whenever load lands or drains somewhere else.
  void OfferStealOpportunities(std::uint32_t first);
  void BeginProcess(const ReadyFrame& frame, PicoTime waited);
  void ProcessFrame(const ReadyFrame& frame);
  /// @p remote_penalty_cycles: cross-domain penalty the frame's processing
  /// paid (delta of the hierarchy's ledger across ProcessFrame).
  void CompleteFrame(const ReadyFrame& frame, const ReceivedMessage& msg,
                     Cycles cycles, std::uint64_t remote_penalty_cycles);
  /// Returns @p bank's flag to @p peer.
  Status ReturnBankFlag(PeerId peer, std::uint32_t bank);
  /// Puts @p word into @p peer's flag word for @p bank; the peer's
  /// OnBankFlag runs when the put completes.
  Status PutFlagWord(PeerState& peer, std::uint32_t bank, std::uint64_t word);
  /// The memory domain of pool member @p pool_index's core.
  std::uint32_t DomainOfPoolCore(std::uint32_t pool_index) const noexcept;

  /// Executes the frame body; returns cycles burned and fills @p msg.
  StatusOr<Cycles> InvokeFrame(const ReadyFrame& frame,
                               const FrameHeader& header,
                               ReceivedMessage& msg);

  /// Hardened mode: per-element receiver-side GOT table (installed by the
  /// pool core handling the frame).
  StatusOr<mem::VirtAddr> ReceiverGotFor(ElementInfo& elem,
                                         cpu::CpuCore& core);

  // ---------------------------------------------------------- jam cache

  /// By-handle invoke: serve the frame from the cached image (hit) or
  /// record a NAK for the slot (miss — no execution, no error).
  StatusOr<Cycles> InvokeByHandle(const ReadyFrame& frame,
                                  const FrameHeader& header,
                                  ReceivedMessage& msg);
  /// Memoizes @p elem's post-GOT-rewrite image under its content handle
  /// after a full-body injected invoke (evicting under capacity pressure).
  /// Returns the cycles the install cost (zero when already resident).
  StatusOr<Cycles> InstallInJamCache(ElementInfo& elem);
  /// Drops one cache entry, releasing its receiver memory. @p evicted
  /// routes the removal to the right counter (eviction vs invalidation).
  void DropJamCacheEntry(std::uint64_t handle, bool evicted);
  /// Flushes every cached image (namespace re-sync, shutdown).
  void FlushJamCache();
  /// Forgets every handle the peers are believed to hold (re-sync).
  void ForgetPeerHandles();
  /// Sender-side NAK handling: prune the peer's handle belief and resend
  /// the recorded by-handle frames full-body (retrying via
  /// NotifyWhenSlotFree under flow-control pressure). @p retire_served is
  /// true on a full-drain flag, where un-NAKed pending entries are known
  /// served; a mid-bank NAK push leaves them pending.
  void HandleNakMask(PeerId peer, std::uint32_t bank, std::uint32_t mask,
                     bool retire_served);
  /// Pushes @p bank's accumulated NAK bits to @p peer immediately in a
  /// NAK-only flag word (bit 0 clear — the bank is not reopened). Used
  /// when a by-handle miss lands mid-bank, so the full-body resend does
  /// not have to wait for the drain flag.
  Status SendNakFlag(PeerId peer, std::uint32_t bank);
  /// One NAKed invoke's full-body resend (parks on NotifyWhenSlotFree
  /// when flow control refuses it right now).
  void ResendAfterNak(PeerId peer, PeerState::PendingByHandle entry);
  /// The per-invoke link cost a cache hit skips for @p elem: sender GOTP
  /// pack plus whatever the security mode adds (verification, receiver
  /// GOT install, permission flips).
  Cycles ColdLinkCyclesFor(const ElementInfo& elem) const noexcept;
  /// The interpreter config for one invoke: config_.exec, plus — when
  /// security.confine_control_flow is on — exec windows covering the
  /// frame's (or cached image's) code span and every loaded library, the
  /// only memory a verified jam may legitimately fetch instructions from.
  vm::ExecConfig ConfinedExec(mem::VirtAddr code_base,
                              std::uint64_t code_size) const;

  sim::Engine& engine_;
  net::Host& host_;
  net::Nic& nic_;
  ucxs::Worker& worker_;
  RuntimeConfig config_;

  /// The receiver pool (size config_.receiver_cores after clamping); each
  /// member owns its wait model, execution stack, and idle state.
  std::vector<PoolCore> pool_;

  std::vector<PeerState> peers_;

  jelf::HostNamespace ns_;
  vm::NativeTable natives_;
  std::string print_sink_;
  std::vector<ElementInfo> elements_;
  std::vector<jelf::LoadedLibrary> loaded_libraries_;
  /// Exec windows of loaded_libraries_ (rebuilt at LoadPackage), appended
  /// to every confined invoke so jalr through the GOT still reaches rieds.
  std::vector<vm::MemWindow> library_windows_;

  std::uint32_t next_sn_ = 1;

  // Receiver state (per-core state lives in pool_).
  bool receiver_started_ = false;
  /// steal.enabled resolved against the actual pool width at Initialize.
  bool stealing_active_ = false;
  /// Ready-frame backlog per pool member over the banks it claims —
  /// maintained on delivery, completion, and claim handoff, so TrySteal's
  /// victim pick is O(pool) instead of a (peer, bank) sweep. Invariant
  /// while stealing is active:
  /// claim_backlog_[j] == sum of bank_ready over banks with claim j
  /// (without stealing, claims never move, so the sum runs over j's
  /// homed banks). Always allocated (one entry per pool member).
  std::vector<std::uint64_t> claim_backlog_;
  /// Rotates through re-shard candidates so a quiesced core's banks spread
  /// across the survivors instead of piling on one (advanced only by
  /// PickReshardTarget, so runs stay deterministic).
  std::uint32_t reshard_cursor_ = 0;

  // Receiver-side jam cache: content handle -> pre-linked image. The use
  // tick is a monotonic counter (not engine time) so eviction order is
  // independent of timing model changes.
  std::map<std::uint64_t, JamCacheEntry> jam_cache_;
  std::uint64_t jam_cache_tick_ = 0;
  std::uint64_t jam_cache_bytes_ = 0;

  std::function<void(const ReceivedMessage&)> on_executed_;
  std::function<PicoTime()> preemption_hook_;
  RuntimeStats stats_;
  JamCacheStats jam_stats_;
  bool initialized_ = false;
};

}  // namespace twochains::core
