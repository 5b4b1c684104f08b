#include "core/runtime.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "common/strfmt.hpp"
#include "jamvm/verifier.hpp"

namespace twochains::core {

namespace {

// Fixed bookkeeping costs (cycles).
constexpr Cycles kValidateCycles = 30;   // header/signal validation per frame
constexpr Cycles kDispatchCycles = 40;   // local invoke via the element vector
constexpr Cycles kPackBaseCycles = 40;   // fixed pack cost per send
constexpr Cycles kGotLookupCycles = 18;  // per GOTP slot packed / installed
constexpr Cycles kMprotectCycles = 700;  // per permission flip (split pages)
constexpr Cycles kJamCacheInstallCycles = 60;  // hash probe + insert

// AIMD shape of the adaptive bank window, in milli-banks: the floor keeps
// one bank admissible, a clean flag return re-opens a quarter bank, and an
// ECN echo halves the window.
constexpr std::uint64_t kAdaptiveFloorMilli = 1000;
constexpr std::uint64_t kAdaptiveIncreaseMilli = 250;
constexpr std::uint64_t kAdaptiveDecreaseBetaMilli = 500;

/// Builds the contiguous injectable blob (text .. rodata, padded) from a
/// jam image — the CODE section of an Injected Function frame.
std::vector<std::uint8_t> CodeBlobOf(const jelf::LinkedImage& image) {
  std::vector<std::uint8_t> blob(image.code_blob_size(), 0);
  std::memcpy(blob.data(), image.text.data(), image.text.size());
  if (!image.rodata.empty()) {
    std::memcpy(blob.data() + image.rodata_offset, image.rodata.data(),
                image.rodata.size());
  }
  return blob;
}

}  // namespace

Runtime::Runtime(sim::Engine& engine, net::Host& host, net::Nic& nic,
                 ucxs::Worker& worker, RuntimeConfig config)
    : engine_(engine), host_(host), nic_(nic), worker_(worker),
      config_(std::move(config)) {}

Status Runtime::Initialize() {
  if (initialized_) return FailedPrecondition("already initialized");
  config_.exec.enforce_exec_permission =
      config_.security.enforce_exec_permission;

  // Receiver pool: cores receiver_core .. receiver_core+receiver_cores-1,
  // validated against the cache model's core count (the host builds one
  // cpu::CpuCore per cache::HierarchyConfig core, so a pool wider than
  // that would silently model cores the cache hierarchy does not have).
  // Each member gets its own wait model (its core's clock domain) and its
  // own execution stack so pool cores can execute jams concurrently in
  // simulated time.
  const std::uint32_t model_cores = host_.caches().config().cores;
  if (config_.receiver_cores == 0) config_.receiver_cores = 1;
  if (config_.receiver_core >= model_cores) {
    TC_WARN << "receiver_core " << config_.receiver_core
            << " out of range (cache model has " << model_cores
            << " cores); clamping to 0";
    config_.receiver_core = 0;
  }
  const std::uint32_t max_pool = model_cores - config_.receiver_core;
  if (config_.receiver_cores > max_pool) {
    TC_WARN << "receiver pool of " << config_.receiver_cores
            << " does not fit above core " << config_.receiver_core
            << " on a " << model_cores << "-core host; clamping to "
            << max_pool;
    config_.receiver_cores = max_pool;
  }
  if (config_.sender_core >= model_cores) {
    TC_WARN << "sender_core " << config_.sender_core
            << " out of range (cache model has " << model_cores
            << " cores); clamping to " << model_cores - 1;
    config_.sender_core = model_cores - 1;
  }
  // sender_core == receiver_core is the paper's deliberate single-threaded
  // perftest shape, but a *widened* pool swallowing the sender core is
  // almost certainly a misconfiguration: sends would double-book simulated
  // core time with a pool waiter and skew that core's counters.
  if (config_.receiver_cores > 1 &&
      config_.sender_core >= config_.receiver_core &&
      config_.sender_core < config_.receiver_core + config_.receiver_cores) {
    TC_WARN << "sender_core " << config_.sender_core
            << " lies inside the receiver pool [" << config_.receiver_core
            << ", " << config_.receiver_core + config_.receiver_cores
            << "); sends will share a core with a pool waiter — set "
               "sender_core outside the pool unless this is intentional";
  }
  // Steal config: resolve against the clamped pool width and bound the
  // trigger values so a bad config degrades to "no stealing" or
  // "steal on any backlog" instead of claim churn or a dead knob.
  stealing_active_ = config_.steal.enabled && config_.receiver_cores > 1;
  if (config_.steal.enabled && config_.receiver_cores == 1) {
    TC_WARN << "work stealing enabled on a 1-core receiver pool — nothing "
               "to steal from; disabling (no steal state allocated)";
  }
  if (stealing_active_ && config_.steal.threshold == 0) {
    TC_WARN << "steal threshold 0 would hand claims around with no work "
               "behind them; clamping to 1";
    config_.steal.threshold = 1;
  }
  // Oversized threshold/hysteresis clamp at steal time instead (see
  // EffectiveStealThreshold): the bound is the capacity across *all*
  // peers' slices, and the peer table only fills at Connect.

  // Jam cache: the miss NAK mask rides in bits [32, 64) of the bank flag
  // word, one bit per in-bank slot, so the bank shape must fit it.
  if (config_.jam_cache.enabled && config_.mailboxes_per_bank > 32) {
    TC_WARN << "jam cache needs mailboxes_per_bank <= 32 (NAK mask bits); "
               "clamping " << config_.mailboxes_per_bank << " to 32";
    config_.mailboxes_per_bank = 32;
  }
  if (config_.jam_cache.enabled && config_.jam_cache.capacity == 0) {
    TC_WARN << "jam cache capacity 0 could never install an image; "
               "clamping to 1";
    config_.jam_cache.capacity = 1;
  }

  pool_.resize(config_.receiver_cores);
  claim_backlog_.assign(config_.receiver_cores, 0);
  for (std::uint32_t i = 0; i < config_.receiver_cores; ++i) {
    PoolCore& member = pool_[i];
    member.core_id = config_.receiver_core + i;
    member.wait_model = std::make_unique<cpu::WaitModel>(
        config_.wait, host_.core(member.core_id).clock());
    // The execution stack lives in the pool core's own memory domain so
    // jam locals never cross the interconnect (hint 0 = flat placement).
    const mem::DomainId stack_domain =
        config_.domain_aware_placement ? DomainOfPoolCore(i) : 0;
    TC_ASSIGN_OR_RETURN(
        const mem::VirtAddr stack,
        host_.memory().Allocate(KiB(256), 16, mem::Perm::kRW,
                                StrFormat("tc:recv-stack:c%u",
                                          member.core_id),
                                stack_domain));
    member.stack_top = stack + KiB(256);
  }

  TC_RETURN_IF_ERROR(
      vm::RegisterStandardNatives(natives_, {&print_sink_}));
  for (std::uint32_t i = 0; i < natives_.size(); ++i) {
    TC_RETURN_IF_ERROR(ns_.Define(std::string(natives_.NameOf(i)),
                                  vm::MakeNativeHandle(i)));
  }

  initialized_ = true;
  return Status::Ok();
}

StatusOr<PeerId> Runtime::AttachPeer(Runtime& remote) {
  const PeerId id = static_cast<PeerId>(peers_.size());
  auto& memory = host_.memory();
  const std::uint64_t mailbox_bytes =
      static_cast<std::uint64_t>(TotalSlots()) * config_.mailbox_slot_bytes;
  const std::uint64_t bank_bytes =
      static_cast<std::uint64_t>(config_.mailboxes_per_bank) *
      config_.mailbox_slot_bytes;
  const std::string suffix = StrFormat(":p%u", id);

  PeerState peer;
  peer.runtime = &remote;

  // Bank homes: the affinity owner, unless that member is quiesced right
  // now — a peer can connect mid-hotplug — in which case the bank starts
  // life on a survivor (ReviveCore later restores the affinity map).
  peer.bank_home.reserve(config_.banks);
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    const std::uint32_t affinity = PoolIndexFor(id, b);
    std::uint32_t home = affinity;
    if (pool_[affinity].state != PoolCoreState::kActive) {
      home = PickReshardTarget(DomainOfPoolCore(affinity));
      if (home == kInvalidPoolIndex) home = affinity;  // pre-StartReceiver
    }
    peer.bank_home.push_back(home);
  }
  peer.bank_pending_home.assign(config_.banks, kInvalidPoolIndex);

  // Reactive mailbox slice for this peer: pinned, remotely writable, and
  // (paper default) executable — "we ... mark all mailbox pages with read,
  // write, and execute permissions" (§III-A). One allocation + rkey per
  // bank, each placed in the memory domain of the pool core that owns the
  // bank, so the NIC's stash lands in the LLC slice next to the core that
  // will drain it (flat placement with the knob off: everything domain 0).
  peer.bank_base.reserve(config_.banks);
  peer.bank_rkey_own.reserve(config_.banks);
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    const mem::DomainId bank_domain =
        config_.domain_aware_placement
            ? DomainOfPoolCore(peer.bank_home[b])
            : 0;
    const std::string tag = StrFormat("tc:mailboxes:p%u:b%u", id, b);
    TC_ASSIGN_OR_RETURN(const mem::VirtAddr base,
                        memory.Allocate(bank_bytes, mem::kPageSize,
                                        mem::Perm::kRWX, tag, bank_domain));
    TC_ASSIGN_OR_RETURN(const mem::RKey rkey,
                        host_.regions().RegisterRegion(
                            base, bank_bytes, mem::RemoteAccess::kWrite,
                            tag));
    peer.bank_base.push_back(base);
    peer.bank_rkey_own.push_back(rkey);
  }

  // Sender-side bank flags for this peer, set remotely by its receiver;
  // the sender's core polls them, so they live in its domain.
  const mem::DomainId sender_domain =
      config_.domain_aware_placement
          ? host_.caches().config().DomainOfCore(config_.sender_core)
          : 0;
  TC_ASSIGN_OR_RETURN(peer.flag_base,
                      memory.Allocate(config_.banks * 8ull, 64,
                                      mem::Perm::kRW,
                                      "tc:bank-flags" + suffix,
                                      sender_domain));
  TC_ASSIGN_OR_RETURN(peer.flag_rkey_own,
                      host_.regions().RegisterRegion(
                          peer.flag_base, config_.banks * 8ull,
                          mem::RemoteAccess::kWrite,
                          "tc:bank-flags" + suffix));
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    TC_RETURN_IF_ERROR(memory.StoreU64(peer.flag_base + 8ull * b, 1));
  }
  peer.bank_open.assign(config_.banks, 1);

  // Send staging ring toward this peer (one slot per mailbox), packed by
  // the sender core — its domain.
  TC_ASSIGN_OR_RETURN(peer.staging_base,
                      memory.Allocate(mailbox_bytes, mem::kPageSize,
                                      mem::Perm::kRW, "tc:staging" + suffix,
                                      sender_domain));

  // One endpoint per peer, targeting the peer's NIC (kUser mode: the
  // runtime's own bank flow control, not UCX's).
  peer.endpoint = std::make_unique<ucxs::Endpoint>(
      worker_, ucxs::PutMode::kUser, &remote.nic_);

  peer.bank_cursor.assign(config_.banks, 0);
  // in_flight guards every handoff (steal and re-shard); ready feeds the
  // O(1) backlog ledger. Both always exist; only the steal-claim table is
  // gated on stealing.
  peer.bank_in_flight.assign(config_.banks, 0);
  peer.bank_ready.assign(config_.banks, 0);
  if (config_.jam_cache.enabled) {
    peer.bank_nak_mask.assign(config_.banks, 0);
  }
  if (stealing_active_) {
    // Claims start at the home owner.
    peer.bank_claim = peer.bank_home;
  }
  // Adaptive window state: starts wide open at the full bank budget.
  peer.cwnd_milli = static_cast<std::uint64_t>(config_.banks) * 1000;
  peer.cwnd_min_seen = peer.cwnd_milli;
  peer.cwnd_max_seen = peer.cwnd_milli;
  if (config_.adaptive.enabled) {
    peer.bank_close_at.assign(config_.banks, 0);
    peer.bank_ecn.assign(config_.banks, 0);
  }

  peers_.push_back(std::move(peer));
  stats_.per_peer.emplace_back();
  return id;
}

StatusOr<std::pair<PeerId, PeerId>> Runtime::Connect(Runtime& a, Runtime& b) {
  if (!a.initialized_ || !b.initialized_) {
    return FailedPrecondition("initialize both runtimes before connecting");
  }
  if (&a == &b) return InvalidArgument("cannot connect a runtime to itself");
  if (a.PeerIdOf(b) != kInvalidPeer) {
    return FailedPrecondition("runtimes already connected");
  }
  if (!a.nic_.CanReach(b.nic_)) {
    return FailedPrecondition(
        "NICs not reachable (net::Nic::ConnectTo or a switched uplink on "
        "both sides first)");
  }
  TC_ASSIGN_OR_RETURN(const PeerId id_of_b, a.AttachPeer(b));
  TC_ASSIGN_OR_RETURN(const PeerId id_of_a, b.AttachPeer(a));

  // Out-of-band address + rkey exchange (§V) — one window per mailbox
  // bank, since banks are placed (and registered) independently.
  PeerState& pa = a.peers_[id_of_b];
  PeerState& pb = b.peers_[id_of_a];
  pa.remote_id = id_of_a;
  pb.remote_id = id_of_b;
  pa.remote_bank_base = pb.bank_base;
  pa.remote_bank_rkey = pb.bank_rkey_own;
  pa.peer_flag_base = pb.flag_base;
  pa.peer_flag_rkey = pb.flag_rkey_own;
  pb.remote_bank_base = pa.bank_base;
  pb.remote_bank_rkey = pa.bank_rkey_own;
  pb.peer_flag_base = pa.flag_base;
  pb.peer_flag_rkey = pa.flag_rkey_own;
  return std::make_pair(id_of_b, id_of_a);
}

PeerId Runtime::PeerIdOf(const Runtime& other) const noexcept {
  for (PeerId i = 0; i < peers_.size(); ++i) {
    if (peers_[i].runtime == &other) return i;
  }
  return kInvalidPeer;
}

Status Runtime::LoadPackage(const pkg::Package& package, bool allow_reload) {
  if (!initialized_) return FailedPrecondition("not initialized");

  // Replace-in-place on reload: an element arriving under a name+kind that
  // is already loaded updates the existing table entry (keeping lookups
  // unambiguous) and invalidates any jam-cache image the old content left
  // behind — a reloaded jam must never execute its stale cached bytes.
  const auto upsert = [this](ElementInfo&& info) {
    for (auto& existing : elements_) {
      if (existing.name != info.name || existing.kind != info.kind) continue;
      if (existing.content_handle != 0 &&
          jam_cache_.contains(existing.content_handle)) {
        DropJamCacheEntry(existing.content_handle, /*evicted=*/false);
      }
      if (existing.receiver_got != 0) {
        (void)host_.memory().Free(existing.receiver_got);
      }
      existing = std::move(info);
      return;
    }
    elements_.push_back(std::move(info));
  };

  // Rieds first: they provide the interfaces jams link against.
  for (const auto& elem : package.elements) {
    if (elem.kind != pkg::ElementKind::kRied) continue;
    jelf::LoadOptions opts;
    opts.allow_export_override = allow_reload;
    opts.verify_code = config_.security.verify_injected_code;
    TC_ASSIGN_OR_RETURN(jelf::LoadedLibrary lib,
                        jelf::LoadLibrary(host_.memory(), elem.ried_image,
                                          ns_, opts));
    // Auto-init: "rieds ... are loaded and auto-initialized" (§IV-A).
    const std::string init_symbol = elem.entry_symbol + "_init";
    const auto init = lib.exports.find(init_symbol);
    if (init != lib.exports.end()) {
      vm::Interpreter interp(host_.memory(), host_.caches(),
                             config_.receiver_core, &natives_, config_.exec);
      const auto r = interp.Execute(init->second, {}, pool_[0].stack_top);
      if (!r.status.ok()) {
        return Status(r.status.code(),
                      StrFormat("ried init '%s' failed: %s",
                                init_symbol.c_str(),
                                r.status.message().c_str()));
      }
    }
    loaded_libraries_.push_back(std::move(lib));

    ElementInfo info;
    info.kind = elem.kind;
    info.elem_id = elem.element_id;
    info.name = elem.name;
    upsert(std::move(info));
  }

  // Jams: cache injectable images; load the Local Function library.
  std::optional<jelf::LoadedLibrary> local_lib;
  if (!package.local_library.text.empty()) {
    jelf::LoadOptions opts;
    opts.allow_export_override = allow_reload;
    opts.verify_code = config_.security.verify_injected_code;
    TC_ASSIGN_OR_RETURN(jelf::LoadedLibrary lib,
                        jelf::LoadLibrary(host_.memory(),
                                          package.local_library, ns_, opts));
    local_lib = std::move(lib);
  }
  for (const auto& elem : package.elements) {
    if (elem.kind != pkg::ElementKind::kJam) continue;
    // Layout validation must precede CodeBlobOf: a hostile package with
    // got_offset < text.size() would otherwise overflow the blob copy
    // (the blob is got_offset bytes, the memcpy is text.size()).
    TC_RETURN_IF_ERROR(jelf::ValidateImageLayout(elem.injected_image));
    ElementInfo info;
    info.kind = elem.kind;
    info.elem_id = elem.element_id;
    info.name = elem.name;
    info.injected_image = elem.injected_image;
    info.code_blob = CodeBlobOf(elem.injected_image);
    const auto entry = elem.injected_image.exports.find(elem.entry_symbol);
    if (entry == elem.injected_image.exports.end()) {
      return NotFound(StrFormat("jam '%s' lacks entry '%s'",
                                elem.name.c_str(),
                                elem.entry_symbol.c_str()));
    }
    info.entry_offset = entry->second.offset;
    info.content_handle = jelf::ComputeJamHandle(
        info.code_blob, elem.injected_image.got_symbols);
    if (local_lib.has_value()) {
      const auto local = local_lib->exports.find(elem.entry_symbol);
      if (local != local_lib->exports.end()) {
        info.local_entry = local->second;
      }
    }
    upsert(std::move(info));
  }
  if (local_lib.has_value()) {
    loaded_libraries_.push_back(std::move(*local_lib));
  }
  // Confinement windows track the library set (reloads keep old images
  // mapped, so stale GOT values that still point at them stay executable).
  library_windows_.clear();
  library_windows_.reserve(loaded_libraries_.size());
  for (const auto& lib : loaded_libraries_) {
    library_windows_.push_back(vm::MemWindow{lib.base, lib.size});
  }
  return Status::Ok();
}

Status Runtime::SyncNamespaces(Runtime& a, Runtime& b) {
  const PeerId a_to_b = a.PeerIdOf(b);
  const PeerId b_to_a = b.PeerIdOf(a);
  if (a_to_b == kInvalidPeer || b_to_a == kInvalidPeer) {
    return FailedPrecondition("runtimes not connected");
  }
  for (const auto& [name, value] : a.ns_.entries()) {
    b.peers_[b_to_a].remote_ns[name] = value;
  }
  for (const auto& [name, value] : b.ns_.entries()) {
    a.peers_[a_to_b].remote_ns[name] = value;
  }
  // Jam-cache invalidation rides the re-sync: whatever changed underneath
  // this sync (package reload, rebind) must not be served from a cached
  // image or addressed by a remembered handle. Each receiver flushes its
  // cache; each sender forgets every peer's handles (in-flight by-handle
  // sends keep their resend recipes, so a post-sync NAK still recovers).
  a.FlushJamCache();
  b.FlushJamCache();
  a.ForgetPeerHandles();
  b.ForgetPeerHandles();
  return Status::Ok();
}

StatusOr<const Runtime::ElementInfo*> Runtime::FindElement(
    const std::string& name) const {
  for (const auto& elem : elements_) {
    if (elem.name == name && elem.kind == pkg::ElementKind::kJam) {
      return &elem;
    }
  }
  return NotFound(StrFormat("jam '%s' (package not loaded?)", name.c_str()));
}

StatusOr<FrameLayout> Runtime::LayoutFor(const std::string& name, Invoke mode,
                                         std::uint64_t args_bytes,
                                         std::uint64_t usr_bytes) const {
  TC_ASSIGN_OR_RETURN(const ElementInfo* elem, FindElement(name));
  FrameSpec spec;
  spec.injected = mode == Invoke::kInjected;
  spec.args_size = args_bytes;
  spec.usr_size = usr_bytes;
  spec.split_code_data = config_.security.split_code_data_pages;
  if (spec.injected) {
    spec.got_slots = elem->injected_image.got_slot_count();
    spec.code_size = elem->code_blob.size();
  }
  return FrameLayout::Compute(spec);
}

std::uint32_t Runtime::DomainOfPoolCore(
    std::uint32_t pool_index) const noexcept {
  return host_.caches().config().DomainOfCore(pool_[pool_index].core_id);
}

bool Runtime::HasFreeSlot(PeerId peer) const {
  if (peer >= peers_.size()) return false;
  const PeerState& p = peers_[peer];
  // Opening another bank must also clear the adaptive congestion window
  // (mid-bank fills were admitted when their bank opened).
  if (p.send_in_bank == 0 && !AdaptiveAdmits(p)) return false;
  // Mid-bank the current bank is open by construction (it only closes when
  // its last slot is posted); at a bank boundary only the next bank in
  // strict rotation may start.
  return p.bank_open[p.send_bank] != 0;
}

void Runtime::NotifyWhenSlotFree(PeerId peer, std::function<void()> cb) {
  if (HasFreeSlot(peer)) {
    cb();
    return;
  }
  if (peer >= peers_.size()) return;  // never wired: nothing will free up
  peers_[peer].slot_waiters.push_back(std::move(cb));
}

StatusOr<SendReceipt> Runtime::Send(PeerId peer_id, const std::string& name,
                                    Invoke mode,
                                    std::span<const std::uint64_t> args,
                                    std::span<const std::uint8_t> usr,
                                    std::uint16_t extra_flags) {
  if (peer_id >= peers_.size()) {
    return FailedPrecondition(
        StrFormat("peer %u not wired (peer_count=%zu)", peer_id,
                  peers_.size()));
  }
  PeerState& peer = peers_[peer_id];
  PeerStats& pstats = stats_.per_peer[peer_id];
  TC_ASSIGN_OR_RETURN(const ElementInfo* elem, FindElement(name));

  // Bank choice: strict round-robin fills send_bank.
  const std::uint32_t in_bank = peer.send_in_bank;
  const std::uint32_t bank = peer.send_bank;
  if (peer.bank_open[bank] == 0) {
    ++stats_.send_stalls;
    ++pstats.send_stalls;
    return ResourceExhausted(StrFormat("bank %u flag not returned", bank));
  }
  // Adaptive admission: opening a fresh bank needs window headroom over
  // the banks already closed toward this peer (mid-bank fills ride the
  // admission their bank got).
  if (in_bank == 0 && !AdaptiveAdmits(peer)) {
    ++stats_.adaptive_refusals;
    ++stats_.send_stalls;
    ++pstats.send_stalls;
    return ResourceExhausted(
        StrFormat("adaptive window (%llu milli-banks) refuses a new bank",
                  static_cast<unsigned long long>(peer.cwnd_milli)));
  }
  const std::uint32_t slot = bank * config_.mailboxes_per_bank + in_bank;

  // ---- build the frame ------------------------------------------------
  FrameSpec spec;
  spec.injected = mode == Invoke::kInjected;
  spec.args_size = args.size() * 8;
  spec.usr_size = usr.size();
  spec.split_code_data = config_.security.split_code_data_pages;

  // Invoke-by-handle downgrade of the frame shape: when the jam cache is
  // on and this sender believes the peer already holds the jam's image,
  // GOTP/CODE stay home and an 8-byte content handle rides instead. The
  // belief can be stale (eviction, re-sync on the far side) — the
  // receiver then NAKs the slot in the bank flag and OnBankFlag resends
  // full-body, so a wrong guess costs one round trip, never an error.
  const bool by_handle = spec.injected && config_.jam_cache.enabled &&
                         (extra_flags & kFlagNoExecute) == 0 &&
                         peer.peer_handles.contains(elem->content_handle);

  std::vector<std::uint64_t> gotp;
  std::span<const std::uint8_t> code;
  if (by_handle) {
    spec.injected = false;
    spec.by_handle = true;
    spec.split_code_data = false;  // no code rides along — nothing to split
  } else if (spec.injected) {
    spec.got_slots = elem->injected_image.got_slot_count();
    spec.code_size = elem->code_blob.size();
    code = elem->code_blob;
    gotp.reserve(spec.got_slots);
    for (const auto& symbol : elem->injected_image.got_symbols) {
      if (config_.security.receiver_installs_got) {
        gotp.push_back(0);
        continue;
      }
      const auto it = peer.remote_ns.find(symbol);
      if (it == peer.remote_ns.end()) {
        return NotFound(StrFormat(
            "remote symbol '%s' unknown — namespaces not synchronized?",
            symbol.c_str()));
      }
      gotp.push_back(it->second);
    }
  }
  // Local invocation needs the *receiver's* library binding; that is
  // checked at receive time (the receiver owns its dispatch vector).

  FrameHeader header;
  header.sn = next_sn_++;
  header.elem_id = elem->elem_id;
  header.flags = extra_flags;
  // A by-handle frame is still an Injected Function invocation — the code
  // just lives in the receiver's cache instead of the frame.
  if (by_handle) header.flags |= kFlagInjected;

  std::vector<std::uint8_t> args_bytes(args.size() * 8);
  if (!args.empty()) {
    std::memcpy(args_bytes.data(), args.data(), args_bytes.size());
  }
  std::vector<std::uint8_t> frame;
  if (by_handle) {
    TC_ASSIGN_OR_RETURN(frame,
                        PackHandleFrame(spec, header, elem->content_handle,
                                        args_bytes, usr));
  } else {
    TC_ASSIGN_OR_RETURN(frame,
                        PackFrame(spec, header, gotp, code, args_bytes, usr));
  }
  const FrameLayout layout = FrameLayout::Compute(spec);
  if (frame.size() > config_.mailbox_slot_bytes) {
    return ResourceExhausted(
        StrFormat("frame (%zu B) exceeds mailbox slot (%llu B)", frame.size(),
                  static_cast<unsigned long long>(
                      config_.mailbox_slot_bytes)));
  }

  const mem::VirtAddr remote_slot_addr =
      peer.remote_bank_base[bank] +
      static_cast<std::uint64_t>(in_bank) * config_.mailbox_slot_bytes;
  if (spec.injected && !config_.security.receiver_installs_got) {
    // PRE -> the GOTP table as it will sit in the *receiver's* mailbox.
    TC_RETURN_IF_ERROR(
        PatchPreSlot(frame, layout, remote_slot_addr + layout.gotp_off));
  }

  // Stage the frame in sender memory (the NIC DMA-reads from here) and
  // charge the pack cost.
  const mem::VirtAddr staging = StagingAddr(peer, slot);
  TC_RETURN_IF_ERROR(host_.memory().DmaWrite(staging, frame));
  // Pack cost: the runtime writes the header, GOTP, PRE, code bytes, and
  // the signal word. The payload (ARGS/USR) is framed zero-copy — the
  // application produced it in place, exactly as a UCX perftest payload
  // sits pre-staged in the send buffer — so it is not charged per byte.
  Cycles pack_cycles =
      kPackBaseCycles + static_cast<Cycles>(spec.got_slots) * kGotLookupCycles;
  pack_cycles += host_.caches().Access(config_.sender_core, staging,
                                       layout.args_off == 0 ? kHeaderBytes
                                                            : layout.args_off,
                                       cache::AccessKind::kStore);
  pack_cycles += host_.caches().Access(config_.sender_core,
                                       staging + layout.sig_off, 8,
                                       cache::AccessKind::kStore);
  const PicoTime pack_time =
      sender_cpu().Charge(pack_cycles, cpu::CycleClass::kPack);

  // ---- post -----------------------------------------------------------
  // Packing happens on the sender CPU before the doorbell, so the actual
  // put is scheduled after the pack time.
  Runtime* peer_rt = peer.runtime;
  const PeerId our_id_at_peer = peer.remote_id;
  auto on_signal_delivered = [peer_rt, our_id_at_peer,
                              slot](const net::PutCompletion& c) {
    if (!c.status.ok()) {
      TC_WARN << "frame delivery failed: " << c.status;
      return;
    }
    peer_rt->OnFrameDelivered(our_id_at_peer, slot, c.delivered_at,
                              c.ecn_marked);
  };

  // Compute the protocol now (for the receipt); the endpoint recomputes it
  // at post time with the same inputs.
  ucxs::Endpoint* endpoint = peer.endpoint.get();
  const ucxs::Protocol protocol = endpoint->SelectProtocol(frame.size());
  const std::uint64_t frame_size = frame.size();
  const bool separate_signal = config_.separate_signal_put;
  const std::uint64_t sig_word = SignalWord(header.sn);
  const std::uint64_t sig_off = layout.sig_off;
  const PicoTime proto_overhead = endpoint->EstimateOverhead(frame.size());
  auto mailbox_rkey = peer.remote_bank_rkey[bank];
  // Homed to this host's lane: Send may be called from outside any lane
  // (preload pumps, drivers), and the post path mutates sender NIC state.
  engine_.ScheduleAfterOn(
      nic_.lane(), pack_time,
      [endpoint, staging, remote_slot_addr, frame_size, mailbox_rkey,
       separate_signal, sig_word, sig_off,
       cb = std::move(on_signal_delivered)]() mutable {
        if (separate_signal) {
          // Payload put (everything before SIG), then a fenced signal put —
          // the configuration for transports without ordering guarantees.
          auto p1 = endpoint->PutNbi(staging, remote_slot_addr, sig_off,
                                     mailbox_rkey, /*fence=*/false, nullptr);
          if (!p1.ok()) {
            TC_WARN << "payload put failed: " << p1.status();
            return;
          }
          auto p2 = endpoint->PutInline(sig_word, remote_slot_addr + sig_off,
                                        mailbox_rkey, /*fence=*/true,
                                        std::move(cb));
          if (!p2.ok()) TC_WARN << "signal put failed: " << p2.status();
        } else {
          auto p = endpoint->PutNbi(staging, remote_slot_addr, frame_size,
                                    mailbox_rkey, /*fence=*/false,
                                    std::move(cb));
          if (!p.ok()) TC_WARN << "frame put failed: " << p.status();
        }
      },
      "tc.post");
  ucxs::PutReceipt put_receipt;
  put_receipt.protocol = protocol;
  put_receipt.sender_overhead = proto_overhead;

  // Flow control: after filling a bank, close it until the flag returns.
  ++peer.send_in_bank;
  if (peer.send_in_bank == config_.mailboxes_per_bank) {
    peer.bank_open[bank] = 0;
    // The flag-return RTT sample starts at bank close; it covers the last
    // frame's flight plus the receiver's drain — the congestion signal
    // the adaptive window reacts to.
    if (config_.adaptive.enabled) peer.bank_close_at[bank] = engine_.Now();
    TC_RETURN_IF_ERROR(
        host_.memory().StoreU64(peer.flag_base + 8ull * bank, 0));
    peer.send_bank = (bank + 1) % config_.banks;
    peer.send_in_bank = 0;
  }
  ++stats_.messages_sent;
  ++pstats.messages_sent;
  stats_.bytes_sent += frame.size();
  pstats.bytes_sent += frame.size();

  // Jam-cache bookkeeping. A by-handle send parks its resend recipe until
  // the bank flag retires the slot (NAK or not); a full-body injected send
  // is what installs the image on the peer, so the handle belief arms here.
  if (config_.jam_cache.enabled && mode == Invoke::kInjected) {
    if (by_handle) {
      ++jam_stats_.by_handle_sends;
      PeerState::PendingByHandle& pending = peer.pending_by_handle[slot];
      pending.name = name;
      pending.handle = elem->content_handle;
      pending.args.assign(args.begin(), args.end());
      pending.usr.assign(usr.begin(), usr.end());
      pending.extra_flags = extra_flags;
    } else if ((extra_flags & kFlagNoExecute) == 0) {
      peer.peer_handles.insert(elem->content_handle);
    }
  }

  SendReceipt receipt;
  receipt.sn = header.sn;
  receipt.frame_len = frame.size();
  receipt.protocol = put_receipt.protocol;
  receipt.sender_cost = pack_time + put_receipt.sender_overhead;
  receipt.by_handle = by_handle;
  return receipt;
}

Status Runtime::StartReceiver() {
  if (!initialized_) return FailedPrecondition("not initialized");
  if (receiver_started_) return Status::Ok();
  receiver_started_ = true;
  for (PoolCore& member : pool_) member.idle_since = engine_.Now();
  return Status::Ok();
}

void Runtime::OnFrameDelivered(PeerId from, std::uint32_t slot,
                               PicoTime delivered_at, bool ecn_marked) {
  if (from >= peers_.size()) return;
  ++stats_.messages_delivered;
  ++stats_.per_peer[from].messages_delivered;
  peers_[from].ready[slot] = ReadyFrame{from, slot, delivered_at};
  // The bank's current claim holder gets first crack at the frame; with
  // stealing active, every other pool member then gets a deterministic
  // chance to notice a backlog it could relieve.
  const std::uint32_t bank = slot / config_.mailboxes_per_bank;
  if (ecn_marked) {
    // A switch on the path marked this frame: remember it against the
    // bank so the mark goes home (exactly once) with the bank's flag.
    ++stats_.ecn_marks_seen;
    if (config_.adaptive.enabled) peers_[from].bank_ecn[bank] = 1;
  }
  const std::uint32_t holder = ClaimOf(from, bank);
  ++claim_backlog_[holder];
  ++peers_[from].bank_ready[bank];
  MaybeBeginNext(holder);
  OfferStealOpportunities(holder);
}

void Runtime::OfferStealOpportunities(std::uint32_t first) {
  if (!stealing_active_) return;
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    if (i != first) MaybeBeginNext(i);
  }
}

void Runtime::OnBankFlag(PeerId peer, std::uint32_t bank) {
  if (peer >= peers_.size() || bank >= config_.banks) return;
  PeerState& p = peers_[peer];
  // Two flag-word shapes share this reverse channel (see ReturnBankFlag):
  // bit 0 set is the real bank-open flag (full drain), bit 0 clear is a
  // NAK-only push — the receiver is mid-bank, but a by-handle frame missed
  // its cache and must not wait for the drain to learn it. Bits [32, 64)
  // carry the per-slot NAK mask in both shapes.
  const auto word = host_.memory().LoadU64(p.flag_base + 8ull * bank);
  const bool open = !word.ok() || (*word & 1) != 0;
  if (config_.jam_cache.enabled) {
    const std::uint32_t nak_mask =
        word.ok() ? static_cast<std::uint32_t>(*word >> 32) : 0;
    // Resends run before external slot waiters: the NAKed invokes were
    // accepted by Send() once already and have first claim on whatever
    // slots are free. A full-drain flag also settles the bank's remaining
    // pending by-handle sends: un-NAKed means served from the cache.
    HandleNakMask(peer, bank, nak_mask, /*retire_served=*/open);
  }
  if (!open) return;
  // Bit 2 is the ECN echo (ECE): the receiver saw a switch mark on a frame
  // of this bank. Counted unconditionally so the fabric-wide
  // echoes_sent == echoes_seen ledger holds even when only one side runs
  // the adaptive window.
  const bool ece = word.ok() && (*word & 4) != 0;
  if (ece) ++stats_.ecn_echoes_seen;
  if (config_.adaptive.enabled) AdaptiveOnFlag(p, bank, ece);
  p.bank_open[bank] = 1;
  if (!p.slot_waiters.empty()) {
    auto waiters = std::move(p.slot_waiters);
    p.slot_waiters.clear();
    for (auto& w : waiters) w();
  }
}

bool Runtime::AdaptiveAdmits(const PeerState& peer) const noexcept {
  if (!config_.adaptive.enabled) return true;
  std::uint32_t closed = 0;
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    if (peer.bank_open[b] == 0) ++closed;
  }
  // floor(cwnd) never drops below one bank, and the gate always
  // passes with nothing closed — the window can throttle, never deadlock.
  return closed < std::max<std::uint64_t>(1, peer.cwnd_milli / 1000);
}

void Runtime::AdaptiveOnFlag(PeerState& peer, std::uint32_t bank, bool ece) {
  const PicoTime now = engine_.Now();
  if (peer.bank_close_at[bank] != 0) {
    const PicoTime rtt = now - peer.bank_close_at[bank];
    peer.bank_close_at[bank] = 0;
    peer.rtt_last = rtt;
    if (peer.rtt_min == 0 || rtt < peer.rtt_min) peer.rtt_min = rtt;
  }
  const std::uint64_t ceil_milli =
      static_cast<std::uint64_t>(config_.banks) * 1000;
  if (ece && now >= peer.ecn_hold_until) {
    // Multiplicative decrease — once per observed RTT, so one congestion
    // event's burst of echoes costs one backoff, not a collapse.
    peer.cwnd_milli =
        std::max(kAdaptiveFloorMilli,
                 peer.cwnd_milli * kAdaptiveDecreaseBetaMilli / 1000);
    peer.ecn_hold_until = now + (peer.rtt_last > 0 ? peer.rtt_last : 1);
    ++stats_.cwnd_decreases;
  } else if (!ece && peer.cwnd_milli < ceil_milli) {
    peer.cwnd_milli =
        std::min(ceil_milli, peer.cwnd_milli + kAdaptiveIncreaseMilli);
    ++stats_.cwnd_increases;
  }
  peer.cwnd_min_seen = std::min(peer.cwnd_min_seen, peer.cwnd_milli);
  peer.cwnd_max_seen = std::max(peer.cwnd_max_seen, peer.cwnd_milli);
}

Status Runtime::InjectFlagWordForTest(PeerId peer, std::uint32_t bank,
                                      std::uint64_t word) {
  if (peer >= peers_.size()) {
    return FailedPrecondition(StrFormat("peer %u not wired", peer));
  }
  if (bank >= config_.banks) {
    return InvalidArgument(StrFormat("bank %u out of range", bank));
  }
  TC_RETURN_IF_ERROR(
      host_.memory().StoreU64(peers_[peer].flag_base + 8ull * bank, word));
  OnBankFlag(peer, bank);
  return Status::Ok();
}

void Runtime::HandleNakMask(PeerId peer_id, std::uint32_t bank,
                            std::uint32_t mask, bool retire_served) {
  PeerState& p = peers_[peer_id];
  // Walk this bank's pending by-handle entries: a set bit means the
  // invoke was skipped at the peer and must be resent full-body. A clear
  // bit means "served" only on a full-drain flag (@p retire_served) — a
  // mid-bank NAK push says nothing about slots still queued behind the
  // peer's cursor, so their entries stay pending.
  std::vector<PeerState::PendingByHandle> to_resend;
  for (std::uint32_t i = 0; i < config_.mailboxes_per_bank; ++i) {
    const std::uint32_t slot = bank * config_.mailboxes_per_bank + i;
    const auto it = p.pending_by_handle.find(slot);
    if (it == p.pending_by_handle.end()) continue;
    if ((mask & (1u << i)) != 0) {
      ++jam_stats_.naks_received;
      // The belief was wrong — evicted, flushed, or never installed.
      // Forget the handle so the resend (and any send after it) goes
      // full-body and re-installs.
      p.peer_handles.erase(it->second.handle);
      to_resend.push_back(std::move(it->second));
      p.pending_by_handle.erase(it);
    } else if (retire_served) {
      p.pending_by_handle.erase(it);
    }
  }
  for (PeerState::PendingByHandle& entry : to_resend) {
    ResendAfterNak(peer_id, std::move(entry));
  }
}

void Runtime::ResendAfterNak(PeerId peer_id,
                             PeerState::PendingByHandle entry) {
  auto attempt = [this, peer_id, entry = std::move(entry)]() mutable {
    const auto receipt =
        Send(peer_id, entry.name, Invoke::kInjected, entry.args, entry.usr,
             entry.extra_flags);
    if (receipt.ok()) {
      ++jam_stats_.resends;
      return;
    }
    if (receipt.status().code() == StatusCode::kResourceExhausted) {
      // Flow control: every bank toward the peer is closed right now.
      // Park the retry on the next returned flag.
      NotifyWhenSlotFree(peer_id, [this, peer_id, entry]() mutable {
        ResendAfterNak(peer_id, std::move(entry));
      });
      return;
    }
    TC_WARN << "NAK resend of jam '" << entry.name
            << "' failed: " << receipt.status();
  };
  attempt();
}

void Runtime::MaybeBeginNext(std::uint32_t pool_index) {
  if (!receiver_started_) return;
  PoolCore& member = pool_[pool_index];
  if (member.processing) return;
  // A draining member only finishes the frame it already began; a
  // quiesced one scans nothing at all (its banks re-homed at quiesce).
  if (member.state != PoolCoreState::kActive) return;
  // This pool core scans the heads of the banks it claims — its affinity
  // shard plus any banks in its steal queue, across every peer's mailbox
  // slice — and serves the earliest-delivered one: a fair sweep across
  // senders under incast. Only when that scan comes up empty does an idle
  // core consider sacrificing stash locality and stealing. Ties and the
  // scans themselves are resolved in (peer, bank) index order, so the
  // choice never depends on host-side container iteration order.
  const ReadyFrame* best = ScanBankHeads(pool_index);
  if (best == nullptr && stealing_active_) best = TrySteal(pool_index);
  if (best == nullptr) {
    if (!member.idle_since.has_value()) member.idle_since = engine_.Now();
    return;
  }
  ReadyFrame frame = *best;
  frame.pool = pool_index;
  peers_[frame.peer].bank_in_flight[frame.slot / config_.mailboxes_per_bank] =
      1;
  PicoTime waited = 0;
  if (member.idle_since.has_value() &&
      frame.delivered_at >= *member.idle_since) {
    waited = frame.delivered_at - *member.idle_since;
  }
  member.idle_since.reset();
  member.processing = true;
  BeginProcess(frame, waited);
}

const Runtime::ReadyFrame* Runtime::ScanBankHeads(std::uint32_t pool_index) {
  const ReadyFrame* best = nullptr;
  for (PeerId peer = 0; peer < peers_.size(); ++peer) {
    PeerState& p = peers_[peer];
    for (std::uint32_t bank = 0; bank < config_.banks; ++bank) {
      if (ClaimOf(peer, bank) != pool_index) continue;
      if (p.bank_in_flight[bank] != 0) continue;
      const std::uint32_t head =
          bank * config_.mailboxes_per_bank + p.bank_cursor[bank];
      const auto it = p.ready.find(head);
      if (it == p.ready.end()) continue;
      if (best == nullptr || it->second.delivered_at < best->delivered_at) {
        best = &it->second;
      }
    }
  }
  return best;
}

const Runtime::ReadyFrame* Runtime::TrySteal(std::uint32_t thief) {
  PoolCore& member = pool_[thief];
  // Schmitt trigger: a fresh steal needs threshold + hysteresis; while
  // steals keep succeeding, threshold suffices. Damps claim ping-pong
  // around the threshold under churny load. Effective values clamp
  // oversized knobs to the whole-fabric inbound capacity.
  const std::uint64_t trigger =
      static_cast<std::uint64_t>(EffectiveStealThreshold()) +
      (member.steal_armed ? 0 : EffectiveStealHysteresis());
  // Victim: the most-loaded active sibling by ready-frame backlog over the
  // banks it currently claims (ties resolve to the lowest pool index). The
  // backlog ledger is maintained incrementally on delivery, completion,
  // and handoff, so this pick is O(pool) per idle scan. With
  // steal.domain_aware, a same-domain victim that clears the trigger wins
  // even past a deeper remote-domain backlog — the stolen bank's fills
  // then stay on this side of the interconnect.
  const std::uint32_t thief_domain = DomainOfPoolCore(thief);
  std::uint32_t victim = kInvalidPoolIndex;
  std::uint64_t victim_backlog = 0;
  std::uint32_t local_victim = kInvalidPoolIndex;
  std::uint64_t local_backlog = 0;
  for (std::uint32_t j = 0; j < pool_.size(); ++j) {
    if (j == thief) continue;
    if (pool_[j].state != PoolCoreState::kActive) continue;
    if (claim_backlog_[j] > victim_backlog) {
      victim = j;
      victim_backlog = claim_backlog_[j];
    }
    if (DomainOfPoolCore(j) == thief_domain &&
        claim_backlog_[j] > local_backlog) {
      local_victim = j;
      local_backlog = claim_backlog_[j];
    }
  }
  if (victim_backlog < trigger) victim = kInvalidPoolIndex;
  if (local_backlog < trigger) local_victim = kInvalidPoolIndex;

  // Oldest ready bank head among a victim's claimed banks (ScanBankHeads
  // skips a bank with a frame mid-process — the handoff would double-begin
  // its head — and a bank whose head has not arrived yet).
  const ReadyFrame* best = nullptr;
  const auto scan_victim = [&](std::uint32_t v) {
    best = ScanBankHeads(v);
    return best != nullptr;
  };

  // Same-domain victim first (when the policy is on and it clears the
  // trigger), but never at the price of idling: if its backlog turns out
  // unstealable — every triggering bank mid-frame, the structurally
  // unstealable 1-hot-bank shape — fall through to the global pick
  // rather than returning empty while a remote victim has ready banks.
  std::uint32_t chosen = kInvalidPoolIndex;
  const bool try_local =
      config_.steal.domain_aware && local_victim != kInvalidPoolIndex;
  if (try_local && scan_victim(local_victim)) {
    chosen = local_victim;
  } else if (victim != kInvalidPoolIndex &&
             !(try_local && victim == local_victim) &&  // already scanned
             scan_victim(victim)) {
    chosen = victim;
  }
  if (chosen == kInvalidPoolIndex) {
    member.steal_armed = false;
    return nullptr;
  }
  const std::uint32_t stolen_from = chosen;
  const PeerId best_peer = best->peer;
  const std::uint32_t best_bank = best->slot / config_.mailboxes_per_bank;
  // Ownership handoff: the thief now claims the bank and owes the rest of
  // its drain — including the flag return — until the claim reverts. A
  // bank can be stolen onward (even back by its home owner, which
  // settles the claim home), so any previous thief's queue entry migrates
  // rather than lingering, and the bank's backlog moves ledgers with it.
  DropFromStealQueues(best_peer, best_bank);
  claim_backlog_[stolen_from] -= peers_[best_peer].bank_ready[best_bank];
  claim_backlog_[thief] += peers_[best_peer].bank_ready[best_bank];
  peers_[best_peer].bank_claim[best_bank] = thief;
  if (HomeOf(best_peer, best_bank) != thief) {
    member.stolen_banks.emplace_back(best_peer, best_bank);
  }
  member.steal_armed = true;
  ++member.wait_stats.banks_stolen;
  ++pool_[stolen_from].wait_stats.banks_donated;
  ++stats_.steals;
  return best;
}

void Runtime::DropFromStealQueues(PeerId peer, std::uint32_t bank) {
  const auto key = std::make_pair(peer, bank);
  for (PoolCore& m : pool_) {
    auto& queue = m.stolen_banks;
    queue.erase(std::remove(queue.begin(), queue.end(), key), queue.end());
  }
}

void Runtime::ReleaseBankClaim(PeerId peer, std::uint32_t bank) {
  if (!stealing_active_) return;
  PeerState& p = peers_[peer];
  const std::uint32_t owner = p.bank_home[bank];
  const std::uint32_t holder = p.bank_claim[bank];
  if (holder != owner) {
    claim_backlog_[holder] -= p.bank_ready[bank];
    claim_backlog_[owner] += p.bank_ready[bank];
  }
  p.bank_claim[bank] = owner;
  DropFromStealQueues(peer, bank);
}

std::uint32_t Runtime::PickReshardTarget(std::uint32_t preferred_domain) {
  // Candidates in pool-index order; a same-domain survivor wins when
  // placement is domain-aware, so a re-homed bank's fills keep landing on
  // this side of the interconnect. The rotating cursor spreads a quiesced
  // core's banks across the candidate set instead of piling them on one.
  std::vector<std::uint32_t> all;
  std::vector<std::uint32_t> same;
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i].state != PoolCoreState::kActive) continue;
    all.push_back(i);
    if (DomainOfPoolCore(i) == preferred_domain) same.push_back(i);
  }
  const std::vector<std::uint32_t>& candidates =
      (config_.domain_aware_placement && !same.empty()) ? same : all;
  if (candidates.empty()) return kInvalidPoolIndex;
  return candidates[reshard_cursor_++ % candidates.size()];
}

void Runtime::ApplyBankHome(PeerId peer, std::uint32_t bank,
                            std::uint32_t new_home) {
  PeerState& p = peers_[peer];
  p.bank_pending_home[bank] = kInvalidPoolIndex;
  const std::uint32_t old_home = p.bank_home[bank];
  if (old_home == new_home) return;  // e.g. a revive cancelling a quiesce
  // The bank's backlog follows its new owner; a steal lease on the bank
  // is superseded — a permanent handoff outranks a revertible claim.
  const std::uint32_t holder = ClaimOf(peer, bank);
  claim_backlog_[holder] -= p.bank_ready[bank];
  claim_backlog_[new_home] += p.bank_ready[bank];
  if (stealing_active_) {
    p.bank_claim[bank] = new_home;
    DropFromStealQueues(peer, bank);
  }
  p.bank_home[bank] = new_home;
  ++stats_.banks_resharded;
  ++pool_[old_home].wait_stats.banks_resharded_out;
  ++pool_[new_home].wait_stats.banks_resharded_in;
}

void Runtime::RehomeBank(PeerId peer, std::uint32_t bank,
                         std::uint32_t new_home) {
  PeerState& p = peers_[peer];
  if (p.bank_in_flight[bank] != 0) {
    // Mid-frame banks never change hands; the handoff applies the moment
    // the frame completes (CompleteFrame), preserving in-bank order.
    p.bank_pending_home[bank] = new_home;
    return;
  }
  ApplyBankHome(peer, bank, new_home);
}

void Runtime::FinishQuiesce(std::uint32_t pool_index) {
  PoolCore& member = pool_[pool_index];
  member.state = PoolCoreState::kQuiesced;
  // Counted here — not at QuiesceCore — so a drain a revive called off
  // never reads as a completed quiesce.
  ++member.wait_stats.quiesces;
  member.steal_armed = false;
  member.idle_since.reset();
  if (!stealing_active_) return;
  // Any steal lease the member still holds reverts to the banks' home
  // owners — nothing may stay parked on a core that will never scan again
  // — and each owner gets woken to pick the backlog up.
  for (PeerId peer = 0; peer < peers_.size(); ++peer) {
    PeerState& p = peers_[peer];
    for (std::uint32_t bank = 0; bank < config_.banks; ++bank) {
      if (p.bank_claim[bank] != pool_index) continue;
      ReleaseBankClaim(peer, bank);
      MaybeBeginNext(p.bank_home[bank]);
    }
  }
}

StatusOr<std::uint64_t> Runtime::QuiesceCore(std::uint32_t pool_index) {
  if (!initialized_) return FailedPrecondition("not initialized");
  if (pool_index >= pool_.size()) {
    return InvalidArgument(StrFormat("pool index %u out of range (pool=%zu)",
                                     pool_index, pool_.size()));
  }
  PoolCore& member = pool_[pool_index];
  if (member.state != PoolCoreState::kActive) {
    return FailedPrecondition(
        StrFormat("pool core %u already draining or quiesced", pool_index));
  }
  if (ActivePoolCores() < 2) {
    return FailedPrecondition(
        "cannot quiesce the last active pool core — the pool must keep at "
        "least one survivor to drain the mailboxes");
  }
  member.state = PoolCoreState::kDraining;

  // Re-shard every bank homed to the quiescing member onto the survivors.
  // The stranded backlog — frames delivered but not yet executed on those
  // banks, including the one mid-frame — is what the handoff must drain
  // without loss; the invariant harness holds the protocol to that.
  std::uint64_t stranded = 0;
  for (PeerId peer = 0; peer < peers_.size(); ++peer) {
    PeerState& p = peers_[peer];
    for (std::uint32_t bank = 0; bank < config_.banks; ++bank) {
      if (p.bank_home[bank] != pool_index) continue;
      stranded += p.bank_ready[bank];
      const std::uint32_t target =
          PickReshardTarget(host_.memory().DomainOf(p.bank_base[bank]));
      RehomeBank(peer, bank, target);
    }
  }
  stats_.frames_drained_during_quiesce += stranded;

  // A member not mid-frame quiesces immediately (releasing any steal
  // lease it holds); one mid-frame finishes that single frame first and
  // quiesces in CompleteFrame.
  if (!member.processing) FinishQuiesce(pool_index);

  // Wake the survivors in index order: re-homed backlog arrived on their
  // ledgers without an OnFrameDelivered, and idle cores may now also see
  // a steal opportunity.
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    if (i != pool_index) MaybeBeginNext(i);
  }
  return stranded;
}

Status Runtime::ReviveCore(std::uint32_t pool_index) {
  if (!initialized_) return FailedPrecondition("not initialized");
  if (pool_index >= pool_.size()) {
    return InvalidArgument(StrFormat("pool index %u out of range (pool=%zu)",
                                     pool_index, pool_.size()));
  }
  PoolCore& member = pool_[pool_index];
  if (member.state == PoolCoreState::kActive) {
    return FailedPrecondition(
        StrFormat("pool core %u is active, not quiesced", pool_index));
  }
  // Reviving a still-draining member simply calls the drain off: its
  // in-flight frame keeps going and its banks come straight back.
  member.state = PoolCoreState::kActive;

  // Restore the original affinity map for this member only: banks whose
  // affinity owner is someone else — even ones re-sharded here from a
  // still-quiesced sibling — stay where they are until *their* owner
  // revives.
  for (PeerId peer = 0; peer < peers_.size(); ++peer) {
    PeerState& p = peers_[peer];
    for (std::uint32_t bank = 0; bank < config_.banks; ++bank) {
      if (PoolIndexFor(peer, bank) != pool_index) continue;
      if (p.bank_home[bank] == pool_index &&
          p.bank_pending_home[bank] == kInvalidPoolIndex) {
        continue;
      }
      RehomeBank(peer, bank, pool_index);
    }
  }
  if (!member.processing && !member.idle_since.has_value()) {
    member.idle_since = engine_.Now();
  }
  MaybeBeginNext(pool_index);
  return Status::Ok();
}

std::uint32_t Runtime::ActivePoolCores() const noexcept {
  std::uint32_t active = 0;
  for (const PoolCore& member : pool_) {
    if (member.state == PoolCoreState::kActive) ++active;
  }
  return active;
}

std::uint32_t Runtime::BanksHomedTo(std::uint32_t pool_index) const noexcept {
  std::uint32_t homed = 0;
  for (const PeerState& p : peers_) {
    for (const std::uint32_t home : p.bank_home) {
      if (home == pool_index) ++homed;
    }
  }
  return homed;
}

std::uint32_t Runtime::PendingRehomes() const noexcept {
  std::uint32_t pending = 0;
  for (const PeerState& p : peers_) {
    for (const std::uint32_t target : p.bank_pending_home) {
      if (target != kInvalidPoolIndex) ++pending;
    }
  }
  return pending;
}

void Runtime::BeginProcess(const ReadyFrame& frame, PicoTime waited) {
  PoolCore& member = pool_[frame.pool];
  auto& core = host_.core(member.core_id);
  const cpu::WaitOutcome outcome = member.wait_model->Wait(waited);
  core.Charge(outcome.cycles_burned, cpu::CycleClass::kWait);
  member.wait_stats.Record(waited, outcome);
  ++stats_.wait_episodes;
  // Detection happens detection_delay after the signal became visible; we
  // may already be past that point if the frame arrived while busy.
  PicoTime wake =
      std::max(engine_.Now(), frame.delivered_at + outcome.detection_delay);
  if (preemption_hook_) wake += preemption_hook_();
  engine_.ScheduleAtOn(
      nic_.lane(), wake, [this, frame] { ProcessFrame(frame); }, "tc.process");
}

void Runtime::ProcessFrame(const ReadyFrame& frame) {
  ReceivedMessage msg;
  msg.delivered_at = frame.delivered_at;
  msg.from = frame.peer;
  msg.slot = frame.slot;
  msg.pool = frame.pool;
  Cycles cycles = kValidateCycles;
  auto& caches = host_.caches();
  const std::uint32_t core = pool_[frame.pool].core_id;
  const mem::VirtAddr frame_addr = SlotAddr(peers_[frame.peer], frame.slot);
  // Everything this frame's processing touches (header, signal, code,
  // payload, jam data) runs through the hierarchy synchronously below, so
  // the delta of the cross-domain ledger is exactly what this drain paid.
  const std::uint64_t remote0 = caches.stats().remote_penalty_cycles;
  const auto remote_delta = [&caches, remote0] {
    return caches.stats().remote_penalty_cycles - remote0;
  };

  // The poll/WFE loop re-reads the signal line; its final read plus the
  // header fetch go through the cache hierarchy (this is where stashing
  // vs DRAM delivery first shows up).
  auto hdr_span = host_.memory().RawSpan(frame_addr, kHeaderBytes);
  if (!hdr_span.ok()) {
    ++stats_.security_rejections;
    CompleteFrame(frame, msg, cycles, remote_delta());
    return;
  }
  cycles += caches.Access(core, frame_addr, kHeaderBytes,
                          cache::AccessKind::kLoad);
  // Header validation is bounded by the mailbox slot: a frame_len larger
  // than the slot could only have been written by a corrupted sender.
  auto header = ReadHeader(*hdr_span, config_.mailbox_slot_bytes);
  if (!header.ok()) {
    ++stats_.security_rejections;
    TC_WARN << "frame rejected: " << header.status();
    CompleteFrame(frame, msg, cycles, remote_delta());
    return;
  }
  msg.sn = header->sn;
  msg.elem_id = header->elem_id;
  msg.frame_len = header->frame_len;
  msg.injected = (header->flags & kFlagInjected) != 0;
  msg.by_handle = (header->flags & kFlagByHandle) != 0;

  // Signal word check (magic + SN echo). The signal line access cost.
  cycles += caches.Access(core, frame_addr + header->frame_len - 8, 8,
                          cache::AccessKind::kLoad);
  auto sig = host_.memory().LoadU64(frame_addr + header->frame_len - 8);
  if (!sig.ok() || *sig != SignalWord(header->sn)) {
    ++stats_.security_rejections;
    TC_WARN << "bad signal word for sn " << header->sn;
    CompleteFrame(frame, msg, cycles, remote_delta());
    return;
  }
  if (!config_.fixed_size_frames) {
    // Variable-size frames: the first wait only covered the header magic;
    // model the second wait phase on the end-of-frame signal as one more
    // poll iteration (same put => already visible).
    cycles += config_.wait.poll_iteration_cycles;
  }

  auto invoke_cycles = InvokeFrame(frame, *header, msg);
  if (!invoke_cycles.ok()) {
    ++stats_.security_rejections;
    TC_WARN << "invoke failed: " << invoke_cycles.status();
  } else {
    cycles += *invoke_cycles;
  }
  CompleteFrame(frame, msg, cycles, remote_delta());
}

StatusOr<Cycles> Runtime::InvokeFrame(const ReadyFrame& frame,
                                      const FrameHeader& header,
                                      ReceivedMessage& msg) {
  if ((header.flags & kFlagByHandle) != 0) {
    if (!config_.jam_cache.enabled) {
      return FailedPrecondition(
          "by-handle frame received but the jam cache is disabled");
    }
    return InvokeByHandle(frame, header, msg);
  }

  Cycles cycles = 0;
  const mem::VirtAddr frame_addr = SlotAddr(peers_[frame.peer], frame.slot);
  auto& caches = host_.caches();
  auto& memory = host_.memory();
  PoolCore& member = pool_[frame.pool];
  const std::uint32_t core = member.core_id;

  ElementInfo* elem = nullptr;
  for (auto& e : elements_) {
    if (e.elem_id == header.elem_id && e.kind == pkg::ElementKind::kJam) {
      elem = &e;
    }
  }
  if (elem == nullptr) {
    return NotFound(StrFormat("unknown element id %u", header.elem_id));
  }

  FrameSpec spec;
  spec.injected = msg.injected;
  spec.args_size = header.args_size;
  spec.usr_size = header.usr_size;
  spec.split_code_data = config_.security.split_code_data_pages;
  if (spec.injected) {
    spec.got_slots = elem->injected_image.got_slot_count();
    spec.code_size = elem->code_blob.size();
  }
  const FrameLayout layout = FrameLayout::Compute(spec);

  mem::VirtAddr entry = 0;
  if (msg.injected) {
    // code_size is the full blob (text..rodata); a blob smaller than its
    // own text would wrap the unsigned rodata bound below and neuter the
    // verifier's lea escape check. LoadPackage's layout validation should
    // make this unreachable — keep it as defense in depth.
    const std::uint64_t text_bytes = elem->injected_image.text.size();
    if (spec.code_size < text_bytes) {
      return InvalidArgument(StrFormat(
          "jam '%s': code blob (%llu B) smaller than its text (%llu B)",
          elem->name.c_str(),
          static_cast<unsigned long long>(spec.code_size),
          static_cast<unsigned long long>(text_bytes)));
    }
    if (config_.security.verify_injected_code) {
      TC_ASSIGN_OR_RETURN(const auto code_span,
                          memory.RawSpan(frame_addr + layout.code_off,
                                         text_bytes));
      vm::VerifyLimits limits;
      limits.got_slots = spec.got_slots;
      limits.rodata_bytes = spec.code_size - text_bytes;
      limits.pre_slot_offset = jelf::kPreambleSlotOffset;
      TC_RETURN_IF_ERROR(vm::VerifyCode(code_span, limits));
      cycles += text_bytes / 4;  // ~2 cy / instruction
    }
    if (config_.security.receiver_installs_got) {
      // §V: receiver inserts the GOT pointer from a secure location.
      TC_ASSIGN_OR_RETURN(const mem::VirtAddr table,
                          ReceiverGotFor(*elem, host_.core(core)));
      cycles += caches.Access(core, frame_addr + layout.pre_off, 8,
                              cache::AccessKind::kStore);
      TC_RETURN_IF_ERROR(
          memory.DmaWrite(frame_addr + layout.pre_off,
                          std::span<const std::uint8_t>(
                              reinterpret_cast<const std::uint8_t*>(&table),
                              8)));
    }
    if (config_.security.split_code_data_pages) {
      // W^X around execution: code pages RX, data pages RW.
      cycles += 2 * kMprotectCycles;
      TC_RETURN_IF_ERROR(memory.Protect(frame_addr, layout.args_off,
                                        mem::Perm::kRX));
      TC_RETURN_IF_ERROR(memory.Protect(
          frame_addr + layout.args_off, layout.frame_len - layout.args_off,
          config_.security.read_only_args ? mem::Perm::kRead
                                          : mem::Perm::kRW));
    }
    entry = frame_addr + layout.code_off + elem->entry_offset;
  } else {
    if (elem->local_entry == 0) {
      return FailedPrecondition(
          StrFormat("jam '%s' has no local-function binding on this host",
                    elem->name.c_str()));
    }
    cycles += kDispatchCycles;
    entry = elem->local_entry;
  }

  if ((header.flags & kFlagNoExecute) == 0) {
    vm::Interpreter interp(
        memory, caches, core, &natives_,
        msg.injected
            ? ConfinedExec(frame_addr + layout.code_off, spec.code_size)
            : ConfinedExec(0, 0));
    const std::uint64_t args[3] = {frame_addr + layout.args_off,
                                   frame_addr + layout.usr_off,
                                   header.usr_size};
    const vm::ExecResult result =
        interp.Execute(entry, args, member.stack_top);
    host_.core(core).CountInstructions(result.instructions);
    msg.instructions = result.instructions;
    if (!result.status.ok()) {
      // Restore mailbox permissions before surfacing the fault.
      if (config_.security.split_code_data_pages) {
        (void)memory.Protect(frame_addr, layout.frame_len, mem::Perm::kRWX);
      }
      return Status(result.status.code(),
                    StrFormat("jam '%s' faulted: %s", elem->name.c_str(),
                              result.status.message().c_str()));
    }
    cycles += result.cycles;
    msg.executed = true;
    msg.return_value = result.return_value;
  }

  if (config_.security.split_code_data_pages) {
    cycles += kMprotectCycles;
    TC_RETURN_IF_ERROR(
        memory.Protect(frame_addr, layout.frame_len, mem::Perm::kRWX));
  }

  // Send-once, invoke-many: a full-body injected arrival is the install
  // point of the jam cache — link the post-GOT-rewrite image once so
  // every later invoke of this content can ride a slim by-handle frame.
  if (msg.injected && config_.jam_cache.enabled) {
    auto install = InstallInJamCache(*elem);
    if (install.ok()) {
      cycles += *install;
    } else {
      // A full install failure (e.g. receiver memory pressure) only means
      // the fast path stays cold — the frame itself already executed.
      TC_WARN << "jam-cache install of '" << elem->name
              << "' failed: " << install.status();
    }
  }
  return cycles;
}

StatusOr<Cycles> Runtime::InvokeByHandle(const ReadyFrame& frame,
                                         const FrameHeader& header,
                                         ReceivedMessage& msg) {
  Cycles cycles = 0;
  const mem::VirtAddr frame_addr = SlotAddr(peers_[frame.peer], frame.slot);
  auto& caches = host_.caches();
  auto& memory = host_.memory();
  PoolCore& member = pool_[frame.pool];
  const std::uint32_t core = member.core_id;

  // The 64-bit content handle rides at kHeaderBytes (in place of GOTP).
  cycles += caches.Access(core, frame_addr + kHeaderBytes, 8,
                          cache::AccessKind::kLoad);
  TC_ASSIGN_OR_RETURN(const std::uint64_t handle,
                      memory.LoadU64(frame_addr + kHeaderBytes));

  FrameSpec spec;
  spec.by_handle = true;
  spec.args_size = header.args_size;
  spec.usr_size = header.usr_size;
  const FrameLayout layout = FrameLayout::Compute(spec);

  // Miss — cold cache, eviction, content drift after a reload, or a frame
  // whose claimed element does not match the cached content. The frame is
  // *not* executed (its code never travelled); instead the slot's NAK bit
  // rides home in the bank flag and the sender resends full-body. Not an
  // error and not a security rejection: the protocol is designed to
  // degrade this way.
  const auto nak = [&]() -> Cycles {
    ++jam_stats_.misses;
    ++jam_stats_.naks_sent;
    msg.cache_miss = true;
    PeerState& p = peers_[frame.peer];
    const std::uint32_t bank = frame.slot / config_.mailboxes_per_bank;
    p.bank_nak_mask[bank] |= 1u << (frame.slot % config_.mailboxes_per_bank);
    return cycles;
  };

  const auto it = jam_cache_.find(handle);
  if (it == jam_cache_.end()) return nak();

  JamCacheEntry& entry = it->second;
  if (entry.elem_id != header.elem_id) {
    // Cross-namespace handle trick: the handle names content this cache
    // holds, but the header claims a different element. An honest sender
    // can only produce matched pairs, so degrade to the NAK path — the
    // full-body resend re-establishes which element the bytes belong to —
    // instead of executing cached code under a forged identity.
    return nak();
  }
  ++jam_stats_.hits;
  ++entry.invokes;
  entry.last_used = ++jam_cache_tick_;

  // The per-hit link is a PRE-slot validation of the resident image — the
  // table lookup that replaces the full per-invoke GOT rewrite. No code
  // verification (done at install), no GOT install, and no W^X flips: the
  // cached code pages never see the mailbox.
  cycles += kJamCacheHitRelinkCycles;
  cycles += caches.Access(core, entry.image.pre_addr, 8,
                          cache::AccessKind::kLoad);
  TC_RETURN_IF_ERROR(jelf::RelinkCachedImage(memory, entry.image));

  if (config_.security.verify_cached_invokes) {
    // Paranoid mode: a cached image must be *exactly* as constrained as a
    // full-body frame, so re-verify the resident bytes on every hit (the
    // same pass a full-body arrival would pay, over the same window).
    TC_ASSIGN_OR_RETURN(
        const auto resident,
        memory.RawSpan(entry.image.code_addr, entry.text_size));
    vm::VerifyLimits limits;
    limits.got_slots = entry.image.got_slots;
    limits.rodata_bytes = entry.image.code_size - entry.text_size;
    limits.pre_slot_offset = jelf::kPreambleSlotOffset;
    TC_RETURN_IF_ERROR(vm::VerifyCode(resident, limits));
    cycles += entry.text_size / 4;
  }

  // Savings ledger: what the same invoke would have cost full-body.
  FrameSpec full;
  full.injected = true;
  full.got_slots = entry.image.got_slots;
  full.code_size = entry.image.code_size;
  full.args_size = header.args_size;
  full.usr_size = header.usr_size;
  full.split_code_data = config_.security.split_code_data_pages;
  const FrameLayout full_layout = FrameLayout::Compute(full);
  jam_stats_.bytes_saved += full_layout.frame_len - layout.frame_len;
  if (entry.cold_link_cycles > kJamCacheHitRelinkCycles) {
    jam_stats_.link_cycles_saved +=
        entry.cold_link_cycles - kJamCacheHitRelinkCycles;
  }

  if ((header.flags & kFlagNoExecute) == 0) {
    vm::Interpreter interp(
        memory, caches, core, &natives_,
        ConfinedExec(entry.image.code_addr, entry.image.code_size));
    const std::uint64_t args[3] = {frame_addr + layout.args_off,
                                   frame_addr + layout.usr_off,
                                   header.usr_size};
    const vm::ExecResult result = interp.Execute(
        entry.image.code_addr + entry.entry_offset, args, member.stack_top);
    host_.core(core).CountInstructions(result.instructions);
    msg.instructions = result.instructions;
    if (!result.status.ok()) {
      return Status(result.status.code(),
                    StrFormat("cached jam (handle %llx) faulted: %s",
                              static_cast<unsigned long long>(handle),
                              result.status.message().c_str()));
    }
    cycles += result.cycles;
    msg.executed = true;
    msg.return_value = result.return_value;
  }
  return cycles;
}

StatusOr<Cycles> Runtime::InstallInJamCache(ElementInfo& elem) {
  if (elem.content_handle == 0 || elem.code_blob.empty()) return Cycles{0};
  if (jam_cache_.contains(elem.content_handle)) return Cycles{0};

  Cycles cycles = 0;
  const std::uint64_t text_bytes = elem.injected_image.text.size();
  if (config_.security.verify_injected_code) {
    // The cached image must stand on its own: it is linked from the
    // element's *resident* blob, not the wire copy the frame verification
    // just covered, and every later by-handle invoke executes it with no
    // body on the wire at all. Verify-at-install keeps the invariant
    // "nothing unverified is ever executable" on the fast path too.
    if (elem.code_blob.size() < text_bytes) {
      return InvalidArgument("code blob smaller than its text");
    }
    vm::VerifyLimits limits;
    limits.got_slots = elem.injected_image.got_slot_count();
    limits.rodata_bytes = elem.code_blob.size() - text_bytes;
    limits.pre_slot_offset = jelf::kPreambleSlotOffset;
    TC_RETURN_IF_ERROR(vm::VerifyCode(
        std::span<const std::uint8_t>(elem.code_blob).first(text_bytes),
        limits));
    cycles += text_bytes / 4;
  }

  // Capacity pressure: evict the entry with the fewest invokes (ties:
  // least recently used, then lowest handle — the map sweep order), so
  // the hot jams the cache exists for are the last to go.
  while (jam_cache_.size() >= config_.jam_cache.capacity) {
    auto victim = jam_cache_.begin();
    for (auto it = jam_cache_.begin(); it != jam_cache_.end(); ++it) {
      if (it->second.invokes < victim->second.invokes ||
          (it->second.invokes == victim->second.invokes &&
           it->second.last_used < victim->second.last_used)) {
        victim = it;
      }
    }
    DropJamCacheEntry(victim->first, /*evicted=*/true);
  }

  // Receiver-built GOTP from the receiver's own namespace — the same
  // values a synced sender would pack, but never taken from the wire (in
  // the hardened mode this is exactly the receiver-installed GOT).
  std::vector<std::uint64_t> gotp;
  gotp.reserve(elem.injected_image.got_symbols.size());
  for (const auto& symbol : elem.injected_image.got_symbols) {
    TC_ASSIGN_OR_RETURN(const std::uint64_t value, ns_.Lookup(symbol));
    gotp.push_back(value);
  }
  TC_ASSIGN_OR_RETURN(
      const jelf::CachedJamImage image,
      jelf::LinkCachedImage(host_.memory(), gotp, elem.code_blob,
                            "tc:jam-cache:" + elem.name));
  if (config_.security.split_code_data_pages) {
    // W^X for the resident image: GOTP/PRE/code were written once above;
    // the only later write is the PRE relink, which rides the privileged
    // DMA plane (jelf::RelinkCachedImage). A jam can therefore never
    // overwrite a cached image and have the bytes invoked by handle.
    Status sealed =
        host_.memory().Protect(image.base, image.size, mem::Perm::kRX);
    if (!sealed.ok()) {
      (void)jelf::ReleaseCachedImage(host_.memory(), image);
      return sealed;
    }
    cycles += kMprotectCycles;
  }

  JamCacheEntry entry;
  entry.image = image;
  entry.elem_id = elem.elem_id;
  entry.entry_offset = elem.entry_offset;
  entry.text_size = text_bytes;
  entry.last_used = ++jam_cache_tick_;
  entry.cold_link_cycles = ColdLinkCyclesFor(elem);
  jam_cache_bytes_ += image.size;
  ++jam_stats_.installs;
  jam_cache_.emplace(elem.content_handle, std::move(entry));
  return cycles + kJamCacheInstallCycles +
         static_cast<Cycles>(elem.injected_image.got_slot_count()) *
             kGotLookupCycles;
}

Cycles Runtime::ColdLinkCyclesFor(const ElementInfo& elem) const noexcept {
  // The per-invoke link work a cache hit skips: the sender's GOTP pack
  // (one namespace lookup per slot), plus whatever the security mode adds
  // on every full-body arrival — code verification, the receiver GOT
  // install, and the W^X permission flips (two before execution, one
  // restore after).
  Cycles cycles = static_cast<Cycles>(elem.injected_image.got_slot_count()) *
                  kGotLookupCycles;
  if (config_.security.verify_injected_code) {
    cycles += elem.injected_image.text.size() / 4;
  }
  if (config_.security.receiver_installs_got) {
    cycles += static_cast<Cycles>(elem.injected_image.got_slot_count()) *
              kGotLookupCycles;
  }
  if (config_.security.split_code_data_pages) {
    cycles += 3 * kMprotectCycles;
  }
  return cycles;
}

vm::ExecConfig Runtime::ConfinedExec(mem::VirtAddr code_base,
                                     std::uint64_t code_size) const {
  vm::ExecConfig exec = config_.exec;
  if (!config_.security.confine_control_flow) return exec;
  exec.exec_windows.reserve(library_windows_.size() + 1);
  if (code_size != 0) {
    exec.exec_windows.push_back(vm::MemWindow{code_base, code_size});
  }
  exec.exec_windows.insert(exec.exec_windows.end(), library_windows_.begin(),
                           library_windows_.end());
  return exec;
}

Status Runtime::InjectRawFrame(PeerId from, std::uint32_t slot,
                               std::span<const std::uint8_t> bytes) {
  if (!receiver_started_) return FailedPrecondition("receiver not started");
  if (from >= peers_.size()) return InvalidArgument("unknown peer");
  if (slot >= config_.banks * config_.mailboxes_per_bank) {
    return InvalidArgument("slot outside the peer's mailbox slice");
  }
  if (bytes.size() > config_.mailbox_slot_bytes) {
    return InvalidArgument("frame larger than the mailbox slot");
  }
  PeerState& p = peers_[from];
  if (p.ready.contains(slot)) {
    return FailedPrecondition("slot still holds an undrained frame");
  }
  // The hostile put lands like any RDMA write: straight through the DMA
  // plane, no content checks — the receiver pipeline is the only defense.
  TC_RETURN_IF_ERROR(host_.memory().DmaWrite(SlotAddr(p, slot), bytes));
  engine_.ScheduleAfterOn(
      nic_.lane(), 1,
      [this, from, slot] { OnFrameDelivered(from, slot, engine_.Now()); },
      "tc.inject");
  return Status::Ok();
}

void Runtime::DropJamCacheEntry(std::uint64_t handle, bool evicted) {
  const auto it = jam_cache_.find(handle);
  if (it == jam_cache_.end()) return;
  jam_cache_bytes_ -= it->second.image.size;
  const Status st =
      jelf::ReleaseCachedImage(host_.memory(), it->second.image);
  if (!st.ok()) TC_WARN << "jam-cache release failed: " << st;
  jam_cache_.erase(it);
  if (evicted) {
    ++jam_stats_.evictions;
  } else {
    ++jam_stats_.invalidations;
  }
}

void Runtime::FlushJamCache() {
  while (!jam_cache_.empty()) {
    DropJamCacheEntry(jam_cache_.begin()->first, /*evicted=*/false);
  }
}

void Runtime::ForgetPeerHandles() {
  for (PeerState& peer : peers_) peer.peer_handles.clear();
}

bool Runtime::PeerHasJamHandle(PeerId peer,
                               const std::string& name) const noexcept {
  if (peer >= peers_.size()) return false;
  for (const auto& elem : elements_) {
    if (elem.name == name && elem.kind == pkg::ElementKind::kJam) {
      return peers_[peer].peer_handles.contains(elem.content_handle);
    }
  }
  return false;
}

StatusOr<mem::VirtAddr> Runtime::ReceiverGotFor(ElementInfo& elem,
                                                cpu::CpuCore& core) {
  if (elem.receiver_got != 0) return elem.receiver_got;
  const auto& symbols = elem.injected_image.got_symbols;
  const std::uint64_t bytes = std::max<std::uint64_t>(symbols.size() * 8, 8);
  TC_ASSIGN_OR_RETURN(const mem::VirtAddr table,
                      host_.memory().Allocate(bytes, 64, mem::Perm::kRW,
                                              "tc:recv-got:" + elem.name));
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    auto value = ns_.Lookup(symbols[i]);
    if (!value.ok()) {
      return Status(value.status().code(),
                    StrFormat("receiver GOT for '%s': %s", elem.name.c_str(),
                              value.status().message().c_str()));
    }
    TC_RETURN_IF_ERROR(host_.memory().StoreU64(table + 8ull * i, *value));
  }
  // "from a secure read-only location" — seal the table.
  TC_RETURN_IF_ERROR(
      host_.memory().Protect(table, bytes, mem::Perm::kRead));
  core.Charge(static_cast<Cycles>(symbols.size()) * kGotLookupCycles,
              cpu::CycleClass::kExecute);
  elem.receiver_got = table;
  return table;
}

void Runtime::CompleteFrame(const ReadyFrame& frame,
                            const ReceivedMessage& msg_in, Cycles cycles,
                            std::uint64_t remote_penalty_cycles) {
  ReceivedMessage msg = msg_in;
  auto& core = host_.core(pool_[frame.pool].core_id);
  const PicoTime busy = core.Charge(cycles, cpu::CycleClass::kExecute);
  core.CountMessage();

  // NUMA ledger: a frame drained away from its bank's home domain (stolen
  // cross-domain, or flat placement) counts as remote, and the penalty
  // cycles its processing actually paid land in both stat planes.
  const std::uint32_t frame_domain =
      host_.memory().DomainOf(SlotAddr(peers_[frame.peer], frame.slot));
  if (frame_domain != DomainOfPoolCore(frame.pool)) {
    ++stats_.frames_drained_remote;
    ++pool_[frame.pool].wait_stats.frames_drained_remote;
  }
  stats_.remote_drain_cycles += remote_penalty_cycles;
  pool_[frame.pool].wait_stats.remote_drain_cycles += remote_penalty_cycles;

  engine_.ScheduleAfter(
      busy,
      [this, frame, msg]() mutable {
        msg.completed_at = engine_.Now();
        if (msg.executed) {
          ++stats_.messages_executed;
          ++stats_.per_peer[frame.peer].messages_executed;
        }

        // Bank recycling: after draining a bank of this peer's slice,
        // return its flag to that peer — and only that peer. Banks drain
        // independently (each on its claiming pool core), so the cursor
        // is per bank. The flag goes home exactly when the whole bank has
        // been drained — by the claim holder of record, whether that is
        // the home owner or a thief that took the bank over.
        PeerState& p = peers_[frame.peer];
        const std::uint32_t bank = frame.slot / config_.mailboxes_per_bank;
        // The bank's home as this frame executed. A quiesce/revive that
        // wanted to move it mid-frame is parked in bank_pending_home and
        // applies below, after this frame's bookkeeping settles.
        const std::uint32_t home = p.bank_home[bank];
        // Retire this frame from the backlog ledger before any claim
        // release below moves the bank's remaining count between holders
        // (the map erase itself happens a few lines down). The claim
        // cannot have moved mid-frame, so the holder is frame.pool.
        --claim_backlog_[ClaimOf(frame.peer, bank)];
        p.bank_in_flight[bank] = 0;
        --p.bank_ready[bank];
        if (stealing_active_ && frame.pool != home) {
          ++stats_.frames_stolen;
          ++pool_[frame.pool].wait_stats.frames_stolen;
        }
        const bool bank_drained =
            p.bank_cursor[bank] == config_.mailboxes_per_bank - 1;
        if (bank_drained) {
          if (stealing_active_ && p.bank_claim[bank] != home) {
            ++stats_.banks_drained_stolen;
          } else {
            ++stats_.banks_drained_owner;
          }
          ReleaseBankClaim(frame.peer, bank);
        }
        p.ready.erase(frame.slot);
        p.bank_cursor[bank] =
            (p.bank_cursor[bank] + 1) % config_.mailboxes_per_bank;
        if (stealing_active_ && p.bank_claim[bank] != home &&
            p.bank_ready[bank] == 0) {
          // The steal lease covers the backlog the thief took the bank
          // for. Once no delivered frame of the bank remains, the claim
          // reverts to the home owner so fresh fills land with their
          // stash locality intact (a full drain already reverted above,
          // on the flag-return path).
          ReleaseBankClaim(frame.peer, bank);
        }
        pool_[frame.pool].processing = false;
        // Deferred hotplug handoff: a quiesce/revive that hit this bank
        // mid-frame applies now that the frame is done — the one moment
        // the "never change hands mid-frame" rule allows.
        std::uint32_t rehomed_to = kInvalidPoolIndex;
        if (p.bank_pending_home[bank] != kInvalidPoolIndex) {
          rehomed_to = p.bank_pending_home[bank];
          if (pool_[rehomed_to].state != PoolCoreState::kActive) {
            // The deferred target itself left the pool meanwhile (a second
            // quiesce); re-pick among whoever is active now.
            rehomed_to = PickReshardTarget(
                host_.memory().DomainOf(p.bank_base[bank]));
          }
          if (rehomed_to != kInvalidPoolIndex) {
            ApplyBankHome(frame.peer, bank, rehomed_to);
          }
        }
        // This completion may have been the drain a quiesce was waiting
        // for: with its frame done (and its bank re-homed), the member
        // leaves the pool for good.
        PoolCore& member = pool_[frame.pool];
        if (member.state == PoolCoreState::kDraining && !member.processing) {
          FinishQuiesce(frame.pool);
        }
        if (bank_drained) {
          Status st = ReturnBankFlag(frame.peer, bank);
          if (!st.ok()) TC_WARN << "flag return failed: " << st;
        } else if (msg.cache_miss) {
          // A jam-cache miss mid-bank cannot wait for the drain flag —
          // the sender may have nothing else queued toward this bank.
          // Push a NAK-only flag word (bit 0 clear) immediately so the
          // full-body resend leaves now. A miss on the drain slot rides
          // the ReturnBankFlag word above instead.
          Status st = SendNakFlag(frame.peer, bank);
          if (!st.ok()) TC_WARN << "NAK push failed: " << st;
        }
        if (on_executed_) on_executed_(msg);
        MaybeBeginNext(frame.pool);
        // A just-applied re-home must wake the new owner even when
        // stealing is off (OfferStealOpportunities is a no-op then) —
        // its fresh backlog arrived without an OnFrameDelivered.
        if (rehomed_to != kInvalidPoolIndex) MaybeBeginNext(rehomed_to);
        OfferStealOpportunities(frame.pool);
      },
      "tc.complete");
}

cpu::PerfCounters Runtime::ReceiverPoolCounters() const {
  cpu::PerfCounters total;
  for (const PoolCore& member : pool_) {
    const cpu::PerfCounters& c = host_.core(member.core_id).counters();
    for (std::size_t i = 0; i < total.cycles.size(); ++i) {
      total.cycles[i] += c.cycles[i];
    }
    total.instructions += c.instructions;
    total.messages_handled += c.messages_handled;
  }
  return total;
}

std::uint64_t Runtime::InFlightFrames() const noexcept {
  std::uint64_t in_flight = 0;
  for (const PeerState& p : peers_) in_flight += p.ready.size();
  return in_flight;
}

std::uint32_t Runtime::ClosedSendBanks(PeerId peer) const noexcept {
  if (peer >= peers_.size()) return 0;
  std::uint32_t closed = 0;
  for (const std::uint8_t open : peers_[peer].bank_open) {
    if (open == 0) ++closed;
  }
  return closed;
}

Status Runtime::ReturnBankFlag(PeerId peer_id, std::uint32_t bank) {
  if (peer_id >= peers_.size()) return FailedPrecondition("not wired");
  PeerState& peer = peers_[peer_id];
  ++stats_.bank_flags_returned;
  ++stats_.per_peer[peer_id].bank_flags_returned;
  // Bit 0 opens the bank; bit 1 is unused. Bits [32, 64) carry the
  // per-slot jam-cache NAK mask: "these by-handle frames named content I
  // do not have — resend them full-body".
  std::uint64_t flag_word = 1ull;
  // Bit 2 echoes a switch ECN mark home (ECE): a frame of this bank
  // arrived marked since the last return. Echoed exactly once — the
  // accumulator clears here — so the fabric-wide echo ledger reconciles.
  if (config_.adaptive.enabled && !peer.bank_ecn.empty() &&
      peer.bank_ecn[bank] != 0) {
    flag_word |= 4ull;
    peer.bank_ecn[bank] = 0;
    ++stats_.ecn_echoes_sent;
  }
  if (config_.jam_cache.enabled && !peer.bank_nak_mask.empty()) {
    flag_word |= static_cast<std::uint64_t>(peer.bank_nak_mask[bank]) << 32;
    peer.bank_nak_mask[bank] = 0;
  }
  return PutFlagWord(peer, bank, flag_word);
}

Status Runtime::SendNakFlag(PeerId peer_id, std::uint32_t bank) {
  if (peer_id >= peers_.size()) return FailedPrecondition("not wired");
  PeerState& peer = peers_[peer_id];
  if (peer.bank_nak_mask.empty() || peer.bank_nak_mask[bank] == 0) {
    return Status::Ok();
  }
  // Bit 0 stays clear: this put does NOT reopen the bank — it only ships
  // the accumulated NAK bits so the sender can resend full-body at once.
  const std::uint64_t flag_word =
      static_cast<std::uint64_t>(peer.bank_nak_mask[bank]) << 32;
  peer.bank_nak_mask[bank] = 0;
  return PutFlagWord(peer, bank, flag_word);
}

Status Runtime::PutFlagWord(PeerState& peer, std::uint32_t bank,
                            std::uint64_t word) {
  Runtime* peer_rt = peer.runtime;
  const PeerId our_id_at_peer = peer.remote_id;
  TC_ASSIGN_OR_RETURN(
      const ucxs::PutReceipt receipt,
      peer.endpoint->PutInline(
          word, peer.peer_flag_base + 8ull * bank, peer.peer_flag_rkey, false,
          [peer_rt, our_id_at_peer, bank](const net::PutCompletion& c) {
            if (c.status.ok()) peer_rt->OnBankFlag(our_id_at_peer, bank);
          }));
  (void)receipt;
  return Status::Ok();
}

StatusOr<std::uint64_t> Runtime::PeekU64(const std::string& symbol,
                                         std::uint64_t index) const {
  TC_ASSIGN_OR_RETURN(const std::uint64_t addr, ns_.Lookup(symbol));
  if (vm::IsNativeHandle(addr)) {
    return InvalidArgument("symbol is a native function");
  }
  TC_ASSIGN_OR_RETURN(const auto span,
                      host_.memory().RawSpan(addr + 8 * index, 8));
  std::uint64_t value;
  std::memcpy(&value, span.data(), 8);
  return value;
}

}  // namespace twochains::core
