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

/// Runs the static verifier over a jam's code+rodata @p blob, whose first
/// @p text_size bytes are instructions that link through @p got_slots GOT
/// words. Returns the verification cost (~2 cycles per instruction).
StatusOr<Cycles> VerifyJamCode(std::span<const std::uint8_t> blob,
                               std::uint64_t text_size,
                               std::uint32_t got_slots) {
  // A blob smaller than its own text would wrap the unsigned rodata bound
  // and neuter the verifier's lea escape check. LoadPackage's layout
  // validation should make this unreachable; it stays as defense in depth.
  if (blob.size() < text_size) {
    return InvalidArgument(StrFormat(
        "code blob (%zu B) smaller than its text (%llu B)", blob.size(),
        static_cast<unsigned long long>(text_size)));
  }
  vm::VerifyLimits limits;
  limits.got_slots = got_slots;
  limits.rodata_bytes = blob.size() - text_size;
  limits.pre_slot_offset = jelf::kPreambleSlotOffset;
  TC_RETURN_IF_ERROR(vm::VerifyCode(blob.first(text_size), limits));
  return static_cast<Cycles>(text_size / 4);
}

}  // namespace

Runtime::Runtime(sim::Engine& engine, net::Host& host, net::Nic& nic,
                 RuntimeConfig config)
    : engine_(engine), host_(host), nic_(nic), config_(std::move(config)) {}

Status Runtime::Initialize() {
  if (initialized_) return FailedPrecondition("already initialized");

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
               "to steal from; disabling";
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
  for (std::uint32_t i = 0; i < config_.receiver_cores; ++i) {
    PoolCore& member = pool_[i];
    member.core_id = config_.receiver_core + i;
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
  // Claims start at the home owner.
  std::vector<RecvBank> slice(config_.banks);
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    const std::uint32_t affinity = PoolIndexFor(id, b);
    std::uint32_t home = affinity;
    if (pool_[affinity].state != PoolCoreState::kActive) {
      home = PickReshardTarget(DomainOfPoolCore(affinity));
      if (home == kInvalidPoolIndex) home = affinity;  // pre-StartReceiver
    }
    slice[b].home = home;
    slice[b].claim = home;
  }

  // Reactive mailbox slice for this peer: pinned, remotely writable, and
  // (paper default) executable — "we ... mark all mailbox pages with read,
  // write, and execute permissions" (§III-A). One allocation + rkey per
  // bank, each placed in the memory domain of the pool core that owns the
  // bank, so the NIC's stash lands in the LLC slice next to the core that
  // will drain it (flat placement with the knob off: everything domain 0).
  for (std::uint32_t b = 0; b < config_.banks; ++b) {
    RecvBank& bank = slice[b];
    const mem::DomainId bank_domain =
        config_.domain_aware_placement ? DomainOfPoolCore(bank.home) : 0;
    const std::string tag = StrFormat("tc:mailboxes:p%u:b%u", id, b);
    TC_ASSIGN_OR_RETURN(bank.base,
                        memory.Allocate(bank_bytes, mem::kPageSize,
                                        mem::Perm::kRWX, tag, bank_domain));
    TC_ASSIGN_OR_RETURN(bank.rkey,
                        host_.regions().RegisterRegion(
                            bank.base, bank_bytes, mem::RemoteAccess::kWrite,
                            tag));
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
  peer.send_banks.resize(config_.banks);  // open, remote window at Connect

  // Send staging ring toward this peer (one slot per mailbox), packed by
  // the sender core — its domain.
  TC_ASSIGN_OR_RETURN(peer.staging_base,
                      memory.Allocate(mailbox_bytes, mem::kPageSize,
                                      mem::Perm::kRW, "tc:staging" + suffix,
                                      sender_domain));

  // One endpoint per peer, targeting the peer's NIC (kUser mode: the
  // runtime's own bank flow control, not UCX's).
  peer.endpoint = std::make_unique<ucxs::Endpoint>(
      engine_, nic_, remote.nic_, ucxs::PutMode::kUser);

  // Adaptive window state: starts wide open at the full bank budget.
  peer.cwnd_milli = static_cast<std::uint64_t>(config_.banks) * 1000;
  peer.cwnd_min_seen = peer.cwnd_milli;
  peer.cwnd_max_seen = peer.cwnd_milli;

  peers_.push_back(std::move(peer));
  banks_.insert(banks_.end(), slice.begin(), slice.end());
  delivered_at_.resize(delivered_at_.size() + TotalSlots(), kNotDelivered);
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
  // Each side addresses the other's mailbox slice with its own shape, so
  // the shapes must agree (as Initialize clamped them).
  const auto shape = [](const RuntimeConfig& c) {
    return StrFormat("%u banks x %u mailboxes x %llu B", c.banks,
                     c.mailboxes_per_bank,
                     static_cast<unsigned long long>(c.mailbox_slot_bytes));
  };
  if (shape(a.config_) != shape(b.config_)) {
    return InvalidArgument(StrFormat("mailbox shapes differ: %s vs %s",
                                     shape(a.config_).c_str(),
                                     shape(b.config_).c_str()));
  }
  TC_ASSIGN_OR_RETURN(const PeerId id_of_b, a.AttachPeer(b));
  TC_ASSIGN_OR_RETURN(const PeerId id_of_a, b.AttachPeer(a));

  // Out-of-band address + rkey exchange (§V) — one window per mailbox
  // bank, since banks are placed (and registered) independently.
  PeerState& pa = a.peers_[id_of_b];
  PeerState& pb = b.peers_[id_of_a];
  pa.remote_id = id_of_a;
  pb.remote_id = id_of_b;
  for (std::uint32_t k = 0; k < a.config_.banks; ++k) {
    const RecvBank& in_a = a.banks_[a.BankIndex(id_of_b, k)];
    const RecvBank& in_b = b.banks_[b.BankIndex(id_of_a, k)];
    pa.send_banks[k].remote_base = in_b.base;
    pa.send_banks[k].remote_rkey = in_b.rkey;
    pb.send_banks[k].remote_base = in_a.base;
    pb.send_banks[k].remote_rkey = in_a.rkey;
  }
  pa.peer_flag_base = pb.flag_base;
  pa.peer_flag_rkey = pb.flag_rkey_own;
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

  // Every jam is checked before anything loads. Layout validation must
  // precede CodeBlobOf: a hostile package with got_offset < text.size()
  // would otherwise overflow the blob copy (the blob is got_offset bytes,
  // the memcpy is text.size()). And a frame names its jam by element id,
  // which is unique only within a package: a jam may not take an id that
  // a loaded jam of another name holds, or the receiver would run one jam
  // with the other's layout. The same name is a reload, replaced in place.
  for (const auto& elem : package.elements) {
    if (elem.kind != pkg::ElementKind::kJam) continue;
    TC_RETURN_IF_ERROR(jelf::ValidateImageLayout(elem.injected_image));
    for (const auto& existing : elements_) {
      if (existing.kind == pkg::ElementKind::kJam &&
          existing.elem_id == elem.element_id && existing.name != elem.name) {
        return AlreadyExists(StrFormat(
            "jam '%s' has element id %u, which loaded jam '%s' holds",
            elem.name.c_str(), elem.element_id, existing.name.c_str()));
      }
    }
  }

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
                             config_.receiver_core, &natives_,
                             ExecFor(/*confine=*/false));
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

FrameSpec Runtime::SpecFor(std::uint16_t flags, std::uint32_t got_slots,
                           std::uint64_t code_size, std::uint64_t args_size,
                           std::uint64_t usr_size) const {
  FrameSpec spec;
  spec.by_handle = (flags & kFlagByHandle) != 0;
  spec.injected = !spec.by_handle && (flags & kFlagInjected) != 0;
  spec.args_size = args_size;
  spec.usr_size = usr_size;
  if (spec.injected) {
    spec.got_slots = got_slots;
    spec.code_size = code_size;
    spec.split_code_data = config_.security.split_code_data_pages;
  }
  return spec;
}

StatusOr<FrameLayout> Runtime::LayoutFor(const std::string& name, Invoke mode,
                                         std::uint64_t args_bytes,
                                         std::uint64_t usr_bytes) const {
  TC_ASSIGN_OR_RETURN(const ElementInfo* elem, FindElement(name));
  return FrameLayout::Compute(
      SpecFor(mode == Invoke::kInjected ? kFlagInjected : 0,
              elem->injected_image.got_slot_count(), elem->code_blob.size(),
              args_bytes, usr_bytes));
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
  if (p.send_in_bank == 0 && !AdaptiveAdmits(peer)) return false;
  // Mid-bank the current bank is open by construction (it only closes when
  // its last slot is posted); at a bank boundary only the next bank in
  // strict rotation may start.
  return p.send_banks[p.send_bank].open;
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

  const std::uint32_t got_slots = elem->injected_image.got_slot_count();
  const std::uint16_t shape = mode == Invoke::kInjected ? kFlagInjected : 0;
  FrameSpec spec = SpecFor(shape, got_slots, elem->code_blob.size(),
                           args.size() * 8, usr.size());
  FrameLayout layout = FrameLayout::Compute(spec);
  // The full-body frame must fit the slot even when this send could go by
  // handle: a receiver that has evicted the jam NAKs the slim frame, and
  // the sender then resends it full-body. Checked before a sequence number
  // or a slot is used, since no later state makes such a frame fit.
  if (layout.frame_len > config_.mailbox_slot_bytes) {
    return InvalidArgument(StrFormat(
        "frame (%llu B) exceeds mailbox slot (%llu B)",
        static_cast<unsigned long long>(layout.frame_len),
        static_cast<unsigned long long>(config_.mailbox_slot_bytes)));
  }

  // Bank choice: strict round-robin fills send_bank.
  const std::uint32_t in_bank = peer.send_in_bank;
  const std::uint32_t bank = peer.send_bank;
  if (!peer.send_banks[bank].open) {
    ++pstats.send_stalls;
    return ResourceExhausted(StrFormat("bank %u flag not returned", bank));
  }
  // Adaptive admission: opening a fresh bank needs window headroom over
  // the banks already closed toward this peer (mid-bank fills ride the
  // admission their bank got).
  if (in_bank == 0 && !AdaptiveAdmits(peer_id)) {
    ++stats_.adaptive_refusals;
    ++pstats.send_stalls;
    return ResourceExhausted(
        StrFormat("adaptive window (%llu milli-banks) refuses a new bank",
                  static_cast<unsigned long long>(peer.cwnd_milli)));
  }
  const std::uint32_t slot = bank * config_.mailboxes_per_bank + in_bank;

  // ---- build the frame ------------------------------------------------
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
  std::span<const std::uint64_t> words;  // GOTP, or the one handle word
  std::span<const std::uint8_t> code;
  if (by_handle) {
    spec = SpecFor(kFlagByHandle, 0, 0, spec.args_size, spec.usr_size);
    layout = FrameLayout::Compute(spec);
    words = {&elem->content_handle, 1};
  } else if (spec.injected) {
    code = elem->code_blob;
    gotp.reserve(got_slots);
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
    words = gotp;
  }
  // Local invocation needs the *receiver's* library binding; that is
  // checked at receive time (the receiver owns its dispatch vector).

  FrameHeader header;
  header.sn = next_sn_++;
  header.elem_id = elem->elem_id;
  header.flags = extra_flags;

  const std::span<const std::uint8_t> args_bytes(
      reinterpret_cast<const std::uint8_t*>(args.data()), args.size() * 8);
  TC_ASSIGN_OR_RETURN(std::vector<std::uint8_t> frame,
                      PackFrame(spec, header, words, code, args_bytes, usr));

  const mem::VirtAddr remote_slot_addr =
      peer.send_banks[bank].remote_base +
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
  const ucxs::Protocol protocol = ucxs::SelectProtocol(frame.size());
  const std::uint64_t frame_size = frame.size();
  const bool separate_signal = config_.separate_signal_put;
  const std::uint64_t sig_word = SignalWord(header.sn);
  const std::uint64_t sig_off = layout.sig_off;
  const PicoTime proto_overhead = endpoint->EstimateOverhead(frame.size());
  auto mailbox_rkey = peer.send_banks[bank].remote_rkey;
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
    peer.send_banks[bank].open = false;
    // The flag-return RTT sample starts at bank close; it covers the last
    // frame's flight plus the receiver's drain — the congestion signal
    // the adaptive window reacts to.
    peer.send_banks[bank].closed_at = engine_.Now();
    TC_RETURN_IF_ERROR(
        host_.memory().StoreU64(peer.flag_base + 8ull * bank, 0));
    peer.send_bank = (bank + 1) % config_.banks;
    peer.send_in_bank = 0;
  }
  ++pstats.messages_sent;
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
  ++stats_.per_peer[from].messages_delivered;
  delivered_at_[SlotIndex(from, slot)] = delivered_at;
  // The bank's current claim holder gets first crack at the frame; with
  // stealing active, every other pool member then gets a deterministic
  // chance to notice a backlog it could relieve.
  const std::uint32_t index =
      BankIndex(from, slot / config_.mailboxes_per_bank);
  if (ecn_marked) {
    // A switch on the path marked this frame: remember it against the
    // bank so the mark goes home (exactly once) with the bank's flag.
    ++stats_.ecn_marks_seen;
    if (config_.adaptive.enabled) banks_[index].ecn = true;
  }
  // A frame behind the bank's head becomes ready when the cursor reaches
  // it (CompleteFrame pushes it then).
  if (slot % config_.mailboxes_per_bank == banks_[index].cursor) {
    PushReadyHead(index);
  }
  const std::uint32_t holder = banks_[index].claim;
  ++banks_[index].ready;
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
  p.send_banks[bank].open = true;
  if (!p.slot_waiters.empty()) {
    auto waiters = std::move(p.slot_waiters);
    p.slot_waiters.clear();
    for (auto& w : waiters) w();
  }
}

bool Runtime::AdaptiveAdmits(PeerId peer) const noexcept {
  if (!config_.adaptive.enabled) return true;
  // floor(cwnd) never drops below one bank, and the gate always
  // passes with nothing closed — the window can throttle, never deadlock.
  return ClosedSendBanks(peer) <
         std::max<std::uint64_t>(1, peers_[peer].cwnd_milli / 1000);
}

void Runtime::AdaptiveOnFlag(PeerState& peer, std::uint32_t bank, bool ece) {
  const PicoTime now = engine_.Now();
  SendBank& closing = peer.send_banks[bank];
  if (closing.closed_at != 0) {
    const PicoTime rtt = now - closing.closed_at;
    closing.closed_at = 0;
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
  // This pool core serves the earliest-delivered head among the banks it
  // claims — its homed banks plus any it stole, across every peer's
  // mailbox slice: a fair sweep across senders under incast. Only when it
  // has no ready head does an idle core consider sacrificing stash
  // locality and stealing. Ties resolve by the ready heap's (delivered_at,
  // peer, bank) key, so the choice never depends on host-side container
  // iteration order.
  std::optional<ReadyFrame> best = ReadyHeadOf(pool_index);
  if (!best.has_value() && stealing_active_) best = TrySteal(pool_index);
  if (!best.has_value()) {
    if (!member.idle_since.has_value()) member.idle_since = engine_.Now();
    return;
  }
  ReadyFrame frame = *best;
  frame.pool = pool_index;
  banks_[BankOf(frame)].in_flight = true;
  PicoTime waited = 0;
  if (member.idle_since.has_value() &&
      frame.delivered_at >= *member.idle_since) {
    waited = frame.delivered_at - *member.idle_since;
  }
  member.idle_since.reset();
  member.processing = true;
  BeginProcess(frame, waited);
}

void Runtime::PushReadyHead(std::uint32_t index) {
  if (banks_[index].in_flight) return;
  const PicoTime at = HeadDeliveredAt(index);
  if (at == kNotDelivered) return;
  std::vector<ReadyHead>& heap = pool_[banks_[index].claim].ready;
  heap.push_back(ReadyHead{at, index});
  std::push_heap(heap.begin(), heap.end(), std::greater<>());
}

std::optional<Runtime::ReadyFrame> Runtime::ReadyHeadOf(
    std::uint32_t pool_index) {
  std::vector<ReadyHead>& heap = pool_[pool_index].ready;
  while (!heap.empty()) {
    const ReadyHead& top = heap.front();
    const RecvBank& bank = banks_[top.index];
    if (bank.claim == pool_index && !bank.in_flight &&
        HeadDeliveredAt(top.index) == top.at) {
      return HeadFrame(top.index);
    }
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.pop_back();
  }
  return std::nullopt;
}

std::optional<Runtime::ReadyFrame> Runtime::ScanBankHeads(
    std::uint32_t pool_index) const {
  std::optional<ReadyFrame> best;
  for (std::uint32_t i = 0; i < banks_.size(); ++i) {
    if (banks_[i].claim != pool_index || banks_[i].in_flight) continue;
    const PicoTime at = HeadDeliveredAt(i);
    if (at == kNotDelivered) continue;
    if (!best.has_value() || at < best->delivered_at) best = HeadFrame(i);
  }
  return best;
}

Status Runtime::CheckReadyIndexForTest() {
  const auto describe = [](const std::optional<ReadyFrame>& f) {
    if (!f.has_value()) return std::string("nothing");
    return StrFormat("peer %u slot %u delivered at %llu ps", f->peer, f->slot,
                     static_cast<unsigned long long>(f->delivered_at));
  };
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    const std::optional<ReadyFrame> scan = ScanBankHeads(i);
    const std::optional<ReadyFrame> heap = ReadyHeadOf(i);
    const bool same =
        scan.has_value() == heap.has_value() &&
        (!scan.has_value() ||
         (scan->peer == heap->peer && scan->slot == heap->slot &&
          scan->delivered_at == heap->delivered_at));
    if (!same) {
      return Internal(StrFormat("pool core %u: ready heap serves %s, bank "
                                "scan serves %s",
                                i, describe(heap).c_str(),
                                describe(scan).c_str()));
    }
  }
  return Status::Ok();
}

std::uint64_t Runtime::ClaimBacklog(std::uint32_t pool_index) const noexcept {
  std::uint64_t backlog = 0;
  for (const RecvBank& bank : banks_) {
    if (bank.claim == pool_index) backlog += bank.ready;
  }
  return backlog;
}

std::uint32_t Runtime::StolenBanksHeld(
    std::uint32_t pool_index) const noexcept {
  std::uint32_t held = 0;
  for (const RecvBank& bank : banks_) {
    held += bank.claim == pool_index && bank.home != pool_index;
  }
  return held;
}

std::optional<Runtime::ReadyFrame> Runtime::TrySteal(std::uint32_t thief) {
  PoolCore& member = pool_[thief];
  // Schmitt trigger: a fresh steal needs threshold + hysteresis; while
  // steals keep succeeding, threshold suffices. Damps claim ping-pong
  // around the threshold under churny load. Effective values clamp
  // oversized knobs to the whole-fabric inbound capacity.
  const std::uint64_t trigger =
      static_cast<std::uint64_t>(EffectiveStealThreshold()) +
      (member.steal_armed ? 0 : EffectiveStealHysteresis());
  // Victim: the most-loaded active sibling by ready-frame backlog over the
  // banks it currently claims (ties resolve to the lowest pool index).
  // With steal.domain_aware, a same-domain victim that clears the trigger
  // wins even past a deeper remote-domain backlog — the stolen bank's
  // fills then stay on this side of the interconnect.
  const std::uint32_t thief_domain = DomainOfPoolCore(thief);
  std::uint32_t victim = kInvalidPoolIndex;
  std::uint64_t victim_backlog = 0;
  std::uint32_t local_victim = kInvalidPoolIndex;
  std::uint64_t local_backlog = 0;
  for (std::uint32_t j = 0; j < pool_.size(); ++j) {
    if (j == thief) continue;
    if (pool_[j].state != PoolCoreState::kActive) continue;
    const std::uint64_t backlog = ClaimBacklog(j);
    if (backlog > victim_backlog) {
      victim = j;
      victim_backlog = backlog;
    }
    if (DomainOfPoolCore(j) == thief_domain && backlog > local_backlog) {
      local_victim = j;
      local_backlog = backlog;
    }
  }
  if (victim_backlog < trigger) victim = kInvalidPoolIndex;
  if (local_backlog < trigger) local_victim = kInvalidPoolIndex;

  // Oldest ready bank head among a victim's claimed banks (ReadyHeadOf
  // skips a bank with a frame mid-process — the handoff would double-begin
  // its head — and a bank whose head has not arrived yet).
  std::optional<ReadyFrame> best;
  const auto scan_victim = [&](std::uint32_t v) {
    best = ReadyHeadOf(v);
    return best.has_value();
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
    return std::nullopt;
  }
  // Ownership handoff: the thief now claims the bank and owes the rest of
  // its drain — including the flag return — until the claim reverts. A
  // bank can be stolen onward (even back by its home owner, which
  // settles the claim home).
  banks_[BankOf(*best)].claim = thief;
  member.steal_armed = true;
  ++member.wait_stats.banks_stolen;
  ++pool_[chosen].wait_stats.banks_donated;
  return best;
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

void Runtime::ApplyBankHome(std::uint32_t index, std::uint32_t new_home) {
  RecvBank& bank = banks_[index];
  bank.pending_home = kInvalidPoolIndex;
  const std::uint32_t old_home = bank.home;
  if (old_home == new_home) return;  // e.g. a revive cancelling a quiesce
  // The claim follows the new owner; a steal lease on the bank is
  // superseded — a permanent handoff outranks a revertible claim.
  bank.claim = new_home;
  bank.home = new_home;
  ++pool_[old_home].wait_stats.banks_resharded_out;
  ++pool_[new_home].wait_stats.banks_resharded_in;
  PushReadyHead(index);
}

void Runtime::RehomeBank(std::uint32_t index, std::uint32_t new_home) {
  if (banks_[index].in_flight) {
    // Mid-frame banks never change hands; the handoff applies the moment
    // the frame completes (CompleteFrame), preserving in-bank order.
    banks_[index].pending_home = new_home;
    return;
  }
  ApplyBankHome(index, new_home);
}

void Runtime::FinishQuiesce(std::uint32_t pool_index) {
  PoolCore& member = pool_[pool_index];
  member.state = PoolCoreState::kQuiesced;
  // Counted here — not at QuiesceCore — so a drain a revive called off
  // never reads as a completed quiesce.
  ++member.wait_stats.quiesces;
  member.steal_armed = false;
  member.idle_since.reset();
  // Any steal lease the member still holds reverts to the banks' home
  // owners — nothing may stay parked on a core that will never scan again
  // — and each owner gets woken to pick the backlog up.
  for (std::uint32_t i = 0; i < banks_.size(); ++i) {
    if (banks_[i].claim != pool_index) continue;
    banks_[i].claim = banks_[i].home;
    PushReadyHead(i);
    MaybeBeginNext(banks_[i].home);
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
  for (std::uint32_t i = 0; i < banks_.size(); ++i) {
    if (banks_[i].home != pool_index) continue;
    stranded += banks_[i].ready;
    RehomeBank(i, PickReshardTarget(host_.memory().DomainOf(banks_[i].base)));
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
  for (std::uint32_t i = 0; i < banks_.size(); ++i) {
    if (PoolIndexFor(i / config_.banks, i % config_.banks) != pool_index ||
        (banks_[i].home == pool_index &&
         banks_[i].pending_home == kInvalidPoolIndex)) {
      continue;
    }
    RehomeBank(i, pool_index);
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
  for (const RecvBank& bank : banks_) homed += bank.home == pool_index;
  return homed;
}

std::uint32_t Runtime::PendingRehomes() const noexcept {
  std::uint32_t pending = 0;
  for (const RecvBank& bank : banks_) {
    pending += bank.pending_home != kInvalidPoolIndex;
  }
  return pending;
}

void Runtime::BeginProcess(const ReadyFrame& frame, PicoTime waited) {
  PoolCore& member = pool_[frame.pool];
  auto& core = host_.core(member.core_id);
  const cpu::WaitOutcome outcome =
      cpu::WaitModel(config_.wait.mode).Wait(waited);
  core.Charge(outcome.cycles_burned, cpu::CycleClass::kWait);
  member.wait_stats.Record(waited, outcome);
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
  const mem::VirtAddr frame_addr = SlotAddr(frame.peer, frame.slot);
  // Everything this frame's processing touches (header, signal, code,
  // payload, jam data) runs through the hierarchy synchronously below, so
  // the delta of the cross-domain ledger is exactly what this drain paid.
  const std::uint64_t remote0 = caches.stats().remote_penalty_cycles;

  // Every way a frame can fail — unreadable header, inconsistent sizes, a
  // stale signal word, or an invoke that cannot link or faults — ends the
  // same way: one security rejection, and the frame completes unexecuted.
  const Status processed = [&]() -> Status {
    // The poll/WFE loop re-reads the signal line; its final read plus the
    // header fetch go through the cache hierarchy (this is where stashing
    // vs DRAM delivery first shows up).
    TC_ASSIGN_OR_RETURN(const auto hdr_span,
                        host_.memory().RawSpan(frame_addr, kHeaderBytes));
    cycles += caches.Access(core, frame_addr, kHeaderBytes,
                            cache::AccessKind::kLoad);
    // Header validation is bounded by the mailbox slot: a frame_len larger
    // than the slot could only have been written by a corrupted sender.
    TC_ASSIGN_OR_RETURN(const FrameHeader header,
                        ReadHeader(hdr_span, config_.mailbox_slot_bytes));
    msg.sn = header.sn;
    msg.elem_id = header.elem_id;
    msg.frame_len = header.frame_len;
    msg.injected = (header.flags & kFlagInjected) != 0;
    msg.by_handle = (header.flags & kFlagByHandle) != 0;

    // Signal word check (magic + SN echo). The signal line access cost.
    const mem::VirtAddr sig_addr = frame_addr + header.frame_len - 8;
    cycles += caches.Access(core, sig_addr, 8, cache::AccessKind::kLoad);
    TC_ASSIGN_OR_RETURN(const std::uint64_t sig,
                        host_.memory().LoadU64(sig_addr));
    if (sig != SignalWord(header.sn)) {
      return DataLoss(StrFormat("bad signal word for sn %u", header.sn));
    }
    if (!config_.fixed_size_frames) {
      // Variable-size frames: the first wait only covered the header
      // magic; model the second wait phase on the end-of-frame signal as
      // one more poll iteration (same put => already visible).
      cycles += cpu::kPollIterationCycles;
    }
    TC_ASSIGN_OR_RETURN(const Cycles invoke_cycles,
                        InvokeFrame(frame, header, msg));
    cycles += invoke_cycles;
    return Status::Ok();
  }();
  if (!processed.ok()) {
    ++stats_.security_rejections;
    TC_WARN << "frame rejected: " << processed;
  }
  CompleteFrame(frame, msg, cycles,
                caches.stats().remote_penalty_cycles - remote0);
}

StatusOr<Cycles> Runtime::InvokeFrame(const ReadyFrame& frame,
                                      const FrameHeader& header,
                                      ReceivedMessage& msg) {
  Cycles cycles = 0;
  const mem::VirtAddr frame_addr = SlotAddr(frame.peer, frame.slot);
  auto& caches = host_.caches();
  auto& memory = host_.memory();
  PoolCore& member = pool_[frame.pool];
  const std::uint32_t core = member.core_id;
  const bool full_body = msg.injected && !msg.by_handle;

  // ---- where the code comes from --------------------------------------
  // The only step that differs by shape. It ends with the entry point and
  // the code+rodata window the jam may execute from (empty for a Local
  // frame, whose entry lies in a loaded library).
  ElementInfo* elem = nullptr;  // full-body and Local frames
  FrameLayout layout;
  mem::VirtAddr code = 0;
  std::uint64_t code_size = 0;
  mem::VirtAddr entry = 0;
  if (msg.by_handle) {
    if (!config_.jam_cache.enabled) {
      return FailedPrecondition(
          "by-handle frame received but the jam cache is disabled");
    }
    layout = FrameLayout::Compute(
        SpecFor(header.flags, 0, 0, header.args_size, header.usr_size));
    // The 64-bit content handle rides in place of GOTP.
    cycles += caches.Access(core, frame_addr + layout.handle_off, 8,
                            cache::AccessKind::kLoad);
    TC_ASSIGN_OR_RETURN(const std::uint64_t handle,
                        memory.LoadU64(frame_addr + layout.handle_off));
    const auto it = jam_cache_.find(handle);
    if (it == jam_cache_.end() || it->second.elem_id != header.elem_id) {
      // Miss — cold cache, eviction, content drift after a reload, or a
      // handle naming content this cache holds for another element than
      // the header claims (an honest sender only produces matched pairs,
      // and the full-body resend re-establishes which element the bytes
      // belong to). The frame is *not* executed (its code never
      // travelled); the slot's NAK bit rides home in the bank flag and the
      // sender resends full-body. Not an error and not a security
      // rejection: the protocol is designed to degrade this way.
      ++jam_stats_.misses;
      ++jam_stats_.naks_sent;
      msg.cache_miss = true;
      banks_[BankOf(frame)].nak_mask |=
          1u << (frame.slot % config_.mailboxes_per_bank);
      return cycles;
    }
    JamCacheEntry& hit = it->second;
    ++jam_stats_.hits;
    ++hit.invokes;
    hit.last_used = ++jam_cache_tick_;
    code = hit.image.code_addr;
    code_size = hit.image.code_size;
    entry = code + hit.entry_offset;

    // The per-hit link is a PRE-slot validation of the resident image —
    // the table lookup that replaces the full per-invoke GOT rewrite. The
    // code was verified at install; verify_cached_invokes re-verifies the
    // resident bytes on every hit, the same pass a full-body arrival pays.
    cycles += kJamCacheHitRelinkCycles;
    cycles += caches.Access(core, hit.image.pre_addr, 8,
                            cache::AccessKind::kLoad);
    TC_RETURN_IF_ERROR(jelf::RelinkCachedImage(memory, hit.image));
    if (config_.security.verify_cached_invokes) {
      TC_ASSIGN_OR_RETURN(const auto blob, memory.RawSpan(code, code_size));
      TC_ASSIGN_OR_RETURN(
          const Cycles verified,
          VerifyJamCode(blob, hit.text_size, hit.image.got_slots));
      cycles += verified;
    }

    // Savings ledger: what the same invoke would have cost full-body.
    const FrameLayout full = FrameLayout::Compute(
        SpecFor(kFlagInjected, hit.image.got_slots, code_size,
                header.args_size, header.usr_size));
    jam_stats_.bytes_saved += full.frame_len - layout.frame_len;
    if (hit.cold_link_cycles > kJamCacheHitRelinkCycles) {
      jam_stats_.link_cycles_saved +=
          hit.cold_link_cycles - kJamCacheHitRelinkCycles;
    }
  } else {
    for (auto& e : elements_) {
      if (e.elem_id == header.elem_id && e.kind == pkg::ElementKind::kJam) {
        elem = &e;  // LoadPackage keeps jam ids unique on a host
        break;
      }
    }
    if (elem == nullptr) {
      return NotFound(StrFormat("unknown element id %u", header.elem_id));
    }
    const std::uint32_t got_slots = elem->injected_image.got_slot_count();
    layout = FrameLayout::Compute(
        SpecFor(header.flags, got_slots, elem->code_blob.size(),
                header.args_size, header.usr_size));
    if (full_body) {
      code = frame_addr + layout.code_off;
      code_size = elem->code_blob.size();
      entry = code + elem->entry_offset;
      if (config_.security.verify_injected_code) {
        TC_ASSIGN_OR_RETURN(const auto blob, memory.RawSpan(code, code_size));
        TC_ASSIGN_OR_RETURN(
            const Cycles verified,
            VerifyJamCode(blob, elem->injected_image.text.size(), got_slots));
        cycles += verified;
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
    } else {
      if (elem->local_entry == 0) {
        return FailedPrecondition(
            StrFormat("jam '%s' has no local-function binding on this host",
                      elem->name.c_str()));
      }
      cycles += kDispatchCycles;
      entry = elem->local_entry;
    }
  }

  // ---- seal, execute, restore: the same for every shape ----------------
  // W^X around execution: the pages holding a full-body frame's code turn
  // RX, and every frame's ARGS/USR pages RW, or read-only under
  // read_only_args. A by-handle or Local frame's header shares its first
  // data page and is sealed with it.
  const bool split = config_.security.split_code_data_pages;
  if (split) {
    if (full_body) {
      cycles += kMprotectCycles;
      TC_RETURN_IF_ERROR(memory.Protect(frame_addr, layout.args_off,
                                        mem::Perm::kRX));
    }
    cycles += kMprotectCycles;
    TC_RETURN_IF_ERROR(memory.Protect(
        frame_addr + layout.args_off, layout.frame_len - layout.args_off,
        config_.security.read_only_args ? mem::Perm::kRead : mem::Perm::kRW));
  }

  const bool execute = (header.flags & kFlagNoExecute) == 0;
  vm::ExecResult result;
  if (execute) {
    vm::Interpreter interp(memory, caches, core, &natives_,
                           ExecFor(/*confine=*/true, code, code_size));
    const std::uint64_t args[3] = {frame_addr + layout.args_off,
                                   frame_addr + layout.usr_off,
                                   header.usr_size};
    result = interp.Execute(entry, args, member.stack_top);
    host_.core(core).CountInstructions(result.instructions);
    msg.instructions = result.instructions;
  }
  // The mailbox rests RWX between frames, also after a fault.
  if (split) {
    cycles += kMprotectCycles;
    TC_RETURN_IF_ERROR(
        memory.Protect(frame_addr, layout.frame_len, mem::Perm::kRWX));
  }
  if (!result.status.ok()) {
    return Status(result.status.code(),
                  StrFormat("jam %u faulted: %s", header.elem_id,
                            result.status.message().c_str()));
  }
  cycles += result.cycles;
  msg.executed = execute;
  msg.return_value = result.return_value;

  // Send-once, invoke-many: an executed full-body frame is the install
  // point of the jam cache — link the post-GOT-rewrite image once so every
  // later invoke of this content can ride a slim by-handle frame. A
  // delivery-only frame installs nothing, so it never evicts a hot entry.
  if (full_body && execute && config_.jam_cache.enabled) {
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
    TC_ASSIGN_OR_RETURN(cycles,
                        VerifyJamCode(elem.code_blob, text_bytes,
                                      elem.injected_image.got_slot_count()));
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
  // install, and the code-page flip. A hit pays the data-page flip and the
  // restore like every other frame.
  Cycles cycles = static_cast<Cycles>(elem.injected_image.got_slot_count()) *
                  kGotLookupCycles;
  if (config_.security.verify_injected_code) {
    cycles += elem.injected_image.text.size() / 4;
  }
  if (config_.security.receiver_installs_got) {
    cycles += static_cast<Cycles>(elem.injected_image.got_slot_count()) *
              kGotLookupCycles;
  }
  if (config_.security.split_code_data_pages) cycles += kMprotectCycles;
  return cycles;
}

vm::ExecConfig Runtime::ExecFor(bool confine, mem::VirtAddr code_base,
                                std::uint64_t code_size) const {
  vm::ExecConfig exec;
  exec.max_instructions = config_.max_instructions;
  exec.enforce_exec_permission = config_.security.enforce_exec_permission;
  if (!confine || !config_.security.confine_control_flow) return exec;
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
  if (delivered_at_[SlotIndex(from, slot)] != kNotDelivered) {
    return FailedPrecondition("slot still holds an undrained frame");
  }
  // The hostile put lands like any RDMA write: straight through the DMA
  // plane, no content checks — the receiver pipeline is the only defense.
  TC_RETURN_IF_ERROR(host_.memory().DmaWrite(SlotAddr(from, slot), bytes));
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

bool Runtime::PeerHasJamHandle(PeerId peer, const std::string& name) const {
  const auto elem = FindElement(name);
  return peer < peers_.size() && elem.ok() &&
         peers_[peer].peer_handles.contains((*elem)->content_handle);
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
      host_.memory().DomainOf(SlotAddr(frame.peer, frame.slot));
  if (frame_domain != DomainOfPoolCore(frame.pool)) {
    ++pool_[frame.pool].wait_stats.frames_drained_remote;
  }
  pool_[frame.pool].wait_stats.remote_drain_cycles += remote_penalty_cycles;

  engine_.ScheduleAfter(
      busy,
      [this, frame, msg]() mutable {
        msg.completed_at = engine_.Now();
        if (msg.executed) ++stats_.per_peer[frame.peer].messages_executed;

        // Bank recycling: after draining a bank of this peer's slice,
        // return its flag to that peer — and only that peer. Banks drain
        // independently (each on its claiming pool core), so the cursor
        // is per bank. The flag goes home exactly when the whole bank has
        // been drained — by the claim holder of record, whether that is
        // the home owner or a thief that took the bank over.
        const std::uint32_t index = BankOf(frame);
        RecvBank& bank = banks_[index];
        // The bank's home as this frame executed. A quiesce/revive that
        // wanted to move it mid-frame is parked in pending_home and
        // applies below, after this frame's bookkeeping settles.
        const std::uint32_t home = bank.home;
        bank.in_flight = false;
        --bank.ready;
        delivered_at_[SlotIndex(frame.peer, frame.slot)] = kNotDelivered;
        if (frame.pool != home) ++pool_[frame.pool].wait_stats.frames_stolen;
        const bool bank_drained =
            bank.cursor == config_.mailboxes_per_bank - 1;
        if (bank_drained && bank.claim != home) ++stats_.banks_drained_stolen;
        if (bank_drained && bank.claim == home) ++stats_.banks_drained_owner;
        bank.cursor = (bank.cursor + 1) % config_.mailboxes_per_bank;
        // A steal lease ends at the full drain (the flag goes home below),
        // and also once no delivered frame of the bank remains: the lease
        // covers the backlog the thief took the bank for, and fresh fills
        // should land with their stash locality intact.
        if (bank_drained || bank.ready == 0) bank.claim = home;
        pool_[frame.pool].processing = false;
        // Deferred hotplug handoff: a quiesce/revive that hit this bank
        // mid-frame applies now that the frame is done — the one moment
        // the "never change hands mid-frame" rule allows.
        std::uint32_t rehomed_to = kInvalidPoolIndex;
        if (bank.pending_home != kInvalidPoolIndex) {
          rehomed_to = bank.pending_home;
          if (pool_[rehomed_to].state != PoolCoreState::kActive) {
            // The deferred target itself left the pool meanwhile (a second
            // quiesce); re-pick among whoever is active now.
            rehomed_to =
                PickReshardTarget(host_.memory().DomainOf(bank.base));
          }
          if (rehomed_to != kInvalidPoolIndex) {
            ApplyBankHome(index, rehomed_to);
          }
        }
        // The bank's next head, if already delivered, is ready now: index
        // it under whoever claims the bank after the bookkeeping above.
        PushReadyHead(index);
        // This completion may have been the drain a quiesce was waiting
        // for: with its frame done (and its bank re-homed), the member
        // leaves the pool for good.
        PoolCore& member = pool_[frame.pool];
        if (member.state == PoolCoreState::kDraining && !member.processing) {
          FinishQuiesce(frame.pool);
        }
        if (bank_drained) {
          Status st = ReturnBankFlag(index);
          if (!st.ok()) TC_WARN << "flag return failed: " << st;
        } else if (msg.cache_miss) {
          // A jam-cache miss mid-bank cannot wait for the drain flag —
          // the sender may have nothing else queued toward this bank.
          // Push a NAK-only flag word (bit 0 clear) immediately so the
          // full-body resend leaves now. A miss on the drain slot rides
          // the ReturnBankFlag word above instead.
          Status st = SendNakFlag(index);
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

RuntimeStats Runtime::stats() const {
  RuntimeStats total = stats_;
  for (const PeerStats& p : stats_.per_peer) {
    total.messages_sent += p.messages_sent;
    total.messages_delivered += p.messages_delivered;
    total.messages_executed += p.messages_executed;
    total.bytes_sent += p.bytes_sent;
    total.send_stalls += p.send_stalls;
    total.bank_flags_returned += p.bank_flags_returned;
  }
  for (const PoolCore& member : pool_) {
    const cpu::WaitStats& w = member.wait_stats;
    total.wait_episodes += w.episodes;
    total.steals += w.banks_stolen;
    total.frames_stolen += w.frames_stolen;
    total.frames_drained_remote += w.frames_drained_remote;
    total.remote_drain_cycles += w.remote_drain_cycles;
    total.banks_resharded += w.banks_resharded_in;
  }
  return total;
}

std::uint64_t Runtime::InFlightFrames() const noexcept {
  // Counted from slot occupancy, independently of RecvBank::ready, so the
  // soak suite's leak check compares two separate records.
  std::uint64_t in_flight = 0;
  for (const PicoTime at : delivered_at_) in_flight += at != kNotDelivered;
  return in_flight;
}

std::uint32_t Runtime::ClosedSendBanks(PeerId peer) const noexcept {
  if (peer >= peers_.size()) return 0;
  std::uint32_t closed = 0;
  for (const SendBank& bank : peers_[peer].send_banks) closed += !bank.open;
  return closed;
}

Status Runtime::ReturnBankFlag(std::uint32_t index) {
  RecvBank& bank = banks_[index];
  ++stats_.per_peer[index / config_.banks].bank_flags_returned;
  // Bit 0 opens the bank; bit 1 is unused. Bits [32, 64) carry the
  // per-slot jam-cache NAK mask: "these by-handle frames named content I
  // do not have — resend them full-body".
  std::uint64_t flag_word = 1ull;
  // Bit 2 echoes a switch ECN mark home (ECE): a frame of this bank
  // arrived marked since the last return. Echoed exactly once — the
  // accumulator clears here — so the fabric-wide echo ledger reconciles.
  if (bank.ecn) {
    flag_word |= 4ull;
    bank.ecn = false;
    ++stats_.ecn_echoes_sent;
  }
  flag_word |= static_cast<std::uint64_t>(bank.nak_mask) << 32;
  bank.nak_mask = 0;
  return PutFlagWord(index, flag_word);
}

Status Runtime::SendNakFlag(std::uint32_t index) {
  RecvBank& bank = banks_[index];
  if (bank.nak_mask == 0) return Status::Ok();
  // Bit 0 stays clear: this put does NOT reopen the bank — it only ships
  // the accumulated NAK bits so the sender can resend full-body at once.
  const std::uint64_t flag_word =
      static_cast<std::uint64_t>(bank.nak_mask) << 32;
  bank.nak_mask = 0;
  return PutFlagWord(index, flag_word);
}

Status Runtime::PutFlagWord(std::uint32_t index, std::uint64_t word) {
  const PeerState& peer = peers_[index / config_.banks];
  const std::uint32_t bank = index % config_.banks;
  Runtime* peer_rt = peer.runtime;
  const PeerId our_id = peer.remote_id;
  return peer.endpoint
      ->PutInline(word, peer.peer_flag_base + 8ull * bank,
                  peer.peer_flag_rkey, false,
                  [peer_rt, our_id, bank](const net::PutCompletion& c) {
                    if (c.status.ok()) peer_rt->OnBankFlag(our_id, bank);
                  })
      .status();
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
