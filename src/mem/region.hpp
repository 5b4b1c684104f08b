// RDMA memory registration: regions and 32-bit remote keys (rkeys).
//
// Mirrors the IBTA model the paper relies on (§V): memory is registered for
// remote access with a permission set; the HCA generates a 32-bit rkey from
// the registration; every inbound one-sided operation must present an rkey
// that (a) names a live registration, (b) covers the full target range, and
// (c) grants the operation's access class — otherwise the hardware rejects
// it before memory is touched.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.hpp"
#include "mem/address.hpp"

namespace twochains::mem {

/// Access classes an RDMA registration can grant (IBTA: remote read, remote
/// write, remote atomic — plus the paper's proposed executable extension,
/// "Extend the IBTA standard to support executable permissions", §V).
enum class RemoteAccess : std::uint8_t {
  kRead = 1,
  kWrite = 2,
  kAtomic = 4,
  kExec = 8,
};

constexpr RemoteAccess operator|(RemoteAccess a, RemoteAccess b) noexcept {
  return static_cast<RemoteAccess>(static_cast<std::uint8_t>(a) |
                                   static_cast<std::uint8_t>(b));
}
constexpr bool HasAccess(RemoteAccess have, RemoteAccess need) noexcept {
  return (static_cast<std::uint8_t>(have) & static_cast<std::uint8_t>(need)) ==
         static_cast<std::uint8_t>(need);
}

/// A 32-bit remote key, as defined by the IBTA standard.
struct RKey {
  std::uint32_t value = 0;
  friend bool operator==(RKey a, RKey b) noexcept { return a.value == b.value; }
};

/// One registered memory region.
struct Region {
  VirtAddr addr = 0;
  std::uint64_t size = 0;
  RemoteAccess access = RemoteAccess::kRead;
  std::string tag;
};

/// Per-host registry of RDMA-registered regions, owned by the NIC model.
class RegionRegistry {
 public:
  RegionRegistry() = default;

  /// Registers [addr, addr+size) for remote access; returns the rkey the
  /// initiator must present. The key derives from the address, permissions,
  /// and a registration counter (as the paper describes the HCA doing), so
  /// keys are unique per registration and not guessable from addr alone
  /// in the trivial sense (a property the ReDMArk-style tests probe).
  StatusOr<RKey> RegisterRegion(VirtAddr addr, std::uint64_t size,
                                RemoteAccess access, std::string tag);

  /// Invalidates a registration; subsequent ops with its rkey are rejected.
  Status Deregister(RKey key);

  /// Validates an inbound one-sided op: rkey must exist, cover the whole
  /// range, and grant @p need. Runs on every inbound put, so it copies
  /// nothing.
  Status Validate(RKey key, VirtAddr addr, std::uint64_t size,
                  RemoteAccess need) const;

  std::size_t LiveRegions() const noexcept { return regions_.size(); }

 private:
  std::map<std::uint32_t, Region> regions_;
  std::uint32_t next_serial_ = 0x9e37;  // arbitrary non-zero start
};

}  // namespace twochains::mem
