#include "mem/region.hpp"

#include "common/strfmt.hpp"

namespace twochains::mem {
namespace {

/// Mixes registration parameters into a 32-bit key (model of the HCA's key
/// generation: "the underlying interconnect generates the RKEY based on a
/// virtual memory address and the permissions", §V).
std::uint32_t MixKey(VirtAddr addr, RemoteAccess access,
                     std::uint32_t serial) {
  std::uint64_t x = addr ^ (static_cast<std::uint64_t>(
                                static_cast<std::uint8_t>(access))
                            << 56);
  x ^= static_cast<std::uint64_t>(serial) * 0x9e3779b97f4a7c15ull;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  std::uint32_t key = static_cast<std::uint32_t>(x ^ (x >> 32));
  return key == 0 ? 1 : key;  // zero is reserved as "no key"
}

}  // namespace

StatusOr<RKey> RegionRegistry::RegisterRegion(VirtAddr addr,
                                              std::uint64_t size,
                                              RemoteAccess access,
                                              std::string tag) {
  if (size == 0) return InvalidArgument("zero-size region");
  std::uint32_t key = MixKey(addr, access, next_serial_++);
  // Collisions are astronomically rare but the map insert makes them
  // impossible rather than improbable.
  while (regions_.contains(key)) key = MixKey(addr, access, next_serial_++);
  regions_.emplace(key, Region{addr, size, access, std::move(tag)});
  return RKey{key};
}

Status RegionRegistry::Deregister(RKey key) {
  if (regions_.erase(key.value) == 0) {
    return NotFound(StrFormat("rkey 0x%08x not registered", key.value));
  }
  return Status::Ok();
}

Status RegionRegistry::Validate(RKey key, VirtAddr addr, std::uint64_t size,
                                RemoteAccess need) const {
  const auto it = regions_.find(key.value);
  if (it == regions_.end()) {
    return PermissionDenied(
        StrFormat("invalid rkey 0x%08x (rejected at hardware level)",
                  key.value));
  }
  const Region& r = it->second;
  if (addr < r.addr || addr + size > r.addr + r.size) {
    return PermissionDenied(
        StrFormat("rkey 0x%08x does not cover [0x%llx,+%llu)", key.value,
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(size)));
  }
  if (!HasAccess(r.access, need)) {
    return PermissionDenied(
        StrFormat("rkey 0x%08x lacks required access class", key.value));
  }
  return Status::Ok();
}

}  // namespace twochains::mem
