// Quickstart: inject a C function over the (simulated) RDMA network and
// execute it on the remote host.
//
//   1. Write an active message as one canonical AMC source file
//      (jam_hello.amc) plus a ried providing remote-side state.
//   2. Build them into a package (this also produces the Local Function
//      library and the GOT-rewritten injectable image from the same source).
//   3. Bring up the two-host testbed, load the package on both hosts.
//   4. Send the jam as an *Injected Function*: the code bytes travel in the
//      message, get linked against the receiver's namespace through the
//      patched GOT, and run on arrival.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <cstring>

#include "core/fabric.hpp"

namespace {

// A ried (shared library shipped ahead of time) providing server state and
// an interface the mobile jam links against.
constexpr const char* kRiedCounter = R"(
long hits = 0;

long ried_counter(void) { return 0; }
long ried_counter_init(void) { hits = 0; return 0; }

long record_hit(long delta) {
  hits = hits + delta;
  return hits;
}
)";

// The jam: a mobile C function. `record_hit` and `tc_print_*` are external
// symbols — resolved on the *receiver* via the GOT that travels with the
// message.
constexpr const char* kJamHello = R"(
extern long record_hit(long delta);
extern long tc_print_str(const char* s);
extern long tc_print_u64(unsigned long v);

long jam_hello(long* args, long* usr, long usr_bytes) {
  long n = usr_bytes / 8;
  long total = 0;
  for (long i = 0; i < n; ++i) total = total + usr[i];
  tc_print_str("jam_hello executed remotely: payload sum = ");
  tc_print_u64((unsigned long)total);
  tc_print_str("\n");
  return record_hit(args[0]);
}
)";

}  // namespace

int main() {
  using namespace twochains;

  // ---- 2. build the package ------------------------------------------
  pkg::PackageBuilder builder;
  if (!builder.AddSourceFile("ried_counter.rdc", kRiedCounter).ok() ||
      !builder.AddSourceFile("jam_hello.amc", kJamHello).ok()) {
    std::fprintf(stderr, "bad sources\n");
    return 1;
  }

  // ---- 3. two-host testbed -------------------------------------------
  core::Fabric fabric;
  Status st = fabric.BuildAndLoad(builder, "quickstart");
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- 4. inject -------------------------------------------------------
  const std::vector<std::uint64_t> args = {1};  // record_hit(+1)
  std::vector<std::uint8_t> payload(4 * 8);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t v = (i + 1) * 100;
    std::memcpy(payload.data() + 8 * i, &v, 8);
  }

  bool done = false;
  fabric.runtime(1).SetOnExecuted([&](const core::ReceivedMessage& m) {
    std::printf("host1 executed jam (sn=%u): return value = %llu, "
                "%llu interpreted instructions\n",
                m.sn, static_cast<unsigned long long>(m.return_value),
                static_cast<unsigned long long>(m.instructions));
    done = true;
  });

  auto receipt =
      fabric.runtime(0).Send("hello", core::Invoke::kInjected, args, payload);
  if (!receipt.ok()) {
    std::fprintf(stderr, "send failed: %s\n",
                 receipt.status().ToString().c_str());
    return 1;
  }
  std::printf("sent injected frame: %llu bytes (code travels with the "
              "message)\n",
              static_cast<unsigned long long>(receipt->frame_len));

  fabric.RunUntil([&] { return done; });

  // Output produced by natives *on the receiving host*:
  std::printf("host1 print output: %s",
              fabric.runtime(1).print_output().c_str());
  std::printf("host1 'hits' counter: %llu\n",
              static_cast<unsigned long long>(
                  fabric.runtime(1).PeekU64("hits").value()));
  std::printf("quickstart OK\n");
  return 0;
}
