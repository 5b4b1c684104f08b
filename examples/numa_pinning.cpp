// NUMA bank pinning: one hot sender injecting into a 2-domain receiver,
// with the receiver's mailbox banks either placed flat (every bank in
// domain 0 — what a NUMA-oblivious allocator does) or pinned to the
// memory domain of the pool core that drains them
// (RuntimeConfig::domain_aware_placement, the default).
//
// The receiver is a 4-core host split into domains {0,1} and {2,3}, with
// a 2-core receiver pool on cores 1 and 2 — one pool core per domain.
// The hot peer's two banks shard one to each pool core, so under flat
// placement pool core 2 (domain 1) drains a bank whose bytes — and whose
// NIC-stashed cache lines — live in domain 0: every fill that reaches
// the remote LLC slice or DRAM pays the cross-domain hop. Pinning moves
// that bank's pages (and with them the NIC's stash target) into domain
// 1, and the hop disappears.
//
// Build & run:  ./build/examples/numa_pinning
#include <cstdio>
#include <vector>

#include "benchlib/send_loop.hpp"
#include "core/fabric.hpp"
#include "pkg/package.hpp"

namespace {

constexpr const char* kRiedState = R"(
long sink = 0;

long ried_state(void) { return 0; }
long ried_state_init(void) { sink = 0; return 0; }
)";

// The injected hot-path function: walk the payload, fold it into the
// receiver-resident sink.
constexpr const char* kJamFold = R"(
extern long sink;

long jam_fold(long* args, long* usr, long usr_bytes) {
  long n = usr_bytes / 8;
  long total = 0;
  for (long i = 0; i < n; ++i) total = total + usr[i];
  sink = sink + total;
  return total;
}
)";

struct RunResult {
  twochains::PicoTime duration = 0;
  std::uint64_t frames_remote = 0;
  std::uint64_t remote_cycles = 0;
};

RunResult RunOnce(bool pinned) {
  using namespace twochains;

  pkg::PackageBuilder builder;
  if (!builder.AddSourceFile("ried_state.rdc", kRiedState).ok() ||
      !builder.AddSourceFile("jam_fold.amc", kJamFold).ok()) {
    std::fprintf(stderr, "bad sources\n");
    std::exit(1);
  }

  core::FabricOptions options;
  options.runtime.banks = 2;
  options.runtime.mailboxes_per_bank = 4;
  options.runtime.mailbox_slot_bytes = KiB(64);
  options.runtime.receiver_core = 1;   // pool: core 1 (domain 0) ...
  options.runtime.receiver_cores = 2;  // ... and core 2 (domain 1)
  options.runtime.sender_core = 3;
  options.runtime.domain_aware_placement = pinned;
  options.host.cache.domains = 2;
  core::Fabric fabric(options);
  if (!fabric.BuildAndLoad(builder, "numa_pinning").ok()) {
    std::fprintf(stderr, "setup failed\n");
    std::exit(1);
  }

  const int total = 64;
  int executed = 0;
  fabric.runtime(1).SetOnExecuted(
      [&](const core::ReceivedMessage& msg) { executed += msg.executed; });

  std::vector<std::uint8_t> usr(1024, 0);
  for (std::size_t i = 0; i < usr.size(); i += 8) usr[i] = 1;
  const bench::SendLoops sender(
      fabric,
      {{.src = 0,
        .dst = 1,
        .count = total,
        .next = [&usr](std::uint64_t) {
          return bench::FlowMessage{.jam = "fold", .usr = usr};
        }}});
  fabric.RunUntil([&] { return executed >= total; });
  if (!sender.status().ok()) {
    std::fprintf(stderr, "send failed: %s\n",
                 sender.status().ToString().c_str());
    std::exit(1);
  }
  if (executed < total) {
    std::fprintf(stderr, "run stalled at %d/%d\n", executed, total);
    std::exit(1);
  }

  RunResult result;
  result.duration = fabric.engine().Now();
  result.frames_remote = fabric.runtime(1).stats().frames_drained_remote;
  result.remote_cycles = fabric.runtime(1).stats().remote_drain_cycles;
  return result;
}

}  // namespace

int main() {
  std::printf("2-domain receiver, 2-core pool (one core per domain), one "
              "hot sender, 64 x 1 KiB injected folds\n\n");
  const RunResult flat = RunOnce(/*pinned=*/false);
  const RunResult pinned = RunOnce(/*pinned=*/true);

  auto report = [](const char* name, const RunResult& r) {
    std::printf("%-7s placement: %8.2f us, %llu frames drained "
                "cross-domain, %llu penalty cycles\n",
                name, static_cast<double>(r.duration) / 1e6,
                static_cast<unsigned long long>(r.frames_remote),
                static_cast<unsigned long long>(r.remote_cycles));
  };
  report("flat", flat);
  report("pinned", pinned);

  const bool ok = pinned.duration < flat.duration &&
                  pinned.frames_remote == 0 && flat.frames_remote > 0;
  std::printf("\npinning the hot peer's banks to the draining cores' "
              "domains: %.1f%% faster, every drain domain-local\n",
              100.0 * (1.0 - static_cast<double>(pinned.duration) /
                                 static_cast<double>(flat.duration)));
  std::printf("numa_pinning %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
