// Per-process function overloading (§IV): "A program can easily define
// different functions with the same symbolic name for different processes,
// so that when a message arrives it will call a function specific to that
// process, much like function overloading."
//
// Both hosts load a package exposing `transform(x)` from a ried — but each
// host's ried implements it differently (host 0 doubles, host 1 squares).
// The *same* injected jam, sent to either host, remote-links `transform`
// against that host's namespace through the patched GOT and therefore
// behaves per-process. This is remote dynamic linking doing the dispatch —
// no registry, no virtual environment.
//
// Build & run:  ./build/examples/overloading
#include <cstdio>

#include "core/fabric.hpp"

namespace {

constexpr const char* kJamApply = R"(
extern long transform(long x);

long jam_apply(long* args, char* usr, long usr_bytes) {
  return transform(args[0]);
}
)";

constexpr const char* kRiedDoubler = R"(
long ried_math(void) { return 0; }
long transform(long x) { return 2 * x; }
)";

constexpr const char* kRiedSquarer = R"(
long ried_math(void) { return 0; }
long transform(long x) { return x * x; }
)";

twochains::StatusOr<twochains::pkg::Package> BuildVariant(
    const char* ried_source, const char* name) {
  twochains::pkg::PackageBuilder builder;
  TC_RETURN_IF_ERROR(builder.AddSourceFile("ried_math.rdc", ried_source));
  TC_RETURN_IF_ERROR(builder.AddSourceFile("jam_apply.amc", kJamApply));
  return builder.Build(name);
}

}  // namespace

int main() {
  using namespace twochains;

  auto doubler = BuildVariant(kRiedDoubler, "math_doubler");
  auto squarer = BuildVariant(kRiedSquarer, "math_squarer");
  if (!doubler.ok() || !squarer.ok()) {
    std::fprintf(stderr, "package build failed\n");
    return 1;
  }

  core::Fabric fabric;
  // Host 0 doubles; host 1 squares. Same element names, same jam source.
  Status st = fabric.LoadPackages({&*doubler, &*squarer});
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  auto send_and_wait = [&](int from, std::uint64_t x) -> std::uint64_t {
    const int to = 1 - from;
    std::uint64_t result = 0;
    bool done = false;
    fabric.runtime(to).SetOnExecuted(
        [&](const core::ReceivedMessage& m) {
          result = m.return_value;
          done = true;
        });
    const std::vector<std::uint64_t> args = {x};
    auto receipt = fabric.runtime(from).Send(
        "apply", core::Invoke::kInjected, args, {});
    if (!receipt.ok()) {
      std::fprintf(stderr, "send failed: %s\n",
                   receipt.status().ToString().c_str());
      std::exit(1);
    }
    fabric.RunUntil([&] { return done; });
    fabric.runtime(to).SetOnExecuted(nullptr);
    return result;
  };

  // The same jam binary, injected into two different processes:
  const std::uint64_t on_host1 = send_and_wait(/*from=*/0, 9);  // squares
  const std::uint64_t on_host0 = send_and_wait(/*from=*/1, 9);  // doubles
  std::printf("jam_apply(9) executed on host1 (squarer ried): %llu\n",
              static_cast<unsigned long long>(on_host1));
  std::printf("jam_apply(9) executed on host0 (doubler ried): %llu\n",
              static_cast<unsigned long long>(on_host0));

  if (on_host1 != 81 || on_host0 != 18) {
    std::fprintf(stderr, "unexpected results!\n");
    return 1;
  }
  std::printf("same symbol, per-process binding — OK\n");
  return 0;
}
