#include "probes.hpp"

#include <chrono>
#include <cstdint>
#include <vector>

#include "benchlib/workloads.hpp"
#include "cache/hierarchy.hpp"
#include "common/rng.hpp"
#include "jamvm/assembler.hpp"
#include "jamvm/interpreter.hpp"
#include "mem/host_memory.hpp"
#include "sim/engine.hpp"

namespace tcbench {
namespace {

using namespace twochains;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One self-rescheduling event chain: pure engine dispatch cost.
double DispatchNs() {
  constexpr std::uint64_t kEvents = 2'000'000;
  struct Tick {
    sim::Engine* engine;
    std::uint64_t* fired;
    void operator()() {
      if (++*fired < kEvents) engine->ScheduleAfter(1, Tick{*this}, "probe");
    }
  };
  sim::Engine engine;
  std::uint64_t fired = 0;
  engine.ScheduleAfter(1, Tick{&engine, &fired}, "probe");
  const auto t = Clock::now();
  engine.Run();
  return Since(t) * 1e9 / static_cast<double>(engine.EventsProcessed());
}

/// Construct and destroy one paper-testbed arena (512 MiB).
double ArenaMsPerGib() {
  const auto t = Clock::now();
  { mem::HostMemory arena(0, MiB(512)); }
  return Since(t) * 1e3 * 2;
}

/// Interpret a sum loop (4 instructions per iteration) out of simulated
/// memory, every fetch charged to the cache model.
double InterpreterNsPerInstr(std::vector<std::string>* errors) {
  constexpr std::uint64_t kIterations = 500'000;
  mem::HostMemory memory(0, MiB(8));
  cache::CacheHierarchy caches{cache::HierarchyConfig{}};
  auto code = vm::Assemble(R"(
    f:
      mov t0, zr
    .loop:
      beq a0, zr, .done
      add t0, t0, a0
      addi a0, a0, -1
      jmp .loop
    .done:
      mov a0, t0
      ret
  )");
  if (!code.ok()) {
    errors->push_back("probe assemble: " + code.status().ToString());
    return 0;
  }
  auto entry = memory.Allocate(code->text.size(), 64, mem::Perm::kRWX, "code");
  auto stack = memory.Allocate(KiB(64), 16, mem::Perm::kRW, "stack");
  if (!entry.ok() || !stack.ok() || !memory.DmaWrite(*entry, code->text).ok()) {
    errors->push_back("probe code placement failed");
    return 0;
  }
  vm::Interpreter interp(memory, caches, 0, nullptr);
  const std::uint64_t args[] = {kIterations};
  const auto t = Clock::now();
  const vm::ExecResult result = interp.Execute(*entry, args, *stack + KiB(64));
  const double seconds = Since(t);
  if (!result.status.ok() ||
      result.return_value != kIterations * (kIterations + 1) / 2) {
    errors->push_back("probe sum loop returned a wrong value");
    return 0;
  }
  return seconds * 1e9 / static_cast<double>(result.instructions);
}

/// Random single-line loads over 64 MiB through the paper host's hierarchy:
/// mostly DRAM misses, the cache model's slow path.
double CacheNsPerAccess() {
  constexpr std::size_t kAccesses = 1'000'000;
  constexpr mem::VirtAddr kBase = 0x10000000;
  cache::CacheHierarchy caches{cache::HierarchyConfig{}};
  Xoshiro256 rng(0xCAC4E);
  std::vector<mem::VirtAddr> addrs(kAccesses);
  for (mem::VirtAddr& a : addrs) a = kBase + (rng.NextBelow(MiB(64)) & ~63ull);
  Cycles sink = 0;
  const auto t = Clock::now();
  for (const mem::VirtAddr a : addrs) {
    sink += caches.AccessLine(0, a, cache::AccessKind::kLoad);
  }
  const double seconds = Since(t);
  return sink > 0 ? seconds * 1e9 / kAccesses : 0;
}

/// Compile the benchmark package (ried + three jams) from AMC source.
double PackageBuildMs(std::vector<std::string>* errors) {
  const auto t = Clock::now();
  const auto package = bench::BuildBenchPackage();
  const double ms = Since(t) * 1e3;
  if (!package.ok()) errors->push_back("probe package build failed");
  return ms;
}

}  // namespace

std::vector<std::pair<std::string, double>> RunProbes(
    std::vector<std::string>* errors) {
  return {
      {"sim.dispatch_ns", DispatchNs()},
      {"mem.arena_ms_per_gib", ArenaMsPerGib()},
      {"jamvm.ns_per_instr", InterpreterNsPerInstr(errors)},
      {"cache.ns_per_access", CacheNsPerAccess()},
      {"pkg.build_ms", PackageBuildMs(errors)},
  };
}

}  // namespace tcbench
