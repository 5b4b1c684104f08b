// Google-benchmark micros for the simulator substrates themselves: how fast
// the host machine runs the cache model, the interpreter, the frame codec,
// the assembler, and the amcc compiler. These bound how long the figure
// benches take, and catch performance regressions in the simulation core.
#include <benchmark/benchmark.h>

#include "amcc/compiler.hpp"
#include "cache/hierarchy.hpp"
#include "common/rng.hpp"
#include "core/frame.hpp"
#include "jamvm/assembler.hpp"
#include "jamvm/interpreter.hpp"
#include "mem/host_memory.hpp"

namespace {

using namespace twochains;

cache::HierarchyConfig SmallCache() {
  cache::HierarchyConfig cfg;
  cfg.l1 = {"L1", KiB(64), 4, 2};
  cfg.l2 = {"L2", MiB(1), 8, 12};
  cfg.l3 = {"L3", MiB(1), 16, 30};
  cfg.llc = {"LLC", MiB(8), 16, 55};
  return cfg;
}

void BM_CacheHit(benchmark::State& state) {
  cache::CacheHierarchy caches(SmallCache());
  caches.AccessLine(0, 0x10000, cache::AccessKind::kLoad);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        caches.AccessLine(0, 0x10000, cache::AccessKind::kLoad));
  }
}
BENCHMARK(BM_CacheHit);

void BM_CacheRandomAccess(benchmark::State& state) {
  cache::CacheHierarchy caches(SmallCache());
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(caches.AccessLine(
        0, rng.NextBelow(MiB(64)), cache::AccessKind::kLoad));
  }
}
BENCHMARK(BM_CacheRandomAccess);

void BM_StashDeliver4K(benchmark::State& state) {
  // Core 0 reads the range before every delivery, untimed, so each one
  // drops lines from populated levels; on a cold hierarchy every L1, L2
  // and L3 is empty and the delivery would time only the empty-level
  // return.
  cache::CacheHierarchy caches(SmallCache());
  for (auto _ : state) {
    state.PauseTiming();
    benchmark::DoNotOptimize(
        caches.Access(0, 0x100000, 4096, cache::AccessKind::kLoad));
    state.ResumeTiming();
    caches.StashDeliver(0x100000, 4096);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_StashDeliver4K);

void BM_InterpreterSumLoop(benchmark::State& state) {
  // Interpreted instructions per second on a tight sum loop.
  mem::HostMemory memory(0, MiB(8));
  cache::CacheHierarchy caches(SmallCache());
  auto obj = vm::Assemble(R"(
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
  auto code = memory.Allocate(obj->text.size(), 64, mem::Perm::kRWX, "c");
  (void)memory.DmaWrite(*code, obj->text);
  auto stack = memory.Allocate(KiB(16), 16, mem::Perm::kRW, "s");
  vm::Interpreter interp(memory, caches, 0, nullptr);
  const std::uint64_t n = 1000;
  for (auto _ : state) {
    const std::uint64_t args[1] = {n};
    auto r = interp.Execute(*code, args, *stack + KiB(16));
    benchmark::DoNotOptimize(r.return_value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n + 4));
}
BENCHMARK(BM_InterpreterSumLoop);

void BM_FramePack(benchmark::State& state) {
  const std::uint64_t usr_bytes = static_cast<std::uint64_t>(state.range(0));
  core::FrameSpec spec;
  spec.injected = true;
  spec.got_slots = 4;
  spec.code_size = 1408;
  spec.args_size = 16;
  spec.usr_size = usr_bytes;
  const std::vector<std::uint64_t> gotp(4, 0x1234);
  const std::vector<std::uint8_t> code(1408, 0x90);
  const std::vector<std::uint8_t> args(16, 1);
  const std::vector<std::uint8_t> usr(usr_bytes, 2);
  core::FrameHeader header;
  header.sn = 7;
  for (auto _ : state) {
    auto frame = core::PackFrame(spec, header, gotp, code, args, usr);
    benchmark::DoNotOptimize(frame->size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(usr_bytes + 1408));
}
BENCHMARK(BM_FramePack)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Assembler(benchmark::State& state) {
  const std::string source = R"(
    .extern helper
    .global f
    f:
      addi sp, sp, -16
      std lr, [sp]
      ldg t0, @helper
      jalr lr, t0, 0
      ldd lr, [sp]
      addi sp, sp, 16
      ret
  )";
  for (auto _ : state) {
    auto obj = vm::Assemble(source);
    benchmark::DoNotOptimize(obj->text.size());
  }
}
BENCHMARK(BM_Assembler);

void BM_AmccCompile(benchmark::State& state) {
  const std::string source = R"(
    extern long tc_hash64(long x);
    long jam_bench(long* args, long* usr, long usr_bytes) {
      long n = usr_bytes / 8;
      long total = 0;
      for (long i = 0; i < n; ++i) total += usr[i] * 3 + tc_hash64(i);
      return total;
    }
  )";
  for (auto _ : state) {
    auto result = amcc::Compile(source, "bench.amc");
    benchmark::DoNotOptimize(result->text.size());
  }
}
BENCHMARK(BM_AmccCompile);

}  // namespace

BENCHMARK_MAIN();
