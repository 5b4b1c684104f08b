// Security configurations (§V): runs the same workload under the paper's
// default (fast, RWX mailboxes, sender-supplied GOT) and under the hardened
// policy (verifier + receiver-installed GOT + W^X split pages + read-only
// args), reporting the latency cost of each mitigation. Also demonstrates
// the hardware-level protections: an RDMA put with a bad rkey is rejected
// before memory is touched, and a sealed GOT refuses CPU writes.
//
// Build & run:  ./build/examples/security_modes
#include <cstdio>

#include "benchlib/perftest.hpp"
#include "benchlib/workloads.hpp"
#include "core/fabric.hpp"
#include "jamvm/assembler.hpp"
#include "jelf/linker.hpp"

using namespace twochains;

namespace {

double MedianLatencyUs(const core::SecurityPolicy& policy) {
  core::FabricOptions options;
  options.runtime.security = policy;
  core::Fabric fabric(options);
  auto package = bench::BuildBenchPackage();
  if (!package.ok() || !fabric.LoadPackage(*package).ok()) {
    std::fprintf(stderr, "setup failed\n");
    std::exit(1);
  }
  bench::AmConfig config;
  config.jam = "iput";
  config.mode = core::Invoke::kInjected;
  config.usr_bytes = 64;
  config.iterations = 600;
  config.warmup = 100;
  config.args = [](std::uint64_t iter) {
    return std::vector<std::uint64_t>{iter & 63};
  };
  auto result = bench::RunAmPingPong(fabric, config);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return ToMicroseconds(result->one_way.Median());
}

}  // namespace

int main() {
  std::printf("Indirect Put (64 B payload, injected) median one-way latency "
              "per §V mitigation:\n\n");

  const double base = MedianLatencyUs(core::SecurityPolicy::PaperDefault());
  std::printf("  %-34s %8.3f us (baseline)\n", "paper default (RWX, sender GOT)",
              base);

  struct Mode {
    const char* name;
    core::SecurityPolicy policy;
  };
  core::SecurityPolicy verify;
  verify.verify_injected_code = true;
  core::SecurityPolicy recv_got;
  recv_got.receiver_installs_got = true;
  core::SecurityPolicy wx;
  wx.split_code_data_pages = true;
  wx.enforce_exec_permission = true;
  core::SecurityPolicy ro_args = wx;
  ro_args.read_only_args = true;
  const Mode modes[] = {
      {"+ static verifier per message", verify},
      {"+ receiver-installed GOT", recv_got},
      {"+ W^X split code/data pages", wx},
      {"+ read-only ARGS page", ro_args},
      {"fully hardened", core::SecurityPolicy::Hardened()},
  };
  for (const auto& mode : modes) {
    const double us = MedianLatencyUs(mode.policy);
    std::printf("  %-34s %8.3f us (%+.1f%%)\n", mode.name, us,
                (us - base) / base * 100.0);
  }

  // ---- hardware-level rejections --------------------------------------
  std::printf("\nhardware-level protections:\n");
  core::Fabric fabric;
  auto package = bench::BuildBenchPackage();
  if (!package.ok() || !fabric.LoadPackage(*package).ok()) return 1;

  // 1. An RDMA put with a forged rkey is rejected by the target HCA.
  auto& attacker = fabric.host(0);
  auto buf = attacker.memory().Allocate(64, 64, mem::Perm::kRW, "attack");
  bool rejected = false;
  Status post = fabric.nic(0).PostPut(
      fabric.nic(1), *buf, mem::HostBase(1) + 0x1000, 64, mem::RKey{0xDEAD},
      false,
      [&](const net::PutCompletion& c) {
        rejected = !c.status.ok();
        std::printf("  forged-rkey put -> %s\n",
                    c.status.ToString().c_str());
      });
  (void)post;
  fabric.Run();
  if (!rejected) {
    std::fprintf(stderr, "attack was not rejected!\n");
    return 1;
  }
  std::printf("  rkey rejections counted by the target HCA: %llu\n",
              static_cast<unsigned long long>(
                  fabric.nic(1).rkey_rejections()));

  // 2. A GOT sealed read-only refuses CPU stores (GOT-overwrite defense).
  jelf::HostNamespace ns;
  auto lib_obj = vm::Assemble(R"(
    .extern target
    .global f
    f:
      ldg t0, @target
      ret
  )");
  auto image = jelf::Link(std::vector<vm::ObjectCode>{*lib_obj},
                          {.image_name = "sealed"});
  (void)ns.Define("target", 0x1234);
  jelf::LoadOptions opts;
  opts.got_read_only = true;
  auto lib = jelf::LoadLibrary(fabric.host(0).memory(), *image, ns, opts);
  Status overwrite =
      fabric.host(0).memory().StoreU64(lib->got_addr, 0xBADBAD);
  std::printf("  GOT overwrite attempt -> %s\n",
              overwrite.ToString().c_str());
  if (overwrite.ok()) {
    std::fprintf(stderr, "sealed GOT accepted a write!\n");
    return 1;
  }
  std::printf("security modes demo OK\n");
  return 0;
}
