// fig17 (beyond the paper): NUMA-aware mailbox bank placement on a
// 2-domain incast hub, placement on/off x work stealing on/off under a
// skewed load.
//
// The paper's locality story is that inbound frames are stashed into the
// cache closest to the executing core. On a multi-domain (NUMA) host that
// only holds if the bank's *bytes* live in the executing core's domain:
// the NIC stashes into the home domain's LLC slice, so a bank placed flat
// (domain 0) makes every drain from a domain-1 pool core pay the
// cross-domain penalty. This bench measures that axis end to end:
//
//   * hub: 4 cores, 2 domains ({0,1} and {2,3}), receiver pool on cores
//     1 and 2 — one pool core per domain (benchlib PaperNumaFabric);
//   * 4 senders, single-bank slices, so peer p's bank belongs to pool
//     core p % 2; senders 0 and 2 are hot (their banks collide on pool
//     core 0), senders 1 and 3 cold — the fig16 steal skew;
//   * placement on  = each bank homed in its owning core's domain
//     (RuntimeConfig::domain_aware_placement);
//     placement off = every bank homed flat in domain 0;
//   * Server-Side Sum over 1 KiB payloads: execution-bound frames, so
//     drain-side cache latency is what the rate measures.
//
// Expectations: domain-local placement beats flat placement with and
// without stealing; with placement on and stealing off every drain is
// domain-local (frames_drained_remote == 0); stealing still lifts the
// skewed rate, but now pays a visible cross-domain toll
// (RuntimeStats::remote_drain_cycles > 0) — the real locality cost of
// taking over another domain's bank.
//
// A second section (--domain-steal) measures the victim-selection policy
// that shrinks that toll: on a 4-pool-core hub with two cores per domain
// and hot banks in *both* domains, a domain-blind thief chases the
// globally deepest backlog across the interconnect even when a
// same-domain sibling is also behind. StealConfig::domain_aware (the
// default) prefers the most-loaded same-domain victim that clears the
// trigger, so the same skew drains with fewer remote frames and fewer
// cross-domain penalty cycles at an undiminished rate. Run with --grid or
// --domain-steal to select one section; no argument runs both.
#include <cstring>

#include "fig_common.hpp"

namespace twochains::bench {
namespace {

constexpr std::uint32_t kSenders = 4;
constexpr std::uint32_t kIterationsPerSender = 50;
constexpr std::uint32_t kHotWeight = 6;

struct Cell {
  bool placement = false;
  bool steal = false;
  IncastResult result;
  std::uint64_t expected_messages = 0;
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t frames_remote = 0;
  std::uint64_t remote_cycles = 0;
};

Cell RunCell(bool placement, bool steal) {
  core::FabricOptions options = PaperNumaFabric(kSenders + 1);
  options.runtime.banks = 1;
  options.runtime.mailboxes_per_bank = 8;
  for (core::RuntimeConfig& rc : options.runtime_overrides) {
    rc.banks = 1;
    rc.mailboxes_per_bank = 8;
  }
  options.runtime_overrides[0].domain_aware_placement = placement;
  if (steal) {
    // Only the hub has a pool to steal within; arming the 1-core spokes
    // would just warn-and-disable.
    core::StealConfig steal_config;
    steal_config.enabled = true;
    steal_config.threshold = 2;
    steal_config.hysteresis = 1;
    options.runtime_overrides[0].steal = steal_config;
  }
  core::Fabric fabric(options);
  LoadBenchPackage(fabric);

  IncastConfig config;
  config.jam = "ssum";
  config.mode = core::Invoke::kInjected;
  config.usr_bytes = 1024;
  config.iterations_per_sender = kIterationsPerSender;
  config.args = [](std::uint64_t iter) {
    return std::vector<std::uint64_t>{iter & 127};
  };
  // Hub peers 0 and 2 hot: both their (single) banks belong to pool core
  // 0, so the skew lands on one core — and one domain.
  config.sender_weights = {kHotWeight, 1, kHotWeight, 1};

  std::vector<std::uint32_t> senders;
  for (std::uint32_t s = 1; s <= kSenders; ++s) senders.push_back(s);
  Cell cell;
  cell.placement = placement;
  cell.steal = steal;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    cell.expected_messages += config.iterations_per_sender *
                              config.sender_weights[s];
  }
  cell.result = MustOk(RunIncastRate(fabric, 0, senders, config),
                       "numa incast run");
  const core::RuntimeStats& stats = fabric.runtime(0).stats();
  cell.executed = stats.messages_executed;
  cell.steals = stats.steals;
  cell.frames_remote = stats.frames_drained_remote;
  cell.remote_cycles = stats.remote_drain_cycles;
  return cell;
}

// ------------------------------------------------------- --domain-steal

struct StealCell {
  bool domain_aware = false;
  IncastResult result;
  std::uint64_t expected_messages = 0;
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t frames_remote = 0;
  std::uint64_t remote_cycles = 0;
};

StealCell RunStealCell(bool domain_aware) {
  constexpr std::uint32_t kStealSenders = 8;
  // 2+2 pool cores across two domains (benchlib PaperNumaWideFabric);
  // single-bank slices, so hub peer p's bank belongs to member p % 4.
  core::FabricOptions options = PaperNumaWideFabric(kStealSenders + 1);
  for (core::RuntimeConfig& rc : options.runtime_overrides) {
    rc.banks = 1;
    rc.mailboxes_per_bank = 8;
  }
  core::StealConfig steal;
  steal.enabled = true;
  steal.threshold = 2;
  steal.hysteresis = 1;
  steal.domain_aware = domain_aware;
  options.runtime_overrides[0].steal = steal;
  core::Fabric fabric(options);
  LoadBenchPackage(fabric);

  IncastConfig config;
  config.jam = "ssum";
  config.mode = core::Invoke::kInjected;
  config.usr_bytes = 1024;
  config.iterations_per_sender = kIterationsPerSender;
  config.args = [](std::uint64_t iter) {
    return std::vector<std::uint64_t>{iter & 127};
  };
  // Hot banks in both domains, the remote one deeper: peers 0 and 4 load
  // member 0 (domain 0) at 4x, peers 2 and 6 load member 2 (domain 1) at
  // 6x. The idle domain-0 thief (member 1) has a backlogged sibling on
  // its own side — a blind pick still chases member 2's deeper backlog
  // across the interconnect.
  config.sender_weights = {4, 1, 6, 1, 4, 1, 6, 1};

  std::vector<std::uint32_t> senders;
  for (std::uint32_t s = 1; s <= kStealSenders; ++s) senders.push_back(s);
  StealCell cell;
  cell.domain_aware = domain_aware;
  for (std::uint32_t s = 0; s < kStealSenders; ++s) {
    cell.expected_messages += config.iterations_per_sender *
                              config.sender_weights[s];
  }
  cell.result = MustOk(RunIncastRate(fabric, 0, senders, config),
                       "domain-steal incast run");
  const core::RuntimeStats& stats = fabric.runtime(0).stats();
  cell.executed = stats.messages_executed;
  cell.steals = stats.steals;
  cell.frames_remote = stats.frames_drained_remote;
  cell.remote_cycles = stats.remote_drain_cycles;
  return cell;
}

bool DomainStealSection() {
  std::printf("\n-- domain-aware steal victims (--domain-steal) --\n");
  std::printf("4-core pool, 2 cores per domain, hot banks in both domains "
              "(remote one deeper), ssum 1 KiB\n");
  const StealCell blind = RunStealCell(false);
  const StealCell aware = RunStealCell(true);

  Table table({"victim policy", "agg Kmsg/s", "p99 us", "steals",
               "remote frames", "remote cycles"});
  for (const StealCell* c : {&blind, &aware}) {
    table.AddRow({c->domain_aware ? "same-domain first" : "domain-blind",
                  FmtF(c->result.aggregate_messages_per_second / 1e3),
                  FmtUs(c->result.latency.Percentile(0.99)),
                  FmtU64(c->steals), FmtU64(c->frames_remote),
                  FmtU64(c->remote_cycles)});
  }
  table.Print();

  bool ok = true;
  ok &= ShapeCheck("both policies steal under the two-domain skew",
                   blind.steals > 0 && aware.steals > 0);
  ok &= ShapeCheck(
      "same-domain-first drains fewer frames across the interconnect",
      aware.frames_remote < blind.frames_remote);
  ok &= ShapeCheck("and pays fewer cross-domain penalty cycles",
                   aware.remote_cycles < blind.remote_cycles);
  ok &= ShapeCheck(
      "at an undiminished aggregate rate (>= 0.95x of domain-blind)",
      aware.result.aggregate_messages_per_second >=
          0.95 * blind.result.aggregate_messages_per_second);
  ok &= ShapeCheck("every message executed under both policies",
                   blind.executed == blind.expected_messages &&
                       aware.executed == aware.expected_messages);
  return ok;
}

int Main(int argc, char** argv) {
  bool run_grid = true;
  bool run_domain_steal = true;
  if (argc > 1) {
    if (std::strcmp(argv[1], "--grid") == 0) {
      run_domain_steal = false;
    } else if (std::strcmp(argv[1], "--domain-steal") == 0) {
      run_grid = false;
    } else {
      std::fprintf(stderr, "usage: %s [--grid|--domain-steal]\n", argv[0]);
      return 2;
    }
  }
  Banner("fig17",
         "NUMA bank placement: 2-domain hub, placement x steal, skewed");
  if (!run_grid) return FinishChecks(DomainStealSection());
  std::printf("Server-Side Sum, 1 KiB payload, 1 bank/peer, hot senders "
              "collide on pool core 0 (domain 0)\n");

  std::vector<Cell> cells;
  for (const bool placement : {false, true}) {
    for (const bool steal : {false, true}) {
      cells.push_back(RunCell(placement, steal));
    }
  }

  Table table({"placement", "steal", "agg Kmsg/s", "p99 us", "steals",
               "remote frames", "remote cycles"});
  for (const Cell& c : cells) {
    table.AddRow({c.placement ? "domain" : "flat", c.steal ? "on" : "off",
                  FmtF(c.result.aggregate_messages_per_second / 1e3),
                  FmtUs(c.result.latency.Percentile(0.99)),
                  FmtU64(c.steals), FmtU64(c.frames_remote),
                  FmtU64(c.remote_cycles)});
  }
  table.Print();

  auto at = [&](bool placement, bool steal) -> const Cell& {
    for (const Cell& c : cells) {
      if (c.placement == placement && c.steal == steal) return c;
    }
    std::abort();
  };

  bool ok = true;
  ok &= ShapeCheck(
      "domain-local placement beats flat placement (steal off)",
      at(true, false).result.aggregate_messages_per_second >
          at(false, false).result.aggregate_messages_per_second);
  ok &= ShapeCheck(
      "domain-local placement beats flat placement (steal on)",
      at(true, true).result.aggregate_messages_per_second >
          at(false, true).result.aggregate_messages_per_second);
  ok &= ShapeCheck(
      "placement on + steal off: every drain is domain-local "
      "(frames_drained_remote == 0)",
      at(true, false).frames_remote == 0);
  ok &= ShapeCheck(
      "flat placement leaves the domain-1 pool core draining remote banks",
      at(false, false).frames_remote > 0);
  ok &= ShapeCheck(
      "stealing still lifts the skewed rate >= 1.1x with placement on",
      at(true, true).result.aggregate_messages_per_second >=
          1.1 * at(true, false).result.aggregate_messages_per_second);
  ok &= ShapeCheck(
      "steal-on runs pay a visible cross-domain toll (steals > 0 and "
      "remote drain cycles > 0)",
      at(true, true).steals > 0 && at(true, true).remote_cycles > 0 &&
          at(true, true).frames_remote > 0);
  ok &= ShapeCheck("every message executed in every cell", [&] {
    for (const Cell& c : cells) {
      if (c.executed != c.expected_messages) return false;
    }
    return true;
  }());
  if (run_domain_steal) ok &= DomainStealSection();
  return FinishChecks(ok);
}

}  // namespace
}  // namespace twochains::bench

int main(int argc, char** argv) {
  return twochains::bench::Main(argc, argv);
}
