// Receiver-core scaling (beyond the paper's single reactive agent): one
// incast hub drains 8 senders with a receiver *pool* of 1, 2, 4, then 8
// cores. Inbound mailbox banks are sharded across the pool with stable
// bank->core affinity, so each core runs its own POLL loop and executes
// the jams of its banks concurrently in simulated time. The sweep shows
//   * how the aggregate executed-jam rate scales as the drain
//     parallelizes (the fig15 bottleneck was the serialized receiver),
//   * how the send-to-completion tail contracts when no sender queues
//     behind another sender's execution, and
//   * that the per-peer bank recycling stays fair when banks are spread
//     over cores (Jain fairness from the hub's per-peer counters).
//
// A second section measures the locality-vs-utilization tradeoff of
// receiver-pool *work stealing*: the same incast hub under a uniform load
// (where affinity sharding is already balanced and stealing must not
// regress) and under a skewed load (two hot senders whose banks shard to
// a fraction of the pool, where steal-off leaves cores idle while the hot
// cores queue deep). Run with --base or --steal to select one section;
// no argument runs both.
#include <cstring>

#include "fig_common.hpp"

namespace twochains::bench {
namespace {

constexpr std::uint32_t kSenders = 8;
constexpr std::uint32_t kIterationsPerSender = 400;

struct Point {
  std::uint32_t receiver_cores = 0;
  IncastResult result;
  std::vector<std::uint64_t> per_core_messages;
};

int BaseMain() {
  Banner("fig16", "receiver-core scaling: 8-sender incast, pooled drain");
  std::printf("Indirect Put, 64 B payload, %u messages per sender\n",
              kIterationsPerSender);

  const std::uint32_t kPoolSizes[] = {1, 2, 4, 8};
  std::vector<Point> points;

  for (const std::uint32_t cores : kPoolSizes) {
    // Star fabric: hub 0 is the incast receiver with the pool; spokes
    // keep the single-core paper runtime.
    core::FabricOptions options =
        PaperFabric(kSenders + 1, core::Topology::kStar, 0);
    WithHubPool(options, cores);
    core::Fabric fabric(options);
    LoadBenchPackage(fabric);

    IncastConfig config;
    config.jam = "iput";
    config.mode = core::Invoke::kInjected;
    config.usr_bytes = 64;
    config.iterations_per_sender = kIterationsPerSender;
    config.args = [](std::uint64_t iter) {
      return std::vector<std::uint64_t>{iter & 127};
    };

    std::vector<std::uint32_t> senders;
    for (std::uint32_t s = 1; s <= kSenders; ++s) senders.push_back(s);
    Point point;
    point.receiver_cores = cores;
    point.result = MustOk(RunIncastRate(fabric, 0, senders, config),
                          "incast run");
    core::Runtime& hub = fabric.runtime(0);
    for (std::uint32_t c = 0; c < hub.receiver_pool_size(); ++c) {
      point.per_core_messages.push_back(
          hub.receiver_cpu(c).counters().messages_handled);
    }
    points.push_back(std::move(point));
  }

  Table table({"rx cores", "agg Kmsg/s", "speedup", "p50 us", "p99 us",
               "fairness", "fc waits", "per-core msgs"});
  const double base_rate = points.front().result.aggregate_messages_per_second;
  for (const Point& p : points) {
    std::uint64_t waits = 0;
    for (const auto& s : p.result.per_sender) waits += s.flow_control_waits;
    std::string per_core;
    for (std::size_t c = 0; c < p.per_core_messages.size(); ++c) {
      if (c) per_core += "/";
      per_core += FmtU64(p.per_core_messages[c]);
    }
    table.AddRow({FmtU64(p.receiver_cores),
                  FmtF(p.result.aggregate_messages_per_second / 1e3),
                  FmtF(p.result.aggregate_messages_per_second / base_rate,
                       "%.2fx"),
                  FmtUs(p.result.latency.Percentile(0.50)),
                  FmtUs(p.result.latency.Percentile(0.99)),
                  FmtF(p.result.fairness, "%.3f"), FmtU64(waits), per_core});
  }
  table.Print();

  const Point& one = points[0];
  const Point& two = points[1];
  const Point& four = points[2];
  const Point& eight = points[3];
  bool ok = true;
  ok &= ShapeCheck(
      "aggregate executed-jam rate increases monotonically from 1 to 4 "
      "receiver cores",
      two.result.aggregate_messages_per_second >
              one.result.aggregate_messages_per_second &&
          four.result.aggregate_messages_per_second >
              two.result.aggregate_messages_per_second);
  ok &= ShapeCheck(
      "8 cores do not regress below 4 (drain is NIC-bound by then, not "
      "receiver-bound)",
      eight.result.aggregate_messages_per_second >=
          0.9 * four.result.aggregate_messages_per_second);
  ok &= ShapeCheck(
      "incast tail contracts when the drain parallelizes (4-core p99 < "
      "1-core p99)",
      four.result.latency.Percentile(0.99) <
          one.result.latency.Percentile(0.99));
  ok &= ShapeCheck(
      "per-sender fairness holds at every pool size (Jain >= 0.95)", [&] {
        for (const Point& p : points) {
          if (p.result.fairness < 0.95) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "the pool actually shares the drain (every core of the 4-core hub "
      "handled messages)",
      [&] {
        for (const std::uint64_t n : four.per_core_messages) {
          if (n == 0) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "every message was executed at every pool size (no mailbox leak)",
      [&] {
        for (const Point& p : points) {
          std::uint64_t executed = 0;
          for (const auto& s : p.result.per_sender) executed += s.messages;
          if (executed != static_cast<std::uint64_t>(kSenders) *
                              kIterationsPerSender) {
            return false;
          }
        }
        return true;
      }());
  return FinishChecks(ok);
}

// --------------------------------------------------------------- stealing

struct StealPoint {
  std::uint32_t receiver_cores = 0;
  bool skewed = false;
  bool steal = false;
  IncastResult result;
  std::uint64_t expected_messages = 0;  ///< offered load (skew-aware)
  std::uint64_t steals = 0;
  std::uint64_t frames_stolen = 0;
  std::vector<std::uint64_t> per_core_messages;
};

/// One incast run for the steal section: banks narrowed to 2 so the two
/// hot senders' banks shard onto a fraction of the pool, skew expressed
/// as sender weights (hosts 1 and 8 -> hub peers 0 and 7, whose banks
/// collide on pool core 0 at both pool widths — see the in-body comment).
StealPoint RunStealPoint(std::uint32_t cores, bool skewed, bool steal) {
  core::FabricOptions options =
      PaperFabric(kSenders + 1, core::Topology::kStar, 0);
  options.runtime.banks = 2;
  WithHubPool(options, cores);
  core::StealConfig steal_config;
  steal_config.enabled = steal;
  steal_config.threshold = 2;
  steal_config.hysteresis = 1;
  options.runtime_overrides[0].steal = steal_config;
  core::Fabric fabric(options);
  LoadBenchPackage(fabric);

  // Server-Side Sum over a 1 KiB payload: execution-bound frames, so the
  // hub pool — not the wire — is the bottleneck and imbalance shows up as
  // backlog a thief can actually relieve (64 B iput drains faster than a
  // cable delivers, which no scheduler can improve on).
  IncastConfig config;
  config.jam = "ssum";
  config.mode = core::Invoke::kInjected;
  config.usr_bytes = 1024;
  config.iterations_per_sender = kIterationsPerSender / 4;
  config.args = [](std::uint64_t iter) {
    return std::vector<std::uint64_t>{iter & 127};
  };
  if (skewed) {
    // Hub peers 0 and 7 (hosts 1 and 8): with 2 banks, peer 0 shards to
    // pool cores {0, 1} and peer 7 to {7 % cores, 0} — their hot banks
    // collide on core 0 at both pool widths, so one core owns two deep
    // bank queues while most of the pool idles unless it steals. (A hot
    // peer whose banks land 1:1 on distinct cores is *not* stealable
    // work: in-bank ordering already caps each bank at one core's
    // throughput.)
    config.iterations_per_sender = kIterationsPerSender / 8;
    config.sender_weights.assign(kSenders, 1);
    config.sender_weights[0] = 8;
    config.sender_weights[7] = 8;
  }

  std::vector<std::uint32_t> senders;
  for (std::uint32_t s = 1; s <= kSenders; ++s) senders.push_back(s);
  StealPoint point;
  point.receiver_cores = cores;
  point.skewed = skewed;
  point.steal = steal;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    point.expected_messages +=
        config.iterations_per_sender *
        (config.sender_weights.empty() ? 1 : config.sender_weights[s]);
  }
  point.result = MustOk(RunIncastRate(fabric, 0, senders, config),
                        "steal incast run");
  core::Runtime& hub = fabric.runtime(0);
  point.steals = hub.stats().steals;
  point.frames_stolen = hub.stats().frames_stolen;
  for (std::uint32_t c = 0; c < hub.receiver_pool_size(); ++c) {
    point.per_core_messages.push_back(
        hub.receiver_cpu(c).counters().messages_handled);
  }
  return point;
}

int StealMain() {
  Banner("fig16 --steal",
         "work stealing: uniform vs skewed incast, steal on/off");
  std::printf("Server-Side Sum, 1 KiB payload, 2 banks, threshold 2 / "
              "hysteresis 1\n");

  const std::uint32_t kPoolSizes[] = {4, 8};
  std::vector<StealPoint> points;
  for (const std::uint32_t cores : kPoolSizes) {
    for (const bool skewed : {false, true}) {
      for (const bool steal : {false, true}) {
        points.push_back(RunStealPoint(cores, skewed, steal));
      }
    }
  }

  Table table({"rx cores", "load", "steal", "agg Kmsg/s", "on/off",
               "p99 us", "steals", "stolen msgs", "per-core msgs"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const StealPoint& p = points[i];
    // Each (cores, load) pair lands as off-then-on; ratio vs the off run.
    const double base_rate =
        points[i & ~std::size_t{1}].result.aggregate_messages_per_second;
    std::string per_core;
    for (std::size_t c = 0; c < p.per_core_messages.size(); ++c) {
      if (c) per_core += "/";
      per_core += FmtU64(p.per_core_messages[c]);
    }
    table.AddRow(
        {FmtU64(p.receiver_cores), p.skewed ? "skewed" : "uniform",
         p.steal ? "on" : "off",
         FmtF(p.result.aggregate_messages_per_second / 1e3),
         FmtF(p.result.aggregate_messages_per_second / base_rate, "%.2fx"),
         FmtUs(p.result.latency.Percentile(0.99)), FmtU64(p.steals),
         FmtU64(p.frames_stolen), per_core});
  }
  table.Print();

  auto at = [&](std::uint32_t cores, bool skewed, bool steal) -> const
      StealPoint& {
    for (const StealPoint& p : points) {
      if (p.receiver_cores == cores && p.skewed == skewed &&
          p.steal == steal) {
        return p;
      }
    }
    std::abort();
  };

  bool ok = true;
  for (const std::uint32_t cores : kPoolSizes) {
    const double skew_gain =
        at(cores, true, true).result.aggregate_messages_per_second /
        at(cores, true, false).result.aggregate_messages_per_second;
    ok &= ShapeCheck(
        StrFormat("skewed incast at %u cores: stealing lifts the aggregate "
                  "rate >= 1.2x over steal-off",
                  cores)
            .c_str(),
        skew_gain >= 1.2);
    const double uniform_ratio =
        at(cores, false, true).result.aggregate_messages_per_second /
        at(cores, false, false).result.aggregate_messages_per_second;
    ok &= ShapeCheck(
        StrFormat("uniform incast at %u cores: stealing does not regress "
                  "the rate by more than 2%%",
                  cores)
            .c_str(),
        uniform_ratio >= 0.98);
    ok &= ShapeCheck(
        StrFormat("stealing actually fired under skew at %u cores", cores)
            .c_str(),
        at(cores, true, true).steals > 0);
  }
  ok &= ShapeCheck(
      "every message was executed in every steal configuration (no "
      "mailbox leak)",
      [&] {
        for (const StealPoint& p : points) {
          std::uint64_t executed = 0;
          for (const auto& s : p.result.per_sender) executed += s.messages;
          if (executed != p.expected_messages) return false;
        }
        return true;
      }());
  return FinishChecks(ok);
}

// -------------------------------------------------------- switched tree

struct TreePoint {
  std::uint32_t receiver_cores = 0;
  bool adaptive = false;
  IncastResult result;
  std::uint64_t expected_messages = 0;
  std::vector<std::uint64_t> per_core_messages;
  std::uint64_t marks = 0;      ///< sum of Switch::frames_marked
  std::uint64_t drops = 0;      ///< sum of Switch::frames_dropped
  std::uint64_t backoffs = 0;   ///< sum of spoke cwnd_decreases
  std::uint64_t refusals = 0;   ///< sum of spoke adaptive_refusals
};

TreePoint RunTreePoint(std::uint32_t senders, std::uint32_t cores,
                       bool adaptive, std::uint32_t iterations) {
  core::Fabric fabric(TreeBenchFabric(senders, adaptive, cores));
  LoadBenchPackage(fabric);

  IncastConfig config;
  config.jam = "iput";
  config.mode = core::Invoke::kInjected;
  config.usr_bytes = 64;
  config.iterations_per_sender = iterations;
  config.args = [](std::uint64_t iter) {
    return std::vector<std::uint64_t>{iter & 127};
  };

  std::vector<std::uint32_t> sender_ids;
  for (std::uint32_t s = 1; s <= senders; ++s) sender_ids.push_back(s);
  TreePoint point;
  point.receiver_cores = cores;
  point.adaptive = adaptive;
  point.expected_messages = std::uint64_t{senders} * iterations;
  point.result = MustOk(RunIncastRate(fabric, 0, sender_ids, config),
                        "tree incast run");

  core::Runtime& hub = fabric.runtime(0);
  for (std::uint32_t c = 0; c < hub.receiver_pool_size(); ++c) {
    point.per_core_messages.push_back(
        hub.receiver_cpu(c).counters().messages_handled);
  }
  for (std::uint32_t i = 0; i < fabric.switch_count(); ++i) {
    point.marks += fabric.sw(i).frames_marked();
    point.drops += fabric.sw(i).frames_dropped();
  }
  for (const std::uint32_t s : sender_ids) {
    const core::RuntimeStats& stats = fabric.runtime(s).stats();
    point.backoffs += stats.cwnd_decreases;
    point.refusals += stats.adaptive_refusals;
  }
  return point;
}

int TreeMain() {
  Banner("fig16",
         "--tree: pooled drain behind an oversubscribed switched tree");
  constexpr std::uint32_t kTreeSenders = 32;
  constexpr std::uint32_t kTreeIterations = 150;
  std::printf(
      "32 senders, host -> ToR -> spine at 4:1 oversubscription; receiver\n"
      "pool of 1 then 4 cores, static banks vs adaptive (AIMD); Indirect\n"
      "Put, 64 B payload, %u messages per sender\n",
      kTreeIterations);

  const std::uint32_t kPoolSizes[] = {1, 4};
  std::vector<TreePoint> points;
  for (const std::uint32_t cores : kPoolSizes) {
    for (const bool adaptive : {false, true}) {
      points.push_back(
          RunTreePoint(kTreeSenders, cores, adaptive, kTreeIterations));
    }
  }

  Table table({"rx cores", "banks", "agg Kmsg/s", "fairness", "p50 us",
               "p99 us", "p99.9 us", "marks", "backoffs", "per-core msgs"});
  for (const TreePoint& p : points) {
    std::string per_core;
    for (std::size_t c = 0; c < p.per_core_messages.size(); ++c) {
      if (c) per_core += "/";
      per_core += FmtU64(p.per_core_messages[c]);
    }
    table.AddRow({FmtU64(p.receiver_cores),
                  p.adaptive ? "adaptive" : "static",
                  FmtF(p.result.aggregate_messages_per_second / 1e3),
                  FmtF(p.result.fairness, "%.3f"),
                  FmtUs(p.result.latency.Percentile(0.50)),
                  FmtUs(p.result.latency.Percentile(0.99)),
                  FmtUs(p.result.latency.Percentile(0.999)),
                  FmtU64(p.marks), FmtU64(p.backoffs), per_core});
  }
  table.Print();

  auto at = [&](std::uint32_t cores, bool adaptive) -> const TreePoint& {
    for (const TreePoint& p : points) {
      if (p.receiver_cores == cores && p.adaptive == adaptive) return p;
    }
    std::abort();
  };

  bool ok = true;
  ok &= ShapeCheck(
      "drop-free fabric: zero frames dropped across every tree run",
      [&] {
        for (const TreePoint& p : points) {
          if (p.drops != 0) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "the oversubscribed trunk congests in every run (ECN marks fire)",
      [&] {
        for (const TreePoint& p : points) {
          if (p.marks == 0) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "widening the pool still pays behind a congested tree (4-core "
      "aggregate > 1-core aggregate, adaptive banks)",
      at(4, true).result.aggregate_messages_per_second >
          at(1, true).result.aggregate_messages_per_second);
  ok &= ShapeCheck(
      "the drain stays fair through the tree (Jain fairness >= 0.9 in "
      "every adaptive run)",
      at(1, true).result.fairness >= 0.9 &&
          at(4, true).result.fairness >= 0.9);
  ok &= ShapeCheck(
      "AIMD engages under congestion and stays inert when disabled",
      [&] {
        for (const TreePoint& p : points) {
          if (p.adaptive && p.backoffs == 0) return false;
          if (!p.adaptive && (p.backoffs != 0 || p.refusals != 0)) {
            return false;
          }
        }
        return true;
      }());
  ok &= ShapeCheck(
      "every message was executed in every tree configuration (no "
      "mailbox leak through the switches)",
      [&] {
        for (const TreePoint& p : points) {
          std::uint64_t executed = 0;
          for (const auto& s : p.result.per_sender) executed += s.messages;
          if (executed != p.expected_messages) return false;
        }
        return true;
      }());
  return FinishChecks(ok);
}

int Main(int argc, char** argv) {
  const bool base_only = argc > 1 && std::strcmp(argv[1], "--base") == 0;
  const bool steal_only = argc > 1 && std::strcmp(argv[1], "--steal") == 0;
  if (HasFlag(argc, argv, "--tree")) return TreeMain();
  int rc = 0;
  if (!steal_only) rc |= BaseMain();
  if (!base_only) rc |= StealMain();
  return rc;
}

}  // namespace
}  // namespace twochains::bench

int main(int argc, char** argv) { return twochains::bench::Main(argc, argv); }
