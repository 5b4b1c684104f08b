// Incast scaling (beyond the paper's two-host testbed): 1, 2, 4, 8 senders
// inject Indirect Puts into one receiver through a star fabric. Each sender
// is paced only by its own per-peer bank flow control, so the sweep shows
//   * how aggregate injection rate saturates at the receiver (one reactive
//     receiver agent drains every peer's mailbox slice in delivery order),
//   * per-sender fairness under contention (the receiver's round sweep plus
//     per-peer bank recycling should share the drain evenly), and
//   * how the send-to-completion tail stretches as queueing at the
//     receiver deepens — the serverless many-clients deployment shape.
#include "fig_common.hpp"

namespace twochains::bench {
namespace {

struct Point {
  std::uint32_t senders = 0;
  IncastResult result;
};

// ----------------------------------------------------- switched tree

struct TreePoint {
  std::uint32_t senders = 0;
  bool adaptive = false;
  IncastResult result;
  std::uint64_t marks = 0;       ///< sum of Switch::frames_marked
  std::uint64_t drops = 0;       ///< sum of Switch::frames_dropped
  std::uint64_t holds = 0;       ///< sum of Switch::backpressure_holds
  std::uint64_t echoes = 0;      ///< sum of spoke ecn_echoes_seen
  std::uint64_t backoffs = 0;    ///< sum of spoke cwnd_decreases
  std::uint64_t refusals = 0;    ///< sum of spoke adaptive_refusals
  std::uint64_t min_window_milli = ~std::uint64_t{0};
};

TreePoint RunTreePoint(std::uint32_t n, bool adaptive,
                       std::uint32_t iterations) {
  core::Fabric fabric(TreeBenchFabric(n, adaptive));
  LoadBenchPackage(fabric);

  IncastConfig config;
  config.jam = "iput";
  config.mode = core::Invoke::kInjected;
  config.usr_bytes = 64;
  config.iterations_per_sender = iterations;
  config.args = [](std::uint64_t iter) {
    return std::vector<std::uint64_t>{iter & 127};
  };

  std::vector<std::uint32_t> senders;
  for (std::uint32_t s = 1; s <= n; ++s) senders.push_back(s);
  TreePoint point;
  point.senders = n;
  point.adaptive = adaptive;
  point.result =
      MustOk(RunIncastRate(fabric, 0, senders, config), "tree incast run");

  for (std::uint32_t i = 0; i < fabric.switch_count(); ++i) {
    point.marks += fabric.sw(i).frames_marked();
    point.drops += fabric.sw(i).frames_dropped();
    point.holds += fabric.sw(i).backpressure_holds();
  }
  for (const std::uint32_t s : senders) {
    const core::RuntimeStats& stats = fabric.runtime(s).stats();
    point.echoes += stats.ecn_echoes_seen;
    point.backoffs += stats.cwnd_decreases;
    point.refusals += stats.adaptive_refusals;
    auto to_hub = fabric.PeerIdFor(s, 0);
    if (to_hub.ok()) {
      point.min_window_milli =
          std::min(point.min_window_milli,
                   fabric.runtime(s).AdaptiveWindowMinMilli(*to_hub));
    }
  }
  return point;
}

int TreeMain() {
  Banner("fig15", "--tree: incast through an oversubscribed switched tree");
  const std::uint32_t kTreeIterations = 150;
  std::printf(
      "host -> ToR -> spine, arity 8, 4:1 trunk oversubscription, shared\n"
      "%llu KiB switch buffers, ECN at %llu KiB; Indirect Put, 64 B\n"
      "payload, %u messages per sender; static banks vs adaptive (AIMD)\n",
      static_cast<unsigned long long>(KiB(64) / 1024),
      static_cast<unsigned long long>(KiB(8) / 1024), kTreeIterations);

  const std::uint32_t kSenderCounts[] = {32, 64};
  std::vector<TreePoint> points;
  for (const std::uint32_t n : kSenderCounts) {
    for (const bool adaptive : {false, true}) {
      points.push_back(RunTreePoint(n, adaptive, kTreeIterations));
    }
  }

  Table table({"senders", "banks", "agg Kmsg/s", "fairness", "p50 us",
               "p99 us", "p99.9 us", "fc waits", "marks", "backoffs",
               "refusals", "min win"});
  for (const TreePoint& p : points) {
    std::uint64_t waits = 0;
    for (const auto& s : p.result.per_sender) waits += s.flow_control_waits;
    table.AddRow(
        {FmtU64(p.senders), p.adaptive ? "adaptive" : "static",
         FmtF(p.result.aggregate_messages_per_second / 1e3),
         FmtF(p.result.fairness, "%.3f"),
         FmtUs(p.result.latency.Percentile(0.50)),
         FmtUs(p.result.latency.Percentile(0.99)),
         FmtUs(p.result.latency.Percentile(0.999)), FmtU64(waits),
         FmtU64(p.marks), FmtU64(p.backoffs), FmtU64(p.refusals),
         FmtF(static_cast<double>(p.min_window_milli) / 1000.0, "%.2f")});
  }
  table.Print();

  auto at = [&](std::uint32_t n, bool adaptive) -> const TreePoint& {
    for (const TreePoint& p : points) {
      if (p.senders == n && p.adaptive == adaptive) return p;
    }
    std::abort();
  };

  bool ok = true;
  ok &= ShapeCheck(
      "drop-free fabric: zero frames dropped across every tree run "
      "(backpressure holds instead)",
      [&] {
        for (const TreePoint& p : points) {
          if (p.drops != 0) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "the 4:1 trunk actually congests (ECN marks fire in every run)",
      [&] {
        for (const TreePoint& p : points) {
          if (p.marks == 0) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "adaptive banks keep the drain fair through the tree (Jain "
      "fairness >= 0.9 at 32 and 64 senders)",
      at(32, true).result.fairness >= 0.9 &&
          at(64, true).result.fairness >= 0.9);
  ok &= ShapeCheck(
      "AIMD engages under congestion (echo-driven backoffs shrink the "
      "window below the static ceiling in every adaptive run)",
      [&] {
        for (const TreePoint& p : points) {
          if (!p.adaptive) continue;
          if (p.backoffs == 0 || p.min_window_milli >= 4000) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "static banks never refuse or back off (window machinery inert "
      "when disabled)",
      [&] {
        for (const TreePoint& p : points) {
          if (p.adaptive) continue;
          if (p.backoffs != 0 || p.refusals != 0) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "backing off trims the completion tail (adaptive p99.9 <= static "
      "p99.9 at 32 and 64 senders)",
      at(32, true).result.latency.Percentile(0.999) <=
              at(32, false).result.latency.Percentile(0.999) &&
          at(64, true).result.latency.Percentile(0.999) <=
              at(64, false).result.latency.Percentile(0.999));
  ok &= ShapeCheck(
      "admission control does not collapse throughput (adaptive "
      "aggregate >= 80% of static at 64 senders)",
      at(64, true).result.aggregate_messages_per_second >=
          0.8 * at(64, false).result.aggregate_messages_per_second);
  return FinishChecks(ok);
}

// -------------------------------------------------------------- star

int Main(int argc, char** argv) {
  if (HasFlag(argc, argv, "--tree")) return TreeMain();
  Banner("fig15", "incast scaling: N senders -> 1 receiver");
  std::printf("Indirect Put, 64 B payload, %u messages per sender\n", 600u);

  const std::uint32_t kSenderCounts[] = {1, 2, 4, 8};
  std::vector<Point> points;

  for (const std::uint32_t n : kSenderCounts) {
    // Star fabric: hub 0 is the incast receiver, spokes 1..n send.
    core::Fabric fabric(PaperFabric(n + 1, core::Topology::kStar, 0));
    LoadBenchPackage(fabric);

    IncastConfig config;
    config.jam = "iput";
    config.mode = core::Invoke::kInjected;
    config.usr_bytes = 64;
    config.iterations_per_sender = 600;
    // Distinct key ranges per iteration keep the hash index warm but
    // bounded, as in the two-host rate benches.
    config.args = [](std::uint64_t iter) {
      return std::vector<std::uint64_t>{iter & 127};
    };

    std::vector<std::uint32_t> senders;
    for (std::uint32_t s = 1; s <= n; ++s) senders.push_back(s);
    Point point;
    point.senders = n;
    point.result = MustOk(RunIncastRate(fabric, 0, senders, config),
                          "incast run");
    points.push_back(std::move(point));

    if (n == kSenderCounts[std::size(kSenderCounts) - 1]) {
      std::printf("\nreceiver per-peer counters at %u senders:\n", n);
      PeerStatsTable(fabric.runtime(0)).Print();
    }
  }

  Table table({"senders", "agg Kmsg/s", "agg MB/s", "per-sender Kmsg/s",
               "min/max Kmsg/s", "fairness", "p50 us", "p99 us",
               "fc waits"});
  for (const Point& p : points) {
    double min_rate = 0, max_rate = 0;
    std::uint64_t waits = 0;
    for (const auto& s : p.result.per_sender) {
      if (min_rate == 0 || s.messages_per_second < min_rate) {
        min_rate = s.messages_per_second;
      }
      max_rate = std::max(max_rate, s.messages_per_second);
      waits += s.flow_control_waits;
    }
    table.AddRow(
        {FmtU64(p.senders),
         FmtF(p.result.aggregate_messages_per_second / 1e3),
         FmtF(p.result.aggregate_megabytes_per_second),
         FmtF(p.result.aggregate_messages_per_second / 1e3 / p.senders),
         FmtF(min_rate / 1e3) + "/" + FmtF(max_rate / 1e3),
         FmtF(p.result.fairness, "%.3f"),
         FmtUs(p.result.latency.Percentile(0.50)),
         FmtUs(p.result.latency.Percentile(0.99)), FmtU64(waits)});
  }
  table.Print();

  const Point& one = points.front();
  const Point& eight = points.back();
  bool ok = true;
  ok &= ShapeCheck(
      "aggregate rate does not collapse under incast (8-sender aggregate "
      ">= 80% of single-sender)",
      eight.result.aggregate_messages_per_second >=
          0.8 * one.result.aggregate_messages_per_second);
  ok &= ShapeCheck(
      "receiver drain is shared fairly (Jain fairness >= 0.95 at every "
      "sender count)",
      [&] {
        for (const Point& p : points) {
          if (p.result.fairness < 0.95) return false;
        }
        return true;
      }());
  ok &= ShapeCheck(
      "completion tail stretches with incast depth (p99 grows "
      "monotonically from 1 to 8 senders)",
      eight.result.latency.Percentile(0.99) >
          one.result.latency.Percentile(0.99));
  ok &= ShapeCheck(
      "per-sender throughput degrades under contention (8-sender "
      "per-sender rate < single-sender rate)",
      eight.result.aggregate_messages_per_second / 8.0 <
          one.result.aggregate_messages_per_second);
  return FinishChecks(ok);
}

}  // namespace
}  // namespace twochains::bench

int main(int argc, char** argv) {
  return twochains::bench::Main(argc, argv);
}
