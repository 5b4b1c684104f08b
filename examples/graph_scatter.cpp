// Semantic-graph scatter: the motivating workload class of the paper's
// introduction — "large-scale irregular applications composed of many
// coordinating tasks that operate on a shared data set so big it has to be
// stored on many physical devices", with "unordered concurrent shared
// writes to arbitrary locations".
//
// Host 0 owns a stream of edges and pushes *computation* to host 1, which
// owns a hash-partitioned adjacency store: each edge travels as an Indirect
// Put-style active message whose handler probes the vertex index and
// appends the neighbor server-side. No round trip per edge, no remote
// locks — the receiver serializes updates by construction.
//
// Build & run:  ./build/examples/graph_scatter
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "benchlib/send_loop.hpp"
#include "common/rng.hpp"
#include "core/fabric.hpp"

namespace {

constexpr const char* kRiedGraph = R"(
/* Adjacency store: open-addressed vertex index -> fixed-degree rows. */
long vx_keys[1024];
long vx_degree[1024];
long vx_rows[16384];     /* 1024 vertices x 16 neighbor slots */

long ried_graph(void) { return 0; }
long ried_graph_init(void) {
  for (long i = 0; i < 1024; ++i) { vx_keys[i] = -1; vx_degree[i] = 0; }
  return 0;
}
)";

constexpr const char* kJamAddEdge = R"(
/* Append edge (args[0] -> args[1]) to the vertex store. */
extern long vx_keys[1024];
extern long vx_degree[1024];
extern long vx_rows[16384];

long jam_add_edge(long* args, char* usr, long usr_bytes) {
  long src = args[0];
  long dst = args[1];
  unsigned long slot = ((unsigned long)src * 2654435761) % 1024;
  for (long i = 0; i < 1024; ++i) {
    unsigned long s = (slot + i) % 1024;
    if (vx_keys[s] == src || vx_keys[s] == -1) {
      if (vx_keys[s] == -1) vx_keys[s] = src;
      long d = vx_degree[s];
      if (d >= 16) return -1;          /* row full */
      vx_rows[s * 16 + d] = dst;
      vx_degree[s] = d + 1;
      return d + 1;
    }
  }
  return -2;                           /* index full */
}
)";

}  // namespace

int main() {
  using namespace twochains;

  pkg::PackageBuilder builder;
  if (!builder.AddSourceFile("ried_graph.rdc", kRiedGraph).ok() ||
      !builder.AddSourceFile("jam_add_edge.amc", kJamAddEdge).ok()) {
    return 1;
  }
  core::Fabric fabric;
  Status st = fabric.BuildAndLoad(builder, "graph");
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // A random edge stream over a small vertex set (deterministic).
  Xoshiro256 rng(2021);
  const int kEdges = 400;
  std::vector<std::pair<long, long>> edges;
  std::map<long, std::set<long>> expect;
  while (static_cast<int>(edges.size()) < kEdges) {
    const long src = static_cast<long>(rng.NextBelow(64));
    const long dst = static_cast<long>(rng.NextBelow(64));
    if (expect[src].size() >= 16) continue;     // respect row capacity
    if (expect[src].contains(dst)) continue;    // handler appends blindly
    edges.emplace_back(src, dst);
    expect[src].insert(dst);
  }

  // Scatter: push edges through flow control as fast as banks allow.
  int executed = 0;
  int failures = 0;
  fabric.runtime(1).SetOnExecuted([&](const core::ReceivedMessage& m) {
    ++executed;
    if (static_cast<std::int64_t>(m.return_value) < 0) ++failures;
  });
  const bench::SendLoops scatter(
      fabric,
      {{.src = 0,
        .dst = 1,
        .count = edges.size(),
        .next = [&edges](std::uint64_t n) {
          return bench::FlowMessage{
              .jam = "add_edge",
              .args = {static_cast<std::uint64_t>(edges[n].first),
                       static_cast<std::uint64_t>(edges[n].second)}};
        }}});
  fabric.RunUntil([&] { return executed == kEdges; });
  if (!scatter.status().ok()) {
    std::fprintf(stderr, "send: %s\n", scatter.status().ToString().c_str());
    return 1;
  }

  std::printf("scattered %d edges; %d handler executions, %d row-capacity "
              "rejections\n", kEdges, executed, failures);
  std::printf("simulated time: %.1f us; receiver handled %llu messages\n",
              ToMicroseconds(fabric.engine().Now()),
              static_cast<unsigned long long>(
                  fabric.runtime(1).stats().messages_executed));

  // Verify the remote adjacency store against the host-side model.
  auto& remote = fabric.runtime(1);
  int verified_vertices = 0;
  for (const auto& [src, neighbors] : expect) {
    // Find the vertex slot by probing like the jam does.
    std::uint64_t slot = (static_cast<std::uint64_t>(src) * 2654435761ull) %
                         1024;
    long found = -1;
    for (int i = 0; i < 1024; ++i) {
      const std::uint64_t s = (slot + i) % 1024;
      const auto key = remote.PeekU64("vx_keys", s);
      if (!key.ok()) break;
      if (static_cast<long>(*key) == src) {
        found = static_cast<long>(s);
        break;
      }
      if (static_cast<std::int64_t>(*key) == -1) break;
    }
    if (found < 0) {
      std::fprintf(stderr, "vertex %ld missing from remote store!\n", src);
      return 1;
    }
    const auto degree = remote.PeekU64("vx_degree", found);
    std::set<long> remote_neighbors;
    for (std::uint64_t d = 0; d < *degree; ++d) {
      remote_neighbors.insert(static_cast<long>(
          *remote.PeekU64("vx_rows", static_cast<std::uint64_t>(found) * 16 +
                                        d)));
    }
    if (remote_neighbors != neighbors) {
      std::fprintf(stderr, "vertex %ld adjacency mismatch\n", src);
      return 1;
    }
    ++verified_vertices;
  }
  std::printf("remote adjacency verified for %d vertices — OK\n",
              verified_vertices);
  return 0;
}
