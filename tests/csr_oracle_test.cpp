// Equivalence tests for the CSR graph core and the l-hop oracle: every
// query must be bit-identical to the legacy adjacency-list BFS/Dijkstra
// answers, over deterministic shapes and randomized
// topologies (Erdős–Rényi incl. disconnected, Waxman, transit-stub, and
// the cell-bucketed geometric generator).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/hop_oracle.h"
#include "graph/topology.h"
#include "mec/network.h"
#include "mec/shard_map.h"
#include "util/check.h"
#include "util/rng.h"

namespace mecra::graph {
namespace {

/// The randomized topologies every equivalence test sweeps. Small enough
/// that a full legacy BFS per node stays cheap, varied enough to cover
/// dense, sparse, clustered, and disconnected regimes.
std::vector<Graph> test_topologies() {
  std::vector<Graph> out;
  util::Rng rng(20260807);
  out.push_back(erdos_renyi(60, 0.08, rng, /*ensure_connected=*/true));
  out.push_back(erdos_renyi(80, 0.02, rng, /*ensure_connected=*/false));
  out.push_back(erdos_renyi(40, 0.3, rng, /*ensure_connected=*/true));
  out.push_back(waxman({.num_nodes = 90, .alpha = 0.4, .beta = 0.2,
                        .ensure_connected = true},
                       rng)
                    .graph);
  out.push_back(transit_stub({}, rng).graph);
  out.push_back(random_geometric({.num_nodes = 300, .target_degree = 6.0,
                                  .alpha = 0.9, .beta = 0.6,
                                  .ensure_connected = true},
                                 rng)
                    .graph);
  out.push_back(random_geometric({.num_nodes = 200, .target_degree = 3.0,
                                  .alpha = 0.5, .beta = 0.4,
                                  .ensure_connected = false},
                                 rng)
                    .graph);
  out.push_back(path_graph(17));
  out.push_back(ring_graph(16));
  out.push_back(star_graph(12));
  out.push_back(grid_graph(7, 9));
  out.push_back(complete_graph(9));
  out.push_back(Graph(5));  // edgeless: everything disconnected
  return out;
}

std::uint32_t diameter_of(const Graph& g) {
  std::uint32_t d = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::uint32_t h : bfs_hops(g, v)) {
      if (h != kUnreachable) d = std::max(d, h);
    }
  }
  return d;
}

// ------------------------------------------------------------------- CSR

TEST(CsrGraph, MirrorsAdjacencyListsExactly) {
  for (const Graph& g : test_topologies()) {
    const CsrGraph csr = CsrGraph::build(g);
    ASSERT_EQ(csr.num_nodes(), g.num_nodes());
    ASSERT_EQ(csr.num_edges(), g.num_edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto want_n = g.neighbors(v);
      const auto got_n = csr.neighbors(v);
      ASSERT_EQ(csr.degree(v), g.degree(v));
      ASSERT_TRUE(std::equal(want_n.begin(), want_n.end(), got_n.begin(),
                             got_n.end()));
      const auto want_w = g.neighbor_weights(v);
      const auto got_w = csr.neighbor_weights(v);
      ASSERT_TRUE(std::equal(want_w.begin(), want_w.end(), got_w.begin(),
                             got_w.end()));
    }
  }
}

TEST(CsrGraph, EdgeLookupsMatchGraph) {
  util::Rng rng(7);
  const Graph g = erdos_renyi(50, 0.1, rng);
  const CsrGraph csr = CsrGraph::build(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(csr.has_edge(u, v), g.has_edge(u, v));
      if (g.has_edge(u, v)) {
        ASSERT_EQ(csr.edge_weight(u, v), g.edge_weight(u, v));
      }
    }
  }
  EXPECT_THROW((void)csr.edge_weight(0, 0), util::CheckFailure);
}

TEST(CsrGraph, AlgorithmOverloadsMatchLegacy) {
  for (const Graph& g : test_topologies()) {
    const CsrGraph csr = CsrGraph::build(g);
    ASSERT_EQ(is_connected(csr), is_connected(g));
    ASSERT_EQ(connected_components(csr), connected_components(g));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(bfs_hops(csr, v), bfs_hops(g, v));
      for (std::uint32_t l : {1u, 2u}) {
        ASSERT_EQ(l_hop_neighbors(csr, v, l), l_hop_neighbors(g, v, l));
      }
    }
    if (g.num_nodes() > 0) {
      const auto legacy = dijkstra(g, 0);
      const auto packed = dijkstra(csr, 0);
      ASSERT_EQ(legacy.distance, packed.distance);
      ASSERT_EQ(legacy.parent, packed.parent);
    }
  }
}

// ---------------------------------------------------------------- oracle

TEST(HopOracle, LocalQueriesMatchLegacyAtEveryRadius) {
  for (const Graph& g : test_topologies()) {
    const CsrGraph csr = CsrGraph::build(g);
    const HopOracle oracle(csr);
    const std::uint32_t diam = diameter_of(g);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (std::uint32_t l : {0u, 1u, 2u, diam, diam + 1}) {
        if (l == 0) {
          // The legacy l_hop_neighbors CHECKs l >= 1; the oracle's
          // documented l == 0 contract is "just v" / "nothing but v".
          ASSERT_TRUE(oracle.l_hop_members(v, 0).empty());
          ASSERT_EQ(oracle.members_within(v, 0), std::vector<NodeId>{v});
          continue;
        }
        const auto want = l_hop_neighbors(g, v, l);
        ASSERT_EQ(oracle.l_hop_members(v, l), want);
        auto plus = oracle.members_within(v, l);
        ASSERT_TRUE(std::binary_search(plus.begin(), plus.end(), v));
        plus.erase(std::lower_bound(plus.begin(), plus.end(), v));
        ASSERT_EQ(plus, want);
      }
    }
  }
}

TEST(HopOracle, HopsToTargetsMatchesBfs) {
  util::Rng rng(99);
  for (const Graph& g : test_topologies()) {
    if (g.num_nodes() == 0) continue;
    const CsrGraph csr = CsrGraph::build(g);
    const HopOracle oracle(csr);
    for (int trial = 0; trial < 8; ++trial) {
      const NodeId source = static_cast<NodeId>(rng.index(g.num_nodes()));
      std::vector<NodeId> targets;
      for (int t = 0; t < 6; ++t) {
        targets.push_back(static_cast<NodeId>(rng.index(g.num_nodes())));
      }
      targets.push_back(source);  // duplicate + self must both work
      targets.push_back(targets.front());
      const auto hops = bfs_hops(g, source);
      const auto got = oracle.hops_to_targets(source, targets);
      ASSERT_EQ(got.size(), targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        ASSERT_EQ(got[i], hops[targets[i]]);
      }
    }
  }
}

TEST(HopOracle, ConcurrentQueriesAreRaceFree) {
  // Exercised under TSan in CI: thread_local scratch means queries from
  // many threads against one shared oracle must not race.
  util::Rng rng(42);
  const Graph g = erdos_renyi(150, 0.05, rng);
  const CsrGraph csr = CsrGraph::build(g);
  const HopOracle oracle(csr);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  std::vector<std::vector<std::uint32_t>> want(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) want[v] = bfs_hops(g, v);

  std::vector<std::thread> workers;
  std::vector<char> ok(4, 1);
  for (std::size_t t = 0; t < ok.size(); ++t) {
    workers.emplace_back([&, t] {
      for (NodeId u = static_cast<NodeId>(t); u < g.num_nodes();
           u += static_cast<NodeId>(ok.size())) {
        if (oracle.hops_to_targets(u, all) != want[u]) ok[t] = 0;
        auto ball = oracle.members_within(u, 2);
        ball.erase(std::lower_bound(ball.begin(), ball.end(), u));
        if (ball != l_hop_neighbors(g, u, 2)) ok[t] = 0;
      }
    });
  }
  for (auto& w : workers) w.join();
  for (char c : ok) EXPECT_TRUE(c);
}

// ------------------------------------------------- O(V^2) guard + MEC glue

TEST(Algorithms, AllPairsHopsRefusesHugeGraphs) {
  EXPECT_NO_THROW((void)all_pairs_hops(path_graph(64)));
  EXPECT_THROW((void)all_pairs_hops(path_graph(kAllPairsMaxNodes + 1)),
               util::CheckFailure);
}

TEST(MecGlue, CloudletsWithinMatchesBfsFilter) {
  util::Rng rng(5);
  GeneratedTopology topo =
      waxman({.num_nodes = 80, .alpha = 0.4, .beta = 0.2,
              .ensure_connected = true},
             rng);
  std::vector<double> capacity(topo.graph.num_nodes(), 0.0);
  for (NodeId v = 0; v < topo.graph.num_nodes(); v += 3) capacity[v] = 100.0;
  const Graph legacy = topo.graph;  // network consumes its topology
  mec::MecNetwork network(std::move(topo.graph), std::move(capacity));
  for (std::uint32_t l : {1u, 2u, 4u}) {
    for (NodeId v = 0; v < network.num_nodes(); ++v) {
      const auto hops = bfs_hops(legacy, v);
      std::vector<NodeId> want;
      for (NodeId u : network.cloudlets()) {
        if (hops[u] != kUnreachable && hops[u] <= l) want.push_back(u);
      }
      ASSERT_EQ(network.cloudlets_within(v, l), want);
    }
  }
}

TEST(MecGlue, ShardMapNeighborhoodCacheMatchesBfs) {
  util::Rng rng(17);
  GeneratedTopology topo = transit_stub({}, rng);
  std::vector<double> capacity(topo.graph.num_nodes(), 0.0);
  for (NodeId v = 1; v < topo.graph.num_nodes(); v += 2) capacity[v] = 50.0;
  const Graph legacy = topo.graph;
  mec::MecNetwork network(std::move(topo.graph), std::move(capacity));
  mec::ShardMapOptions options;
  options.l_hops = 2;
  const mec::ShardMap map = mec::ShardMap::build(network, options);
  for (NodeId v : network.cloudlets()) {
    const auto hops = bfs_hops(legacy, v);
    std::vector<NodeId> want;
    for (NodeId u : network.cloudlets()) {
      if (hops[u] != kUnreachable && hops[u] <= options.l_hops) {
        want.push_back(u);
      }
    }
    ASSERT_EQ(map.neighborhood(v), want);
  }
}

}  // namespace
}  // namespace mecra::graph
