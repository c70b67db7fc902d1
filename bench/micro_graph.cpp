// Microbenchmarks for the graph substrate: topology generation (the GT-ITM
// Waxman model the experiments use plus the cell-bucketed geometric model
// for 100k+ APs), BFS neighborhoods, the CSR and its l-hop queries, and the
// full scenario builder.
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/hop_oracle.h"
#include "graph/topology.h"
#include "sim/workload.h"

namespace {

using namespace mecra;

void BM_WaxmanGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    auto t = graph::waxman({.num_nodes = n}, rng);
    benchmark::DoNotOptimize(t.graph.num_edges());
  }
}
BENCHMARK(BM_WaxmanGeneration)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_TransitStubGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    auto t = graph::transit_stub({}, rng);
    benchmark::DoNotOptimize(t.graph.num_edges());
  }
}
BENCHMARK(BM_TransitStubGeneration);

void BM_BfsHops(benchmark::State& state) {
  util::Rng rng(7);
  const auto t =
      graph::waxman({.num_nodes = static_cast<std::size_t>(state.range(0))},
                    rng);
  for (auto _ : state) {
    auto d = graph::bfs_hops(t.graph, 0);
    benchmark::DoNotOptimize(d.back());
  }
}
BENCHMARK(BM_BfsHops)->Arg(100)->Arg(400);

void BM_LHopNeighborhoods(benchmark::State& state) {
  util::Rng rng(7);
  const auto t = graph::waxman({.num_nodes = 100}, rng);
  const auto l = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    for (graph::NodeId v = 0; v < 100; ++v) {
      auto n = graph::l_hop_neighbors(t.graph, v, l);
      benchmark::DoNotOptimize(n.size());
    }
  }
}
BENCHMARK(BM_LHopNeighborhoods)->Arg(1)->Arg(2)->Arg(3);

void BM_GeometricGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    auto t = graph::random_geometric({.num_nodes = n}, rng);
    benchmark::DoNotOptimize(t.graph.num_edges());
  }
}
BENCHMARK(BM_GeometricGeneration)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_CsrBuild(benchmark::State& state) {
  util::Rng rng(7);
  const auto t = graph::random_geometric(
      {.num_nodes = static_cast<std::size_t>(state.range(0))}, rng);
  for (auto _ : state) {
    auto csr = graph::CsrGraph::build(t.graph);
    benchmark::DoNotOptimize(csr.num_edges());
  }
}
BENCHMARK(BM_CsrBuild)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_OracleLHopMembers(benchmark::State& state) {
  util::Rng rng(7);
  const auto t = graph::random_geometric(
      {.num_nodes = static_cast<std::size_t>(state.range(0))}, rng);
  const auto csr = graph::CsrGraph::build(t.graph);
  const graph::HopOracle oracle(csr);
  graph::NodeId v = 0;
  for (auto _ : state) {
    auto n = oracle.l_hop_members(v, 2);
    benchmark::DoNotOptimize(n.size());
    v = (v + 9973) % static_cast<graph::NodeId>(t.graph.num_nodes());
  }
}
BENCHMARK(BM_OracleLHopMembers)->Arg(10000)->Arg(100000);

void BM_OracleHopsToTargets(benchmark::State& state) {
  util::Rng rng(7);
  const auto t = graph::random_geometric(
      {.num_nodes = static_cast<std::size_t>(state.range(0))}, rng);
  const auto csr = graph::CsrGraph::build(t.graph);
  const graph::HopOracle oracle(csr);
  const auto n = static_cast<graph::NodeId>(t.graph.num_nodes());
  // Three targets from each source's 2-hop ball: the promotion / latency
  // shape (standbys sit within l of their active).
  struct Query {
    graph::NodeId source;
    std::vector<graph::NodeId> targets;
  };
  std::vector<Query> queries;
  for (graph::NodeId u = 0; queries.size() < 1024; u = (u + 9973) % n) {
    const auto ball = oracle.members_within(u, 2);
    queries.push_back(
        {u, {ball.front(), ball[ball.size() / 2], ball.back()}});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ % queries.size()];
    auto d = oracle.hops_to_targets(q.source, q.targets);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_OracleHopsToTargets)->Arg(10000)->Arg(100000);

void BM_ScenarioBuild(benchmark::State& state) {
  sim::ScenarioParams params;
  params.request.chain_length_low = 8;
  params.request.chain_length_high = 8;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    auto s = sim::make_scenario(params, rng);
    benchmark::DoNotOptimize(s.has_value());
  }
}
BENCHMARK(BM_ScenarioBuild)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
