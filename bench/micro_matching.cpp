// Microbenchmarks for the matching substrate: min-cost maximum matching on
// random bipartite graphs shaped like Algorithm 2's auxiliary graphs
// (few cloudlets x many items), the min-cost-flow twin, and the
// class-structured matcher Algorithm 2 runs against the general Hungarian
// on the same streaming-sized G_l (the per-call ratio behind the
// augment_heuristic latency).
#include <benchmark/benchmark.h>

#include "matching/class_matching.h"
#include "matching/hungarian.h"
#include "matching/min_cost_flow.h"
#include "mec/reliability.h"
#include "util/rng.h"

namespace {

using namespace mecra;

std::vector<matching::BipartiteEdge> random_edges(std::size_t nl,
                                                  std::size_t nr,
                                                  double density,
                                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<matching::BipartiteEdge> edges;
  for (std::uint32_t l = 0; l < nl; ++l) {
    for (std::uint32_t r = 0; r < nr; ++r) {
      if (rng.bernoulli(density)) {
        edges.push_back({l, r, rng.uniform(0.1, 10.0)});
      }
    }
  }
  return edges;
}

void BM_MinCostMaxMatching(benchmark::State& state) {
  const auto nl = static_cast<std::size_t>(state.range(0));
  const auto nr = static_cast<std::size_t>(state.range(1));
  const auto edges = random_edges(nl, nr, 0.5, 42);
  for (auto _ : state) {
    auto m = matching::min_cost_max_matching(nl, nr, edges);
    benchmark::DoNotOptimize(m.total_cost);
  }
  state.counters["edges"] = static_cast<double>(edges.size());
}
// Cloudlets x items shapes from the paper's sweeps.
BENCHMARK(BM_MinCostMaxMatching)
    ->Args({10, 50})
    ->Args({10, 300})
    ->Args({10, 1000})
    ->Args({50, 1000});

void BM_MinCostFlowAssignment(benchmark::State& state) {
  const auto nl = static_cast<std::size_t>(state.range(0));
  const auto nr = static_cast<std::size_t>(state.range(1));
  const auto edges = random_edges(nl, nr, 0.5, 42);
  for (auto _ : state) {
    matching::MinCostFlow flow(nl + nr + 2);
    const auto s = static_cast<std::uint32_t>(nl + nr);
    const auto t = static_cast<std::uint32_t>(nl + nr + 1);
    for (std::uint32_t l = 0; l < nl; ++l) flow.add_arc(s, l, 1.0, 0.0);
    for (std::uint32_t r = 0; r < nr; ++r) {
      flow.add_arc(static_cast<std::uint32_t>(nl + r), t, 1.0, 0.0);
    }
    for (const auto& e : edges) {
      flow.add_arc(e.left, static_cast<std::uint32_t>(nl + e.right), 1.0,
                   e.cost);
    }
    auto result = flow.solve(s, t);
    benchmark::DoNotOptimize(result.total_cost);
  }
}
BENCHMARK(BM_MinCostFlowAssignment)->Args({10, 300})->Args({10, 1000});

/// One Algorithm 2 round as the streaming service sees it: 7 chain
/// positions with 2 remaining items each over `cloudlets` cloudlets, each
/// position allowed on about half of them and a fifth of those too full.
struct GlShape {
  std::vector<std::vector<std::uint32_t>> eligible;
  std::vector<std::vector<double>> costs;
  std::vector<matching::ItemClass> classes;
  std::vector<matching::BipartiteEdge> edges;  // the expanded G_l
  std::size_t num_items = 0;
};

GlShape stream_gl(std::size_t cloudlets, std::uint64_t seed) {
  constexpr double kReliabilities[] = {0.8, 0.9, 0.95};
  util::Rng rng(seed);
  GlShape g;
  for (std::uint32_t i = 0; i < 7; ++i) {
    std::vector<std::uint32_t> eligible;
    for (std::uint32_t c = 0; c < cloudlets; ++c) {
      if (rng.bernoulli(0.5) && !rng.bernoulli(0.2)) eligible.push_back(c);
    }
    const double r = kReliabilities[rng.index(3)];
    std::vector<double> costs;
    for (std::uint32_t k = 1; k <= 2; ++k) {
      for (const std::uint32_t c : eligible) {
        g.edges.push_back({c, static_cast<std::uint32_t>(g.num_items),
                           mec::item_cost(r, k)});
      }
      costs.push_back(mec::item_cost(r, k));
      ++g.num_items;
    }
    g.eligible.push_back(std::move(eligible));
    g.costs.push_back(std::move(costs));
  }
  for (std::size_t i = 0; i < g.eligible.size(); ++i) {
    g.classes.push_back({g.eligible[i], g.costs[i]});
  }
  return g;
}

void BM_ClassMatcherStreamGl(benchmark::State& state) {
  const auto cloudlets = static_cast<std::size_t>(state.range(0));
  const GlShape g = stream_gl(cloudlets, 7);
  matching::ClassMatcher matcher;  // reused, as across Algorithm 2 rounds
  for (auto _ : state) {
    const auto& m = matcher.solve(g.classes, cloudlets);
    benchmark::DoNotOptimize(m.total_cost);
  }
  state.counters["items"] = static_cast<double>(g.num_items);
}
BENCHMARK(BM_ClassMatcherStreamGl)->Arg(20)->Arg(35)->Arg(50);

void BM_MinCostMaxMatchingStreamGl(benchmark::State& state) {
  const auto cloudlets = static_cast<std::size_t>(state.range(0));
  const GlShape g = stream_gl(cloudlets, 7);
  for (auto _ : state) {
    auto m = matching::min_cost_max_matching(cloudlets, g.num_items, g.edges);
    benchmark::DoNotOptimize(m.total_cost);
  }
  state.counters["edges"] = static_cast<double>(g.edges.size());
}
BENCHMARK(BM_MinCostMaxMatchingStreamGl)->Arg(20)->Arg(35)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
