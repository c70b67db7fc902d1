// Tests for min-cost maximum bipartite matching: hand cases, structural
// properties, and two independent cross-validations (exhaustive search and
// the min-cost-flow reduction) over random instances. The class-structured
// matcher Algorithm 2 runs on is checked against the general matcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "matching/class_matching.h"
#include "matching/hungarian.h"
#include "matching/min_cost_flow.h"
#include "mec/reliability.h"
#include "util/rng.h"

namespace mecra::matching {
namespace {

// ------------------------------------------------------------- hand cases

TEST(Matching, EmptyGraph) {
  const auto r = min_cost_max_matching(3, 3, {});
  EXPECT_EQ(r.cardinality, 0u);
  EXPECT_EQ(r.total_cost, 0.0);
}

TEST(Matching, SingleEdge) {
  const auto r = min_cost_max_matching(1, 1, {{0, 0, 5.0}});
  EXPECT_EQ(r.cardinality, 1u);
  EXPECT_DOUBLE_EQ(r.total_cost, 5.0);
  EXPECT_EQ(r.match_left[0], 0u);
  EXPECT_EQ(r.match_right[0], 0u);
}

TEST(Matching, PrefersCheaperPerfectMatching) {
  // 2x2 complete: diagonal costs 1+1, anti-diagonal 10+10.
  const std::vector<BipartiteEdge> edges{
      {0, 0, 1.0}, {0, 1, 10.0}, {1, 0, 10.0}, {1, 1, 1.0}};
  const auto r = min_cost_max_matching(2, 2, edges);
  EXPECT_EQ(r.cardinality, 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.0);
  EXPECT_EQ(r.match_left[0], 0u);
  EXPECT_EQ(r.match_left[1], 1u);
}

TEST(Matching, CardinalityBeatsCost) {
  // Taking the expensive pair of edges yields cardinality 2; the cheap
  // single edge blocks both. Maximum matching must pick the pair.
  const std::vector<BipartiteEdge> edges{
      {0, 0, 0.1}, {0, 1, 100.0}, {1, 0, 100.0}};
  const auto r = min_cost_max_matching(2, 2, edges);
  EXPECT_EQ(r.cardinality, 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, 200.0);
}

TEST(Matching, AugmentingPathReassignment) {
  // Classic chain: l0-r0 cheap, l1 only reaches r0 -> l0 must move to r1.
  const std::vector<BipartiteEdge> edges{
      {0, 0, 1.0}, {0, 1, 5.0}, {1, 0, 2.0}};
  const auto r = min_cost_max_matching(2, 2, edges);
  EXPECT_EQ(r.cardinality, 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, 7.0);
  EXPECT_EQ(r.match_left[0], 1u);
  EXPECT_EQ(r.match_left[1], 0u);
}

TEST(Matching, NegativeCostsAreHandled) {
  const std::vector<BipartiteEdge> edges{
      {0, 0, -5.0}, {0, 1, -1.0}, {1, 0, -2.0}, {1, 1, -4.0}};
  const auto r = min_cost_max_matching(2, 2, edges);
  EXPECT_EQ(r.cardinality, 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, -9.0);
}

TEST(Matching, UnbalancedSides) {
  const std::vector<BipartiteEdge> edges{
      {0, 0, 3.0}, {0, 1, 1.0}, {0, 2, 2.0}};
  const auto r = min_cost_max_matching(1, 3, edges);
  EXPECT_EQ(r.cardinality, 1u);
  EXPECT_DOUBLE_EQ(r.total_cost, 1.0);
  EXPECT_EQ(r.match_left[0], 1u);
}

TEST(Matching, IsolatedNodesStayUnmatched) {
  const std::vector<BipartiteEdge> edges{{0, 1, 1.0}};
  const auto r = min_cost_max_matching(3, 2, edges);
  EXPECT_EQ(r.cardinality, 1u);
  EXPECT_FALSE(r.match_left[1].has_value());
  EXPECT_FALSE(r.match_left[2].has_value());
  EXPECT_FALSE(r.match_right[0].has_value());
}

TEST(Matching, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW((void)min_cost_max_matching(1, 1, {{1, 0, 1.0}}),
               util::CheckFailure);
}

// ---------------------------------------------------- exhaustive reference

/// Brute force: try all ways to match lefts to distinct rights.
struct Brute {
  std::size_t best_card = 0;
  double best_cost = std::numeric_limits<double>::infinity();
};

void brute_recurse(const std::vector<std::vector<std::pair<std::uint32_t, double>>>& adj,
                   std::size_t l, std::vector<bool>& used, std::size_t card,
                   double cost, Brute& out) {
  if (l == adj.size()) {
    if (card > out.best_card ||
        (card == out.best_card && cost < out.best_cost)) {
      out.best_card = card;
      out.best_cost = cost;
    }
    return;
  }
  brute_recurse(adj, l + 1, used, card, cost, out);  // leave l unmatched
  for (const auto& [r, c] : adj[l]) {
    if (used[r]) continue;
    used[r] = true;
    brute_recurse(adj, l + 1, used, card + 1, cost + c, out);
    used[r] = false;
  }
}

Brute brute_force(std::size_t nl, std::size_t nr,
                  const std::vector<BipartiteEdge>& edges) {
  std::vector<std::vector<std::pair<std::uint32_t, double>>> adj(nl);
  for (const auto& e : edges) adj[e.left].emplace_back(e.right, e.cost);
  std::vector<bool> used(nr, false);
  Brute out;
  out.best_cost = 0.0;
  Brute result;
  brute_recurse(adj, 0, used, 0, 0.0, result);
  return result;
}

struct SweepParams {
  std::uint64_t seed;
  std::size_t nl;
  std::size_t nr;
  double density;
  bool negative;
};

class MatchingSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(MatchingSweep, MatchesBruteForceAndFlowReduction) {
  const auto [seed, nl, nr, density, negative] = GetParam();
  util::Rng rng(seed);
  std::vector<BipartiteEdge> edges;
  for (std::uint32_t l = 0; l < nl; ++l) {
    for (std::uint32_t r = 0; r < nr; ++r) {
      if (rng.bernoulli(density)) {
        const double lo = negative ? -5.0 : 0.0;
        edges.push_back({l, r, rng.uniform(lo, 10.0)});
      }
    }
  }

  const auto got = min_cost_max_matching(nl, nr, edges);

  // Internal consistency: symmetric match arrays, costs add up.
  double cost_check = 0.0;
  std::size_t card_check = 0;
  for (std::uint32_t l = 0; l < nl; ++l) {
    if (!got.match_left[l].has_value()) continue;
    const auto r = *got.match_left[l];
    ASSERT_TRUE(got.match_right[r].has_value());
    EXPECT_EQ(*got.match_right[r], l);
    ++card_check;
    // Edge must exist; take the cheapest matching edge for the bound.
    double cheapest = std::numeric_limits<double>::infinity();
    for (const auto& e : edges) {
      if (e.left == l && e.right == r) cheapest = std::min(cheapest, e.cost);
    }
    ASSERT_TRUE(std::isfinite(cheapest));
    cost_check += cheapest;
  }
  EXPECT_EQ(card_check, got.cardinality);
  EXPECT_NEAR(got.total_cost, cost_check, 1e-9);

  // Cross-validation 1: exhaustive search.
  const Brute ref = brute_force(nl, nr, edges);
  EXPECT_EQ(got.cardinality, ref.best_card);
  if (ref.best_card > 0) {
    EXPECT_NEAR(got.total_cost, ref.best_cost, 1e-9);
  }

  // Cross-validation 2: min-cost-flow reduction. Shift costs to be
  // non-negative first so max-flow == max cardinality at min cost.
  double min_c = 0.0;
  for (const auto& e : edges) min_c = std::min(min_c, e.cost);
  MinCostFlow flow(nl + nr + 2);
  const auto s = static_cast<std::uint32_t>(nl + nr);
  const auto t = static_cast<std::uint32_t>(nl + nr + 1);
  for (std::uint32_t l = 0; l < nl; ++l) flow.add_arc(s, l, 1.0, 0.0);
  for (std::uint32_t r = 0; r < nr; ++r) {
    flow.add_arc(static_cast<std::uint32_t>(nl + r), t, 1.0, 0.0);
  }
  for (const auto& e : edges) {
    flow.add_arc(e.left, static_cast<std::uint32_t>(nl + e.right), 1.0,
                 e.cost - min_c);
  }
  const auto f = flow.solve(s, t);
  EXPECT_NEAR(f.max_flow, static_cast<double>(got.cardinality), 1e-9);
  EXPECT_NEAR(f.total_cost + min_c * f.max_flow, got.total_cost, 1e-6);
}

std::vector<SweepParams> sweep_cases() {
  std::vector<SweepParams> cases;
  std::uint64_t seed = 4000;
  for (std::size_t nl : {1u, 3u, 5u, 7u}) {
    for (std::size_t nr : {1u, 4u, 6u}) {
      for (double density : {0.3, 0.7, 1.0}) {
        cases.push_back({seed++, nl, nr, density, false});
        cases.push_back({seed++, nl, nr, density, true});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RandomBipartite, MatchingSweep, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepParams>& tpi) {
      return "seed" + std::to_string(tpi.param.seed) + "_l" +
             std::to_string(tpi.param.nl) + "_r" +
             std::to_string(tpi.param.nr) +
             (tpi.param.negative ? "_neg" : "_pos");
    });

}  // namespace
}  // namespace mecra::matching

// Appended: degenerate side sizes.
namespace mecra::matching {
namespace {

TEST(Matching, ZeroSizedSides) {
  EXPECT_EQ(min_cost_max_matching(0, 5, {}).cardinality, 0u);
  EXPECT_EQ(min_cost_max_matching(5, 0, {}).cardinality, 0u);
  EXPECT_EQ(min_cost_max_matching(0, 0, {}).cardinality, 0u);
}

}  // namespace
}  // namespace mecra::matching

// ------------------------------------------------- class-structured matcher

namespace mecra::matching {
namespace {

/// Owned storage behind a span-based ItemClass list.
struct ClassInstance {
  std::vector<std::vector<std::uint32_t>> eligible;
  std::vector<std::vector<double>> costs;
  std::size_t num_right = 0;

  [[nodiscard]] std::vector<ItemClass> view() const {
    std::vector<ItemClass> out;
    for (std::size_t c = 0; c < eligible.size(); ++c) {
      out.push_back(ItemClass{eligible[c], costs[c]});
    }
    return out;
  }
};

/// The same instance as an explicit G_l: left = right nodes of the class
/// instance (cloudlets), right = one node per item, an edge per eligible
/// (cloudlet, item) pair.
MatchingResult solve_expanded(const ClassInstance& inst) {
  std::vector<BipartiteEdge> edges;
  std::uint32_t item = 0;
  for (std::size_t c = 0; c < inst.costs.size(); ++c) {
    for (const double cost : inst.costs[c]) {
      for (const std::uint32_t r : inst.eligible[c]) {
        edges.push_back({r, item, cost});
      }
      ++item;
    }
  }
  return min_cost_max_matching(inst.num_right, item, edges);
}

TEST(ClassMatching, EmptyInstances) {
  ClassMatcher matcher;
  EXPECT_EQ(matcher.solve({}, 4).cardinality, 0u);
  const std::vector<std::uint32_t> none;
  const std::vector<double> costs{1.0, 2.0};
  const std::vector<ItemClass> no_edges{{none, costs}};
  const auto& m = matcher.solve(no_edges, 3);
  EXPECT_EQ(m.cardinality, 0u);
  EXPECT_EQ(m.taken, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(m.owner, (std::vector<std::uint32_t>(3, ClassMatcher::kUnmatched)));
}

TEST(ClassMatching, CheapestItemsWinAndTiesGoToTheLowerClass) {
  // Two classes over the same two right nodes: the equal-cost first items
  // both fit, then class 1's cheaper second item beats class 0's.
  const std::vector<std::uint32_t> both{0, 1};
  const std::vector<double> c0{1.0, 5.0};
  const std::vector<double> c1{1.0, 2.0};
  const std::vector<ItemClass> classes{{both, c0}, {both, c1}};
  ClassMatcher matcher;
  const auto& m = matcher.solve(classes, 2);
  EXPECT_EQ(m.cardinality, 2u);
  EXPECT_DOUBLE_EQ(m.total_cost, 2.0);
  EXPECT_EQ(m.taken, (std::vector<std::uint32_t>{1, 1}));
  // Class 0 went first on the tie and took the lowest right node.
  EXPECT_EQ(m.owner, (std::vector<std::uint32_t>{0, 1}));
}

TEST(ClassMatching, AugmentingPathMovesAnEarlierItem) {
  // Class 0 (cheap) may use {0, 1}; class 1 only {0}. Greedy gives 0 the
  // node 0 first, then class 1's path pushes class 0 over to node 1.
  const std::vector<std::uint32_t> e0{0, 1};
  const std::vector<std::uint32_t> e1{0};
  const std::vector<double> c0{1.0};
  const std::vector<double> c1{2.0};
  const std::vector<ItemClass> classes{{e0, c0}, {e1, c1}};
  ClassMatcher matcher;
  const auto& m = matcher.solve(classes, 2);
  EXPECT_EQ(m.cardinality, 2u);
  EXPECT_EQ(m.owner, (std::vector<std::uint32_t>{1, 0}));
}

TEST(ClassMatching, BlockedClassKeepsCardinalityMaximum) {
  // Class 0's cheap items fill its only node; its later items are blocked
  // while the dearer class 1 still gets the free node.
  const std::vector<std::uint32_t> e0{0};
  const std::vector<std::uint32_t> e1{0, 1};
  const std::vector<double> c0{0.5, 0.6, 0.7};
  const std::vector<double> c1{9.0};
  const std::vector<ItemClass> classes{{e0, c0}, {e1, c1}};
  ClassMatcher matcher;
  const auto& m = matcher.solve(classes, 2);
  EXPECT_EQ(m.cardinality, 2u);
  EXPECT_DOUBLE_EQ(m.total_cost, 9.5);
  EXPECT_EQ(m.taken, (std::vector<std::uint32_t>{1, 1}));
}

TEST(ClassMatching, RejectsOutOfRangeRightNodes) {
  const std::vector<std::uint32_t> bad{2};
  const std::vector<double> costs{1.0};
  const std::vector<ItemClass> classes{{bad, costs}};
  ClassMatcher matcher;
  EXPECT_THROW((void)matcher.solve(classes, 2), util::CheckFailure);
}

TEST(ClassMatching, MatchesHungarianOnRandomAlgorithm2Shapes) {
  // Algorithm 2 round shapes: 1-10 chain positions over 1-30 cloudlets,
  // random allowed subsets, residuals that may fall below a demand, and
  // reliabilities drawn from a short list so that classes tie on cost.
  // One solver is reused across the whole sweep, as augment_heuristic
  // reuses it across rounds.
  constexpr int kInstances = 20000;
  constexpr double kReliabilities[] = {0.8, 0.9, 0.95};
  util::Rng rng(0xc1a55);
  ClassMatcher matcher;
  for (int trial = 0; trial < kInstances; ++trial) {
    const auto num_classes = static_cast<std::size_t>(rng.uniform_int(1, 10));
    ClassInstance inst;
    inst.num_right = static_cast<std::size_t>(rng.uniform_int(1, 30));
    std::vector<double> residual(inst.num_right);
    for (double& r : residual) r = rng.uniform(0.0, 1000.0);
    std::vector<std::vector<std::uint32_t>> allowed(num_classes);
    std::vector<double> demand(num_classes);
    const double density = rng.uniform(0.1, 1.0);
    for (std::size_t c = 0; c < num_classes; ++c) {
      demand[c] = rng.uniform(100.0, 600.0);
      for (std::uint32_t r = 0; r < inst.num_right; ++r) {
        if (rng.bernoulli(density)) allowed[c].push_back(r);
      }
      std::vector<std::uint32_t> eligible;
      for (const std::uint32_t r : allowed[c]) {
        if (residual[r] >= demand[c]) eligible.push_back(r);
      }
      // Remaining items k0+1..k0+m (m may be 0: an exhausted class).
      const double rel = kReliabilities[rng.index(3)];
      const auto k0 = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      const auto m = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
      std::vector<double> costs;
      for (std::uint32_t k = k0 + 1; k <= k0 + m; ++k) {
        costs.push_back(mec::item_cost(rel, k));
      }
      inst.eligible.push_back(std::move(eligible));
      inst.costs.push_back(std::move(costs));
    }

    const std::vector<ItemClass> classes = inst.view();
    const ClassMatching& got = matcher.solve(classes, inst.num_right);
    const MatchingResult want = solve_expanded(inst);
    ASSERT_EQ(got.cardinality, want.cardinality) << "trial " << trial;
    ASSERT_NEAR(got.total_cost, want.total_cost,
                1e-9 * std::max(1.0, std::abs(want.total_cost)))
        << "trial " << trial;

    // Each right node has at most one owner (owner is a function), only a
    // class whose allowed set holds it and whose demand it fits, and the
    // owner counts are the per-class item counts. `taken` counts each
    // class's first items, so the reported cost must be the sum of those
    // prefixes.
    std::vector<std::uint32_t> used(num_classes, 0);
    for (std::uint32_t r = 0; r < inst.num_right; ++r) {
      const std::uint32_t c = got.owner[r];
      if (c == ClassMatcher::kUnmatched) continue;
      ASSERT_LT(c, num_classes);
      ASSERT_TRUE(std::binary_search(allowed[c].begin(), allowed[c].end(), r))
          << "trial " << trial;
      ASSERT_GE(residual[r], demand[c]) << "trial " << trial;
      ++used[c];
    }
    double prefix_cost = 0.0;
    std::size_t card = 0;
    for (std::size_t c = 0; c < num_classes; ++c) {
      ASSERT_EQ(used[c], got.taken[c]) << "trial " << trial;
      ASSERT_LE(got.taken[c], inst.costs[c].size());
      for (std::uint32_t j = 0; j < got.taken[c]; ++j) {
        prefix_cost += inst.costs[c][j];
      }
      card += got.taken[c];
    }
    ASSERT_EQ(card, got.cardinality);
    ASSERT_NEAR(got.total_cost, prefix_cost,
                1e-9 * std::max(1.0, prefix_cost));
  }
}

}  // namespace
}  // namespace mecra::matching
