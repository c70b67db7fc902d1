// Larger-scale stress sweeps: bigger random LPs through the KKT
// certificate, general-integer branch-and-bound against exhaustive grid
// enumeration, big matching instances cross-validated by min-cost flow,
// and full-pipeline runs at sizes beyond the paper's defaults.
#include <gtest/gtest.h>

#include <cmath>

#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/validator.h"
#include "ilp/branch_and_bound.h"
#include "lp/simplex.h"
#include "matching/hungarian.h"
#include "support/min_cost_flow.h"
#include "test_fixtures.h"

namespace mecra {
namespace {

// ------------------------------------------------- bigger LPs (feasible x
// by construction; optimality certified through primal feasibility + the
// bounded objective against a known interior point)

class BigLpSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigLpSweep, SolvesAndStaysFeasible) {
  util::Rng rng(GetParam());
  const std::size_t nv = 40;
  const std::size_t nr = 25;
  lp::Model m(rng.bernoulli(0.5) ? lp::Sense::kMaximize
                                 : lp::Sense::kMinimize);
  std::vector<double> interior;
  for (std::size_t v = 0; v < nv; ++v) {
    const double lo = rng.uniform(-1.0, 0.5);
    const double hi = lo + rng.uniform(0.5, 3.0);
    (void)m.add_variable(lo, hi, rng.uniform(-2.0, 2.0));
    interior.push_back(lo + 0.5 * (hi - lo));
  }
  for (std::size_t r = 0; r < nr; ++r) {
    std::vector<lp::Term> terms;
    double lhs = 0.0;
    for (std::size_t v = 0; v < nv; ++v) {
      if (rng.bernoulli(0.3)) {
        const double c = rng.uniform(-1.5, 2.0);
        terms.push_back({static_cast<lp::VarId>(v), c});
        lhs += c * interior[v];
      }
    }
    if (terms.empty()) continue;
    if (rng.bernoulli(0.5)) {
      m.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                       lhs + rng.uniform(0.0, 1.0));
    } else {
      m.add_constraint(std::move(terms), lp::Relation::kGreaterEqual,
                       lhs - rng.uniform(0.0, 1.0));
    }
  }
  const auto s = lp::SimplexSolver().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_LE(m.max_violation(s.x), 1e-6);
  const double interior_obj = m.objective_value(interior);
  if (m.sense() == lp::Sense::kMinimize) {
    EXPECT_LE(s.objective, interior_obj + 1e-6);
  } else {
    EXPECT_GE(s.objective, interior_obj - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigLpSweep,
                         ::testing::Values(81001, 81002, 81003, 81004,
                                           81005, 81006, 81007, 81008));

// -------------------------------------- general integers vs grid search

class GeneralIntegerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneralIntegerSweep, MatchesGridEnumeration) {
  util::Rng rng(GetParam());
  // 4 integer variables in [0, 4]: 625 grid points enumerable.
  const std::size_t nv = 4;
  lp::Model m(lp::Sense::kMaximize);
  for (std::size_t v = 0; v < nv; ++v) {
    (void)m.add_variable(0, 4, rng.uniform(-1.0, 3.0));
  }
  for (int r = 0; r < 3; ++r) {
    std::vector<lp::Term> terms;
    for (std::size_t v = 0; v < nv; ++v) {
      terms.push_back({static_cast<lp::VarId>(v), rng.uniform(0.2, 2.0)});
    }
    // Anchored at the origin (always feasible) with positive slack.
    m.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                     rng.uniform(2.0, 10.0));
  }

  double best = -1e18;
  std::vector<double> x(nv);
  for (int a = 0; a <= 4; ++a) {
    for (int b = 0; b <= 4; ++b) {
      for (int c = 0; c <= 4; ++c) {
        for (int d = 0; d <= 4; ++d) {
          x = {static_cast<double>(a), static_cast<double>(b),
               static_cast<double>(c), static_cast<double>(d)};
          if (m.max_violation(x) > 1e-9) continue;
          best = std::max(best, m.objective_value(x));
        }
      }
    }
  }

  const auto s = ilp::BranchAndBoundSolver().solve_pure(m);
  ASSERT_EQ(s.status, ilp::IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralIntegerSweep,
                         ::testing::Values(82001, 82002, 82003, 82004,
                                           82005, 82006));

// -------------------------------------------------------- large matching

TEST(StressMatching, LargeInstanceAgreesWithFlowReduction) {
  util::Rng rng(83001);
  const std::size_t nl = 40;
  const std::size_t nr = 250;
  std::vector<matching::BipartiteEdge> edges;
  for (std::uint32_t l = 0; l < nl; ++l) {
    for (std::uint32_t r = 0; r < nr; ++r) {
      if (rng.bernoulli(0.2)) edges.push_back({l, r, rng.uniform(0.0, 5.0)});
    }
  }
  const auto got = matching::min_cost_max_matching(nl, nr, edges);

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
  const auto f = flow.solve(s, t);
  EXPECT_NEAR(f.max_flow, static_cast<double>(got.cardinality), 1e-9);
  EXPECT_NEAR(f.total_cost, got.total_cost, 1e-6);
}

// ----------------------------------------------------- bigger pipelines

TEST(StressPipeline, LargerNetworkAndLongChain) {
  sim::ScenarioParams params;
  params.num_aps = 200;
  params.cloudlets.cloudlet_fraction = 0.1;  // 20 cloudlets
  params.request.chain_length_low = 15;
  params.request.chain_length_high = 15;
  params.residual_fraction = 0.5;
  util::Rng rng(84001);
  const auto scenario = sim::make_scenario(params, rng);
  ASSERT_TRUE(scenario.has_value());
  EXPECT_EQ(scenario->network.num_nodes(), 200u);
  EXPECT_EQ(scenario->network.cloudlets().size(), 20u);

  const auto heur = core::augment_heuristic(scenario->instance);
  EXPECT_TRUE(core::validate(scenario->instance, heur).feasible);

  core::AugmentOptions opt;
  opt.ilp.time_limit_seconds = 10.0;
  const auto ilp = core::augment_ilp(scenario->instance, opt);
  EXPECT_TRUE(core::validate(scenario->instance, ilp).feasible);
  EXPECT_GE(ilp.achieved_reliability, heur.achieved_reliability - 1e-9);
}

TEST(StressPipeline, WideHopRadiusOnDenseCloudlets) {
  sim::ScenarioParams params;
  params.cloudlets.cloudlet_fraction = 0.3;  // 30 cloudlets on 100 APs
  params.bmcgap.l_hops = 2;
  params.residual_fraction = 0.5;
  params.request.chain_length_low = 10;
  params.request.chain_length_high = 10;
  util::Rng rng(84002);
  const auto scenario = sim::make_scenario(params, rng);
  ASSERT_TRUE(scenario.has_value());
  const auto heur = core::augment_heuristic(scenario->instance);
  EXPECT_TRUE(core::validate(scenario->instance, heur).feasible);
  EXPECT_TRUE(heur.expectation_met);  // dense cloudlets: rho reachable
}

}  // namespace
}  // namespace mecra
