// Tests for the three augmentation algorithms (Sections 4-6) plus the
// greedy baseline and the validator, on hand-checkable instances.
//
// The tiny fixture's optimum is computable by hand: after primaries, the
// two cloudlets hold 700 and 400 MHz; items are a1..a3 (300 MHz each,
// gains ln(.96/.8), ln(.992/.96), ln(.9984/.992)) and b1, b2 (400 MHz,
// gains ln(.99/.9), ln(.999/.99)). The unique optimal count vector is
// (a x 2, b x 1): achieved reliability .992 * .99 = 0.98208.
#include <gtest/gtest.h>

#include <cmath>

#include "core/greedy_baseline.h"
#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/latency.h"
#include "core/randomized_rounding.h"
#include "core/validator.h"
#include "ilp/branch_and_bound.h"
#include "lp/simplex.h"
#include "test_fixtures.h"

namespace mecra::core {
namespace {

constexpr double kTinyOptimum = 0.992 * 0.99;  // see header comment

// ------------------------------------------------------------- ILP exact

TEST(IlpExact, TinyFixtureOptimum) {
  const auto f = test::tiny_fixture();
  const auto r = augment_ilp(f.instance);
  EXPECT_EQ(r.algorithm, "ILP");
  EXPECT_NEAR(r.achieved_reliability, kTinyOptimum, 1e-9);
  EXPECT_EQ(r.secondaries, (std::vector<std::uint32_t>{2, 1}));
  EXPECT_FALSE(r.expectation_met);  // 0.982 < 0.99
  EXPECT_TRUE(validate(f.instance, r).feasible);
}

TEST(IlpExact, MeetsAndTrimsToExpectation) {
  // rho = 0.95: optimum exceeds it; trimming drops a2 (smallest gain whose
  // removal keeps 0.9504 >= 0.95) and stops.
  const auto f = test::tiny_fixture(1.0, /*expectation=*/0.95);
  const auto r = augment_ilp(f.instance);
  EXPECT_TRUE(r.expectation_met);
  EXPECT_NEAR(r.achieved_reliability, 0.96 * 0.99, 1e-9);
  EXPECT_EQ(r.secondaries, (std::vector<std::uint32_t>{1, 1}));
  EXPECT_TRUE(validate(f.instance, r).feasible);
}

TEST(IlpExact, NoTrimKeepsMaximum) {
  const auto f = test::tiny_fixture(1.0, /*expectation=*/0.95);
  AugmentOptions opt;
  opt.trim_to_expectation = false;
  const auto r = augment_ilp(f.instance, opt);
  EXPECT_NEAR(r.achieved_reliability, kTinyOptimum, 1e-9);
  EXPECT_EQ(r.placements.size(), 3u);
}

TEST(IlpExact, AlreadyMeetingExpectationPlacesNothing) {
  const auto f = test::tiny_fixture(1.0, /*expectation=*/0.5);
  const auto r = augment_ilp(f.instance);
  EXPECT_TRUE(r.expectation_met);
  EXPECT_TRUE(r.placements.empty());
  EXPECT_NEAR(r.achieved_reliability, 0.72, 1e-12);
}

TEST(IlpExact, EmptyItemUniverseIsHandled) {
  mec::MecNetwork net(graph::path_graph(3), {0.0, 1000.0, 0.0});
  mec::VnfCatalog cat({{0, "p", 1.0, 300.0}});
  mec::SfcRequest req;
  req.chain = {0};
  req.expectation = 0.999;
  admission::PrimaryPlacement primaries;
  primaries.cloudlet_of = {1};
  const auto inst = build_bmcgap(net, cat, req, primaries, {});
  const auto r = augment_ilp(inst);
  EXPECT_TRUE(r.placements.empty());
  EXPECT_TRUE(r.expectation_met);  // r = 1.0 >= 0.999
}

// ------------------------------------------- per-item vs aggregated models

TEST(Formulations, PerItemAndAggregatedShareTheOptimum) {
  for (std::uint64_t seed : {1001u, 1002u, 1003u, 1004u}) {
    const auto scenario = test::random_scenario(seed, /*chain_len=*/4);
    ASSERT_TRUE(scenario.has_value());
    const auto& inst = scenario->instance;
    if (inst.num_items() == 0) continue;

    auto per_item = build_per_item_model(inst);
    auto agg = build_aggregated_model(inst);
    ilp::BranchAndBoundSolver solver;
    const auto a = solver.solve(per_item.model, per_item.is_integer);
    const auto b = solver.solve(agg.model, agg.is_integer);
    ASSERT_TRUE(a.has_solution());
    ASSERT_TRUE(b.has_solution());
    // 1e-4 relative MIP gap on both sides.
    EXPECT_NEAR(a.objective, b.objective,
                2e-4 * std::max(1.0, std::abs(a.objective)))
        << "seed " << seed;
  }
}

TEST(Formulations, LpRelaxationsAgreeToo) {
  const auto scenario = test::random_scenario(2001, 5);
  ASSERT_TRUE(scenario.has_value());
  const auto& inst = scenario->instance;
  auto per_item = build_per_item_model(inst, /*with_prefix_cuts=*/false);
  auto agg = build_aggregated_model(inst, /*with_mir_cuts=*/false);
  lp::SimplexSolver lp;
  const auto a = lp.solve(per_item.model);
  const auto b = lp.solve(agg.model);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
}

// ------------------------------------------------------------- randomized

TEST(Randomized, TinyFixtureIsReasonable) {
  const auto f = test::tiny_fixture();
  const auto r = augment_randomized(f.instance);
  EXPECT_EQ(r.algorithm, "Randomized");
  EXPECT_LE(r.achieved_reliability, kTinyOptimum + 1e-9);
  EXPECT_GE(r.achieved_reliability, f.instance.initial_reliability - 1e-12);
  // Hop constraint always holds; capacity may be violated by rounding.
  EXPECT_TRUE(validate(f.instance, r).hop_constraint_ok);
}

TEST(Randomized, DeterministicGivenSeed) {
  const auto f = test::tiny_fixture();
  AugmentOptions o1;
  o1.seed = 42;
  AugmentOptions o2;
  o2.seed = 42;
  const auto a = augment_randomized(f.instance, o1);
  const auto b = augment_randomized(f.instance, o2);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.achieved_reliability, b.achieved_reliability);
}

TEST(Randomized, CapacityViolationIsBoundedByTheorem52InPractice) {
  // Over many seeds, usage never exceeds 2x capacity (Theorem 5.2's bound).
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto scenario = test::random_scenario(3000 + seed, 8);
    if (!scenario.has_value()) continue;
    AugmentOptions opt;
    opt.seed = seed;
    const auto r = augment_randomized(scenario->instance, opt);
    EXPECT_LE(r.max_usage, 2.0 + 1e-9) << "seed " << seed;
    EXPECT_TRUE(validate(scenario->instance, r).hop_constraint_ok);
  }
}

TEST(Randomized, NothingToDoWhenExpectationMet) {
  const auto f = test::tiny_fixture(1.0, 0.5);
  const auto r = augment_randomized(f.instance);
  EXPECT_TRUE(r.placements.empty());
}

// -------------------------------------------------------------- heuristic

TEST(Heuristic, TinyFixtureReachesOptimum) {
  const auto f = test::tiny_fixture();
  const auto r = augment_heuristic(f.instance);
  EXPECT_EQ(r.algorithm, "Heuristic");
  EXPECT_NEAR(r.achieved_reliability, kTinyOptimum, 1e-9);
  EXPECT_TRUE(validate(f.instance, r).feasible);
}

TEST(Heuristic, NeverViolatesCapacity) {
  // Under both budget modes every result validates, never exceeds a
  // capacity, keeps backups within l = 1 hop of their primary, and counts
  // at least one matching round when it placed anything.
  std::size_t placed_runs = 0;
  for (const BudgetMode mode :
       {BudgetMode::kReliabilityTarget, BudgetMode::kLiteralCostBudget}) {
    AugmentOptions opt;
    opt.budget_mode = mode;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const auto scenario = test::random_scenario(4000 + seed, 10, 0.25);
      if (!scenario.has_value()) continue;
      const auto r = augment_heuristic(scenario->instance, opt);
      const auto report = validate(scenario->instance, r);
      EXPECT_TRUE(report.feasible) << "seed " << seed << ": "
                                   << (report.errors.empty()
                                           ? ""
                                           : report.errors.front());
      EXPECT_LE(r.max_usage, 1.0 + 1e-9);
      if (r.placements.empty()) continue;
      ++placed_runs;
      EXPECT_GE(r.solver_nodes, 1u) << "seed " << seed;
      EXPECT_LE(
          update_latency(scenario->network, scenario->instance, r).max_hops,
          1u)
          << "seed " << seed;
    }
  }
  EXPECT_GT(placed_runs, 0u);  // the sweep must exercise placements
}

TEST(Heuristic, NeverBeatsTheIlp) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto scenario = test::random_scenario(5000 + seed, 6);
    if (!scenario.has_value()) continue;
    AugmentOptions opt;
    opt.trim_to_expectation = false;
    const auto ilp = augment_ilp(scenario->instance, opt);
    const auto heur = augment_heuristic(scenario->instance, opt);
    EXPECT_LE(heur.achieved_reliability,
              ilp.achieved_reliability + 1e-9)
        << "seed " << seed;
  }
}

TEST(Heuristic, Lemma61PrefixProperty) {
  // The matched items of each function must be the lowest-k (cheapest)
  // ones: counts equal m_i implies items 1..m_i were used, which the
  // heuristic guarantees by min-cost matching (Lemma 6.1). Detectable via
  // the objective: recomputed gain assuming prefix must match the sum of
  // gains of the ACTUAL matched items; we assert through finalize's
  // objective_gain being consistent with counts.
  const auto scenario = test::random_scenario(6001, 8);
  ASSERT_TRUE(scenario.has_value());
  const auto r = augment_heuristic(scenario->instance);
  double prefix_gain = 0.0;
  for (std::size_t i = 0; i < r.secondaries.size(); ++i) {
    for (std::uint32_t k = 1; k <= r.secondaries[i]; ++k) {
      prefix_gain += mec::marginal_gain(
          scenario->instance.functions[i].reliability, k);
    }
  }
  EXPECT_NEAR(r.objective_gain, prefix_gain, 1e-9);
}

TEST(Heuristic, LiteralBudgetModeStopsEarlier) {
  const auto f = test::tiny_fixture(1.0, /*expectation=*/0.9999);
  AugmentOptions target;
  target.budget_mode = BudgetMode::kReliabilityTarget;
  AugmentOptions literal;
  literal.budget_mode = BudgetMode::kLiteralCostBudget;
  const auto rt = augment_heuristic(f.instance, target);
  const auto rl = augment_heuristic(f.instance, literal);
  // Eq. (3) costs accumulate fast (they grow with k), so the literal rule
  // cannot place more than the target rule here.
  EXPECT_LE(rl.placements.size(), rt.placements.size());
  EXPECT_TRUE(validate(f.instance, rl).feasible);
}

// ----------------------------------------------------------------- greedy

TEST(Greedy, TinyFixtureMatchesOptimumHere) {
  const auto f = test::tiny_fixture();
  const auto r = augment_greedy(f.instance);
  EXPECT_NEAR(r.achieved_reliability, kTinyOptimum, 1e-9);
  EXPECT_TRUE(validate(f.instance, r).feasible);
}

TEST(Greedy, FeasibleOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto scenario = test::random_scenario(7000 + seed, 9);
    if (!scenario.has_value()) continue;
    const auto r = augment_greedy(scenario->instance);
    EXPECT_TRUE(validate(scenario->instance, r).feasible) << "seed " << seed;
  }
}

// -------------------------------------------------------------- validator

TEST(Validator, FlagsForeignCloudlet) {
  const auto f = test::tiny_fixture();
  AugmentationResult r;
  r.algorithm = "manual";
  r.placements = {{0, 1}};
  finalize_result(f.instance, r);
  r.placements[0].cloudlet = 0;  // node 0 is not a cloudlet of the instance
  const auto report = validate(f.instance, r);
  EXPECT_FALSE(report.feasible);
  EXPECT_FALSE(report.hop_constraint_ok);
}

TEST(Validator, FlagsCapacityOverflow) {
  const auto f = test::tiny_fixture();
  AugmentationResult r;
  r.algorithm = "manual";
  // Two b-instances at cloudlet 2 (residual 400, needs 800).
  r.placements = {{1, 2}, {1, 2}};
  finalize_result(f.instance, r);
  const auto report = validate(f.instance, r);
  EXPECT_FALSE(report.feasible);
  EXPECT_TRUE(report.hop_constraint_ok);
  EXPECT_GT(report.max_usage_ratio, 1.0);
}

TEST(Validator, FlagsInconsistentMetrics) {
  const auto f = test::tiny_fixture();
  AugmentationResult r;
  r.algorithm = "manual";
  r.placements = {{0, 1}};
  finalize_result(f.instance, r);
  r.achieved_reliability = 0.5;  // corrupt the metric
  const auto report = validate(f.instance, r);
  EXPECT_FALSE(report.feasible);
}

TEST(Validator, AcceptsCleanResult) {
  const auto f = test::tiny_fixture();
  AugmentationResult r;
  r.algorithm = "manual";
  r.placements = {{0, 1}, {1, 1}};
  finalize_result(f.instance, r);
  EXPECT_TRUE(validate(f.instance, r).feasible);
}

// --------------------------------------------------------------- finalize

TEST(Finalize, UsageStatsAccountForPriorLoad) {
  const auto f = test::tiny_fixture();
  AugmentationResult r;
  r.placements = {{0, 2}};  // a-instance (300) onto cloudlet 2
  finalize_result(f.instance, r);
  // Cloudlet 1: used 300 (primary) / 1000. Cloudlet 2: (400 + 300) / 800.
  EXPECT_NEAR(r.usage_ratio[0], 0.3, 1e-12);
  EXPECT_NEAR(r.usage_ratio[1], 0.875, 1e-12);
  EXPECT_NEAR(r.max_usage, 0.875, 1e-12);
  EXPECT_NEAR(r.min_usage, 0.3, 1e-12);
  EXPECT_NEAR(r.avg_usage, (0.3 + 0.875) / 2, 1e-12);
}

TEST(Finalize, ObjectiveGainTelescopes) {
  const auto f = test::tiny_fixture();
  AugmentationResult r;
  r.placements = {{0, 1}, {0, 2}, {1, 1}};
  finalize_result(f.instance, r);
  EXPECT_NEAR(r.objective_gain,
              std::log(0.992 / 0.8) + std::log(0.99 / 0.9), 1e-9);
}

// --------------------------------------------------------------- trimming

TEST(Trim, NoOpWhenBelowExpectation) {
  const auto f = test::tiny_fixture();  // rho = .99 unreachable
  AugmentationResult r;
  r.placements = {{0, 1}, {0, 2}, {1, 1}};
  trim_to_expectation(f.instance, r);
  EXPECT_EQ(r.placements.size(), 3u);
}

TEST(Trim, RemovesSurplusSmallestGainFirst) {
  const auto f = test::tiny_fixture(1.0, /*expectation=*/0.95);
  AugmentationResult r;
  r.placements = {{0, 1}, {0, 2}, {1, 1}};  // (2, 1): rel 0.98208
  trim_to_expectation(f.instance, r);
  finalize_result(f.instance, r);
  EXPECT_EQ(r.secondaries, (std::vector<std::uint32_t>{1, 1}));
  EXPECT_GE(r.achieved_reliability, 0.95);
}

// ------------------------------------------------------- apply_placements

TEST(Apply, ConsumesNetworkCapacity) {
  auto f = test::tiny_fixture();
  AugmentationResult r;
  r.placements = {{0, 1}, {1, 2}};  // a (300) at node 1, b (400) at node 2
  finalize_result(f.instance, r);
  apply_placements(f.network, f.instance, r);
  EXPECT_DOUBLE_EQ(f.network.residual(1), 400.0);
  EXPECT_DOUBLE_EQ(f.network.residual(2), 0.0);
}

TEST(Apply, OverloadingRequiresViolationFlag) {
  auto f = test::tiny_fixture();
  AugmentationResult r;
  r.placements = {{1, 2}, {1, 2}};  // 800 onto the 400 left at node 2
  finalize_result(f.instance, r);
  EXPECT_THROW(apply_placements(f.network, f.instance, r),
               util::CheckFailure);
  auto g = test::tiny_fixture();
  apply_placements(g.network, g.instance, r, /*allow_violation=*/true);
  EXPECT_LT(g.network.residual(2), 0.0);
}

}  // namespace
}  // namespace mecra::core

// State-update latency accounting (core/latency.h).

namespace mecra::core {
namespace {

TEST(UpdateLatency, TinyFixtureDistances) {
  const auto f = test::tiny_fixture();
  AugmentationResult r;
  // a-backup co-located with its primary (node 1); b-backup one hop away
  // (primary at node 2, backup at node 1).
  r.placements = {{0, 1}, {1, 1}};
  finalize_result(f.instance, r);
  const auto stats = update_latency(f.network, f.instance, r);
  EXPECT_EQ(stats.secondaries, 2u);
  EXPECT_EQ(stats.max_hops, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_hops, 0.5);
  EXPECT_DOUBLE_EQ(stats.colocated_fraction, 0.5);
}

TEST(UpdateLatency, EmptyResultIsAllZeros) {
  const auto f = test::tiny_fixture();
  AugmentationResult r;
  finalize_result(f.instance, r);
  const auto stats = update_latency(f.network, f.instance, r);
  EXPECT_EQ(stats.secondaries, 0u);
  EXPECT_EQ(stats.avg_hops, 0.0);
}

TEST(UpdateLatency, NeverExceedsTheHopBound) {
  for (std::uint32_t l : {1u, 2u, 3u}) {
    const auto scenario = test::random_scenario(99100 + l, 6, 0.5, l);
    ASSERT_TRUE(scenario.has_value());
    const auto result = augment_heuristic(scenario->instance);
    if (result.placements.empty()) continue;
    const auto stats =
        update_latency(scenario->network, scenario->instance, result);
    EXPECT_LE(stats.max_hops, l);
  }
}

}  // namespace
}  // namespace mecra::core
