// Unit tests for the generic min-cost max-flow solver.
#include <gtest/gtest.h>

#include "support/min_cost_flow.h"
#include "util/check.h"

namespace mecra::matching {
namespace {

TEST(MinCostFlow, SingleArc) {
  MinCostFlow f(2);
  const auto a = f.add_arc(0, 1, 3.0, 2.0);
  const auto r = f.solve(0, 1);
  EXPECT_DOUBLE_EQ(r.max_flow, 3.0);
  EXPECT_DOUBLE_EQ(r.total_cost, 6.0);
  EXPECT_DOUBLE_EQ(f.flow_on(a), 3.0);
}

TEST(MinCostFlow, PrefersCheaperParallelPath) {
  // Two disjoint paths 0->1->3 (cost 1) and 0->2->3 (cost 5), caps 1 each.
  MinCostFlow f(4);
  f.add_arc(0, 1, 1.0, 0.0);
  f.add_arc(1, 3, 1.0, 1.0);
  f.add_arc(0, 2, 1.0, 0.0);
  f.add_arc(2, 3, 1.0, 5.0);
  const auto r = f.solve(0, 3, 1.0);
  EXPECT_DOUBLE_EQ(r.max_flow, 1.0);
  EXPECT_DOUBLE_EQ(r.total_cost, 1.0);
}

TEST(MinCostFlow, SaturatesBothPathsWhenAsked) {
  MinCostFlow f(4);
  f.add_arc(0, 1, 1.0, 0.0);
  f.add_arc(1, 3, 1.0, 1.0);
  f.add_arc(0, 2, 1.0, 0.0);
  f.add_arc(2, 3, 1.0, 5.0);
  const auto r = f.solve(0, 3);
  EXPECT_DOUBLE_EQ(r.max_flow, 2.0);
  EXPECT_DOUBLE_EQ(r.total_cost, 6.0);
}

TEST(MinCostFlow, BottleneckLimitsFlow) {
  // 0 -> 1 -> 2 with caps 5 then 2.
  MinCostFlow f(3);
  f.add_arc(0, 1, 5.0, 1.0);
  f.add_arc(1, 2, 2.0, 1.0);
  const auto r = f.solve(0, 2);
  EXPECT_DOUBLE_EQ(r.max_flow, 2.0);
  EXPECT_DOUBLE_EQ(r.total_cost, 4.0);
}

TEST(MinCostFlow, ReroutesThroughResidualArcs) {
  // Classic residual test: the cheap first path must be partially undone
  // to achieve max flow.
  //   0->1 (cap 1, cost 1), 0->2 (cap 1, cost 10),
  //   1->2 (cap 1, cost 0), 1->3 (cap 1, cost 10), 2->3 (cap 1, cost 1)
  MinCostFlow f(4);
  f.add_arc(0, 1, 1.0, 1.0);
  f.add_arc(0, 2, 1.0, 10.0);
  f.add_arc(1, 2, 1.0, 0.0);
  f.add_arc(1, 3, 1.0, 10.0);
  f.add_arc(2, 3, 1.0, 1.0);
  const auto r = f.solve(0, 3);
  EXPECT_DOUBLE_EQ(r.max_flow, 2.0);
  // Optimal: 0->1->2->3 (2) + 0->2 ... cap of 2->3 is 1, so second unit
  // goes 0->2? blocked; it must use 0->2? no: 0->2->3 saturated. Second
  // unit: 0->1? saturated. Actually max flow 2: 0->1->3 and 0->2->3 =
  // 1+10 + 10+1 = 22; or one unit only through cheap middle. Min cost for
  // flow 2 is 22.
  EXPECT_DOUBLE_EQ(r.total_cost, 22.0);
}

TEST(MinCostFlow, NegativeArcCostsViaBellmanFordInit) {
  MinCostFlow f(3);
  f.add_arc(0, 1, 1.0, -3.0);
  f.add_arc(1, 2, 1.0, 1.0);
  f.add_arc(0, 2, 1.0, 0.5);
  const auto r = f.solve(0, 2);
  EXPECT_DOUBLE_EQ(r.max_flow, 2.0);
  EXPECT_DOUBLE_EQ(r.total_cost, -1.5);
}

TEST(MinCostFlow, FlowLimitIsRespected) {
  MinCostFlow f(2);
  f.add_arc(0, 1, 10.0, 1.0);
  const auto r = f.solve(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(r.max_flow, 4.0);
}

TEST(MinCostFlow, DisconnectedGivesZeroFlow) {
  MinCostFlow f(3);
  f.add_arc(0, 1, 1.0, 1.0);
  const auto r = f.solve(0, 2);
  EXPECT_DOUBLE_EQ(r.max_flow, 0.0);
  EXPECT_DOUBLE_EQ(r.total_cost, 0.0);
}

TEST(MinCostFlow, RejectsBadArcs) {
  MinCostFlow f(2);
  EXPECT_THROW((void)f.add_arc(0, 0, 1.0, 1.0), util::CheckFailure);
  EXPECT_THROW((void)f.add_arc(0, 5, 1.0, 1.0), util::CheckFailure);
  EXPECT_THROW((void)f.add_arc(0, 1, -1.0, 1.0), util::CheckFailure);
}

TEST(MinCostFlow, ZeroCapacityArcCarriesNothing) {
  MinCostFlow f(2);
  const auto a = f.add_arc(0, 1, 0.0, 1.0);
  const auto r = f.solve(0, 1);
  EXPECT_DOUBLE_EQ(r.max_flow, 0.0);
  EXPECT_DOUBLE_EQ(f.flow_on(a), 0.0);
}

}  // namespace
}  // namespace mecra::matching
