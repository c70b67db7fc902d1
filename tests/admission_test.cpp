// Tests for the admission framework: random primary placement (the paper's
// experimental policy) and the Section 4.1 layered-DAG maximum-reliability
// admission.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "admission/admission.h"
#include "graph/topology.h"
#include "util/rng.h"

namespace mecra::admission {
namespace {

mec::VnfCatalog two_function_catalog() {
  return mec::VnfCatalog({{0, "a", 0.9, 300.0}, {0, "b", 0.8, 400.0}});
}

mec::SfcRequest chain_request(std::vector<mec::FunctionId> chain,
                              double rho = 0.99) {
  mec::SfcRequest req;
  req.chain = std::move(chain);
  req.expectation = rho;
  req.source = 0;
  req.destination = 0;
  return req;
}

TEST(InitialReliability, ProductOfChainReliabilities) {
  const auto cat = two_function_catalog();
  EXPECT_NEAR(initial_reliability(cat, chain_request({0, 1})), 0.72, 1e-12);
  EXPECT_NEAR(initial_reliability(cat, chain_request({0, 0, 1})),
              0.9 * 0.9 * 0.8, 1e-12);
}

// ------------------------------------------------------- random admission

TEST(RandomAdmission, PlacesEveryFunctionAndConsumes) {
  util::Rng rng(1);
  mec::MecNetwork net(graph::path_graph(3), {0.0, 1000.0, 0.0});
  const auto cat = two_function_catalog();
  const auto req = chain_request({0, 1});
  const double before = net.total_residual();
  const auto placement = random_admission(net, cat, req, rng);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->length(), 2u);
  for (graph::NodeId v : placement->cloudlet_of) EXPECT_EQ(v, 1u);
  EXPECT_DOUBLE_EQ(net.total_residual(), before - 700.0);
}

TEST(RandomAdmission, FailsCleanlyWhenNothingFits) {
  util::Rng rng(1);
  mec::MecNetwork net(graph::path_graph(3), {0.0, 500.0, 0.0});
  const auto cat = two_function_catalog();
  // Chain of three 300s cannot fit into 500: second placement fails.
  const auto req = chain_request({0, 0, 0});
  const auto placement = random_admission(net, cat, req, rng);
  EXPECT_FALSE(placement.has_value());
  // Rollback restored everything.
  EXPECT_DOUBLE_EQ(net.residual(1), 500.0);
}

TEST(RandomAdmission, OnlyUsesCloudletsWithRoom) {
  util::Rng rng(2);
  // Two cloudlets: one is already full.
  mec::MecNetwork net(graph::path_graph(3), {600.0, 300.0, 0.0});
  net.consume(1, 300.0);
  const auto cat = two_function_catalog();
  for (int trial = 0; trial < 20; ++trial) {
    auto copy = net;
    const auto placement = random_admission(copy, cat, chain_request({0}), rng);
    ASSERT_TRUE(placement.has_value());
    EXPECT_EQ(placement->cloudlet_of[0], 0u);
  }
}

// ----------------------------------------------------------- primary pool

/// random_admission's draw loop over an explicit candidate list: the
/// reference a pool over a cloudlet subset must reproduce draw for draw.
std::optional<PrimaryPlacement> reference_within(
    mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    const mec::SfcRequest& request,
    const std::vector<graph::NodeId>& candidates, util::Rng& rng) {
  PrimaryPlacement placement;
  std::vector<std::pair<graph::NodeId, double>> touched;
  for (mec::FunctionId f : request.chain) {
    const double demand = catalog.function(f).cpu_demand;
    std::vector<graph::NodeId> feasible;
    for (graph::NodeId v : candidates) {
      if (network.residual(v) >= demand) feasible.push_back(v);
    }
    if (feasible.empty()) {
      for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
        network.set_residual(it->first, it->second);
      }
      return std::nullopt;
    }
    const graph::NodeId chosen = feasible[rng.index(feasible.size())];
    touched.emplace_back(chosen, network.residual(chosen));
    network.consume(chosen, demand);
    placement.cloudlet_of.push_back(chosen);
  }
  return placement;
}

std::vector<double> residuals_of(const mec::MecNetwork& net) {
  std::vector<double> out;
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    out.push_back(net.residual(v));
  }
  return out;
}

TEST(PrimaryPool, MatchesRandomAdmissionDrawForDraw) {
  // A pass of requests against falling residuals, on two copies of one
  // network: the pool must leave the same placements and bit-identical
  // residuals as random_admission (whole cloudlet set) or the reference
  // loop (a random cloudlet subset), request after request, while
  // rejecting by its bound and compacting its candidate list.
  const mec::VnfCatalog cat({{0, "a", 0.9, 200.0},
                             {0, "b", 0.9, 250.0},
                             {0, "c", 0.9, 320.0},
                             {0, "d", 0.9, 400.0}});
  std::size_t bound_rejections = 0;
  std::size_t compacted = 0;
  std::size_t placed = 0;
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    util::Rng gen(util::derive_seed(777, trial));
    const std::size_t n = 4 + gen.index(30);
    std::vector<double> capacity(n, 0.0);
    for (double& c : capacity) {
      if (gen.uniform01() < 0.7) c = 100.0 + gen.uniform01() * 1400.0;
    }
    capacity[gen.index(n)] = 900.0;  // at least one cloudlet
    mec::MecNetwork net_a(graph::path_graph(n), capacity);
    mec::MecNetwork net_b = net_a;
    const bool subset = trial % 2 == 1;
    std::vector<graph::NodeId> candidates;
    for (const graph::NodeId v : net_a.cloudlets()) {
      if (!subset || gen.uniform01() < 0.6) candidates.push_back(v);
    }
    PrimaryPool pool(cat, candidates);
    for (std::size_t i = 0; i < 40; ++i) {
      mec::SfcRequest req;
      const std::size_t len = 1 + gen.index(6);
      for (std::size_t k = 0; k < len; ++k) {
        req.chain.push_back(static_cast<mec::FunctionId>(gen.index(4)));
      }
      const std::uint64_t seed = util::derive_seed(trial, i);
      const auto got = pool.place(net_a, req, seed);
      util::Rng rng(seed);
      const auto want = subset
                            ? reference_within(net_b, cat, req, candidates, rng)
                            : random_admission(net_b, cat, req, rng);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "trial " << trial << " request " << i;
      if (got.has_value()) {
        EXPECT_EQ(got->cloudlet_of, want->cloudlet_of);
        ++placed;
      }
      ASSERT_EQ(residuals_of(net_a), residuals_of(net_b))
          << "trial " << trial << " request " << i;
      // Standbys and other admissions of the pass only ever lower
      // residuals; mirror a random fall on both copies.
      if (gen.uniform01() < 0.5 && !candidates.empty()) {
        const graph::NodeId v = candidates[gen.index(candidates.size())];
        const double cut = net_a.residual(v) * gen.uniform01();
        net_a.consume(v, cut);
        net_b.consume(v, cut);
      }
    }
    bound_rejections += pool.bound_rejections();
    if (pool.live() < candidates.size()) ++compacted;
  }
  EXPECT_GT(placed, 1000u);
  EXPECT_GT(bound_rejections, 1000u);
  EXPECT_GT(compacted, 100u);
}

TEST(PrimaryPool, RejectsOverItsBoundBeforeReadingAgain) {
  // Cloudlets 1 and 2 hold 500 and 350; demands are 300 and 400.
  mec::MecNetwork net(graph::path_graph(3), {0.0, 500.0, 350.0});
  const auto cat = mec::VnfCatalog({{0, "a", 0.9, 300.0}, {0, "b", 0.8, 400.0}});
  PrimaryPool pool(cat, net.cloudlets());
  const auto first = pool.place(net, chain_request({1}), 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->cloudlet_of[0], 1u);  // only cloudlet 1 fits 400
  // The next read drops cloudlet 1 (100 left, below every demand) and
  // finds 350 < 400: rejected after the read...
  EXPECT_FALSE(pool.place(net, chain_request({1}), 2).has_value());
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.bound_rejections(), 0u);
  // ...and from then on by the bound alone.
  EXPECT_FALSE(pool.place(net, chain_request({0, 1}), 3).has_value());
  EXPECT_EQ(pool.bound_rejections(), 1u);
  // A request that fits under the bound still reads and places.
  const auto small = pool.place(net, chain_request({0}), 4);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->cloudlet_of[0], 2u);
  EXPECT_DOUBLE_EQ(net.residual(2), 50.0);
}

TEST(PrimaryPool, InvalidateRereadsAfterARelease) {
  // A release raises a residual the pool had already written off; only
  // after invalidate() may the pool be trusted again.
  mec::MecNetwork net(graph::path_graph(3), {0.0, 350.0, 250.0});
  const auto cat = two_function_catalog();  // demands 300 and 400
  PrimaryPool pool(cat, net.cloudlets());
  const auto placed = pool.place(net, chain_request({0}), 1);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->cloudlet_of[0], 1u);
  EXPECT_FALSE(pool.place(net, chain_request({0}), 2).has_value());
  EXPECT_EQ(pool.live(), 0u);  // 50 and 250 are below every demand

  net.release(1, 300.0);
  PrimaryPool stale = pool;
  EXPECT_FALSE(stale.place(net, chain_request({0}), 3).has_value());

  pool.invalidate();
  EXPECT_EQ(pool.live(), 2u);
  auto copy = net;
  util::Rng rng(3);
  const auto want = random_admission(copy, cat, chain_request({0}), rng);
  const auto got = pool.place(net, chain_request({0}), 3);
  ASSERT_TRUE(want.has_value() && got.has_value());
  EXPECT_EQ(got->cloudlet_of, want->cloudlet_of);
  EXPECT_EQ(residuals_of(net), residuals_of(copy));
}

// ---------------------------------------------------------- DAG admission

TEST(DagAdmission, PlacesChainOnFeasibleCloudlets) {
  mec::MecNetwork net(graph::path_graph(4), {0.0, 1000.0, 0.0, 1000.0});
  const auto cat = two_function_catalog();
  auto req = chain_request({0, 1, 0});
  req.source = 0;
  req.destination = 3;
  const auto placement = dag_admission(net, cat, req);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->length(), 3u);
  for (graph::NodeId v : placement->cloudlet_of) {
    EXPECT_TRUE(net.is_cloudlet(v));
  }
}

TEST(DagAdmission, PrefersMoreAvailableHosts) {
  // Identical capacities; host availability favours cloudlet 3.
  mec::MecNetwork net(graph::path_graph(4), {0.0, 1000.0, 0.0, 1000.0});
  const auto cat = two_function_catalog();
  auto req = chain_request({0});
  DagAdmissionOptions opt;
  opt.host_availability = {1.0, 0.7, 1.0, 0.99};
  const auto placement = dag_admission(net, cat, req, opt);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->cloudlet_of[0], 3u);
}

TEST(DagAdmission, HopPenaltyPullsPlacementTowardEndpoints) {
  // Cloudlets at both ends; equal availability. With a hop penalty and
  // source/destination at node 0, the near cloudlet (1) wins.
  mec::MecNetwork net(graph::path_graph(6),
                      {0.0, 1000.0, 0.0, 0.0, 0.0, 1000.0});
  const auto cat = two_function_catalog();
  auto req = chain_request({0});
  req.source = 0;
  req.destination = 0;
  DagAdmissionOptions opt;
  opt.hop_penalty = 0.01;
  const auto placement = dag_admission(net, cat, req, opt);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->cloudlet_of[0], 1u);
}

TEST(DagAdmission, ReplansWhenSharedCloudletFills) {
  // One big chain forced through small cloudlets: the DP prices layers
  // independently, the commit loop must re-plan when capacity runs out.
  mec::MecNetwork net(graph::path_graph(4), {0.0, 650.0, 0.0, 900.0});
  const auto cat = two_function_catalog();  // demands 300 / 400
  auto req = chain_request({0, 0, 0, 0});   // 4 x 300 = 1200 total
  const auto placement = dag_admission(net, cat, req);
  ASSERT_TRUE(placement.has_value());
  // Feasible split: 2 at cloudlet 1 (600 <= 650) + 2 at cloudlet 3.
  EXPECT_EQ(placement->length(), 4u);
  EXPECT_LE(net.used(1), 650.0);
  EXPECT_LE(net.used(3), 900.0);
}

TEST(DagAdmission, InfeasibleChainRollsBack) {
  mec::MecNetwork net(graph::path_graph(3), {0.0, 700.0, 0.0});
  const auto cat = two_function_catalog();
  const auto req = chain_request({0, 0, 0});  // 900 > 700
  const auto placement = dag_admission(net, cat, req);
  EXPECT_FALSE(placement.has_value());
  EXPECT_DOUBLE_EQ(net.residual(1), 700.0);
}

TEST(DagAdmission, MatchesRandomAdmissionOnReliabilityWhenUniform) {
  // With uniform availability and no hop penalty every placement has the
  // same reliability, so the DAG framework cannot do worse than random.
  util::Rng rng(9);
  graph::WaxmanParams wax;
  wax.num_nodes = 40;
  auto topo = graph::waxman(wax, rng);
  auto net = mec::MecNetwork::random(std::move(topo.graph), {}, rng);
  util::Rng cat_rng(10);
  const auto cat = mec::VnfCatalog::random({}, cat_rng);
  mec::RequestParams rp;
  const auto req = mec::random_request(0, cat, net.num_nodes(), rp, rng);

  auto net_dag = net;
  const auto dag = dag_admission(net_dag, cat, req);
  ASSERT_TRUE(dag.has_value());
  EXPECT_EQ(dag->length(), req.length());
}

}  // namespace
}  // namespace mecra::admission

// Appended: defensive checks on the DAG admission options.
namespace mecra::admission {
namespace {

TEST(DagAdmission, RejectsOutOfRangeAvailabilityValues) {
  mec::MecNetwork net(graph::path_graph(3), {0.0, 1000.0, 0.0});
  const auto cat = two_function_catalog();
  DagAdmissionOptions opt;
  opt.host_availability = {1.0, 1.5, 1.0};  // > 1 is invalid
  EXPECT_THROW((void)dag_admission(net, cat, chain_request({0}), opt),
               util::CheckFailure);
}

TEST(DagAdmission, EmptyCloudletSetFails) {
  mec::MecNetwork net(graph::path_graph(3), {0.0, 0.0, 0.0});
  const auto cat = two_function_catalog();
  EXPECT_FALSE(dag_admission(net, cat, chain_request({0})).has_value());
}

}  // namespace
}  // namespace mecra::admission
