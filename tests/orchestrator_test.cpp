// Tests for the failover orchestrator: admission lifecycle, promotion on
// failure, cloudlet outages, repair-time capacity reclamation,
// re-augmentation, and teardown conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "graph/algorithms.h"
#include "graph/topology.h"
#include "orchestrator/orchestrator.h"

namespace mecra::orchestrator {
namespace {

/// Path 0-1-2 with generous cloudlets at 1 and 2; one two-function chain.
struct World {
  mec::MecNetwork network{graph::path_graph(3), {0.0, 3000.0, 3000.0}};
  mec::VnfCatalog catalog{
      {{0, "a", 0.8, 300.0}, {0, "b", 0.9, 400.0}}};
  mec::SfcRequest request;

  World() {
    request.chain = {0, 1};
    request.expectation = 0.99;
  }
};

Orchestrator make_orchestrator(const World& w) {
  return Orchestrator(w.network, w.catalog, {});
}

TEST(Orchestrator, AdmitCreatesActivePrimariesAndStandbys) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(1);
  const auto id = orch.admit(w.request, rng);
  ASSERT_TRUE(id.has_value());
  const Service& svc = orch.service(*id);
  EXPECT_EQ(svc.state, ServiceState::kHealthy);

  std::size_t actives = 0;
  std::size_t standbys = 0;
  for (const auto& inst : svc.instances) {
    EXPECT_EQ(inst.state, InstanceState::kRunning);
    (inst.role == InstanceRole::kActive ? actives : standbys)++;
  }
  EXPECT_EQ(actives, 2u);          // one per chain position
  EXPECT_GT(standbys, 0u);         // rho = 0.99 needs backups
  EXPECT_GE(svc.current_reliability(orch.catalog()), 0.99);
}

TEST(Orchestrator, AdmissionFailureLeavesNoTrace) {
  World w;
  w.network = mec::MecNetwork(graph::path_graph(3), {0.0, 500.0, 0.0});
  auto orch = make_orchestrator(w);
  const double before = orch.network().total_residual();
  util::Rng rng(2);
  mec::SfcRequest big;
  big.chain = {1, 1};  // 2 x 400 > 500
  big.expectation = 0.9;
  EXPECT_FALSE(orch.admit(big, rng).has_value());
  EXPECT_DOUBLE_EQ(orch.network().total_residual(), before);
}

TEST(Orchestrator, StandbyFailureDegradesWithoutPromotion) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(3);
  const auto id = *orch.admit(w.request, rng);
  const Service& svc = orch.service(id);
  InstanceId standby = 0;
  for (const auto& inst : svc.instances) {
    if (inst.role == InstanceRole::kStandby) standby = inst.id;
  }
  const auto promoted = orch.fail_instance(id, standby);
  EXPECT_FALSE(promoted.has_value());  // active still running: no promotion
  EXPECT_EQ(orch.service(id).state, ServiceState::kDegraded);
}

TEST(Orchestrator, ActiveFailurePromotesNearestStandby) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(4);
  const auto id = *orch.admit(w.request, rng);
  const Service& before = orch.service(id);
  // Fail the active instance of position 0.
  InstanceId active0 = 0;
  for (const auto& inst : before.instances) {
    if (inst.chain_pos == 0 && inst.role == InstanceRole::kActive) {
      active0 = inst.id;
    }
  }
  const auto promoted = orch.fail_instance(id, active0);
  ASSERT_TRUE(promoted.has_value());
  const Service& after = orch.service(id);
  // Exactly one running active at position 0, and it is the promoted one.
  std::size_t running_actives = 0;
  for (const auto& inst : after.instances) {
    if (inst.chain_pos == 0 && inst.state == InstanceState::kRunning &&
        inst.role == InstanceRole::kActive) {
      ++running_actives;
      EXPECT_EQ(inst.id, *promoted);
    }
  }
  EXPECT_EQ(running_actives, 1u);
  EXPECT_NE(after.state, ServiceState::kDown);
}

TEST(Orchestrator, ServiceGoesDownWhenAPositionIsExhausted) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(5);
  const auto id = *orch.admit(w.request, rng);
  // Kill every instance of position 1 (active + standbys).
  for (;;) {
    const Service& svc = orch.service(id);
    InstanceId victim = 0;
    bool found = false;
    for (const auto& inst : svc.instances) {
      if (inst.chain_pos == 1 && inst.state == InstanceState::kRunning) {
        victim = inst.id;
        found = true;
        break;
      }
    }
    if (!found) break;
    (void)orch.fail_instance(id, victim);
  }
  EXPECT_EQ(orch.service(id).state, ServiceState::kDown);
  EXPECT_EQ(orch.service(id).current_reliability(orch.catalog()), 0.0);
}

TEST(Orchestrator, CloudletFailureKillsEverythingThere) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(6);
  const auto id = *orch.admit(w.request, rng);
  orch.fail_cloudlet(1);
  for (const auto& inst : orch.service(id).instances) {
    if (inst.cloudlet == 1) {
      EXPECT_EQ(inst.state, InstanceState::kFailed);
    }
  }
}

TEST(Orchestrator, RepairReclaimsFailedCapacityOnly) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(7);
  const auto id = *orch.admit(w.request, rng);
  const double residual_after_admit = orch.network().total_residual();

  orch.fail_cloudlet(1);
  // Failed slots still reserved.
  EXPECT_DOUBLE_EQ(orch.network().total_residual(), residual_after_admit);

  double failed_demand = 0.0;
  for (const auto& inst : orch.service(id).instances) {
    if (inst.state == InstanceState::kFailed) {
      failed_demand +=
          orch.catalog().function(w.request.chain[inst.chain_pos]).cpu_demand;
    }
  }
  orch.repair_cloudlet(1);
  EXPECT_NEAR(orch.network().total_residual(),
              residual_after_admit + failed_demand, 1e-9);
  // Dead instances are gone from the service record.
  for (const auto& inst : orch.service(id).instances) {
    EXPECT_EQ(inst.state, InstanceState::kRunning);
  }
}

TEST(Orchestrator, ReaugmentRestoresExpectationAfterLosses) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(8);
  const auto id = *orch.admit(w.request, rng);
  ASSERT_GE(orch.service(id).current_reliability(orch.catalog()), 0.99);

  // Lose a standby, then top back up (repair first to free its slot).
  InstanceId standby = 0;
  graph::NodeId standby_at = 0;
  for (const auto& inst : orch.service(id).instances) {
    if (inst.role == InstanceRole::kStandby) {
      standby = inst.id;
      standby_at = inst.cloudlet;
    }
  }
  (void)orch.fail_instance(id, standby);
  orch.repair_cloudlet(standby_at);
  const double degraded = orch.service(id).current_reliability(orch.catalog());
  EXPECT_LT(degraded, 0.99);

  const std::size_t added = orch.reaugment(id);
  EXPECT_GT(added, 0u);
  EXPECT_GE(orch.service(id).current_reliability(orch.catalog()),
            0.99 - 1e-9);
  EXPECT_EQ(orch.service(id).state, ServiceState::kHealthy);
}

TEST(Orchestrator, ReaugmentIsANoOpWhenHealthyEnough) {
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(9);
  const auto id = *orch.admit(w.request, rng);
  EXPECT_EQ(orch.reaugment(id), 0u);
}

TEST(Orchestrator, TeardownReturnsEveryReservedSlot) {
  World w;
  auto orch = make_orchestrator(w);
  const double pristine = orch.network().total_residual();
  util::Rng rng(10);
  const auto id = *orch.admit(w.request, rng);
  orch.fail_cloudlet(1);  // failed instances still reserve capacity
  orch.teardown(id);
  EXPECT_NEAR(orch.network().total_residual(), pristine, 1e-9);
  EXPECT_TRUE(orch.services().empty());
}

TEST(Orchestrator, FullOutageDrillAcrossManyServices) {
  // A larger world: admit several services, kill a cloudlet, verify the
  // promoted state is consistent everywhere, repair, re-augment everyone.
  util::Rng world_rng(11);
  graph::WaxmanParams wax;
  wax.num_nodes = 60;
  auto topo = graph::waxman(wax, world_rng);
  auto network = mec::MecNetwork::random(std::move(topo.graph), {}, world_rng);
  auto catalog = mec::VnfCatalog::random({}, world_rng);
  Orchestrator orch(network, catalog, {});

  util::Rng rng(12);
  std::vector<ServiceId> ids;
  for (int i = 0; i < 6; ++i) {
    mec::RequestParams rp;
    const auto req = mec::random_request(static_cast<unsigned>(i), catalog,
                                         network.num_nodes(), rp, rng);
    if (auto id = orch.admit(req, rng)) ids.push_back(*id);
  }
  ASSERT_GT(ids.size(), 0u);

  const graph::NodeId victim = orch.network().cloudlets().front();
  orch.fail_cloudlet(victim);
  for (ServiceId id : ids) {
    const Service& svc = orch.service(id);
    // Invariant: every position has at most one running active.
    for (std::uint32_t p = 0; p < svc.request.length(); ++p) {
      std::size_t actives = 0;
      for (const auto& inst : svc.instances) {
        if (inst.chain_pos == p && inst.state == InstanceState::kRunning &&
            inst.role == InstanceRole::kActive) {
          ++actives;
        }
      }
      EXPECT_LE(actives, 1u);
    }
  }
  orch.repair_cloudlet(victim);
  for (ServiceId id : ids) {
    if (orch.service(id).state != ServiceState::kDown) {
      (void)orch.reaugment(id);
      EXPECT_NE(orch.service(id).state, ServiceState::kDown);
    }
  }
  // Conservation: tearing everything down restores the pristine residual.
  for (ServiceId id : ids) orch.teardown(id);
  EXPECT_NEAR(orch.network().total_residual(), network.total_residual(),
              1e-6);
}

TEST(Orchestrator, ReaugmentWhenEveryNearbyCloudletIsFull) {
  // One usable cloudlet sized so that admission fills it exactly
  // (3x a @300 + 3x b @400 = 2100 for rho = 0.99). A lost standby then has
  // nowhere to go until its dead slot is reclaimed.
  World w;
  w.network = mec::MecNetwork(graph::path_graph(3), {0.0, 2100.0, 0.0});
  auto orch = make_orchestrator(w);
  util::Rng rng(21);
  const auto id = *orch.admit(w.request, rng);
  ASSERT_DOUBLE_EQ(orch.network().residual(1), 0.0);

  InstanceId standby = 0;
  for (const auto& inst : orch.service(id).instances) {
    if (inst.role == InstanceRole::kStandby) standby = inst.id;
  }
  (void)orch.fail_instance(id, standby);
  EXPECT_EQ(orch.service(id).state, ServiceState::kDegraded);

  // No repair: the failed slot still holds the capacity, so reaugment can
  // place nothing and the service stays degraded.
  EXPECT_EQ(orch.reaugment(id), 0u);
  EXPECT_EQ(orch.service(id).state, ServiceState::kDegraded);
  EXPECT_LT(orch.service(id).current_reliability(orch.catalog()), 0.99);
}

TEST(Orchestrator, FailCloudletHostingTheOnlyInstancesTakesServiceDown) {
  World w;
  w.network = mec::MecNetwork(graph::path_graph(3), {0.0, 2100.0, 0.0});
  auto orch = make_orchestrator(w);
  util::Rng rng(22);
  const auto id = *orch.admit(w.request, rng);

  orch.fail_cloudlet(1);
  EXPECT_EQ(orch.service(id).state, ServiceState::kDown);
  EXPECT_DOUBLE_EQ(orch.service(id).current_reliability(orch.catalog()), 0.0);
  EXPECT_TRUE(orch.is_cloudlet_down(1));
  EXPECT_EQ(orch.down_cloudlets(), (std::vector<graph::NodeId>{1}));

  // Nothing to promote or place: revive fails while the world is down.
  EXPECT_FALSE(orch.revive(id));
  EXPECT_EQ(orch.service(id).state, ServiceState::kDown);

  // After repair, revive restores actives and reaugment the expectation.
  orch.repair_cloudlet(1);
  EXPECT_TRUE(orch.revive(id));
  EXPECT_NE(orch.service(id).state, ServiceState::kDown);
  (void)orch.reaugment(id);
  EXPECT_GE(orch.service(id).current_reliability(orch.catalog()),
            0.99 - 1e-9);
}

TEST(Orchestrator, PromotionBreaksHopTiesByLowestInstanceId) {
  // Triangle of three single-slot cloudlets and a one-function chain with
  // rho = 0.985: 1 active + 2 standbys, one per cloudlet. When the active
  // fails, both standbys are exactly one hop away — the tie must go to the
  // lowest instance id, deterministically.
  mec::MecNetwork network(graph::complete_graph(3), {300.0, 300.0, 300.0});
  mec::VnfCatalog catalog({{0, "a", 0.8, 300.0}});
  mec::SfcRequest request;
  request.chain = {0};
  request.expectation = 0.985;  // needs 3 instances: 1 - 0.2^3 = 0.992

  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Orchestrator orch(network, catalog, {});
    util::Rng rng(seed);
    const auto id = orch.admit(request, rng);
    ASSERT_TRUE(id.has_value());
    ASSERT_EQ(orch.service(*id).instances.size(), 3u);

    InstanceId active = 0;
    InstanceId lowest_standby = std::numeric_limits<InstanceId>::max();
    for (const auto& inst : orch.service(*id).instances) {
      if (inst.role == InstanceRole::kActive) active = inst.id;
      if (inst.role == InstanceRole::kStandby) {
        lowest_standby = std::min(lowest_standby, inst.id);
      }
    }
    const auto promoted = orch.fail_instance(*id, active);
    ASSERT_TRUE(promoted.has_value());
    EXPECT_EQ(*promoted, lowest_standby);
  }
}

TEST(Orchestrator, PromotionReleasesStandbysBeyondLOfTheNewActive) {
  // Path 0-1-2-3, l = 1. The active sits at 1 with standbys at 0 (lower
  // id) and 2, both one hop away. Its failure promotes the standby at 0
  // (hop tie, lowest id); the standby at 2 is then two hops from the new
  // active and must be released, returning exactly its demand.
  constexpr double kDemand = 300.0;
  mec::MecNetwork network(graph::path_graph(4),
                          {1000.0, 1000.0, 1000.0, 1000.0});
  mec::VnfCatalog catalog({{0, "a", 0.8, kDemand}});
  Orchestrator orch(network, catalog, {});
  Service svc;
  svc.id = 7;
  svc.request.chain = {0};
  svc.request.expectation = 0.99;
  svc.instances = {
      {1, 0, 1, InstanceRole::kActive, InstanceState::kRunning},
      {2, 0, 0, InstanceRole::kStandby, InstanceState::kRunning},
      {3, 0, 2, InstanceRole::kStandby, InstanceState::kRunning}};
  orch.restore_service(svc, /*consume_capacity=*/true);
  (void)orch.refresh_state(svc.id);
  const double residual_before = orch.network().residual(2);

  const auto promoted = orch.fail_instance(svc.id, 1);
  ASSERT_TRUE(promoted.has_value());
  EXPECT_EQ(*promoted, 2u);
  EXPECT_DOUBLE_EQ(orch.network().residual(2), residual_before + kDemand);

  const auto standbys_within_l = [&] {
    const Service& s = orch.service(svc.id);
    graph::NodeId active_at = 0;
    for (const auto& inst : s.instances) {
      if (inst.state == InstanceState::kRunning &&
          inst.role == InstanceRole::kActive) {
        active_at = inst.cloudlet;
      }
    }
    const auto hops = graph::bfs_hops(orch.network().topology(), active_at);
    for (const auto& inst : s.instances) {
      if (inst.state == InstanceState::kRunning &&
          inst.role == InstanceRole::kStandby && hops[inst.cloudlet] > 1) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(standbys_within_l());
  for (const auto& inst : orch.service(svc.id).instances) {
    EXPECT_NE(inst.id, 3u) << "the far standby must be dropped";
  }
  EXPECT_EQ(orch.service(svc.id).state, ServiceState::kDegraded);

  // The top-up re-places redundancy within l of the new active.
  EXPECT_GT(orch.reaugment(svc.id), 0u);
  EXPECT_TRUE(standbys_within_l());
}

TEST(Orchestrator, ReaugmentAndReviveSkipDownCloudlets) {
  // Cloudlets at 1 and 2, one hop apart. With 2 down, every replacement
  // must land on 1; after repair, 2 becomes placeable again.
  World w;
  auto orch = make_orchestrator(w);
  util::Rng rng(23);
  const auto id = *orch.admit(w.request, rng);

  orch.fail_cloudlet(2);
  (void)orch.revive(id);  // re-place anything position 2's outage killed
  (void)orch.reaugment(id);
  for (const auto& inst : orch.service(id).instances) {
    if (inst.state == InstanceState::kRunning) {
      EXPECT_NE(inst.cloudlet, 2u);
    }
  }

  orch.repair_cloudlet(2);
  EXPECT_FALSE(orch.is_cloudlet_down(2));
  EXPECT_TRUE(orch.down_cloudlets().empty());
}

TEST(Orchestrator, AdmitNeverPlacesOnDownCloudlets) {
  World w;
  auto orch = make_orchestrator(w);
  orch.fail_cloudlet(2);
  util::Rng rng(24);
  const auto id = orch.admit(w.request, rng);
  // Cloudlet 1 alone has 3000 MHz; the request needs 2100 — admissible.
  ASSERT_TRUE(id.has_value());
  for (const auto& inst : orch.service(*id).instances) {
    EXPECT_EQ(inst.cloudlet, 1u);
  }
  // The down cloudlet's capacity is untouched.
  EXPECT_DOUBLE_EQ(orch.network().residual(2), 3000.0);
}

}  // namespace
}  // namespace mecra::orchestrator
