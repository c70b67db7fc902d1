// Checker self-test: clean outputs must pass and each deliberately
// corrupted copy must be rejected.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>

#include "check.h"
#include "core/heuristic_matching.h"
#include "core/ilp_exact.h"
#include "core/randomized_rounding.h"
#include "inputs.h"
#include "orchestrator/controller.h"
#include "orchestrator/journal.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

class Tally {
 public:
  /// A clean output: the check must hold.
  void clean(const std::string& name, const std::string& problem) {
    report(name, problem.empty(), problem.empty() ? "passes" : problem);
  }
  /// A corrupted output: the check must fail.
  void corrupt(const std::string& name, const std::string& problem) {
    report(name, !problem.empty(),
           problem.empty() ? "ACCEPTED" : "rejected: " + problem);
  }
  [[nodiscard]] int wrong() const { return wrong_; }

 private:
  void report(const std::string& name, bool ok, const std::string& what) {
    if (!ok) ++wrong_;
    std::cout << (ok ? "ok   " : "FAIL ") << name << ": " << what << "\n";
  }
  int wrong_ = 0;
};

/// The first instance of the service in the given role.
orchestrator::Instance* find(orchestrator::Service& svc,
                             orchestrator::InstanceRole role) {
  for (orchestrator::Instance& inst : svc.instances) {
    if (inst.role == role) return &inst;
  }
  return nullptr;
}

void online_cases(const Options& options, Tally& tally) {
  OnlineSpec spec;
  spec.aps = 400;
  spec.rate = 40.0;
  spec.horizon = 2.0;
  World world = make_world(spec);
  const std::vector<Arrival> trace = make_trace(
      spec, world.catalog, world.network.num_nodes(), options.seed);
  orchestrator::OrchestratorOptions oopt;
  oopt.l_hops = spec.l_hops;
  orchestrator::RecoverOptions ropt;
  ropt.orchestrator = oopt;
  orchestrator::Orchestrator orch(std::move(world.network), world.catalog,
                                  oopt);
  orchestrator::Controller controller(orch);
  util::Rng rng(admission_seed(options.seed));
  for (const Arrival& a : trace) {
    if (const auto id = orch.admit(a.request, rng)) controller.on_admit(*id, 0);
  }
  check::Hops hops(orch.network().topology());

  // A service with a standby, and a cloudlet beyond l hops of its active.
  orchestrator::Service with_standby;
  for (orchestrator::ServiceId id : orch.services()) {
    orchestrator::Service svc = orch.service(id);
    double rel = 0.0;
    tally.clean("admitted service " + std::to_string(id),
                check::admitted_service(svc, orch.network(), orch.catalog(),
                                        hops, spec.l_hops, rel));
    if (with_standby.instances.empty() &&
        find(svc, orchestrator::InstanceRole::kStandby) != nullptr) {
      with_standby = svc;
    }
  }
  tally.clean("capacity", check::capacity(orch));
  if (with_standby.instances.empty()) {
    tally.clean("a service with a standby exists", "none admitted");
    return;
  }

  {
    orchestrator::Service svc = with_standby;
    orchestrator::Instance* standby =
        find(svc, orchestrator::InstanceRole::kStandby);
    graph::NodeId active = 0;
    for (const orchestrator::Instance& inst : svc.instances) {
      if (inst.chain_pos == standby->chain_pos &&
          inst.role == orchestrator::InstanceRole::kActive) {
        active = inst.cloudlet;
      }
    }
    for (graph::NodeId v : orch.network().cloudlets()) {
      if (!hops.within(active, v, spec.l_hops)) {
        standby->cloudlet = v;
        break;
      }
    }
    double rel = 0.0;
    tally.corrupt("standby beyond l hops",
                  check::admitted_service(svc, orch.network(), orch.catalog(),
                                          hops, spec.l_hops, rel));
  }
  {
    orchestrator::Service svc = with_standby;
    find(svc, orchestrator::InstanceRole::kActive)->role =
        orchestrator::InstanceRole::kStandby;
    double rel = 0.0;
    tally.corrupt("position without an active",
                  check::admitted_service(svc, orch.network(), orch.catalog(),
                                          hops, spec.l_hops, rel));
  }
  {
    orchestrator::Service svc = with_standby;
    svc.instances.back().cloudlet =
        static_cast<graph::NodeId>(orch.network().num_nodes());
    double rel = 0.0;
    tally.corrupt("instance off the network",
                  check::admitted_service(svc, orch.network(), orch.catalog(),
                                          hops, spec.l_hops, rel));
  }

  // Capacity: a residual that disagrees with the live instances.
  const graph::NodeId host = with_standby.instances.front().cloudlet;
  const double residual = orch.network().residual(host);
  orch.restore_residual(host, residual + 1.0);
  tally.corrupt("residual above capacity minus live demand",
                check::capacity(orch));
  orch.restore_residual(host, -1.0);
  tally.corrupt("negative residual", check::capacity(orch));
  orch.restore_residual(host, residual);
  tally.clean("capacity restored", check::capacity(orch));

  // Journal recovery and journal bytes.
  const std::string path = options.workdir + "/self-test-" +
                           std::to_string(getpid()) + ".journal";
  {
    orchestrator::Journal journal(path);
    (void)journal.snapshot(orch, controller, 0.0);
  }
  {
    orchestrator::Recovered rec =
        orchestrator::recover(path, ropt);
    tally.clean("recovered state", check::same_state(orch, *rec.orch));
    rec.orch->restore_residual(host, residual + 1.0);
    tally.corrupt("recovered residual differs",
                  check::same_state(orch, *rec.orch));
  }
  {
    orchestrator::Recovered rec =
        orchestrator::recover(path, ropt);
    rec.orch->teardown(with_standby.id);
    tally.corrupt("recovered services differ",
                  check::same_state(orch, *rec.orch));
  }
  {
    std::uint64_t size = 0;
    const std::uint64_t before = file_digest(path, &size);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    const char c = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.put(static_cast<char>(c ^ 1));
    f.close();
    tally.corrupt("journal bytes with one bit flipped",
                  file_digest(path) == before ? "" : "digest differs");
  }
  std::remove(path.c_str());

  // Standbys that a reconcile places after failovers: fail the active of
  // every service that has a standby, so a standby is promoted and the
  // top-up is placed around the promoted active.
  orchestrator::InstanceId first_new = 0;
  for (orchestrator::ServiceId id : orch.services()) {
    for (const orchestrator::Instance& inst : orch.service(id).instances) {
      first_new = std::max(first_new, inst.id + 1);
    }
  }
  for (orchestrator::ServiceId id : orch.services()) {
    const orchestrator::Service& svc = orch.service(id);
    const orchestrator::Instance* standby = nullptr;
    orchestrator::InstanceId active = 0;
    for (const orchestrator::Instance& inst : svc.instances) {
      if (standby == nullptr &&
          inst.role == orchestrator::InstanceRole::kStandby) {
        standby = &inst;
      }
    }
    if (standby == nullptr) continue;
    for (const orchestrator::Instance& inst : svc.instances) {
      if (inst.chain_pos == standby->chain_pos &&
          inst.role == orchestrator::InstanceRole::kActive) {
        active = inst.id;
      }
    }
    (void)orch.fail_instance(id, active);
    controller.on_instance_failed(id, 1.0);
  }
  (void)controller.reconcile(1.0);
  std::optional<orchestrator::Service> topped_up;
  for (orchestrator::ServiceId id : orch.services()) {
    const orchestrator::Service& svc = orch.service(id);
    tally.clean("standbys placed by reconcile in service " +
                    std::to_string(id),
                check::placed_standbys(svc, hops, spec.l_hops, first_new));
    for (const orchestrator::Instance& inst : svc.instances) {
      if (!topped_up && inst.id >= first_new &&
          inst.role == orchestrator::InstanceRole::kStandby) {
        topped_up = svc;
      }
    }
  }
  if (!topped_up) {
    tally.clean("a reconcile placed a standby", "none placed");
    return;
  }
  for (orchestrator::Instance& inst : topped_up->instances) {
    if (inst.id < first_new ||
        inst.role != orchestrator::InstanceRole::kStandby) {
      continue;
    }
    graph::NodeId active = 0;
    for (const orchestrator::Instance& a : topped_up->instances) {
      if (a.chain_pos == inst.chain_pos &&
          a.role == orchestrator::InstanceRole::kActive &&
          a.state == orchestrator::InstanceState::kRunning) {
        active = a.cloudlet;
      }
    }
    for (graph::NodeId v : orch.network().cloudlets()) {
      if (!hops.within(active, v, spec.l_hops)) {
        inst.cloudlet = v;
        break;
      }
    }
    break;
  }
  tally.corrupt("standby placed by reconcile beyond l hops",
                check::placed_standbys(*topped_up, hops, spec.l_hops,
                                       first_new));
}

void paper_cases(const Options& options, Tally& tally) {
  const PaperSet set = make_paper_set(options.seed, 16);
  core::AugmentOptions untrimmed;
  untrimmed.trim_to_expectation = false;
  untrimmed.ilp.max_nodes = kPaperIlpNodeCap;
  bool done = false;
  for (const PaperInstance& p : set.items) {
    const core::AugmentationResult ilp = core::augment_ilp(p.instance,
                                                           untrimmed);
    const core::AugmentationResult rnd =
        core::augment_randomized(p.instance, untrimmed);
    const core::AugmentationResult heu =
        core::augment_heuristic(p.instance, untrimmed);
    check::Hops hops(p.network.topology());
    double rel = 0.0;
    tally.clean("ILP result", check::paper_result(p, ilp, 1.0, hops, rel));
    tally.clean("Algorithm 1 result",
                check::paper_result(p, rnd, 2.0, hops, rel));
    tally.clean("Algorithm 2 result",
                check::paper_result(p, heu, 1.0, hops, rel));
    tally.clean("ILP gain >= Algorithm 2 gain",
                check::paper_gain(p, ilp, heu, untrimmed.ilp));
    if (done || heu.placements.empty()) continue;
    done = true;

    core::AugmentationResult r = ilp;
    r.achieved_reliability = std::min(1.0, r.achieved_reliability + 0.01);
    tally.corrupt("misreported reliability",
                  check::paper_result(p, r, 1.0, hops, rel));

    // Pile backups of position 0 onto its primary's cloudlet.
    const graph::NodeId primary = p.primaries.cloudlet_of[0];
    const double cap = p.network.capacity(primary);
    const double demand = p.catalog.function(p.request.chain[0]).cpu_demand;
    r = ilp;
    const auto over_once = static_cast<std::size_t>(cap / demand) + 1;
    for (std::size_t k = 0; k < over_once; ++k) r.placements.push_back({0, primary});
    tally.corrupt("ILP over capacity", check::paper_result(p, r, 1.0, hops, rel));
    r = rnd;
    for (std::size_t k = 0; k < 2 * over_once; ++k) {
      r.placements.push_back({0, primary});
    }
    tally.corrupt("Algorithm 1 over twice the capacity",
                  check::paper_result(p, r, 2.0, hops, rel));

    r = heu;
    const std::uint32_t pos = r.placements.front().chain_pos;
    for (graph::NodeId v : p.network.cloudlets()) {
      if (!hops.within(p.primaries.cloudlet_of[pos], v, p.l_hops)) {
        r.placements.front().cloudlet = v;
        break;
      }
    }
    tally.corrupt("backup beyond l hops",
                  check::paper_result(p, r, 1.0, hops, rel));

    r = ilp;
    r.placements.clear();
    tally.corrupt("ILP gain below Algorithm 2",
                  check::paper_gain(p, r, heu, untrimmed.ilp));
  }
  if (!done) tally.clean("an instance with backups exists", "none found");
}

}  // namespace

int self_test(const Options& options) {
  Tally tally;
  online_cases(options, tally);
  paper_cases(options, tally);
  std::cout << (tally.wrong() == 0 ? "self-test passed"
                                   : "self-test FAILED")
            << "\n";
  return tally.wrong();
}

}  // namespace perfbench
