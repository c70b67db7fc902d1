// serial_failover: a network of the stream_journaled family and its arrival
// process, served one event at a time on one thread by
// Orchestrator::admit/teardown, with seeded instance failures and cloudlet
// outages interleaved and Controller::reconcile after each (repairs land
// when the controller's MTTR falls due). No journal, no worker threads:
// candidate sets come from HopOracle ball queries, and the failover path
// (promotion, reaugment, revive) runs on the orchestrator.
#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "check.h"
#include "core/bmcgap_arena.h"
#include "core/heuristic_matching.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "orchestrator/controller.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

// p95 of about 64,000 admit calls per round: the highest percentile that
// repeated within a tenth across runs (README.md).
constexpr double kTailQuantile = 0.95;
constexpr std::size_t kMinRounds = 3;
// Capacity conservation is rechecked every this many events (check round).
constexpr std::uint64_t kCapacityCheckEvery = 1000;

/// Services alive in the orchestrator, indexable for seeded victim picks.
class LiveSet {
 public:
  void add(orchestrator::ServiceId id) {
    index_[id] = ids_.size();
    ids_.push_back(id);
  }
  void remove(orchestrator::ServiceId id) {
    const std::size_t i = index_.at(id);
    ids_[i] = ids_.back();
    index_[ids_[i]] = i;
    ids_.pop_back();
    index_.erase(id);
  }
  [[nodiscard]] bool empty() const { return ids_.empty(); }
  /// The service a draw in [0, 1) selects.
  [[nodiscard]] orchestrator::ServiceId pick(double u) const {
    return ids_[std::min(ids_.size() - 1,
                         static_cast<std::size_t>(
                             u * static_cast<double>(ids_.size())))];
  }

 private:
  std::vector<orchestrator::ServiceId> ids_;
  std::unordered_map<orchestrator::ServiceId, std::size_t> index_;
};

std::uint64_t counter(const char* name) {
  return mecra::obs::MetricsRegistry::global().counter(name).value();
}

/// The stream deployment's family at a quarter of its size, with arrival,
/// failure and outage rates scaled by the same quarter: per-service and
/// per-cloudlet rates, contention and the decisions per round stay those
/// of stream_journaled. At 20,000 APs the replay's working set made it
/// twice as sensitive to the host's memory contention (round times ranged
/// 23% across interleaved runs, against 11% at 5,000 APs).
OnlineSpec failover_spec() {
  OnlineSpec spec;
  spec.aps = 5000;
  spec.rate = 1250.0;
  spec.horizon = 48.0;
  spec.instance_failure_rate = 12.5;
  spec.cloudlet_outage_rate = 0.25;
  return spec;
}

Replay replay(const Options& options, Mode mode, const OnlineSpec& spec) {
  const bool faults =
      spec.instance_failure_rate > 0.0 || spec.cloudlet_outage_rate > 0.0;
  const bool check = mode == Mode::kCheck;
  const bool traced = mode == Mode::kTraced;
  Replay out;

  const auto setup_start = Clock::now();
  World world = make_world(spec);
  const std::vector<Arrival> trace = make_trace(
      spec, world.catalog, world.network.num_nodes(), options.seed);
  const std::vector<Fault> fault_trace = make_faults(spec, options.seed);
  out.layers.add("graph.generate_s", world.generate_s);
  out.layers.add("mec.network_build_s", world.network_build_s);
  out.layers.add(
      "graph.oracle_mb",
      static_cast<double>(world.network.oracle().stats().conf_bytes) /
          1048576.0);
  std::vector<double> augment_us;
  std::uint64_t backups = 0;
  orchestrator::OrchestratorOptions oopt;
  oopt.l_hops = spec.l_hops;
  if (traced) {
    oopt.algorithm = [&](const core::BmcgapInstance& instance,
                         const core::AugmentOptions& aopt) {
      const auto t0 = Clock::now();
      core::AugmentationResult r = core::augment_heuristic(instance, aopt);
      augment_us.push_back(seconds_since(t0) * 1e6);
      backups += r.placements.size();
      return r;
    };
  }
  orchestrator::Orchestrator orch(std::move(world.network), world.catalog,
                                  oopt);
  // Backoff gates services whose top-up failed; the reactive policy would
  // retry every one of them at every reconcile.
  orchestrator::Controller controller(
      orch, {.policy = orchestrator::ReaugmentPolicy::kBackoff,
             .mttr = spec.mttr});
  util::Rng rng(admission_seed(options.seed));
  out.round.setup_s = seconds_since(setup_start);
  if (mode == Mode::kSetup) return out;
  std::optional<check::Hops> hops;
  if (check) hops.emplace(orch.network().topology());

  std::vector<double> admit_us;
  std::vector<double> reject_us;
  std::vector<double> teardown_us;
  std::vector<double> within_us;
  std::vector<double> failover_us;
  std::vector<double> reconcile_ms;
  const std::uint64_t rejected0 = counter("admission.rejected");
  Digest digest;
  LiveSet live;
  PendingQueue due;
  // Check round: instances with ids from here on are not yet checked.
  // Instance ids only grow, and only admissions and reconciles place
  // instances, so each standby is checked against the active it was placed
  // for, before a later promotion can move that active.
  orchestrator::InstanceId first_unchecked = 0;
  auto check_placed = [&] {
    std::string problem;
    orchestrator::InstanceId next = first_unchecked;
    for (orchestrator::ServiceId id : orch.services()) {
      const orchestrator::Service& svc = orch.service(id);
      if (problem.empty()) {
        problem = check::placed_standbys(svc, *hops, spec.l_hops,
                                         first_unchecked);
      }
      for (const orchestrator::Instance& inst : svc.instances) {
        next = std::max(next, inst.id + 1);
      }
    }
    first_unchecked = next;
    return problem;
  };

  // One admission decision: arrival `i`, or its re-admission.
  auto decide = [&](std::size_t i, const mec::SfcRequest& request, double t,
                    bool readmit) {
    const auto t0 = Clock::now();
    const std::optional<orchestrator::ServiceId> id = orch.admit(request, rng);
    const double us = seconds_since(t0) * 1e6;
    out.round.latency_ms.push_back(us * 1e-3);
    digest.add_value(i);
    digest.add_value(id.value_or(~0ULL));
    if (traced) (id.has_value() ? admit_us : reject_us).push_back(us);
    if (!id.has_value()) return;
    ++out.quality.admitted;
    controller.on_admit(*id, t);
    due.push(next_lifecycle(trace[i], i, *id, t, readmit));
    live.add(*id);
    const orchestrator::Service& svc = orch.service(*id);
    if (traced) {
      for (const orchestrator::Instance& inst : svc.instances) {
        if (inst.role != orchestrator::InstanceRole::kActive) continue;
        const auto w0 = Clock::now();
        (void)orch.network().cloudlets_within(inst.cloudlet, spec.l_hops);
        within_us.push_back(seconds_since(w0) * 1e6);
      }
    }
    if (check) {
      double reliability = 0.0;
      std::string problem = check::admitted_service(
          svc, orch.network(), orch.catalog(), *hops, spec.l_hops,
          reliability);
      if (problem.empty()) {
        out.quality.add(reliability, request.expectation);
      } else {
        ++out.failed;
        out.problems.push_back(std::move(problem));
      }
      for (const orchestrator::Instance& inst : svc.instances) {
        first_unchecked = std::max(first_unchecked, inst.id + 1);
      }
    }
  };
  auto reconcile = [&](double t) {
    const auto t0 = Clock::now();
    const orchestrator::ReconcileReport rep = controller.reconcile(t);
    if (traced) reconcile_ms.push_back(seconds_since(t0) * 1e3);
    digest.add_value(rep.attempts);
    digest.add_value(rep.standbys_added);
    digest.add_value(rep.revived);
    if (check && rep.standbys_added > 0 && out.state_problem.empty()) {
      out.state_problem = check_placed();
    }
  };

  const double inf = std::numeric_limits<double>::infinity();
  const auto replay_start = Clock::now();
  std::size_t next_arrival = 0;
  std::size_t next_fault = 0;
  std::uint64_t events = 0;
  for (;; ++events) {
    const double ta =
        next_arrival < trace.size() ? trace[next_arrival].time : inf;
    const double tp = due.empty() ? inf : due.top().time;
    const double tf =
        next_fault < fault_trace.size() ? fault_trace[next_fault].time : inf;
    // Asked before every event, as sim::run_chaos does: an admission that
    // falls short of rho makes the service due at once. The fault-free
    // reference replay runs no controller, as the stream reconciles no
    // window.
    const double tw = faults ? controller.next_wakeup() : inf;
    const double t = std::min({ta, tp, tf, tw});
    if (!(t < spec.horizon)) break;
    if (check && events % kCapacityCheckEvery == 0 &&
        out.state_problem.empty()) {
      out.state_problem = check::capacity(orch);
    }
    if (tp == t) {
      const Pending p = due.top();
      due.pop();
      const mec::SfcRequest request = orch.service(p.service).request;
      const auto t0 = Clock::now();
      orch.teardown(p.service);
      if (traced) teardown_us.push_back(seconds_since(t0) * 1e6);
      controller.on_teardown(p.service);
      live.remove(p.service);
      if (p.readmit) decide(p.arrival, request, t, true);
    } else if (tw == t) {
      reconcile(t);
    } else if (tf == t) {
      const Fault& f = fault_trace[next_fault++];
      if (f.cloudlet) {
        const std::vector<graph::NodeId>& cloudlets =
            orch.network().cloudlets();
        const graph::NodeId v = cloudlets[std::min(
            cloudlets.size() - 1,
            static_cast<std::size_t>(f.pick_a *
                                     static_cast<double>(cloudlets.size())))];
        if (orch.is_cloudlet_down(v)) continue;
        const auto t0 = Clock::now();
        orch.fail_cloudlet(v);
        if (traced) failover_us.push_back(seconds_since(t0) * 1e6);
        controller.on_cloudlet_failed(v, t);
        digest.add_value(v);
      } else {
        if (live.empty()) continue;
        const orchestrator::ServiceId id = live.pick(f.pick_a);
        std::vector<orchestrator::InstanceId> running;
        for (const orchestrator::Instance& inst : orch.service(id).instances) {
          if (inst.state == orchestrator::InstanceState::kRunning) {
            running.push_back(inst.id);
          }
        }
        if (running.empty()) continue;
        const orchestrator::InstanceId victim = running[std::min(
            running.size() - 1,
            static_cast<std::size_t>(f.pick_b *
                                     static_cast<double>(running.size())))];
        const auto t0 = Clock::now();
        const std::optional<orchestrator::InstanceId> promoted =
            orch.fail_instance(id, victim);
        if (traced) failover_us.push_back(seconds_since(t0) * 1e6);
        controller.on_instance_failed(id, t);
        digest.add_value(promoted.value_or(~0ULL));
      }
      reconcile(t);
    } else {
      const Arrival& a = trace[next_arrival];
      decide(next_arrival, a.request, t, false);
      ++next_arrival;
    }
  }
  out.round.replay_s = seconds_since(replay_start);
  out.round.decisions = out.round.latency_ms.size();
  out.digest = digest.value;
  if (check && out.state_problem.empty()) {
    out.state_problem = check::capacity(orch);
  }

  out.layers.add("admission.rejected",
                 static_cast<double>(counter("admission.rejected") - rejected0));
  if (traced) {
    out.layers.add_p50("orchestrator.admit_us", admit_us);
    out.layers.add_p50("orchestrator.reject_us", reject_us);
    out.layers.add_p50("orchestrator.teardown_us", teardown_us);
    out.layers.add_p50("graph.cloudlets_within_us", within_us);
    out.layers.add_p50("core.augment_us", augment_us);
    out.layers.add("core.augment_calls",
                   static_cast<double>(augment_us.size()));
    out.layers.add("core.backups_per_call",
                   static_cast<double>(backups) /
                       static_cast<double>(
                           std::max<std::size_t>(1, augment_us.size())));
    if (faults) {
      out.layers.add_p50("orchestrator.failover_us", failover_us);
      out.layers.add_p50("orchestrator.controller.reconcile_ms",
                         reconcile_ms);
      out.layers.add("orchestrator.controller.standbys_added",
                     static_cast<double>(controller.metrics().standbys_added));
    }
    // Share of model builds served from a cached skeleton (a hit, or a
    // refresh of its residual-dependent part) rather than built afresh.
    if (const core::BmcgapArena* arena = orch.model_arena()) {
      const core::BmcgapArena::Stats& s = arena->stats();
      const double builds =
          static_cast<double>(s.hits + s.misses + s.refreshes);
      out.layers.add("core.arena.hit_frac",
                     builds > 0.0 ? static_cast<double>(s.hits + s.refreshes) /
                                        builds
                                  : 0.0);
    }
  }
  return out;
}

}  // namespace

Report serial_failover(const Options& options) {
  return run_workload(options, kMinRounds, kTailQuantile, [&](Mode mode) {
    return replay(options, mode, failover_spec());
  });
}

EngineFigures reference_serial(const Options& options) {
  std::vector<double> rates;
  EngineFigures f;
  for (int i = 0; i < 3; ++i) {
    const Replay r = replay(options, Mode::kTimed, OnlineSpec{});
    rates.push_back(static_cast<double>(r.round.decisions) / r.round.replay_s);
    f.decisions = r.round.decisions;
    f.admitted = r.quality.admitted;
  }
  f.decisions_per_s = median(rates);
  return f;
}

}  // namespace perfbench
