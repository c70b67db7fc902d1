// stream_journaled: the trace replayed window by window through
// orchestrator::StreamingService with a per_window group-commit journal,
// pipelined commit and two shard workers. The only workload that runs
// admit_batch sharding, the pipeline, the ingress queue and the journal.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>

#include "check.h"
#include "core/heuristic_matching.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "orchestrator/controller.h"
#include "orchestrator/journal.h"
#include "orchestrator/streaming.h"
#include "workloads.h"

namespace perfbench {

namespace {

// p99 of about 62,000 decisions per round: p99.9 did not repeat within a
// tenth across runs (README.md).
constexpr double kTailQuantile = 0.99;
constexpr std::size_t kMinRounds = 3;
// Shard workers; with the pipeline and commit threads and the replay loop
// this stays within a 4-core host.
constexpr std::size_t kShardThreads = 2;
// Capacity conservation is rechecked every this many windows (check round).
constexpr std::uint64_t kCapacityCheckEvery = 16;

std::uint64_t counter(const char* name) {
  return mecra::obs::MetricsRegistry::global().counter(name).value();
}

std::string journal_path(const Options& options) {
  return options.workdir + "/stream-" + std::to_string(getpid()) +
         ".journal";
}

Replay replay(const Options& options, Mode mode, bool journaled) {
  const OnlineSpec spec;
  const bool check = mode == Mode::kCheck;
  const bool traced = mode == Mode::kTraced;
  const std::string path = journal_path(options);
  Replay out;

  const auto setup_start = Clock::now();
  World world = make_world(spec);
  const std::vector<Arrival> trace = make_trace(
      spec, world.catalog, world.network.num_nodes(), options.seed);
  out.layers.add("graph.generate_s", world.generate_s);
  out.layers.add("mec.network_build_s", world.network_build_s);
  out.layers.add(
      "graph.oracle_mb",
      static_cast<double>(world.network.oracle().stats().conf_bytes) /
          1048576.0);

  std::mutex augment_mu;
  std::vector<double> augment_us;
  std::uint64_t backups = 0;
  orchestrator::OrchestratorOptions oopt;
  oopt.l_hops = spec.l_hops;
  oopt.batch.threads = check ? 1 : kShardThreads;
  if (traced) {
    oopt.algorithm = [&](const core::BmcgapInstance& instance,
                         const core::AugmentOptions& aopt) {
      const auto t0 = Clock::now();
      core::AugmentationResult r = core::augment_heuristic(instance, aopt);
      const double us = seconds_since(t0) * 1e6;
      const std::lock_guard lock(augment_mu);
      augment_us.push_back(us);
      backups += r.placements.size();
      return r;
    };
  }
  orchestrator::Orchestrator orch(std::move(world.network), world.catalog,
                                  oopt);
  const auto shard_start = Clock::now();
  orch.ensure_shard_map();
  out.layers.add("mec.shard_map_build_s", seconds_since(shard_start));
  orchestrator::Controller controller(orch);

  const std::size_t n = trace.size();
  std::vector<Clock::time_point> submitted(2 * n);
  std::optional<check::Hops> hops;  // check replay only, built after set-up
  // Callback state; declared before the service, whose destructor joins
  // the threads that run the callbacks.
  std::mutex mu;
  std::vector<std::vector<std::uint64_t>> window_tickets;  // guarded by mu
  std::vector<Clock::time_point> decided_at;               // guarded by mu
  std::vector<Clock::time_point> committed_at;             // guarded by mu
  std::vector<Pending> decided;                            // guarded by mu
  std::vector<double> admit_ms;                            // guarded by mu
  std::vector<double> commit_ms;                           // guarded by mu
  double candidates = 0.0;                                 // guarded by mu
  Digest digest;  // pipeline thread only until stop(), then the journal
  std::uint64_t windows_decided = 0;

  orchestrator::StreamingOptions sopt;
  sopt.window_width = spec.window;
  sopt.pipelined_commit = !check;
  sopt.seed = admission_seed(options.seed);
  sopt.snapshot_on_start = journaled;
  sopt.on_decided = [&](const std::vector<orchestrator::StreamOutcome>& os) {
    const auto now = Clock::now();
    std::vector<std::uint64_t> tickets;
    std::vector<Pending> next;
    tickets.reserve(os.size());
    for (const orchestrator::StreamOutcome& o : os) {
      digest.add_value(o.ticket);
      digest.add_value(o.admitted);
      digest.add_value(o.service);
      tickets.push_back(o.ticket);
      if (!o.admitted) continue;
      ++out.quality.admitted;
      const std::size_t i = o.ticket % n;  // re-admissions carry n + i
      next.push_back(next_lifecycle(trace[i], i, o.service, o.time,
                                    o.readmit));
      if (!check) continue;
      // The inline check replay runs this on the orchestrator's own driver
      // thread, right after the window's admit_batch.
      double reliability = 0.0;
      std::string problem = check::admitted_service(
          orch.service(o.service), orch.network(), orch.catalog(), *hops,
          spec.l_hops, reliability);
      if (problem.empty()) {
        out.quality.add(reliability, trace[i].request.expectation);
      } else {
        ++out.failed;
        out.problems.push_back(std::move(problem));
      }
    }
    if (check && windows_decided % kCapacityCheckEvery == 0 &&
        out.state_problem.empty()) {
      out.state_problem = check::capacity(orch);
    }
    ++windows_decided;
    const std::lock_guard lock(mu);
    window_tickets.push_back(std::move(tickets));
    decided_at.push_back(now);
    decided.insert(decided.end(), next.begin(), next.end());
  };
  sopt.on_commit = [&](const orchestrator::WindowReport& rep) {
    const auto now = Clock::now();
    const std::lock_guard lock(mu);
    if (committed_at.size() <= rep.seq) committed_at.resize(rep.seq + 1);
    committed_at[rep.seq] = now;
    admit_ms.push_back(rep.admit_seconds * 1e3);
    commit_ms.push_back(rep.commit_seconds * 1e3);
    candidates += static_cast<double>(rep.arrivals + rep.readmits);
  };

  const auto start_start = Clock::now();
  std::optional<orchestrator::Journal> journal;
  if (journaled) {
    journal.emplace(path, orchestrator::Journal::Mode::kTruncate,
                    orchestrator::Durability::per_window());
  }
  orchestrator::StreamingService service(
      orch, std::move(sopt), &controller,
      journal.has_value() ? &*journal : nullptr);
  service.start();
  out.layers.add("orchestrator.stream_start_s", seconds_since(start_start));
  out.round.setup_s = seconds_since(setup_start);
  if (mode == Mode::kSetup) {
    service.stop();
    std::remove(path.c_str());
    return out;
  }
  if (check) hops.emplace(orch.network().topology());

  const std::uint64_t requests0 = counter("batch.requests");
  const std::uint64_t fallback0 = counter("batch.fallback_requests");
  const std::uint64_t rejected0 = counter("admission.rejected");
  std::vector<double> submit_us;
  std::uint64_t refused = 0;
  const auto replay_start = Clock::now();
  PendingQueue due;
  std::size_t next_arrival = 0;
  std::uint64_t flushes = 0;
  double last_t = 0.0;
  for (std::size_t g = 0; static_cast<double>(g) * spec.window < spec.horizon;
       ++g) {
    const double wend = static_cast<double>(g + 1) * spec.window;
    {
      const std::lock_guard lock(mu);
      for (const Pending& p : decided) due.push(p);
      decided.clear();
    }
    for (;;) {
      const bool have_due = !due.empty() && due.top().time < wend;
      const bool have_arrival =
          next_arrival < n && trace[next_arrival].time < wend;
      if (!have_due && !have_arrival) break;
      const auto t0 = Clock::now();
      orchestrator::SubmitStatus status;
      if (have_due &&
          (!have_arrival || due.top().time <= trace[next_arrival].time)) {
        const Pending p = due.top();
        due.pop();
        // A departure decided at its window's close may lie behind the
        // submit front; event time must not decrease.
        last_t = std::max(last_t, p.time);
        if (p.readmit) {
          submitted[n + p.arrival] = t0;
          status = service.submit_readmit(p.service, last_t, n + p.arrival);
        } else {
          status = service.submit_departure(p.service, last_t);
        }
      } else {
        const Arrival& a = trace[next_arrival];
        last_t = std::max(last_t, a.time);
        submitted[next_arrival] = t0;
        status = service.submit_arrival(a.request, a.time, next_arrival);
        ++next_arrival;
      }
      if (traced) submit_us.push_back(seconds_since(t0) * 1e6);
      if (status != orchestrator::SubmitStatus::kAccepted) ++refused;
    }
    service.flush(wend);
    service.wait_flushes_processed(++flushes);
  }
  service.stop();
  out.round.replay_s = seconds_since(replay_start);

  std::vector<double> lag_ms;
  for (std::size_t w = 0; w < window_tickets.size(); ++w) {
    if (w >= committed_at.size()) break;
    for (std::uint64_t ticket : window_tickets[w]) {
      out.round.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(committed_at[w] -
                                                    submitted[ticket])
              .count());
    }
    lag_ms.push_back(std::chrono::duration<double, std::milli>(
                         committed_at[w] - decided_at[w])
                         .count());
  }
  out.round.decisions = out.round.latency_ms.size();
  if (service.failed() || refused > 0 ||
      committed_at.size() != window_tickets.size()) {
    out.failed = out.round.decisions;
    out.problems.push_back("stream failed: " + service.error() + " (" +
                           std::to_string(refused) + " submits refused)");
  }
  std::uint64_t journal_bytes = 0;
  if (journal.has_value()) {
    journal->flush();
    digest.add_value(file_digest(path, &journal_bytes));
  }
  out.digest = digest.value;

  const double requests =
      static_cast<double>(counter("batch.requests") - requests0);
  out.layers.add_p50("orchestrator.stream.window_admit_ms", admit_ms);
  out.layers.add_p50("orchestrator.stream.window_commit_ms", commit_ms);
  out.layers.add_p50("orchestrator.stream.commit_lag_ms", lag_ms);
  out.layers.add_p50("orchestrator.stream.submit_us", submit_us);
  out.layers.add("orchestrator.stream.window_candidates",
                 candidates / static_cast<double>(std::max<std::size_t>(
                                  1, admit_ms.size())));
  out.layers.add(
      "orchestrator.batch.fallback_frac",
      requests > 0.0
          ? static_cast<double>(counter("batch.fallback_requests") -
                                fallback0) /
                requests
          : 0.0);
  out.layers.add("orchestrator.journal.bytes_per_decision",
                 static_cast<double>(journal_bytes) /
                     static_cast<double>(
                         std::max<std::uint64_t>(1, out.round.decisions)));
  out.layers.add("admission.rejected",
                 static_cast<double>(counter("admission.rejected") - rejected0));
  if (traced) {
    out.layers.add_p50("core.augment_us", augment_us);
    out.layers.add("core.augment_calls",
                   static_cast<double>(augment_us.size()));
    out.layers.add("core.backups_per_call",
                   static_cast<double>(backups) /
                       static_cast<double>(
                           std::max<std::size_t>(1, augment_us.size())));
  }

  if (check) {
    if (out.state_problem.empty()) out.state_problem = check::capacity(orch);
    if (out.state_problem.empty() && journaled) {
      const auto t0 = Clock::now();
      orchestrator::Recovered rec = orchestrator::recover(
          path, {.orchestrator = oopt, .controller = {}});
      out.layers.add("orchestrator.journal.recover_s", seconds_since(t0));
      out.state_problem = check::same_state(orch, *rec.orch);
      if (!out.state_problem.empty()) {
        out.state_problem = "recovered journal: " + out.state_problem;
      }
    }
  }
  std::remove(path.c_str());
  return out;
}

}  // namespace

Report stream_journaled(const Options& options) {
  return run_workload(options, kMinRounds, kTailQuantile, [&](Mode mode) {
    return replay(options, mode, true);
  });
}

EngineFigures reference_stream(const Options& options, bool journaled) {
  std::vector<double> rates;
  EngineFigures f;
  for (int i = 0; i < 3; ++i) {
    const Replay r = replay(options, Mode::kTimed, journaled);
    rates.push_back(static_cast<double>(r.round.decisions) / r.round.replay_s);
    f.decisions = r.round.decisions;
    f.admitted = r.quality.admitted;
  }
  f.decisions_per_s = median(rates);
  return f;
}

}  // namespace perfbench
