#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace perfbench {

void Report::fail_check(std::string what) {
  correct = false;
  problems.push_back("check: " + std::move(what));
}

void Report::fail_ops(std::uint64_t n, std::string what) {
  failed += n;
  problems.push_back("failed x" + std::to_string(n) + ": " + std::move(what));
}

void print_report(const Report& report) {
  for (const std::string& p : report.problems) {
    std::cerr << "perfbench: " << p << "\n";
  }
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const Metric& m : report.metrics) {
    // JSON has no NaN/Inf; a metric that could not be measured reads 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line += first ? "" : ", ";
    first = false;
    line += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Digest::add(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    value ^= p[i];
    value *= 0x100000001b3ULL;
  }
}

std::uint64_t file_digest(const std::string& path, std::uint64_t* size) {
  std::ifstream in(path, std::ios::binary);
  Digest d;
  std::uint64_t total = 0;
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    d.add(buf.data(), got);
    total += got;
  }
  if (size != nullptr) *size = total;
  return d.value;
}

void Quality::add(double reliability, double expectation) {
  if (reliability >= expectation) ++rho_met;
  reliability_sum += reliability;
  ++reliability_count;
}

namespace {

/// Most set-up-only replays after each timed round of a --trace 0 run. A
/// round of serial_failover takes several seconds, so its rounds alone give
/// only three or four set-up samples of ~50 ms; the repeats add samples
/// spread over the run rather than bunched at its end.
constexpr int kMaxSetupRepeats = 3;

std::vector<Round> run_rounds(const Options& options, std::size_t min_rounds,
                              const std::function<Round(bool)>& round) {
  std::vector<Round> rounds;
  double spent = 0.0;
  while (spent < options.seconds || rounds.size() < min_rounds) {
    const bool traced = options.trace && rounds.size() % 2 == 1;
    rounds.push_back(round(traced));
    Round& r = rounds.back();
    r.traced = traced;
    spent += r.replay_s;
    std::fprintf(stderr,
                 "perfbench: round %zu%s: set-up %.3f s, %llu decisions in "
                 "%.3f s; latency p50 %.4g p90 %.4g p95 %.4g p99 %.4g "
                 "p99.9 %.4g ms\n",
                 rounds.size(), traced ? " (traced)" : "", r.setup_s,
                 static_cast<unsigned long long>(r.decisions), r.replay_s,
                 quantile(r.latency_ms, 0.5), quantile(r.latency_ms, 0.9),
                 quantile(r.latency_ms, 0.95), quantile(r.latency_ms, 0.99),
                 quantile(r.latency_ms, 0.999));
  }
  return rounds;
}

std::vector<double> rates(const std::vector<Round>& rounds, bool traced) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    if (r.traced == traced && r.replay_s > 0.0) {
      out.push_back(static_cast<double>(r.decisions) / r.replay_s);
    }
  }
  return out;
}

void add_end_to_end(Report& report, const std::vector<Round>& rounds,
                    const std::vector<double>& setup_samples,
                    const Quality& quality, double tail_quantile,
                    double peak_rss_mb) {
  std::vector<double> p50;
  std::vector<double> tail;
  for (const Round& r : rounds) {
    if (r.traced) continue;
    p50.push_back(quantile(r.latency_ms, 0.5));
    tail.push_back(quantile(r.latency_ms, tail_quantile));
  }
  report.add("setup_s", median(setup_samples), "s");
  report.add("decisions_per_s", median(rates(rounds, false)), "1/s");
  report.add("decision_p50_ms", median(p50), "ms");
  report.add("decision_tail_ms", median(tail), "ms");
  report.add("admitted", static_cast<double>(quality.admitted), "count");
  report.add("rho_met", static_cast<double>(quality.rho_met), "count");
  report.add("reliability_mean",
             quality.reliability_count == 0
                 ? 0.0
                 : quality.reliability_sum /
                       static_cast<double>(quality.reliability_count),
             "1");
  report.add("peak_rss_mb", peak_rss_mb, "MB");
}

double trace_overhead(const std::vector<Round>& rounds) {
  const double untraced = median(rates(rounds, false));
  const double traced = median(rates(rounds, true));
  return untraced > 0.0 ? 1.0 - traced / untraced : 0.0;
}

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the per_layer metrics of BENCHMARK.json.
constexpr LayerSpec kLayers[] = {
    {"graph.generate_s", "s"},
    {"mec.network_build_s", "s"},
    {"graph.oracle_mb", "MB"},
    {"mec.shard_map_build_s", "s"},
    {"orchestrator.stream_start_s", "s"},
    {"orchestrator.stream.window_admit_ms", "ms"},
    {"orchestrator.stream.window_commit_ms", "ms"},
    {"orchestrator.stream.commit_lag_ms", "ms"},
    {"orchestrator.stream.submit_us", "us"},
    {"orchestrator.stream.window_candidates", "count"},
    {"orchestrator.batch.fallback_frac", "1"},
    {"orchestrator.journal.bytes_per_decision", "B"},
    {"orchestrator.journal.recover_s", "s"},
    {"core.augment_us", "us"},
    {"core.augment_calls", "count"},
    {"core.backups_per_call", "count"},
    {"admission.rejected", "count"},
    {"orchestrator.admit_us", "us"},
    {"orchestrator.reject_us", "us"},
    {"orchestrator.teardown_us", "us"},
    {"graph.cloudlets_within_us", "us"},
    {"orchestrator.failover_us", "us"},
    {"orchestrator.controller.reconcile_ms", "ms"},
    {"orchestrator.controller.standbys_added", "count"},
    {"core.arena.hit_frac", "1"},
    {"core.augment_ilp_ms", "ms"},
    {"core.augment_ilp_p50_ms", "ms"},
    {"core.augment_randomized_ms", "ms"},
    {"core.augment_randomized_p50_ms", "ms"},
    {"core.augment_heuristic_ms", "ms"},
    {"core.augment_heuristic_p50_ms", "ms"},
    {"ilp.nodes", "count"},
    {"lp.pivots", "count"},
    {"ilp.warm_hit_frac", "1"},
    {"core.items_per_instance", "count"},
    {"bench.trace_overhead_frac", "1"},
};

void add_layers(Report& report, const Layers& measured) {
  for (const LayerSpec& spec : kLayers) {
    const auto it = measured.find(spec.name);
    report.add(spec.name, it == measured.end() ? 0.0 : it->second, spec.unit);
  }
  for (const auto& [name, value] : measured) {
    bool known = false;
    for (const LayerSpec& spec : kLayers) known = known || name == spec.name;
    if (!known) report.fail_check("unlisted layer metric " + name);
  }
}

}  // namespace

Layers LayerRounds::medians() const {
  Layers out;
  for (const auto& [name, values] : values_) out[name] = median(values);
  return out;
}

Report run_workload(const Options& options, std::size_t min_rounds,
                    double tail_quantile,
                    const std::function<Replay(Mode)>& replay) {
  Report report;
  std::vector<double> setup;
  std::vector<std::uint64_t> digests;
  LayerRounds layers;
  const std::vector<Round> rounds =
      run_rounds(options, min_rounds, [&](bool traced) {
        const Replay r = replay(traced ? Mode::kTraced : Mode::kTimed);
        report.attempted += r.round.decisions;
        if (!traced) setup.push_back(r.round.setup_s);
        if (!options.trace) {
          // Set-up repeats after the round, while set-up stays under a
          // tenth of the round's replay time.
          double spent = r.round.setup_s;
          for (int k = 0;
               k < kMaxSetupRepeats && spent < 0.1 * r.round.replay_s; ++k) {
            const Replay again = replay(Mode::kSetup);
            setup.push_back(again.round.setup_s);
            spent += again.round.setup_s;
          }
        }
        digests.push_back(r.digest);
        if (r.failed > 0) report.fail_ops(r.failed, r.problems.front());
        if (traced) {
          for (const auto& [name, value] : r.layers.medians()) {
            layers.add(name, value);
          }
        }
        return r.round;
      });
  // Read before the check replay: its checking, journal recovery included,
  // is no part of the workload.
  const double rss = peak_rss_mb();

  const Replay ref = replay(Mode::kCheck);
  report.attempted += ref.round.decisions;
  if (ref.failed > 0) report.fail_ops(ref.failed, ref.problems.front());
  if (!ref.state_problem.empty()) report.fail_check(ref.state_problem);
  for (std::uint64_t d : digests) {
    if (d != ref.digest) {
      report.fail_check("a timed round decided differently from the check "
                        "round");
      break;
    }
  }

  if (options.trace) {
    Layers measured = layers.medians();
    for (const auto& [name, value] : ref.layers.medians()) {
      measured.emplace(name, value);
    }
    measured["bench.trace_overhead_frac"] = trace_overhead(rounds);
    add_layers(report, measured);
  } else {
    add_end_to_end(report, rounds, setup, ref.quality, tail_quantile, rss);
  }
  return report;
}

}  // namespace perfbench
