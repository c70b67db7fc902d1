// Shared plumbing of the benchmark binary: options, the result line,
// order statistics, and the round loop every workload runs.
//
// A workload run is TIMED rounds until the requested number of seconds of
// replay has been spent, followed by one untimed CHECK round whose outputs
// the independent checker (check.h) inspects. Every round rebuilds its
// inputs from the seed, so each round does exactly the same work and makes
// exactly the same decisions; the timed rounds prove that by matching the
// check round's decision (and journal) digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for journals (inside the checkout).
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything the final JSON line carries, plus the failed checks.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A check over the whole output (state, journal, determinism) failed.
  void fail_check(std::string what);
  /// `n` operations failed (exception or per-decision check).
  void fail_ops(std::uint64_t n, std::string what);
};

/// Prints `report` as the single JSON result line on stdout and the
/// problems on stderr.
void print_report(const Report& report);

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (Python's statistics "inclusive" method);
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Process high-water resident set, MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a, folded incrementally (decision and journal digests).
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t size);
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof v);
  }
};
[[nodiscard]] std::uint64_t file_digest(const std::string& path,
                                        std::uint64_t* size = nullptr);

/// One timed replay of a workload's inputs.
struct Round {
  double setup_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t decisions = 0;
  std::vector<double> latency_ms;  ///< one per decision
  bool traced = false;
};

/// Admission quality of one replay, counted by the checker.
struct Quality {
  std::uint64_t admitted = 0;
  std::uint64_t rho_met = 0;
  double reliability_sum = 0.0;
  std::uint64_t reliability_count = 0;
  /// One checked solution: its recomputed Eq. (2) reliability against the
  /// request's expectation.
  void add(double reliability, double expectation);
};

/// Per-layer values one traced run measured, by metric name.
using Layers = std::map<std::string, double>;

/// Median over rounds of per-round layer values, accumulated by name.
class LayerRounds {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  /// Per-round p50 of a sample vector (none when the vector is empty).
  void add_p50(const std::string& name, const std::vector<double>& samples) {
    if (!samples.empty()) add(name, quantile(samples, 0.5));
  }
  [[nodiscard]] Layers medians() const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// What a replay is for. kSetup builds the inputs and times that set-up,
/// then returns without replaying.
enum class Mode { kTimed, kTraced, kCheck, kSetup };

/// One replay of a workload's inputs.
struct Replay {
  Round round;
  /// Digest of what the replay decided (for the stream, with its journal
  /// bytes): every replay of one run must produce the same.
  std::uint64_t digest = 0;
  Quality quality;  ///< admitted: every replay; reliabilities: check only
  std::uint64_t failed = 0;           ///< decisions that failed
  std::vector<std::string> problems;  ///< why they failed
  std::string state_problem;          ///< a failed whole-output check
  LayerRounds layers;                 ///< this replay's layer values
};

/// Runs one workload: timed replays until `options.seconds` of replay time
/// is spent and at least `min_rounds` ran (alternating untraced and traced
/// ones under --trace 1; under --trace 0 each round is followed by a few
/// set-up-only replays while they are short against it), then the check
/// replay, whose digest every timed replay must match. Reports the end-to-end metrics, with `tail_quantile`
/// as the tail, or under --trace 1 the per-layer ones; the check replay
/// fills in layers the traced replays do not measure.
[[nodiscard]] Report run_workload(
    const Options& options, std::size_t min_rounds, double tail_quantile,
    const std::function<Replay(Mode)>& replay);

}  // namespace perfbench
