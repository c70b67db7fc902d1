// Benchmark binary: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//   perfbench --self-test [--seed <n>] [--workdir <dir>]
//   perfbench --reference [--seed <n>] [--workdir <dir>]
//
// Workloads: stream_journaled, serial_failover, paper_sweep. The last line
// of standard output is the JSON result (see README.md).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <stream_journaled|"
               "serial_failover|paper_sweep> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\n"
               "       perfbench --self-test | --reference [--seed <n>]\n";
  return 2;
}

int reference(const perfbench::Options& options) {
  using perfbench::EngineFigures;
  auto line = [](const char* name, const EngineFigures& f) {
    std::cout << name << ": " << f.decisions_per_s << " decisions/s, "
              << f.decisions << " decisions, " << f.admitted
              << " admitted\n";
  };
  std::cout << "stream_journaled trace, seed " << options.seed << "\n";
  line("stream, journaled (per_window), 2 shard threads",
       perfbench::reference_stream(options, true));
  line("stream, no journal, 2 shard threads",
       perfbench::reference_stream(options, false));
  line("per-event Orchestrator::admit, 1 thread",
       perfbench::reference_serial(options));
  perfbench::Options traced = options;
  traced.trace = true;
  const perfbench::Report paper = perfbench::paper_sweep(traced);
  std::cout << "paper_sweep per-round algorithm time (sum over trials, "
               "median of traced rounds):\n";
  for (const perfbench::Metric& m : paper.metrics) {
    if (m.name.rfind("core.augment_", 0) == 0 && m.unit == "ms") {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool self_test = false;
  bool reference_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--workdir") {
      options.workdir = value();
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--reference") {
      reference_mode = true;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (self_test) return perfbench::self_test(options) == 0 ? 0 : 1;
  if (reference_mode) return reference(options);
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  perfbench::Report (*workload)(const perfbench::Options&) = nullptr;
  if (options.workload == "stream_journaled") {
    workload = perfbench::stream_journaled;
  } else if (options.workload == "serial_failover") {
    workload = perfbench::serial_failover;
  } else if (options.workload == "paper_sweep") {
    workload = perfbench::paper_sweep;
  } else {
    return usage("unknown workload '" + options.workload + "'");
  }
  try {
    perfbench::print_report(workload(options));
  } catch (const std::exception& e) {
    // An exception (a failed MECRA_CHECK included) aborts the run: it is
    // reported as a failed operation and the run as incorrect.
    perfbench::Report aborted;
    aborted.attempted = 1;
    aborted.fail_ops(1, e.what());
    aborted.fail_check("workload aborted");
    perfbench::print_report(aborted);
    return 1;
  }
  return 0;
}
