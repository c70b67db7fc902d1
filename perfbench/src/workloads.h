// The benchmark's workloads and extra modes (see README.md).
#pragma once

#include <cstdint>

#include "harness.h"

namespace perfbench {

[[nodiscard]] Report stream_journaled(const Options& options);
[[nodiscard]] Report serial_failover(const Options& options);
[[nodiscard]] Report paper_sweep(const Options& options);

/// Throughput and admitted work of one engine on the stream_journaled
/// trace (README reference figures).
struct EngineFigures {
  double decisions_per_s = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t admitted = 0;
};
/// StreamingService with or without its journal.
[[nodiscard]] EngineFigures reference_stream(const Options& options,
                                             bool journaled);
/// Per-event Orchestrator::admit on one thread, no faults and, like the
/// stream, no reconcile.
[[nodiscard]] EngineFigures reference_serial(const Options& options);

/// Feeds the checker corrupted outputs; returns the number it accepted.
[[nodiscard]] int self_test(const Options& options);

}  // namespace perfbench
