// Load generation: every input a workload replays is made here from the
// run's seed, before timing starts, and handed to the program only through
// its public entry points.
//
// Traffic follows the two shapes of related work: arrivals with holding
// times and re-admissions (RIPPLE's lifecycle-aware embedding) and, for
// serial_failover, seeded instance failures and cloudlet outages
// (failure-aware edge backup).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "admission/admission.h"
#include "core/bmcgap.h"
#include "mec/network.h"
#include "mec/request.h"
#include "mec/vnf.h"
#include "orchestrator/orchestrator.h"

namespace perfbench {

namespace admission = mecra::admission;
namespace core = mecra::core;
namespace graph = mecra::graph;
namespace mec = mecra::mec;
namespace orchestrator = mecra::orchestrator;
namespace util = mecra::util;

/// Network and traffic of the online workloads; the defaults are
/// stream_journaled's.
struct OnlineSpec {
  std::size_t aps = 20000;
  double degree = 8.0;
  std::uint32_t l_hops = 2;
  /// Poisson arrivals per unit event time over [0, horizon).
  double rate = 5000.0;
  double horizon = 12.0;
  double mean_hold = 1.0;
  double readmit_fraction = 0.1;
  double expectation = 0.95;
  /// Stream window width (a small fraction of the mean holding time).
  double window = 0.1;
  /// Fault processes, per unit event time (serial_failover only).
  double instance_failure_rate = 0.0;
  double cloudlet_outage_rate = 0.0;
  double mttr = 0.5;
};

struct World {
  mec::MecNetwork network;
  mec::VnfCatalog catalog;
  double generate_s = 0.0;       ///< topology generation
  double network_build_s = 0.0;  ///< MecNetwork: cloudlets, CSR, HopOracle
};

/// Sparse random geometric AP graph with 10% cloudlets and the paper's
/// catalog. This is the deployment, the same for every run seed: the seed
/// draws the traffic replayed on it (trace, faults, admission randomness),
/// so seed-to-seed spread measures traffic, not a different network.
[[nodiscard]] World make_world(const OnlineSpec& spec);

/// One admission candidate of the trace with its pre-drawn lifecycle, so
/// the trace does not depend on admission outcomes.
struct Arrival {
  double time = 0.0;
  mec::SfcRequest request;
  double hold = 0.0;      ///< holding time of the first incarnation
  bool readmit = false;   ///< re-admitted when the first holding time ends
  double hold2 = 0.0;     ///< holding time of the re-admitted incarnation
};

[[nodiscard]] std::vector<Arrival> make_trace(const OnlineSpec& spec,
                                              const mec::VnfCatalog& catalog,
                                              std::size_t num_nodes,
                                              std::uint64_t seed);

/// A failure event; `pick_a`/`pick_b` in [0, 1) choose the victim from the
/// live state when the event is replayed.
struct Fault {
  double time = 0.0;
  bool cloudlet = false;
  double pick_a = 0.0;
  double pick_b = 0.0;
};

[[nodiscard]] std::vector<Fault> make_faults(const OnlineSpec& spec,
                                             std::uint64_t seed);

/// Seed of the admission randomness the replay hands the orchestrator.
[[nodiscard]] std::uint64_t admission_seed(std::uint64_t seed);

/// A scheduled lifecycle event of an admitted service.
struct Pending {
  double time = 0.0;
  orchestrator::ServiceId service = 0;
  std::size_t arrival = 0;  ///< index into the trace
  bool readmit = false;
};
struct PendingLater {
  bool operator()(const Pending& a, const Pending& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.service > b.service;
  }
};
using PendingQueue =
    std::priority_queue<Pending, std::vector<Pending>, PendingLater>;

/// The lifecycle event that follows an admission decided at `now`.
[[nodiscard]] Pending next_lifecycle(const Arrival& a, std::size_t index,
                                     orchestrator::ServiceId service,
                                     double now, bool was_readmit);

/// One single-request instance of the paper's Section 7 setting.
struct PaperInstance {
  mec::MecNetwork network;
  mec::VnfCatalog catalog;
  mec::SfcRequest request;
  admission::PrimaryPlacement primaries;
  core::BmcgapInstance instance;
  double residual_fraction = 0.0;
  std::uint32_t l_hops = 1;
};

struct PaperSet {
  std::vector<PaperInstance> items;
  double generate_s = 0.0;
  double network_build_s = 0.0;
  double oracle_bytes = 0.0;  ///< summed HopOracle confined-table bytes
};

[[nodiscard]] PaperSet make_paper_set(std::uint64_t seed, std::size_t count);

/// Deterministic branch-and-bound node cap of the paper instances' ILP (no
/// wall-clock limit): at the solver's default cap of 200000, single l = 2
/// instances at 25% residual capacity ran for 14-55 s each; at 1000 no
/// instance of the grid takes over 0.1 s.
inline constexpr std::size_t kPaperIlpNodeCap = 1000;

}  // namespace perfbench
