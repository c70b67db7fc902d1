#include "inputs.h"

#include <iterator>
#include <utility>

#include "graph/topology.h"
#include "harness.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Independent streams of one run seed.
enum Stream : std::uint64_t {
  kTopology = 1,
  kCloudlets,
  kCatalog,
  kArrivals,
  kRequests,
  kLifecycle,
  kFaults,
  kAdmission,
  kPaper,
};

util::Rng stream_rng(std::uint64_t seed, Stream s) {
  return util::Rng(util::derive_seed(seed, s));
}

// Seed of the online workloads' deployment (network and catalog).
constexpr std::uint64_t kDeploymentSeed = 20200817;

}  // namespace

World make_world(const OnlineSpec& spec) {
  const std::uint64_t seed = kDeploymentSeed;
  World w;
  util::Rng topo_rng = stream_rng(seed, kTopology);
  const auto t0 = Clock::now();
  graph::GeneratedTopology topo = graph::random_geometric(
      {.num_nodes = spec.aps, .target_degree = spec.degree}, topo_rng);
  w.generate_s = seconds_since(t0);
  util::Rng cloudlet_rng = stream_rng(seed, kCloudlets);
  const auto t1 = Clock::now();
  w.network = mec::MecNetwork::random(std::move(topo.graph), {}, cloudlet_rng);
  w.network_build_s = seconds_since(t1);
  util::Rng catalog_rng = stream_rng(seed, kCatalog);
  w.catalog = mec::VnfCatalog::random({}, catalog_rng);
  return w;
}

std::vector<Arrival> make_trace(const OnlineSpec& spec,
                                const mec::VnfCatalog& catalog,
                                std::size_t num_nodes, std::uint64_t seed) {
  util::Rng arrival_rng = stream_rng(seed, kArrivals);
  util::Rng request_rng = stream_rng(seed, kRequests);
  util::Rng life_rng = stream_rng(seed, kLifecycle);
  mec::RequestParams rp;
  rp.expectation = spec.expectation;
  std::vector<Arrival> trace;
  trace.reserve(static_cast<std::size_t>(spec.rate * spec.horizon * 1.1));
  for (double t = arrival_rng.exponential(1.0 / spec.rate); t < spec.horizon;
       t += arrival_rng.exponential(1.0 / spec.rate)) {
    Arrival a;
    a.time = t;
    a.request = mec::random_request(trace.size(), catalog, num_nodes, rp,
                                    request_rng);
    a.hold = life_rng.exponential(spec.mean_hold);
    a.readmit = life_rng.uniform01() < spec.readmit_fraction;
    a.hold2 = life_rng.exponential(spec.mean_hold);
    trace.push_back(std::move(a));
  }
  return trace;
}

std::vector<Fault> make_faults(const OnlineSpec& spec, std::uint64_t seed) {
  util::Rng rng = stream_rng(seed, kFaults);
  const double total = spec.instance_failure_rate + spec.cloudlet_outage_rate;
  std::vector<Fault> faults;
  if (total <= 0.0) return faults;
  for (double t = rng.exponential(1.0 / total); t < spec.horizon;
       t += rng.exponential(1.0 / total)) {
    Fault f;
    f.time = t;
    f.cloudlet = rng.uniform01() * total < spec.cloudlet_outage_rate;
    f.pick_a = rng.uniform01();
    f.pick_b = rng.uniform01();
    faults.push_back(f);
  }
  return faults;
}

std::uint64_t admission_seed(std::uint64_t seed) {
  return util::derive_seed(seed, kAdmission);
}

Pending next_lifecycle(const Arrival& a, std::size_t index,
                       orchestrator::ServiceId service, double now,
                       bool was_readmit) {
  Pending p;
  p.service = service;
  p.arrival = index;
  p.time = now + (was_readmit ? a.hold2 : a.hold);
  p.readmit = !was_readmit && a.readmit;
  return p;
}

PaperSet make_paper_set(std::uint64_t seed, std::size_t count) {
  // The Section 7 grid the instances cycle through: chain length 3..10 for
  // every (l, residual fraction) cell.
  struct Cell {
    std::uint32_t l;
    double residual;
  };
  constexpr Cell kCells[] = {{1, 0.25}, {1, 0.5}, {2, 0.5},
                             {2, 0.75}, {3, 0.5}, {3, 0.75}};
  constexpr std::size_t kLengths = 8;
  PaperSet set;
  set.items.reserve(count);
  util::Rng rng = stream_rng(seed, kPaper);
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t length = 3 + j % kLengths;
    const Cell& cell = kCells[(j / kLengths) % std::size(kCells)];
    const std::uint32_t l = cell.l;
    const double residual = cell.residual;
    for (std::size_t attempt = 0;; ++attempt) {
      MECRA_CHECK_MSG(attempt < 16, "paper_sweep: primaries never fit");
      const auto t0 = Clock::now();
      graph::GeneratedTopology topo = graph::waxman({}, rng);
      set.generate_s += seconds_since(t0);
      PaperInstance p;
      const auto t1 = Clock::now();
      p.network = mec::MecNetwork::random(std::move(topo.graph), {}, rng);
      set.network_build_s += seconds_since(t1);
      p.network.set_residual_fraction(residual);
      p.catalog = mec::VnfCatalog::random({}, rng);
      mec::RequestParams rp;
      rp.chain_length_low = length;
      rp.chain_length_high = length;
      p.request = mec::random_request(j, p.catalog, p.network.num_nodes(), rp,
                                      rng);
      auto primaries =
          admission::random_admission(p.network, p.catalog, p.request, rng);
      if (!primaries.has_value()) continue;
      p.primaries = std::move(*primaries);
      p.residual_fraction = residual;
      p.l_hops = l;
      p.instance = core::build_bmcgap(p.network, p.catalog, p.request,
                                      p.primaries, {.l_hops = l});
      set.oracle_bytes +=
          static_cast<double>(p.network.oracle().stats().conf_bytes);
      set.items.push_back(std::move(p));
      break;
    }
  }
  return set;
}

}  // namespace perfbench
