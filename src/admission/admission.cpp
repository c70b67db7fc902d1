#include "admission/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/algorithms.h"

namespace mecra::admission {

double initial_reliability(const mec::VnfCatalog& catalog,
                           const mec::SfcRequest& request) {
  double u = 1.0;
  for (mec::FunctionId f : request.chain) {
    u *= catalog.function(f).reliability;
  }
  return u;
}

namespace {

/// The draw loop of random_admission over `candidates`: each primary goes
/// to a uniformly random candidate with room for it. `feasible` and
/// `touched` are caller scratch.
std::optional<PrimaryPlacement> draw_primaries(
    mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    const mec::SfcRequest& request,
    const std::vector<graph::NodeId>& candidates, util::Rng& rng,
    std::vector<graph::NodeId>& feasible,
    std::vector<std::pair<graph::NodeId, double>>& touched) {
  PrimaryPlacement placement;
  placement.cloudlet_of.reserve(request.length());
  // Rollback restores the CAPTURED pre-consume residuals (newest first)
  // rather than releasing the amounts back: (r - x) + x can drift by an
  // ulp, and crash recovery needs failed attempts to be exactly invisible.
  touched.clear();
  for (mec::FunctionId f : request.chain) {
    const double demand = catalog.function(f).cpu_demand;
    feasible.clear();
    for (graph::NodeId v : candidates) {
      if (network.residual(v) >= demand) feasible.push_back(v);
    }
    if (feasible.empty()) {
      for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
        network.set_residual(it->first, it->second);
      }
      return std::nullopt;
    }
    const graph::NodeId chosen = feasible[rng.index(feasible.size())];
    touched.emplace_back(chosen, network.residual(chosen));
    network.consume(chosen, demand);
    placement.cloudlet_of.push_back(chosen);
  }
  return placement;
}

}  // namespace

std::optional<PrimaryPlacement> random_admission(
    mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    const mec::SfcRequest& request, util::Rng& rng) {
  std::vector<graph::NodeId> feasible;
  std::vector<std::pair<graph::NodeId, double>> touched;
  return draw_primaries(network, catalog, request, network.cloudlets(), rng,
                        feasible, touched);
}

PrimaryPool::PrimaryPool(const mec::VnfCatalog& catalog,
                         const std::vector<graph::NodeId>& candidates)
    : catalog_(catalog),
      candidates_(candidates),
      min_demand_(std::numeric_limits<double>::infinity()),
      bound_(std::numeric_limits<double>::infinity()),
      live_(candidates) {
  for (const mec::NetworkFunction& fn : catalog.functions()) {
    min_demand_ = std::min(min_demand_, fn.cpu_demand);
  }
}

void PrimaryPool::invalidate() {
  live_ = candidates_;
  bound_ = std::numeric_limits<double>::infinity();
}

std::optional<PrimaryPlacement> PrimaryPool::place(
    mec::MecNetwork& network, const mec::SfcRequest& request,
    std::uint64_t seed) {
  double need = -std::numeric_limits<double>::infinity();
  for (mec::FunctionId f : request.chain) {
    need = std::max(need, catalog_.function(f).cpu_demand);
  }
  if (need > bound_) {
    ++bound_rejections_;
    return std::nullopt;
  }
  // One pass: drop what can host nothing any more and keep the exact
  // maximum. A dropped candidate's residual is below every demand, so the
  // feasible lists of the draw loop equal those over `candidates_`.
  double max_residual = -std::numeric_limits<double>::infinity();
  std::size_t kept = 0;
  for (const graph::NodeId v : live_) {
    const double r = network.residual(v);
    if (r < min_demand_) continue;
    live_[kept++] = v;
    max_residual = std::max(max_residual, r);
  }
  live_.resize(kept);
  bound_ = max_residual;
  if (need > bound_) return std::nullopt;
  util::Rng rng(seed);
  return draw_primaries(network, catalog_, request, live_, rng, feasible_,
                        touched_);
}

namespace {

/// One pass of the layered-DAG dynamic program over the remaining suffix of
/// the chain, starting at `from` (an AP or the previous function's
/// cloudlet). Returns the chosen cloudlet sequence, or empty if some layer
/// has no feasible candidate.
std::vector<graph::NodeId> dag_suffix_path(
    const mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    const mec::SfcRequest& request, std::size_t first_pos, graph::NodeId from,
    const DagAdmissionOptions& options) {
  const auto& cloudlets = network.cloudlets();
  const std::size_t suffix = request.length() - first_pos;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  auto availability = [&](graph::NodeId v) {
    if (options.host_availability.empty()) return 1.0;
    MECRA_CHECK(v < options.host_availability.size());
    const double a = options.host_availability[v];
    MECRA_CHECK_MSG(a > 0.0 && a <= 1.0,
                    "host availability must be in (0, 1]");
    return a;
  };

  // Hop distances from every cloudlet (and the start/end APs) to everywhere.
  // The DP genuinely reads all-cloudlets x all-cloudlets distances, so this
  // stays one BFS per cloudlet — over the packed CSR arrays rather than the
  // pointer-per-row adjacency lists.
  std::vector<std::vector<std::uint32_t>> hops_from(cloudlets.size());
  for (std::size_t c = 0; c < cloudlets.size(); ++c) {
    hops_from[c] = graph::bfs_hops(network.csr(), cloudlets[c]);
  }
  const auto hops_from_start = graph::bfs_hops(network.csr(), from);

  // dp[layer][c]: best cost placing functions first_pos..first_pos+layer at
  // cloudlet index c for the last one.
  std::vector<std::vector<double>> dp(
      suffix, std::vector<double>(cloudlets.size(), kInf));
  std::vector<std::vector<std::size_t>> prev(
      suffix, std::vector<std::size_t>(cloudlets.size(), 0));

  for (std::size_t layer = 0; layer < suffix; ++layer) {
    const auto& fn = catalog.function(request.chain[first_pos + layer]);
    for (std::size_t c = 0; c < cloudlets.size(); ++c) {
      const graph::NodeId v = cloudlets[c];
      if (network.residual(v) < fn.cpu_demand) continue;
      const double place_cost =
          -std::log(fn.reliability * availability(v));
      if (layer == 0) {
        if (hops_from_start[v] == graph::kUnreachable) continue;
        dp[0][c] = place_cost +
                   options.hop_penalty * static_cast<double>(hops_from_start[v]);
        continue;
      }
      for (std::size_t p = 0; p < cloudlets.size(); ++p) {
        if (dp[layer - 1][p] == kInf) continue;
        const std::uint32_t h = hops_from[p][v];
        if (h == graph::kUnreachable) continue;
        const double cand = dp[layer - 1][p] + place_cost +
                            options.hop_penalty * static_cast<double>(h);
        if (cand < dp[layer][c]) {
          dp[layer][c] = cand;
          prev[layer][c] = p;
        }
      }
    }
  }

  // Terminal: add the egress hop penalty toward the destination AP.
  const auto hops_to_dest =
      graph::bfs_hops(network.csr(), request.destination);
  double best = kInf;
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < cloudlets.size(); ++c) {
    if (dp[suffix - 1][c] == kInf) continue;
    const std::uint32_t h = hops_to_dest[cloudlets[c]];
    if (h == graph::kUnreachable) continue;
    const double total =
        dp[suffix - 1][c] + options.hop_penalty * static_cast<double>(h);
    if (total < best) {
      best = total;
      best_c = c;
    }
  }
  if (best == kInf) return {};

  std::vector<graph::NodeId> path(suffix);
  std::size_t c = best_c;
  for (std::size_t layer = suffix; layer-- > 0;) {
    path[layer] = cloudlets[c];
    c = prev[layer][c];
  }
  return path;
}

}  // namespace

std::optional<PrimaryPlacement> dag_admission(
    mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    const mec::SfcRequest& request, const DagAdmissionOptions& options) {
  PrimaryPlacement placement;
  // (node, pre-consume residual), newest restored first: exact rollback,
  // see draw_primaries.
  std::vector<std::pair<graph::NodeId, double>> touched;
  auto rollback = [&] {
    for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
      network.set_residual(it->first, it->second);
    }
  };

  std::size_t pos = 0;
  graph::NodeId from = request.source;
  while (pos < request.length()) {
    const auto path =
        dag_suffix_path(network, catalog, request, pos, from, options);
    if (path.empty()) {
      rollback();
      return std::nullopt;
    }
    // Commit along the path until a shared cloudlet runs out of residual
    // capacity (the DP prices layers independently); then re-plan the
    // remaining suffix against the updated residuals.
    bool replanned = false;
    for (std::size_t i = 0; i < path.size(); ++i) {
      const auto& fn = catalog.function(request.chain[pos]);
      const graph::NodeId v = path[i];
      if (network.residual(v) < fn.cpu_demand) {
        from = placement.cloudlet_of.empty() ? request.source
                                             : placement.cloudlet_of.back();
        replanned = true;
        break;
      }
      touched.emplace_back(v, network.residual(v));
      network.consume(v, fn.cpu_demand);
      placement.cloudlet_of.push_back(v);
      ++pos;
    }
    if (!replanned) break;
  }
  return placement;
}

}  // namespace mecra::admission
