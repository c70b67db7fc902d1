// Independent output checker.
//
// Recomputes the paper's invariants from the program's outputs with code
// of its own: it uses neither core::validate, the network's HopOracle, nor
// the orchestrator's reliability bookkeeping. Each check returns an empty
// string when it holds and a description of the violation otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/augmentation.h"
#include "graph/graph.h"
#include "ilp/branch_and_bound.h"
#include "inputs.h"
#include "orchestrator/orchestrator.h"

namespace perfbench::check {

/// Hop distances by a bounded BFS over an adjacency built from the
/// topology's edge list.
class Hops {
 public:
  explicit Hops(const graph::Graph& g);
  /// True when `b` lies within `l` hops of `a` (a itself at 0 hops).
  [[nodiscard]] bool within(graph::NodeId a, graph::NodeId b,
                            std::uint32_t l);

 private:
  std::vector<std::vector<graph::NodeId>> adj_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t epoch_ = 0;
  std::vector<graph::NodeId> frontier_;
  std::vector<graph::NodeId> next_;
};

/// Eq. (2): prod_i (1 - (1 - r_i)^{n_i}) over the chain, where n_i counts
/// the instances of position i (Eq. (1)).
[[nodiscard]] double chain_reliability(const mec::VnfCatalog& catalog,
                                       const mec::SfcRequest& request,
                                       const std::vector<std::uint32_t>& n);

/// A service as admitted: exactly one running active per position, every
/// instance on a cloudlet, every standby within l hops of its position's
/// active. Stores the recomputed Eq. (2) reliability in `reliability`.
[[nodiscard]] std::string admitted_service(const orchestrator::Service& svc,
                                           const mec::MecNetwork& network,
                                           const mec::VnfCatalog& catalog,
                                           Hops& hops, std::uint32_t l,
                                           double& reliability);

/// Standbys placed after admission (by Controller::reconcile): every
/// running standby with an id of at least `first_new` lies within l hops of
/// its position's running active. Checked right after the placing call,
/// since a later promotion moves the active the standby was placed for.
[[nodiscard]] std::string placed_standbys(const orchestrator::Service& svc,
                                          Hops& hops, std::uint32_t l,
                                          orchestrator::InstanceId first_new);

/// Per-cloudlet capacity conservation: capacity minus the demands of every
/// live instance (running or failed, failed ones still hold their slot)
/// equals the residual, and no residual is negative.
[[nodiscard]] std::string capacity(const orchestrator::Orchestrator& orch);

/// Two orchestrators hold the same services (ids, requests, instances,
/// states), residuals, down cloudlets and id counters.
[[nodiscard]] std::string same_state(const orchestrator::Orchestrator& a,
                                     const orchestrator::Orchestrator& b);

/// One algorithm's result on a paper instance: placements on cloudlets
/// within l hops of their primary, load within `capacity_factor` times
/// each cloudlet's capacity (2 for Algorithm 1, 1 otherwise), and the
/// reported reliability equal to the recomputed one, stored in
/// `reliability`.
[[nodiscard]] std::string paper_result(const PaperInstance& p,
                                       const core::AugmentationResult& result,
                                       double capacity_factor, Hops& hops,
                                       double& reliability);

/// The untrimmed ILP gain ln(u/u0) is at least the untrimmed Algorithm 2
/// gain, within the ILP's MIP gap.
[[nodiscard]] std::string paper_gain(const PaperInstance& p,
                                     const core::AugmentationResult& ilp,
                                     const core::AugmentationResult& heuristic,
                                     const mecra::ilp::IlpOptions& gap);

}  // namespace perfbench::check
