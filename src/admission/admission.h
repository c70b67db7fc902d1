// Request admission: placing the PRIMARY VNF instance of every function in
// an SFC onto cloudlets (Section 4.1). Two policies are provided:
//
//  * random_admission — the policy the paper's experiments use ("Each VNF
//    instance in the primary SFC deployed randomly into cloudlets").
//  * dag_admission — the maximum-reliability admission framework of
//    Section 4.1 (following reference [15]): a layered DAG whose layer i
//    holds the candidate cloudlets for f_i; a shortest s_j -> t_j path under
//    -log reliability edge weights yields the most reliable placement.
//    With the paper's uniform per-function reliabilities every placement
//    ties, so the framework also supports an optional per-cloudlet hosting
//    availability factor and a per-hop routing penalty, both defaulting to
//    the paper's assumptions (1.0 and 0).
//
// Admission CONSUMES residual capacity on the network for each placed
// primary; callers that only probe should work on a copy.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mec/network.h"
#include "mec/request.h"
#include "mec/vnf.h"
#include "util/rng.h"

namespace mecra::admission {

/// Cloudlet hosting each primary VNF instance, indexed by chain position.
struct PrimaryPlacement {
  std::vector<graph::NodeId> cloudlet_of;

  [[nodiscard]] std::size_t length() const noexcept {
    return cloudlet_of.size();
  }
};

/// Initial reliability of the admitted request: prod_i r_{f_i} (primaries
/// only, Eq. 1 with one instance each).
[[nodiscard]] double initial_reliability(const mec::VnfCatalog& catalog,
                                         const mec::SfcRequest& request);

/// Places each primary on a uniformly random cloudlet with enough residual
/// capacity, consuming it. Returns nullopt (consuming nothing) when some
/// function cannot fit anywhere.
[[nodiscard]] std::optional<PrimaryPlacement> random_admission(
    mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    const mec::SfcRequest& request, util::Rng& rng);

/// random_admission over a fixed candidate list, for one pass of many
/// requests that each seed their own Rng: the sharded batch path
/// (orchestrator::Orchestrator::admit_batch) keeps one pool per shard per
/// batch, over the shard's interior cloudlets, and one for its serial
/// fallback pass, over every cloudlet.
///
/// The pool leans on one property of such a pass: between two place()
/// calls residuals only fall (consumes, and rollbacks to captured values).
/// At the start of each request it re-reads the residuals, drops for good
/// the candidates below the catalog's smallest demand (they can host
/// nothing for the rest of the pass) and keeps the exact largest residual.
/// That maximum stays an upper bound until the next read, so a request
/// whose largest demand exceeds it is rejected in O(chain) before its Rng
/// is even seeded. Otherwise it draws exactly as random_admission does over
/// the remaining candidates, which filter to the same feasible lists, so
/// the placement and the residuals left behind are identical draw for
/// draw (asserted against random_admission in tests/admission_test.cpp).
///
/// A caller that RAISES a candidate's residual (a release) must call
/// invalidate() before the next place(): release is not bit-exact, so the
/// stored bound and the dropped candidates can no longer be trusted.
///
/// Thread safety: none; one pool per thread, over candidates no other
/// thread writes during the pass.
class PrimaryPool {
 public:
  /// `candidates` (cloudlet nodes, in draw order) must outlive the pool.
  PrimaryPool(const mec::VnfCatalog& catalog,
              const std::vector<graph::NodeId>& candidates);

  /// random_admission over the pool's candidates with a fresh
  /// util::Rng(seed), seeded only when the request is not rejected by the
  /// bound. Consumes capacity on success; consumes nothing otherwise.
  [[nodiscard]] std::optional<PrimaryPlacement> place(
      mec::MecNetwork& network, const mec::SfcRequest& request,
      std::uint64_t seed);

  /// Forgets the bound and restores every candidate (see the class note).
  void invalidate();

  /// Candidates still considered (those not yet dropped).
  [[nodiscard]] std::size_t live() const noexcept { return live_.size(); }
  /// Requests rejected by the bound alone, without a residual read or an
  /// Rng.
  [[nodiscard]] std::size_t bound_rejections() const noexcept {
    return bound_rejections_;
  }

 private:
  const mec::VnfCatalog& catalog_;
  const std::vector<graph::NodeId>& candidates_;
  double min_demand_;
  /// Upper bound on the residual of every live candidate; +inf = unknown.
  double bound_;
  std::vector<graph::NodeId> live_;
  std::size_t bound_rejections_ = 0;
  // Per-request scratch, reused across requests.
  std::vector<graph::NodeId> feasible_;
  std::vector<std::pair<graph::NodeId, double>> touched_;
};

struct DagAdmissionOptions {
  /// Per-cloudlet availability multiplier applied to every instance placed
  /// there; empty means 1.0 everywhere (the paper's uniform assumption).
  std::vector<double> host_availability;
  /// Additive -log-reliability penalty per topology hop between consecutive
  /// chain cloudlets (and from/to the request endpoints). 0 reproduces the
  /// pure max-reliability objective.
  double hop_penalty = 0.0;
};

/// Layered-DAG admission: maximizes the placement reliability
/// prod_i (r_{f_i} * availability(v_i)) minus hop penalties, subject to
/// residual capacities (greedy per-path capacity check: the chosen path is
/// recomputed with saturated cloudlets removed until it fits). Consumes
/// capacity on success.
[[nodiscard]] std::optional<PrimaryPlacement> dag_admission(
    mec::MecNetwork& network, const mec::VnfCatalog& catalog,
    const mec::SfcRequest& request, const DagAdmissionOptions& options = {});

}  // namespace mecra::admission
