// Bounded l-hop queries over a CsrGraph.
//
// The paper's placement rules are all l-hop predicates: every backup of a
// primary at v must sit in N_l^+(v) (Section 4.2), and promotion and the
// update-latency report count hops from an active to its standbys. A full
// BFS per query is O(V + E) time and one O(V) allocation per call, the
// dominant admission cost beyond a few hundred APs. The oracle answers the
// same queries exactly (bit-identical to BFS) with a bounded BFS over the
// packed CSR arrays and epoch-stamped scratch: O(|ball(v, l)|) time for
// `l_hop_members` / `members_within`, and for `hops_to_targets` a walk
// that stops once every target is settled. Steady-state queries allocate
// only their result and never touch the other V - |ball| nodes.
//
// There is no index: the oracle is a view of the CSR and costs nothing to
// build. tests/csr_oracle_test.cpp checks every query against the legacy
// adjacency-list BFS over random, generated and disconnected topologies.
//
// Thread safety: queries use thread_local scratch and are safe from any
// thread. Lifetime: the oracle keeps a pointer to the CsrGraph it views and
// must not outlive it.
//
// Lock discipline: the only shared state is the CSR pointer, set at
// construction and never written again, so concurrent queries need no
// mutex. The epoch-stamped thread_local scratch is the ONLY mutable state
// and is never shared. Keep it that way: any field a query could write must
// either stay thread_local or become MECRA_GUARDED_BY a util::Mutex
// (util/thread_annotations.h) so the clang -Wthread-safety build proves the
// new protocol instead of TSan sampling it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/algorithms.h"
#include "graph/csr.h"

namespace mecra::graph {

/// Index footprint. The oracle builds no index, so every field reads 0.
/// Kept only because the benchmark harness (perfbench) reports
/// `stats().conf_bytes` as `graph.oracle_mb`; it goes with the next change
/// to the benchmark.
struct HopOracleStats {
  std::size_t conf_bytes = 0;
};

class HopOracle {
 public:
  HopOracle() = default;
  /// A view of `g`, which must outlive the oracle.
  explicit HopOracle(const CsrGraph& g) : g_(&g) {}

  [[nodiscard]] std::size_t num_nodes() const { return csr().num_nodes(); }
  /// Always all zeros; kept only for the benchmark (see HopOracleStats).
  [[nodiscard]] HopOracleStats stats() const noexcept { return {}; }
  [[nodiscard]] const CsrGraph& csr() const {
    MECRA_CHECK(g_ != nullptr);
    return *g_;
  }

  /// The paper's N_l(v): nodes within `l` hops EXCLUDING v, ascending.
  /// Bit-identical to graph::l_hop_neighbors. l == 0 yields {}.
  [[nodiscard]] std::vector<NodeId> l_hop_members(NodeId v,
                                                  std::uint32_t l) const;

  /// N_l^+(v): nodes within `l` hops INCLUDING v, ascending.
  [[nodiscard]] std::vector<NodeId> members_within(NodeId v,
                                                   std::uint32_t l) const;

  /// Exact hop distances from `source` to each of `targets` (kUnreachable
  /// when disconnected), parallel to `targets`. The BFS stops as soon as
  /// every target is settled, so near targets cost O(ball) not O(V).
  [[nodiscard]] std::vector<std::uint32_t> hops_to_targets(
      NodeId source, std::span<const NodeId> targets) const;

 private:
  const CsrGraph* g_ = nullptr;
};

}  // namespace mecra::graph
