// Generic min-cost max-flow (successive shortest paths with potentials).
//
// Test and bench support only: an independent cross-validation twin for the
// Hungarian matcher (tests reduce matching instances to flow and compare;
// micro_matching times both). Nothing under src/ uses it.
// Handles negative arc costs (no negative cycles) via one Bellman–Ford
// potential initialization, then Dijkstra per augmentation.
#pragma once

#include <cstdint>
#include <vector>

namespace mecra::matching {

class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t num_nodes);

  /// Adds a directed arc u -> v. Returns an arc id usable with flow_on().
  std::size_t add_arc(std::uint32_t u, std::uint32_t v, double capacity,
                      double cost);

  struct Result {
    double max_flow = 0.0;
    double total_cost = 0.0;
  };

  /// Sends as much flow as possible (up to `flow_limit`) from s to t at
  /// minimum total cost. May be called once per instance.
  Result solve(std::uint32_t s, std::uint32_t t,
               double flow_limit = kUnlimited);

  /// Flow routed on the arc returned by add_arc (valid after solve()).
  [[nodiscard]] double flow_on(std::size_t arc_id) const;

  static constexpr double kUnlimited = 1e300;

 private:
  struct Arc {
    std::uint32_t to;
    double capacity;  // residual
    double cost;
    std::size_t rev;  // index of the reverse arc in adj_[to]
  };

  std::vector<std::vector<Arc>> adj_;
  /// (node, index into adj_[node]) per added forward arc.
  std::vector<std::pair<std::uint32_t, std::size_t>> arc_refs_;
  std::vector<double> original_capacity_;
};

}  // namespace mecra::matching
