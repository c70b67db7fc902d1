#include "support/min_cost_flow.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/check.h"

namespace mecra::matching {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;
}  // namespace

MinCostFlow::MinCostFlow(std::size_t num_nodes) : adj_(num_nodes) {}

std::size_t MinCostFlow::add_arc(std::uint32_t u, std::uint32_t v,
                                 double capacity, double cost) {
  MECRA_CHECK(u < adj_.size() && v < adj_.size());
  MECRA_CHECK_MSG(capacity >= 0.0, "arc capacity must be non-negative");
  MECRA_CHECK_MSG(u != v, "self-loop arcs are not supported");
  const std::size_t fwd_idx = adj_[u].size();
  const std::size_t bwd_idx = adj_[v].size();
  adj_[u].push_back(Arc{v, capacity, cost, bwd_idx});
  adj_[v].push_back(Arc{u, 0.0, -cost, fwd_idx});
  arc_refs_.emplace_back(u, fwd_idx);
  original_capacity_.push_back(capacity);
  return arc_refs_.size() - 1;
}

MinCostFlow::Result MinCostFlow::solve(std::uint32_t s, std::uint32_t t,
                                       double flow_limit) {
  MECRA_CHECK(s < adj_.size() && t < adj_.size());
  MECRA_CHECK(s != t);
  const std::size_t n = adj_.size();

  // Bellman–Ford over arcs with residual capacity initializes potentials so
  // Dijkstra's reduced costs are non-negative even with negative arc costs.
  std::vector<double> potential(n, 0.0);
  for (std::size_t round = 0; round + 1 < n; ++round) {
    bool changed = false;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (potential[u] == kInf) continue;
      for (const Arc& a : adj_[u]) {
        if (a.capacity <= kEps) continue;
        if (potential[u] + a.cost < potential[a.to] - kEps) {
          potential[a.to] = potential[u] + a.cost;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }

  Result result;
  std::vector<double> dist(n);
  std::vector<std::uint32_t> prev_node(n);
  std::vector<std::size_t> prev_arc(n);

  while (result.max_flow < flow_limit - kEps) {
    std::fill(dist.begin(), dist.end(), kInf);
    dist[s] = 0.0;
    using Item = std::pair<double, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.emplace(0.0, s);
    while (!heap.empty()) {
      auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      for (std::size_t i = 0; i < adj_[u].size(); ++i) {
        const Arc& a = adj_[u][i];
        if (a.capacity <= kEps) continue;
        const double reduced = a.cost + potential[u] - potential[a.to];
        MECRA_DCHECK(reduced > -1e-6);
        const double nd = d + std::max(reduced, 0.0);
        if (nd < dist[a.to] - kEps) {
          dist[a.to] = nd;
          prev_node[a.to] = u;
          prev_arc[a.to] = i;
          heap.emplace(nd, a.to);
        }
      }
    }
    if (dist[t] == kInf) break;  // no augmenting path remains

    for (std::uint32_t v = 0; v < n; ++v) {
      if (dist[v] < kInf) potential[v] += dist[v];
    }

    // Bottleneck along the path.
    double push = flow_limit - result.max_flow;
    for (std::uint32_t v = t; v != s; v = prev_node[v]) {
      push = std::min(push, adj_[prev_node[v]][prev_arc[v]].capacity);
    }
    MECRA_CHECK(push > kEps);
    for (std::uint32_t v = t; v != s; v = prev_node[v]) {
      Arc& fwd = adj_[prev_node[v]][prev_arc[v]];
      fwd.capacity -= push;
      adj_[fwd.to][fwd.rev].capacity += push;
      result.total_cost += push * fwd.cost;
    }
    result.max_flow += push;
  }
  return result;
}

double MinCostFlow::flow_on(std::size_t arc_id) const {
  MECRA_CHECK(arc_id < arc_refs_.size());
  const auto [u, idx] = arc_refs_[arc_id];
  return original_capacity_[arc_id] - adj_[u][idx].capacity;
}

}  // namespace mecra::matching
