#include "graph/hop_oracle.h"

#include <algorithm>

namespace mecra::graph {

namespace {

/// Per-thread query scratch shared by every oracle on the thread: epoch
/// stamps make clearing O(1) per query, so a bounded BFS touches only the
/// nodes it visits and never pays an O(V) reset or allocation.
struct Scratch {
  std::vector<std::uint32_t> stamp;  // stamp[v] == epoch => dist[v] valid
  std::vector<std::uint32_t> dist;
  std::vector<std::uint32_t> mark;   // second stamp lane (target marking)
  std::vector<NodeId> queue;
  std::uint32_t epoch = 0;
};

Scratch& local_scratch(std::size_t n) {
  thread_local Scratch s;
  if (s.stamp.size() < n) {
    s.stamp.resize(n, 0);
    s.dist.resize(n);
    s.mark.resize(n, 0);
  }
  return s;
}

std::uint32_t next_epoch(Scratch& s) {
  if (++s.epoch == 0) {  // wrapped after 2^32 queries: hard reset once
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    std::fill(s.mark.begin(), s.mark.end(), 0);
    s.epoch = 1;
  }
  return s.epoch;
}

}  // namespace

std::vector<NodeId> HopOracle::members_within(NodeId v,
                                              std::uint32_t l) const {
  const CsrGraph& g = csr();
  MECRA_CHECK(v < g.num_nodes());
  Scratch& s = local_scratch(g.num_nodes());
  const std::uint32_t epoch = next_epoch(s);
  s.queue.clear();
  s.queue.push_back(v);
  s.stamp[v] = epoch;
  s.dist[v] = 0;
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const NodeId x = s.queue[head];
    if (s.dist[x] >= l) break;  // queue is sorted by distance
    for (NodeId w : g.neighbors(x)) {
      if (s.stamp[w] == epoch) continue;
      s.stamp[w] = epoch;
      s.dist[w] = s.dist[x] + 1;
      s.queue.push_back(w);
    }
  }
  std::vector<NodeId> out(s.queue.begin(), s.queue.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> HopOracle::l_hop_members(NodeId v, std::uint32_t l) const {
  auto out = members_within(v, l);
  out.erase(std::lower_bound(out.begin(), out.end(), v));
  return out;
}

std::vector<std::uint32_t> HopOracle::hops_to_targets(
    NodeId source, std::span<const NodeId> targets) const {
  const CsrGraph& g = csr();
  MECRA_CHECK(source < g.num_nodes());
  std::vector<std::uint32_t> out(targets.size(), kUnreachable);
  if (targets.empty()) return out;

  Scratch& s = local_scratch(g.num_nodes());
  const std::uint32_t epoch = next_epoch(s);
  std::size_t remaining = 0;
  for (const NodeId t : targets) {
    MECRA_CHECK(t < g.num_nodes());
    if (s.mark[t] != epoch) {
      s.mark[t] = epoch;
      ++remaining;
    }
  }
  s.queue.clear();
  s.queue.push_back(source);
  s.stamp[source] = epoch;
  s.dist[source] = 0;
  if (s.mark[source] == epoch) --remaining;
  for (std::size_t head = 0; head < s.queue.size() && remaining > 0; ++head) {
    const NodeId x = s.queue[head];
    for (NodeId w : g.neighbors(x)) {
      if (s.stamp[w] == epoch) continue;
      s.stamp[w] = epoch;
      s.dist[w] = s.dist[x] + 1;
      s.queue.push_back(w);
      if (s.mark[w] == epoch && --remaining == 0) break;
    }
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (s.stamp[targets[i]] == epoch) out[i] = s.dist[targets[i]];
  }
  return out;
}

}  // namespace mecra::graph
