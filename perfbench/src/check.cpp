#include "check.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

namespace perfbench::check {

namespace {

template <typename... Parts>
std::string describe(const Parts&... parts) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << parts);
  return out.str();
}

double demand(const mec::VnfCatalog& catalog, const mec::SfcRequest& request,
              std::uint32_t pos) {
  return catalog.function(request.chain.at(pos)).cpu_demand;
}

}  // namespace

Hops::Hops(const graph::Graph& g)
    : adj_(g.num_nodes()), seen_(g.num_nodes(), 0) {
  for (const graph::Edge& e : g.edges()) {
    adj_[e.u].push_back(e.v);
    adj_[e.v].push_back(e.u);
  }
}

bool Hops::within(graph::NodeId a, graph::NodeId b, std::uint32_t l) {
  if (a == b) return true;
  if (a >= adj_.size() || b >= adj_.size()) return false;
  ++epoch_;
  seen_[a] = epoch_;
  frontier_.assign(1, a);
  for (std::uint32_t depth = 0; depth < l && !frontier_.empty(); ++depth) {
    next_.clear();
    for (graph::NodeId u : frontier_) {
      for (graph::NodeId v : adj_[u]) {
        if (seen_[v] == epoch_) continue;
        if (v == b) return true;
        seen_[v] = epoch_;
        next_.push_back(v);
      }
    }
    frontier_.swap(next_);
  }
  return false;
}

double chain_reliability(const mec::VnfCatalog& catalog,
                         const mec::SfcRequest& request,
                         const std::vector<std::uint32_t>& n) {
  double u = 1.0;
  for (std::size_t i = 0; i < request.chain.size(); ++i) {
    const double r = catalog.function(request.chain[i]).reliability;
    u *= 1.0 - std::pow(1.0 - r, static_cast<double>(n.at(i)));
  }
  return u;
}

std::string admitted_service(const orchestrator::Service& svc,
                             const mec::MecNetwork& network,
                             const mec::VnfCatalog& catalog, Hops& hops,
                             std::uint32_t l, double& reliability) {
  const std::size_t len = svc.request.chain.size();
  std::vector<std::uint32_t> count(len, 0);
  std::vector<std::int64_t> active(len, -1);
  for (const orchestrator::Instance& inst : svc.instances) {
    if (inst.chain_pos >= len) {
      return describe("service ", svc.id, ": instance ", inst.id,
                      " at chain position ", inst.chain_pos, " of ", len);
    }
    if (inst.state != orchestrator::InstanceState::kRunning) {
      return describe("service ", svc.id, ": instance ", inst.id,
                      " not running at admission");
    }
    if (inst.cloudlet >= network.num_nodes() ||
        network.capacity(inst.cloudlet) <= 0.0) {
      return describe("service ", svc.id, ": instance ", inst.id,
                      " on non-cloudlet node ", inst.cloudlet);
    }
    ++count[inst.chain_pos];
    if (inst.role == orchestrator::InstanceRole::kActive) {
      if (active[inst.chain_pos] >= 0) {
        return describe("service ", svc.id, ": two actives at position ",
                        inst.chain_pos);
      }
      active[inst.chain_pos] = inst.cloudlet;
    }
  }
  for (std::size_t i = 0; i < len; ++i) {
    if (active[i] < 0) {
      return describe("service ", svc.id, ": no active at position ", i);
    }
  }
  for (const orchestrator::Instance& inst : svc.instances) {
    if (inst.role != orchestrator::InstanceRole::kStandby) continue;
    const auto primary = static_cast<graph::NodeId>(active[inst.chain_pos]);
    if (!hops.within(primary, inst.cloudlet, l)) {
      return describe("service ", svc.id, ": standby ", inst.id, " at ",
                      inst.cloudlet, " is more than ", l,
                      " hops from its active at ", primary);
    }
  }
  reliability = chain_reliability(catalog, svc.request, count);
  return {};
}

std::string placed_standbys(const orchestrator::Service& svc, Hops& hops,
                            std::uint32_t l,
                            orchestrator::InstanceId first_new) {
  for (const orchestrator::Instance& inst : svc.instances) {
    if (inst.id < first_new ||
        inst.role != orchestrator::InstanceRole::kStandby ||
        inst.state != orchestrator::InstanceState::kRunning) {
      continue;
    }
    const orchestrator::Instance* active = nullptr;
    for (const orchestrator::Instance& a : svc.instances) {
      if (a.chain_pos == inst.chain_pos &&
          a.role == orchestrator::InstanceRole::kActive &&
          a.state == orchestrator::InstanceState::kRunning) {
        active = &a;
      }
    }
    if (active == nullptr) {
      return describe("service ", svc.id, ": standby ", inst.id,
                      " placed at a position without a running active");
    }
    if (!hops.within(active->cloudlet, inst.cloudlet, l)) {
      return describe("service ", svc.id, ": standby ", inst.id, " at ",
                      inst.cloudlet, " placed more than ", l,
                      " hops from its active at ", active->cloudlet);
    }
  }
  return {};
}

std::string capacity(const orchestrator::Orchestrator& orch) {
  const mec::MecNetwork& net = orch.network();
  std::vector<double> used(net.num_nodes(), 0.0);
  for (orchestrator::ServiceId id : orch.services()) {
    const orchestrator::Service& svc = orch.service(id);
    for (const orchestrator::Instance& inst : svc.instances) {
      used.at(inst.cloudlet) += demand(orch.catalog(), svc.request,
                                       inst.chain_pos);
    }
  }
  for (std::size_t v = 0; v < net.num_nodes(); ++v) {
    const auto node = static_cast<graph::NodeId>(v);
    const double cap = net.capacity(node);
    const double residual = net.residual(node);
    if (cap <= 0.0) {
      if (used[v] != 0.0) {
        return describe("node ", v, " hosts instances but is no cloudlet");
      }
      continue;
    }
    if (residual < -1e-9 * cap) {
      return describe("cloudlet ", v, " over capacity: residual ", residual);
    }
    if (std::abs(cap - used[v] - residual) > 1e-6 * cap) {
      return describe("cloudlet ", v, ": capacity ", cap, " - live demand ",
                      used[v], " != residual ", residual);
    }
  }
  return {};
}

std::string same_state(const orchestrator::Orchestrator& a,
                       const orchestrator::Orchestrator& b) {
  const std::vector<orchestrator::ServiceId> ids = a.services();
  if (ids != b.services()) {
    return describe("service sets differ: ", ids.size(), " vs ",
                    b.services().size(), " live");
  }
  for (orchestrator::ServiceId id : ids) {
    const orchestrator::Service& x = a.service(id);
    const orchestrator::Service& y = b.service(id);
    const bool same_request = x.request.chain == y.request.chain &&
                              x.request.expectation == y.request.expectation &&
                              x.request.source == y.request.source &&
                              x.request.destination == y.request.destination;
    bool same_instances = x.instances.size() == y.instances.size();
    for (std::size_t i = 0; same_instances && i < x.instances.size(); ++i) {
      const orchestrator::Instance& p = x.instances[i];
      const orchestrator::Instance& q = y.instances[i];
      same_instances = p.id == q.id && p.chain_pos == q.chain_pos &&
                       p.cloudlet == q.cloudlet && p.role == q.role &&
                       p.state == q.state;
    }
    if (!same_request || !same_instances || x.state != y.state) {
      return describe("service ", id, " differs");
    }
  }
  const mec::MecNetwork& na = a.network();
  const mec::MecNetwork& nb = b.network();
  if (na.num_nodes() != nb.num_nodes()) return "networks differ in size";
  for (std::size_t v = 0; v < na.num_nodes(); ++v) {
    const auto node = static_cast<graph::NodeId>(v);
    if (na.residual(node) != nb.residual(node)) {
      return describe("residual of node ", v, " differs: ", na.residual(node),
                      " vs ", nb.residual(node));
    }
  }
  if (a.down_cloudlets() != b.down_cloudlets()) return "down sets differ";
  if (a.next_service_id() != b.next_service_id() ||
      a.next_instance_id() != b.next_instance_id()) {
    return "id counters differ";
  }
  return {};
}

std::string paper_result(const PaperInstance& p,
                         const core::AugmentationResult& result,
                         double capacity_factor, Hops& hops,
                         double& reliability) {
  const std::size_t len = p.request.chain.size();
  const mec::MecNetwork& net = p.network;
  // Capacity each cloudlet had before augmentation: the residual fraction
  // of its capacity minus the primaries placed on it.
  std::vector<double> load(net.num_nodes(), 0.0);
  std::vector<double> avail(net.num_nodes(), 0.0);
  for (std::size_t v = 0; v < net.num_nodes(); ++v) {
    avail[v] = p.residual_fraction *
               net.capacity(static_cast<graph::NodeId>(v));
  }
  for (std::uint32_t i = 0; i < len; ++i) {
    avail.at(p.primaries.cloudlet_of.at(i)) -=
        demand(p.catalog, p.request, i);
  }
  std::vector<std::uint32_t> count(len, 1);
  for (const core::SecondaryPlacement& s : result.placements) {
    if (s.chain_pos >= len || s.cloudlet >= net.num_nodes() ||
        net.capacity(s.cloudlet) <= 0.0) {
      return describe(result.algorithm, ": placement (", s.chain_pos, ", ",
                      s.cloudlet, ") is no cloudlet of the chain");
    }
    const graph::NodeId primary = p.primaries.cloudlet_of[s.chain_pos];
    if (!hops.within(primary, s.cloudlet, p.l_hops)) {
      return describe(result.algorithm, ": backup at ", s.cloudlet,
                      " is more than ", p.l_hops, " hops from its primary at ",
                      primary);
    }
    ++count[s.chain_pos];
    load[s.cloudlet] += demand(p.catalog, p.request, s.chain_pos);
  }
  for (std::size_t v = 0; v < net.num_nodes(); ++v) {
    const double cap = net.capacity(static_cast<graph::NodeId>(v));
    if (load[v] > avail[v] + (capacity_factor - 1.0) * cap + 1e-6 * cap) {
      return describe(result.algorithm, ": cloudlet ", v, " loaded ",
                      load[v], " with ", avail[v], " free of ", cap,
                      " (allowed factor ", capacity_factor, ")");
    }
  }
  reliability = chain_reliability(p.catalog, p.request, count);
  if (std::abs(reliability - result.achieved_reliability) > 1e-9) {
    return describe(result.algorithm, ": reports reliability ",
                    result.achieved_reliability, ", placements give ",
                    reliability);
  }
  return {};
}

std::string paper_gain(const PaperInstance& p,
                       const core::AugmentationResult& ilp,
                       const core::AugmentationResult& heuristic,
                       const mecra::ilp::IlpOptions& gap) {
  const std::size_t len = p.request.chain.size();
  auto gain = [&](const core::AugmentationResult& r) {
    std::vector<std::uint32_t> count(len, 1);
    for (const core::SecondaryPlacement& s : r.placements) {
      if (s.chain_pos < len) ++count[s.chain_pos];
    }
    return std::log(chain_reliability(p.catalog, p.request, count)) -
           std::log(chain_reliability(p.catalog, p.request,
                                      std::vector<std::uint32_t>(len, 1)));
  };
  const double g_ilp = gain(ilp);
  const double g_heu = gain(heuristic);
  const double slack =
      gap.relative_gap * std::abs(g_ilp) + gap.absolute_gap + 1e-9;
  if (g_ilp + slack < g_heu) {
    return describe("ILP gain ", g_ilp, " below Algorithm 2 gain ", g_heu);
  }
  return {};
}

}  // namespace perfbench::check
