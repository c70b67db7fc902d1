// Machine-readable graph-core performance snapshot.
//
// Builds the CSR graph over three topology scales (1k Waxman APs, 10k and
// 100k cell-bucketed geometric APs) and measures, per scale:
//
//   * build cost: CsrGraph wall time and footprint (the l-hop oracle is a
//     view of the CSR and builds nothing);
//   * query throughput, oracle vs a per-query full BFS over the
//     adjacency-list Graph, for the two queries placement asks:
//     l_hop_members (the paper's N_l(v)) and hops_to_targets from a node
//     to a few members of its l-ball (the promotion / update-latency
//     shape: standbys sit within l of their active);
//   * peak RSS — the 100k row doubles as proof that the queries serve
//     continental scale without any O(V^2) table.
//
// Every measured query is also checked against the BFS answer, so the
// snapshot doubles as an end-to-end equivalence run.
//
// Flags (same scheme as perf_snapshot / batch_throughput):
//   --out <path>            output path (default BENCH_graph.json)
//   --quick                 fewer queries per op (CI mode; still builds
//                           the 100k CSR — that is the smoke test)
//   --queries <n>           override queries per op
//   --check-against <path>  compare baseline-normalized oracle time
//                           (oracle_ms / bfs_ms, host speed cancels)
//                           against a committed snapshot; exit non-zero
//                           on regression beyond --regression-factor
//   --regression-factor <x> regression threshold (default 2.0)
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/hop_oracle.h"
#include "graph/topology.h"
#include "io/json.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace mecra;

struct Workload {
  std::string key;
  graph::Graph legacy;  // the pre-PR adjacency-list representation
  // Heap-allocated so its address survives moving the Workload: the oracle
  // holds a pointer to the CsrGraph it views (same reason MecNetwork
  // shares its CSR through shared_ptr).
  std::shared_ptr<const graph::CsrGraph> csr;
  graph::HopOracle oracle;
  double csr_build_ms = 0.0;
};

Workload make_workload(const std::string& key, graph::Graph g) {
  Workload w;
  w.key = key;
  w.legacy = std::move(g);
  util::Timer csr_timer;
  w.csr = std::make_shared<const graph::CsrGraph>(
      graph::CsrGraph::build(w.legacy));
  w.csr_build_ms = csr_timer.elapsed_ms();
  w.oracle = graph::HopOracle(*w.csr);
  return w;
}

struct QueryResult {
  std::string key;
  std::size_t queries = 0;
  double bfs_ms = 0.0;
  double oracle_ms = 0.0;
};

/// The pre-PR answer to N_l(v): one full-network BFS, then filter.
std::vector<graph::NodeId> bfs_l_hop(const graph::Graph& g, graph::NodeId v,
                                     std::uint32_t l) {
  return graph::l_hop_neighbors(g, v, l);
}

/// The oracle side always times at least this many distinct queries and
/// scales its time back to the op's query count. A --quick run's 48 oracle
/// queries take tens of microseconds, too short to time in one reading,
/// and timing the same stream in both modes keeps quick and full ratios
/// comparable. The BFS side times only the first `queries` of the stream.
constexpr std::size_t kMinOracleQueries = 256;

double scaled_to(std::size_t queries, std::size_t timed, double ms) {
  return timed == 0 ? 0.0
                    : ms * static_cast<double>(queries) /
                          static_cast<double>(timed);
}

QueryResult measure_l_hop_members(const Workload& w, std::uint32_t l,
                                  std::size_t queries) {
  util::Rng rng(0xA11CE);
  std::vector<graph::NodeId> sources(std::max(queries, kMinOracleQueries));
  for (auto& v : sources) {
    v = static_cast<graph::NodeId>(rng.index(w.legacy.num_nodes()));
  }
  QueryResult r;
  r.key = "l_hop_members_l" + std::to_string(l);
  r.queries = queries;
  std::vector<std::size_t> bfs_sizes(queries);
  std::vector<std::size_t> oracle_sizes(sources.size());
  {
    const util::Timer t;
    for (std::size_t i = 0; i < queries; ++i) {
      bfs_sizes[i] = bfs_l_hop(w.legacy, sources[i], l).size();
    }
    r.bfs_ms = t.elapsed_ms();
  }
  // One untimed query sizes this thread's scratch: a long-running caller
  // pays that once, not per query.
  (void)w.oracle.l_hop_members(sources.front(), l);
  {
    const util::Timer t;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      oracle_sizes[i] = w.oracle.l_hop_members(sources[i], l).size();
    }
    r.oracle_ms = scaled_to(queries, sources.size(), t.elapsed_ms());
  }
  oracle_sizes.resize(queries);
  MECRA_CHECK_MSG(bfs_sizes == oracle_sizes,
                  "oracle l_hop_members diverged from BFS");
  return r;
}

/// Hops from a random node to `kTargets` members of its l-ball, the shape
/// of promotion and the update-latency report (standbys sit within l of
/// their active): the oracle's BFS stops once every target is settled.
QueryResult measure_hops_to_targets(const Workload& w, std::uint32_t l,
                                    std::size_t queries) {
  constexpr std::size_t kTargets = 3;
  util::Rng rng(0xD157);
  const std::size_t timed = std::max(queries, kMinOracleQueries);
  std::vector<graph::NodeId> sources(timed);
  std::vector<std::vector<graph::NodeId>> targets(timed);
  for (std::size_t i = 0; i < timed; ++i) {
    sources[i] = static_cast<graph::NodeId>(rng.index(w.legacy.num_nodes()));
    const auto ball = w.oracle.members_within(sources[i], l);
    for (std::size_t t = 0; t < kTargets; ++t) {
      targets[i].push_back(ball[rng.index(ball.size())]);
    }
  }
  QueryResult r;
  r.key = "hops_to_targets_l" + std::to_string(l);
  r.queries = queries;
  std::vector<std::vector<std::uint32_t>> bfs_ans(queries);
  std::vector<std::vector<std::uint32_t>> oracle_ans(timed);
  {
    const util::Timer t;
    for (std::size_t i = 0; i < queries; ++i) {
      const auto hops = graph::bfs_hops(w.legacy, sources[i]);
      for (const graph::NodeId v : targets[i]) bfs_ans[i].push_back(hops[v]);
    }
    r.bfs_ms = t.elapsed_ms();
  }
  {
    const util::Timer t;
    for (std::size_t i = 0; i < timed; ++i) {
      oracle_ans[i] = w.oracle.hops_to_targets(sources[i], targets[i]);
    }
    r.oracle_ms = scaled_to(queries, timed, t.elapsed_ms());
  }
  oracle_ans.resize(queries);
  MECRA_CHECK_MSG(bfs_ans == oracle_ans,
                  "oracle hops_to_targets diverged from BFS");
  return r;
}

io::Json to_json(const QueryResult& r) {
  io::JsonObject o;
  o.set("key", r.key);
  o.set("queries", r.queries);
  o.set("bfs_ms", r.bfs_ms);
  o.set("oracle_ms", r.oracle_ms);
  const double speedup = r.oracle_ms > 0.0 ? r.bfs_ms / r.oracle_ms : 0.0;
  o.set("speedup", speedup);
  o.set("oracle_qps", r.oracle_ms > 0.0 ? 1e3 * static_cast<double>(r.queries) /
                                              r.oracle_ms
                                        : 0.0);
  return io::Json(std::move(o));
}

double peak_rss_mb() {
  struct rusage usage {};
  MECRA_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int check_against(const io::Json& fresh, const std::string& path,
                  double factor) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "check-against: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const io::Json committed = io::Json::parse(buf.str());

  int failures = 0;
  const auto& committed_runs = committed.as_object().at("topologies").as_array();
  const auto& fresh_runs = fresh.as_object().at("topologies").as_array();
  for (const auto& committed_run : committed_runs) {
    const auto& cobj = committed_run.as_object();
    const std::string& key = cobj.at("key").as_string();
    const io::JsonObject* fobj = nullptr;
    for (const auto& fr : fresh_runs) {
      if (fr.as_object().at("key").as_string() == key) {
        fobj = &fr.as_object();
        break;
      }
    }
    if (fobj == nullptr) continue;
    const auto& committed_queries = cobj.at("queries").as_array();
    const auto& fresh_queries = fobj->at("queries").as_array();
    for (const auto& cq : committed_queries) {
      const std::string& qkey = cq.as_object().at("key").as_string();
      for (const auto& fq : fresh_queries) {
        if (fq.as_object().at("key").as_string() != qkey) continue;
        // Compare BASELINE-NORMALIZED oracle time (oracle_ms / bfs_ms):
        // both run in the same process on the same machine, so host speed
        // cancels and the committed snapshot is portable to CI runners.
        const auto relative = [](const io::JsonObject& q) {
          const double bfs = q.at("bfs_ms").as_double();
          const double oracle = q.at("oracle_ms").as_double();
          return bfs > 0.0 ? oracle / bfs : 1.0;
        };
        const double committed_rel = relative(cq.as_object());
        const double fresh_rel = relative(fq.as_object());
        const bool regressed = fresh_rel > factor * committed_rel;
        std::cout << (regressed ? "REGRESSED " : "ok        ") << key << "/"
                  << qkey << "  committed oracle/bfs=" << committed_rel
                  << " fresh oracle/bfs=" << fresh_rel << "\n";
        failures += regressed ? 1 : 0;
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::size_t queries = static_cast<std::size_t>(
      args.get_int("queries", quick ? 48 : 256));

  io::JsonObject root;
  root.set("schema", "mecra-graph-snapshot-v1");
  root.set("description",
           "CSR graph + l-hop oracle vs a per-query full "
           "adjacency-list BFS. speedup = bfs_ms / oracle_ms for the same "
           "queries_per_op queries of one stream (the oracle side times at "
           "least 256 and is scaled); every answer is cross-checked.");
  root.set("queries_per_op", queries);
  root.set("quick", quick);

  io::JsonArray topologies;
  std::cout << "topology     op                  bfs total   oracle tot  "
               "speedup\n";
  for (const std::string& key : {std::string("1k"), std::string("10k"),
                                 std::string("100k")}) {
    util::Rng rng(0x5EED);
    Workload w;
    if (key == "1k") {
      w = make_workload(
          key, graph::waxman({.num_nodes = 1000}, rng).graph);
    } else if (key == "10k") {
      w = make_workload(
          key,
          graph::random_geometric({.num_nodes = 10000}, rng).graph);
    } else {
      w = make_workload(
          key,
          graph::random_geometric({.num_nodes = 100000}, rng).graph);
    }

    io::JsonObject entry;
    entry.set("key", w.key);
    entry.set("nodes", w.legacy.num_nodes());
    entry.set("edges", w.legacy.num_edges());
    {
      io::JsonObject build;
      build.set("csr_ms", w.csr_build_ms);
      build.set("csr_bytes", w.csr->memory_bytes());
      entry.set("build", io::Json(std::move(build)));
    }

    io::JsonArray query_results;
    for (const QueryResult& r :
         {measure_l_hop_members(w, 2, queries),
          measure_hops_to_targets(w, 2, queries)}) {
      std::printf("%-12s %-18s %9.2fms %9.2fms %8.1fx\n", w.key.c_str(),
                  r.key.c_str(), r.bfs_ms, r.oracle_ms,
                  r.oracle_ms > 0.0 ? r.bfs_ms / r.oracle_ms : 0.0);
      query_results.push_back(to_json(r));
    }
    entry.set("queries", io::Json(std::move(query_results)));
    topologies.push_back(io::Json(std::move(entry)));
  }
  root.set("topologies", io::Json(std::move(topologies)));
  root.set("peak_rss_mb", peak_rss_mb());

  const io::Json snapshot(std::move(root));
  const std::string out_path = args.get("out", "BENCH_graph.json");
  {
    std::ofstream out(out_path);
    MECRA_CHECK_MSG(static_cast<bool>(out), "cannot write output file");
    out << snapshot.dump(2) << "\n";
  }
  std::cout << "\npeak rss " << peak_rss_mb() << " MB\nwrote " << out_path
            << "\n";

  if (args.has("check-against")) {
    const double factor = args.get_double("regression-factor", 2.0);
    return check_against(snapshot, args.get("check-against", ""), factor);
  }
  return 0;
}
