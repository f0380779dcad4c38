#include "dft/scan.h"

#include <algorithm>
#include <set>

#include "synth/library.h"

namespace satpg {

namespace {

// FF dependency graph: edge i -> j when FF j's D cone reads FF i's Q
// through combinational logic only (direct FF-to-FF wires count too).
std::vector<std::vector<int>> ff_dependency_graph(const Netlist& nl) {
  const int n = static_cast<int>(nl.num_dffs());
  std::vector<int> ff_index(nl.num_nodes(), -1);
  for (std::size_t i = 0; i < nl.dffs().size(); ++i)
    ff_index[static_cast<std::size_t>(nl.dffs()[i])] = static_cast<int>(i);

  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<bool> seen(nl.num_nodes(), false);
    std::vector<NodeId> stack{nl.dffs()[static_cast<std::size_t>(i)]};
    std::set<int> hits;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId s : nl.fanouts(u)) {
        if (seen[static_cast<std::size_t>(s)]) continue;
        seen[static_cast<std::size_t>(s)] = true;
        const auto& node = nl.node(s);
        if (node.type == GateType::kDff)
          hits.insert(ff_index[static_cast<std::size_t>(s)]);
        else if (node.type != GateType::kOutput)
          stack.push_back(s);
      }
    }
    for (int h : hits) adj[static_cast<std::size_t>(i)].push_back(h);
  }
  return adj;
}

// Is the subgraph induced by keeping only `alive` vertices acyclic?
bool acyclic_without(const std::vector<std::vector<int>>& adj,
                     const std::vector<bool>& removed) {
  const int n = static_cast<int>(adj.size());
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (int u = 0; u < n; ++u) {
    if (removed[static_cast<std::size_t>(u)]) continue;
    for (int v : adj[static_cast<std::size_t>(u)])
      if (!removed[static_cast<std::size_t>(v)])
        ++indeg[static_cast<std::size_t>(v)];
  }
  std::vector<int> ready;
  int alive = 0;
  for (int v = 0; v < n; ++v) {
    if (removed[static_cast<std::size_t>(v)]) continue;
    ++alive;
    if (indeg[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  int emitted = 0;
  while (!ready.empty()) {
    const int v = ready.back();
    ready.pop_back();
    ++emitted;
    for (int s : adj[static_cast<std::size_t>(v)]) {
      if (removed[static_cast<std::size_t>(s)]) continue;
      if (--indeg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  return emitted == alive;
}

}  // namespace

bool breaks_all_cycles(const Netlist& nl,
                       const std::vector<NodeId>& scanned) {
  const auto adj = ff_dependency_graph(nl);
  std::vector<bool> removed(nl.num_dffs(), false);
  std::vector<int> ff_index(nl.num_nodes(), -1);
  for (std::size_t i = 0; i < nl.dffs().size(); ++i)
    ff_index[static_cast<std::size_t>(nl.dffs()[i])] = static_cast<int>(i);
  for (NodeId ff : scanned) {
    const int idx = ff_index[static_cast<std::size_t>(ff)];
    SATPG_CHECK_MSG(idx >= 0, "breaks_all_cycles: not a DFF");
    removed[static_cast<std::size_t>(idx)] = true;
  }
  return acyclic_without(adj, removed);
}

std::vector<NodeId> select_cycle_breaking_ffs(const Netlist& nl) {
  const auto adj = ff_dependency_graph(nl);
  const int n = static_cast<int>(adj.size());
  std::vector<bool> removed(static_cast<std::size_t>(n), false);
  std::vector<NodeId> picked;

  // Greedy: while cyclic, remove the vertex with the highest degree
  // product (classic MFVS heuristic); self-loop vertices first.
  while (!acyclic_without(adj, removed)) {
    int best = -1;
    long best_score = -1;
    for (int v = 0; v < n; ++v) {
      if (removed[static_cast<std::size_t>(v)]) continue;
      long out = 0, in = 0;
      bool self = false;
      for (int s : adj[static_cast<std::size_t>(v)]) {
        if (removed[static_cast<std::size_t>(s)]) continue;
        ++out;
        if (s == v) self = true;
      }
      for (int u = 0; u < n; ++u) {
        if (removed[static_cast<std::size_t>(u)]) continue;
        for (int s : adj[static_cast<std::size_t>(u)])
          if (s == v) ++in;
      }
      const long score = (self ? 1'000'000 : 0) + in * out;
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    SATPG_CHECK(best >= 0);
    removed[static_cast<std::size_t>(best)] = true;
    picked.push_back(nl.dffs()[static_cast<std::size_t>(best)]);
  }
  return picked;
}

ScanResult insert_partial_scan(const Netlist& nl,
                               const std::vector<NodeId>& ffs) {
  for (NodeId ff : ffs)
    SATPG_CHECK_MSG(nl.node(ff).type == GateType::kDff,
                    "insert_partial_scan: id is not a DFF");

  ScanResult res{nl.clone(nl.name() + ".scan"), {}, kNoNode, kNoNode,
                 kNoNode};
  Netlist& out = res.netlist;
  res.scan_in = out.add_input("scan_in");
  res.scan_en = out.add_input("scan_en");
  const NodeId nse = out.add_gate(GateType::kNot, "scan_nen", {res.scan_en});

  NodeId prev_q = res.scan_in;
  int seq = 0;
  for (NodeId ff : ffs) {
    // Same id space: clone preserves node ids.
    const NodeId d = out.node(ff).fanins[0];
    const std::string base = "scan" + std::to_string(seq++);
    // D' = (D & !scan_en) | (prev_q & scan_en)
    const NodeId func = out.add_gate(GateType::kAnd, base + "_func",
                                     {d, nse});
    const NodeId shift = out.add_gate(GateType::kAnd, base + "_shift",
                                      {prev_q, res.scan_en});
    const NodeId mux = out.add_gate(GateType::kOr, base + "_mux",
                                    {func, shift});
    out.set_fanin(ff, 0, mux);
    prev_q = ff;
    res.chain.push_back(ff);
  }
  res.scan_out = out.add_output("scan_out", prev_q);
  annotate_library(out);
  SATPG_CHECK(out.validate() == std::nullopt);
  return res;
}

ScanResult insert_full_scan(const Netlist& nl) {
  return insert_partial_scan(nl, nl.dffs());
}

}  // namespace satpg
