#include "analysis/structure.h"

#include <algorithm>
#include <set>
#include <vector>

#include "base/bitvec.h"
#include "retime/retime.h"

namespace satpg {

namespace {

// Compact view of the gate skeleton for the searches: per-vertex out-edge
// lists with (target, weight, ff-set-key) and host split into source/sink.
struct Skeleton {
  int nv = 0;  // comb vertices + 1 (vertex 0 = host)
  struct Arc {
    int to;
    int weight;
    std::vector<int> ff_ids;  // dense DFF indices on this connection
  };
  std::vector<std::vector<Arc>> out;
  int num_ffs = 0;
};

Skeleton build_skeleton(const Netlist& nl) {
  const RetimeGraph g = build_retime_graph(nl);
  Skeleton s;
  s.nv = g.num_vertices();
  s.out.assign(static_cast<std::size_t>(s.nv), {});
  // Dense DFF ids.
  std::vector<int> ff_index(nl.num_nodes(), -1);
  for (std::size_t i = 0; i < nl.dffs().size(); ++i)
    ff_index[static_cast<std::size_t>(nl.dffs()[i])] = static_cast<int>(i);
  s.num_ffs = static_cast<int>(nl.dffs().size());
  for (const auto& e : g.edges) {
    Skeleton::Arc a;
    a.to = e.to;
    a.weight = e.weight;
    for (NodeId ff : e.ffs)
      a.ff_ids.push_back(ff_index[static_cast<std::size_t>(ff)]);
    s.out[static_cast<std::size_t>(e.from)].push_back(std::move(a));
  }
  return s;
}

struct DepthSearch {
  const Skeleton& s;
  std::vector<bool> visited;  // comb vertices on the current path
  int best = -1;
  std::uint64_t steps = 0;
  std::uint64_t cap;
  bool saturated = false;
  std::vector<int> mark;     // scratch for the bound BFS (vertices)
  std::vector<int> ff_mark;  // scratch (FF ids)
  int mark_gen = 0;

  // Upper bound on additional FFs from v through unvisited vertices
  // (distinct FF identities — shared chains count once); -1 when the host
  // (sink) is unreachable.
  int reach_bound(int v) {
    ++mark_gen;
    bool sink_ok = false;
    int potential = 0;
    std::vector<int> stack{v};
    mark[static_cast<std::size_t>(v)] = mark_gen;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (const auto& a : s.out[static_cast<std::size_t>(u)]) {
        for (int id : a.ff_ids) {
          if (ff_mark[static_cast<std::size_t>(id)] != mark_gen) {
            ff_mark[static_cast<std::size_t>(id)] = mark_gen;
            ++potential;
          }
        }
        if (a.to == 0) {
          sink_ok = true;
          continue;
        }
        if (visited[static_cast<std::size_t>(a.to)]) continue;
        if (mark[static_cast<std::size_t>(a.to)] == mark_gen) continue;
        mark[static_cast<std::size_t>(a.to)] = mark_gen;
        stack.push_back(a.to);
      }
    }
    if (!sink_ok) return -1;
    return potential;
  }

  void dfs(int v, int ffs_so_far) {
    if (saturated) return;
    if (++steps > cap) {
      saturated = true;
      return;
    }
    const int bound = reach_bound(v);
    if (bound < 0) return;
    if (ffs_so_far + bound <= best) return;
    for (const auto& a : s.out[static_cast<std::size_t>(v)]) {
      if (a.to == 0) {  // reached the sink side of the host
        best = std::max(best, ffs_so_far + a.weight);
        continue;
      }
      if (visited[static_cast<std::size_t>(a.to)]) continue;
      visited[static_cast<std::size_t>(a.to)] = true;
      dfs(a.to, ffs_so_far + a.weight);
      visited[static_cast<std::size_t>(a.to)] = false;
      if (saturated) return;
    }
  }
};

}  // namespace

SeqDepthResult max_sequential_depth(const Netlist& nl,
                                    std::uint64_t step_cap) {
  const Skeleton s = build_skeleton(nl);
  DepthSearch search{s,
                     std::vector<bool>(static_cast<std::size_t>(s.nv), false),
                     -1,
                     0,
                     step_cap,
                     false,
                     std::vector<int>(static_cast<std::size_t>(s.nv), 0),
                     std::vector<int>(static_cast<std::size_t>(s.num_ffs), 0),
                     0};
  search.dfs(0, 0);  // host as source; arcs back to host close at the sink
  SeqDepthResult r;
  r.max_depth = std::max(0, search.best);
  r.saturated = search.saturated;
  return r;
}

namespace {

// Candidate cycles are enumerated on the flip-flop existence graph
// (FF u -> FF v when v's D input is reached from u's Q through
// combinational logic only, or v follows u directly in a register chain).
// That enumeration is cheap but ignores the definition's node-distinctness
// inside the combinational segments, so each *new* FF subset is verified
// once by greedily routing all segments through pairwise-disjoint gates.
struct FfLevel {
  int num_ffs = 0;
  std::vector<std::vector<int>> adj;          // FF id -> successor FF ids
  std::vector<std::vector<NodeId>> comb_out;  // FF id -> comb gates fed by Q
  std::vector<int> chain_next;                // direct FF->FF wire, or -1
  std::vector<NodeId> driver_gate;            // comb gate driving D, or kNoNode
  std::vector<NodeId> ff_node;                // dense id -> netlist node
};

FfLevel build_ff_level(const Netlist& nl) {
  FfLevel f;
  f.num_ffs = static_cast<int>(nl.num_dffs());
  f.adj.assign(static_cast<std::size_t>(f.num_ffs), {});
  f.comb_out.assign(static_cast<std::size_t>(f.num_ffs), {});
  f.chain_next.assign(static_cast<std::size_t>(f.num_ffs), -1);
  f.driver_gate.assign(static_cast<std::size_t>(f.num_ffs), kNoNode);
  std::vector<int> ff_index(nl.num_nodes(), -1);
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    ff_index[static_cast<std::size_t>(nl.dffs()[i])] = static_cast<int>(i);
    f.ff_node.push_back(nl.dffs()[i]);
  }
  for (int i = 0; i < f.num_ffs; ++i) {
    const NodeId q = f.ff_node[static_cast<std::size_t>(i)];
    const NodeId d = nl.node(q).fanins[0];
    if (nl.node(d).type == GateType::kDff) {
      // q follows d in a chain: edge d -> q.
      f.chain_next[static_cast<std::size_t>(
          ff_index[static_cast<std::size_t>(d)])] = i;
    } else if (is_combinational(nl.node(d).type)) {
      f.driver_gate[static_cast<std::size_t>(i)] = d;
    }
  }
  // Comb forward reachability from each Q to every FF D-driver gate.
  for (int i = 0; i < f.num_ffs; ++i) {
    const NodeId q = f.ff_node[static_cast<std::size_t>(i)];
    std::vector<bool> seen(nl.num_nodes(), false);
    std::vector<NodeId> stack{q};
    std::set<int> hits;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId sx : nl.fanouts(u)) {
        if (seen[static_cast<std::size_t>(sx)]) continue;
        seen[static_cast<std::size_t>(sx)] = true;
        const auto& n = nl.node(sx);
        if (n.type == GateType::kDff) continue;  // stop at registers
        if (n.type == GateType::kOutput) continue;
        stack.push_back(sx);
      }
    }
    for (int j = 0; j < f.num_ffs; ++j) {
      const NodeId drv = f.driver_gate[static_cast<std::size_t>(j)];
      if (drv != kNoNode && seen[static_cast<std::size_t>(drv)])
        hits.insert(j);
    }
    if (f.chain_next[static_cast<std::size_t>(i)] >= 0)
      hits.insert(f.chain_next[static_cast<std::size_t>(i)]);
    for (int h : hits) f.adj[static_cast<std::size_t>(i)].push_back(h);
  }
  return f;
}

// Greedy gate-disjoint verification: route every consecutive segment of the
// cycle through combinational gates no earlier segment used. BFS shortest
// routes, two rotation attempts — conservative (may reject a routable cycle
// in pathological sharing, never accepts an unroutable one).
bool verify_cycle_routing(const Netlist& nl, const FfLevel& f,
                          const std::vector<int>& cycle) {
  const std::size_t n = cycle.size();
  for (std::size_t rot = 0; rot < std::min<std::size_t>(n, 2); ++rot) {
    std::vector<bool> used(nl.num_nodes(), false);
    bool ok = true;
    for (std::size_t k = 0; k < n && ok; ++k) {
      const int a = cycle[(k + rot) % n];
      const int b = cycle[(k + rot + 1) % n];
      if (f.chain_next[static_cast<std::size_t>(a)] == b) continue;  // wire
      const NodeId target = f.driver_gate[static_cast<std::size_t>(b)];
      if (target == kNoNode) {
        ok = false;
        break;
      }
      // BFS from a's Q over unused comb gates to `target`; mark the found
      // path's gates used.
      const NodeId start = f.ff_node[static_cast<std::size_t>(a)];
      std::vector<NodeId> parent(nl.num_nodes(), kNoNode);
      std::vector<bool> seen(nl.num_nodes(), false);
      std::vector<NodeId> queue{start};
      seen[static_cast<std::size_t>(start)] = true;
      NodeId found = kNoNode;
      for (std::size_t head = 0; head < queue.size() && found == kNoNode;
           ++head) {
        const NodeId u = queue[head];
        for (NodeId sx : nl.fanouts(u)) {
          if (seen[static_cast<std::size_t>(sx)]) continue;
          const auto& node = nl.node(sx);
          if (!is_combinational(node.type)) continue;
          if (used[static_cast<std::size_t>(sx)]) continue;
          seen[static_cast<std::size_t>(sx)] = true;
          parent[static_cast<std::size_t>(sx)] = u;
          if (sx == target) {
            found = sx;
            break;
          }
          queue.push_back(sx);
        }
      }
      if (found == kNoNode) {
        ok = false;
        break;
      }
      for (NodeId p = found; p != start && p != kNoNode;
           p = parent[static_cast<std::size_t>(p)])
        used[static_cast<std::size_t>(p)] = true;
    }
    if (ok) return true;
  }
  return false;
}

struct FfCycleSearch {
  const Netlist& nl;
  const FfLevel& f;
  int root = 0;
  std::vector<bool> on_path;
  std::vector<int> path;
  std::set<BitVec> verified;
  std::set<BitVec> rejected;
  int max_len = 0;
  std::uint64_t steps = 0;
  std::uint64_t step_cap;
  std::size_t subset_cap;
  bool saturated = false;

  void close_cycle() {
    BitVec key(static_cast<std::size_t>(f.num_ffs));
    for (int p : path) key.set(static_cast<std::size_t>(p), true);
    if (verified.count(key) || rejected.count(key)) return;
    if (verify_cycle_routing(nl, f, path)) {
      verified.insert(key);
      max_len = std::max(max_len, static_cast<int>(path.size()));
    } else {
      rejected.insert(key);
    }
  }

  void dfs(int v) {
    if (saturated) return;
    if (++steps > step_cap ||
        verified.size() + rejected.size() > subset_cap) {
      saturated = true;
      return;
    }
    on_path[static_cast<std::size_t>(v)] = true;
    path.push_back(v);
    for (int s : f.adj[static_cast<std::size_t>(v)]) {
      if (s < root) continue;
      if (s == root) {
        close_cycle();
      } else if (!on_path[static_cast<std::size_t>(s)]) {
        dfs(s);
        if (saturated) break;
      }
    }
    path.pop_back();
    on_path[static_cast<std::size_t>(v)] = false;
  }
};

}  // namespace

CycleCensus count_cycles(const Netlist& nl, std::uint64_t step_cap,
                         std::size_t subset_cap) {
  const FfLevel f = build_ff_level(nl);
  CycleCensus census;
  std::set<BitVec> all;
  std::uint64_t steps_used = 0;
  for (int root = 0; root < f.num_ffs; ++root) {
    FfCycleSearch search{nl,       f,
                         root,     std::vector<bool>(
                                       static_cast<std::size_t>(f.num_ffs),
                                       false),
                         {},       {},
                         {},       0,
                         0,        step_cap - steps_used,
                         subset_cap, false};
    search.dfs(root);
    steps_used += search.steps;
    for (const auto& s : search.verified) all.insert(s);
    census.max_cycle_length =
        std::max(census.max_cycle_length, search.max_len);
    if (search.saturated || steps_used >= step_cap) {
      census.saturated = true;
      break;
    }
  }
  census.num_cycles = static_cast<int>(all.size());
  return census;
}

}  // namespace satpg
