#include "retime/retime.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <queue>

#include "sim/simulator.h"

namespace satpg {

RetimeGraph build_retime_graph(const Netlist& nl) {
  RetimeGraph g;
  g.delay.push_back(0.0);         // host
  g.vertex_node.push_back(kNoNode);

  std::vector<int> vertex_of(nl.num_nodes(), -1);
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const auto& n = nl.node(static_cast<NodeId>(i));
    if (n.dead || !is_combinational(n.type)) continue;
    if (n.type == GateType::kConst0 || n.type == GateType::kConst1)
      continue;  // constants belong to the host (no FF may cross them)
    vertex_of[i] = g.num_vertices();
    g.delay.push_back(n.delay);
    g.vertex_node.push_back(static_cast<NodeId>(i));
  }

  // Trace a connection backward through the DFF chain; returns the source
  // node and the DFFs encountered (sink-side first).
  auto trace = [&nl](NodeId f) {
    std::vector<NodeId> ffs;
    std::size_t guard = 0;
    while (nl.node(f).type == GateType::kDff) {
      ffs.push_back(f);
      f = nl.node(f).fanins[0];
      SATPG_CHECK_MSG(++guard <= nl.num_nodes(),
                      "pure flip-flop cycle in netlist");
    }
    return std::pair<NodeId, std::vector<NodeId>>(f, std::move(ffs));
  };

  auto src_vertex = [&](NodeId src) {
    const int v = vertex_of[static_cast<std::size_t>(src)];
    return v >= 0 ? v : 0;  // PIs and constants are the host
  };

  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const auto& n = nl.node(id);
    if (n.dead) continue;
    const bool comb_sink =
        vertex_of[i] >= 0;  // mapped combinational gates
    const bool po_sink = n.type == GateType::kOutput;
    if (!comb_sink && !po_sink) continue;
    for (std::size_t slot = 0; slot < n.fanins.size(); ++slot) {
      auto [src, ffs] = trace(n.fanins[slot]);
      RetimeGraph::Edge e;
      e.from = src_vertex(src);
      e.to = comb_sink ? vertex_of[i] : 0;
      e.weight = static_cast<int>(ffs.size());
      e.source_node = src;
      e.sink_node = id;
      e.sink_slot = static_cast<int>(slot);
      e.ffs = std::move(ffs);
      g.edges.push_back(e);
    }
  }
  return g;
}

namespace {

std::vector<int> retimed_weights(const RetimeGraph& g,
                                 const std::vector<int>& r) {
  std::vector<int> w;
  w.reserve(g.edges.size());
  for (const auto& e : g.edges)
    w.push_back(e.weight + r[static_cast<std::size_t>(e.to)] -
                r[static_cast<std::size_t>(e.from)]);
  return w;
}

// Combinational arrival times treating edges with weight <= 0 as wires.
// Host out-edges launch at 0; host in-edges do not propagate (the host is
// split into source/sink roles). Returns nullopt when the zero-weight
// subgraph is cyclic.
std::optional<std::vector<double>> cp_delta(const RetimeGraph& g,
                                            const std::vector<int>& wr) {
  const int nv = g.num_vertices();
  std::vector<std::vector<std::pair<int, int>>> zin(
      static_cast<std::size_t>(nv));  // (from, edge idx) zero-weight, per to
  std::vector<int> pending(static_cast<std::size_t>(nv), 0);
  std::vector<std::vector<int>> zout(static_cast<std::size_t>(nv));
  for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
    const auto& e = g.edges[ei];
    if (wr[ei] > 0) continue;
    if (e.to == 0) continue;  // host as sink: no propagation out of it
    if (e.from != 0) {
      zin[static_cast<std::size_t>(e.to)].push_back(
          {e.from, static_cast<int>(ei)});
      zout[static_cast<std::size_t>(e.from)].push_back(e.to);
      ++pending[static_cast<std::size_t>(e.to)];
    }
  }
  std::vector<double> delta(static_cast<std::size_t>(nv), 0.0);
  std::vector<int> ready;
  for (int v = 1; v < nv; ++v)
    if (pending[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  std::size_t head = 0;
  std::size_t emitted = 0;
  while (head < ready.size()) {
    const int v = ready[head++];
    ++emitted;
    double in_max = 0.0;
    for (const auto& [u, ei] : zin[static_cast<std::size_t>(v)])
      in_max = std::max(in_max, delta[static_cast<std::size_t>(u)]);
    delta[static_cast<std::size_t>(v)] =
        in_max + g.delay[static_cast<std::size_t>(v)];
    for (int s : zout[static_cast<std::size_t>(v)])
      if (--pending[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
  }
  if (emitted != static_cast<std::size_t>(nv - 1)) return std::nullopt;
  return delta;
}

}  // namespace

double graph_period(const RetimeGraph& g, const std::vector<int>& r) {
  const auto wr = retimed_weights(g, r);
  for (int w : wr) SATPG_CHECK_MSG(w >= 0, "illegal retiming (negative weight)");
  const auto delta = cp_delta(g, wr);
  SATPG_CHECK_MSG(delta.has_value(), "combinational cycle under retiming");
  double period = 0.0;
  for (double d : *delta) period = std::max(period, d);
  return period;
}

namespace {

constexpr int kUnbounded = std::numeric_limits<int>::max();

// Largest lag each vertex can carry in any legal retiming: its minimum-
// weight path to the host (heap Dijkstra over the reversed edges). FEAS
// only raises lags and keeps r(host) = 0, so once r[v] exceeds this bound
// the retimed weight of that path (dist - r[v]) is negative for good.
// Logic with no path to the host is unbounded.
std::vector<int> lag_bounds(const RetimeGraph& g) {
  const int nv = g.num_vertices();
  std::vector<std::vector<std::pair<int, int>>> radj(
      static_cast<std::size_t>(nv));  // reversed: to -> (from, w)
  for (const auto& e : g.edges)
    radj[static_cast<std::size_t>(e.to)].push_back({e.from, e.weight});
  std::vector<int> dist(static_cast<std::size_t>(nv), kUnbounded);
  using Item = std::pair<int, int>;  // (dist, vertex)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[0] = 0;
  heap.push({0, 0});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    for (const auto& [u, w] : radj[static_cast<std::size_t>(v)])
      if (d + w < dist[static_cast<std::size_t>(u)]) {
        dist[static_cast<std::size_t>(u)] = d + w;
        heap.push({d + w, u});
      }
  }
  return dist;
}

// FEAS with the lag-bound exit: a probe is rejected as soon as some lag
// exceeds its bound, which the final legality check would do anyway.
std::optional<std::vector<int>> feas(const RetimeGraph& g, double target,
                                     const std::vector<int>& bound) {
  const int nv = g.num_vertices();
  std::vector<int> r(static_cast<std::size_t>(nv), 0);
  for (int iter = 0; iter <= nv; ++iter) {
    const auto wr = retimed_weights(g, r);
    const auto delta = cp_delta(g, wr);
    if (!delta) return std::nullopt;  // conservative: reject this period
    bool violated = false;
    for (int v = 1; v < nv; ++v)
      if ((*delta)[static_cast<std::size_t>(v)] > target + 1e-9) {
        if (++r[static_cast<std::size_t>(v)] >
            bound[static_cast<std::size_t>(v)])
          return std::nullopt;
        violated = true;
      }
    if (!violated) {
      // Final legality check (host edges can still be negative).
      for (std::size_t ei = 0; ei < g.edges.size(); ++ei)
        if (wr[ei] < 0) return std::nullopt;
      return r;
    }
  }
  return std::nullopt;
}

// Least-lag FEAS solution at the minimum feasible period: binary search
// between the largest gate delay and the unretimed period.
std::vector<int> min_period_lags(const RetimeGraph& g) {
  const std::vector<int> bound = lag_bounds(g);
  std::vector<int> best(static_cast<std::size_t>(g.num_vertices()), 0);
  double lo = 0.0;
  for (double d : g.delay) lo = std::max(lo, d);
  double hi = graph_period(g, best);
  for (int it = 0; it < 48 && hi - lo > 1e-6; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (auto r = feas(g, mid, bound)) {
      best = std::move(*r);
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return best;
}

// Materialize the retimed netlist. FF chains are shared per source signal.
Netlist rebuild(const Netlist& nl, const RetimeGraph& g,
                const std::vector<int>& r, const std::string& name) {
  const auto wr = retimed_weights(g, r);
  Netlist out(name);

  // Copy PIs, constants, and combinational gates (placeholder fanins).
  std::vector<NodeId> map_node(nl.num_nodes(), kNoNode);
  for (NodeId id : nl.inputs())
    map_node[static_cast<std::size_t>(id)] = out.add_input(nl.node(id).name);
  NodeId any_source = out.inputs().empty() ? kNoNode : out.inputs()[0];
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const auto& n = nl.node(static_cast<NodeId>(i));
    if (n.dead) continue;
    if (n.type == GateType::kConst0 || n.type == GateType::kConst1) {
      map_node[i] = out.add_const(n.type == GateType::kConst1, n.name);
      if (any_source == kNoNode) any_source = map_node[i];
    }
  }
  SATPG_CHECK(any_source != kNoNode);
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const auto& n = nl.node(static_cast<NodeId>(i));
    if (n.dead || !is_combinational(n.type)) continue;
    if (map_node[i] != kNoNode) continue;  // constants already copied
    std::vector<NodeId> ph(n.fanins.size(), any_source);
    map_node[i] = out.add_gate(n.type, n.name, ph);
    auto& m = out.node_mut(map_node[i]);
    m.delay = n.delay;
    m.area = n.area;
  }

  // FF chains per source signal, grown on demand. tap(src, 0) = the signal.
  std::map<NodeId, std::vector<NodeId>> chain;  // old src -> new FF stages
  auto tap = [&](NodeId old_src, int depth) -> NodeId {
    const NodeId base = map_node[static_cast<std::size_t>(old_src)];
    SATPG_CHECK(base != kNoNode);
    if (depth == 0) return base;
    auto& stages = chain[old_src];
    while (static_cast<int>(stages.size()) < depth) {
      const NodeId prev = stages.empty() ? base : stages.back();
      stages.push_back(out.add_dff(
          "rt_" + nl.node(old_src).name + "_" +
              std::to_string(stages.size() + 1),
          prev, FfInit::kUnknown));
    }
    return stages[static_cast<std::size_t>(depth - 1)];
  };

  // Wire every recorded connection.
  for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
    const auto& e = g.edges[ei];
    const NodeId driver = tap(e.source_node, wr[ei]);
    const auto& sink = nl.node(e.sink_node);
    if (sink.type == GateType::kOutput) {
      out.add_output(sink.name, driver);
    } else {
      out.set_fanin(map_node[static_cast<std::size_t>(e.sink_node)],
                    static_cast<std::size_t>(e.sink_slot), driver);
    }
  }
  out.compact();
  SATPG_CHECK(out.validate() == std::nullopt);
  return out;
}

}  // namespace

std::optional<std::vector<int>> feasible_retiming(const RetimeGraph& g,
                                                  double target) {
  return feas(g, target, lag_bounds(g));
}

double min_feasible_period(const Netlist& nl) {
  const RetimeGraph g = build_retime_graph(nl);
  return graph_period(g, min_period_lags(g));
}

RetimeResult retime_to_period(const Netlist& nl, double target,
                              const std::string& name) {
  const RetimeGraph g = build_retime_graph(nl);
  const std::vector<int> zero(static_cast<std::size_t>(g.num_vertices()), 0);
  RetimeResult res{Netlist(""), {}, graph_period(g, zero), 0.0};
  auto r = feasible_retiming(g, target);
  SATPG_CHECK_MSG(r.has_value(), "retime_to_period: target infeasible");
  res.lag = *r;
  res.period_after = graph_period(g, res.lag);
  res.netlist = rebuild(nl, g, res.lag, name);
  return res;
}

RetimeResult retime_min_period(const Netlist& nl, const std::string& name) {
  return retime_to_period(nl, min_feasible_period(nl) + 1e-7, name);
}

std::size_t effective_dff_count(const RetimeGraph& g,
                                const std::vector<int>& r) {
  const auto wr = retimed_weights(g, r);
  // Chains are shared per driving signal: a source whose out-edges need
  // weights w1..wk materializes max(wi) flip-flops.
  std::map<NodeId, int> max_w;
  for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
    int& m = max_w[g.edges[ei].source_node];
    m = std::max(m, wr[ei]);
  }
  std::size_t total = 0;
  for (const auto& [src, m] : max_w) total += static_cast<std::size_t>(m);
  return total;
}

RetimeResult retime_to_dff_target(const Netlist& nl, std::size_t target_dffs,
                                  const std::string& name) {
  const RetimeGraph g = build_retime_graph(nl);
  const int nv = g.num_vertices();
  const std::vector<int> zero(static_cast<std::size_t>(nv), 0);
  RetimeResult res{Netlist(""), {}, graph_period(g, zero), 0.0};

  // Baseline: least-lag FEAS at the minimum feasible period.
  std::vector<int> r = min_period_lags(g);

  // Out-edge lists for shift eligibility, and the edges of each FF chain
  // (one chain per driving signal, as rebuild materializes them).
  std::vector<std::vector<std::size_t>> out_edges(
      static_cast<std::size_t>(nv));
  std::vector<std::vector<std::size_t>> in_edges(
      static_cast<std::size_t>(nv));
  std::map<NodeId, std::size_t> chain_of_node;
  std::vector<std::size_t> chain_of_edge(g.edges.size());
  std::vector<std::vector<std::size_t>> chain_edges;
  for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
    const auto& e = g.edges[ei];
    out_edges[static_cast<std::size_t>(e.from)].push_back(ei);
    in_edges[static_cast<std::size_t>(e.to)].push_back(ei);
    const auto [it, fresh] =
        chain_of_node.try_emplace(e.source_node, chain_edges.size());
    if (fresh) chain_edges.emplace_back();
    chain_of_edge[ei] = it->second;
    chain_edges[it->second].push_back(ei);
  }

  // Current retimed weights and chain lengths, updated per shift: shifting
  // v only moves the weights of v's out- and in-edges, so only their
  // chains change length.
  std::vector<int> cur_w = retimed_weights(g, r);
  std::vector<int> chain_len(chain_edges.size(), 0);
  std::size_t count = 0;
  auto refresh = [&](std::size_t c) {
    int m = 0;
    for (std::size_t ei : chain_edges[c]) m = std::max(m, cur_w[ei]);
    count = count - static_cast<std::size_t>(chain_len[c]) +
            static_cast<std::size_t>(m);
    chain_len[c] = m;
  };
  for (std::size_t c = 0; c < chain_edges.size(); ++c) refresh(c);
  // Only called on vertices with out-edges; those all drive v's own chain.
  auto shift = [&](int v) {
    const auto& oe = out_edges[static_cast<std::size_t>(v)];
    const auto& ie = in_edges[static_cast<std::size_t>(v)];
    ++r[static_cast<std::size_t>(v)];
    for (std::size_t ei : oe) --cur_w[ei];
    for (std::size_t ei : ie) ++cur_w[ei];
    refresh(chain_of_edge[oe.front()]);
    for (std::size_t ei : ie) refresh(chain_of_edge[ei]);
  };

  // Level sweeps: shift every currently-eligible vertex once per round
  // (deterministic vertex order), stopping as soon as the effective FF
  // count reaches the target.
  const int kMaxRounds = 64;
  for (int round = 0; round < kMaxRounds && count < target_dffs; ++round) {
    // Shifting v and possibly other vertices this round: use the
    // round-start weights; requiring w >= 1 keeps the all-at-once round
    // legal regardless of which heads also shift.
    const std::vector<int> wr = cur_w;
    bool any = false;
    for (int v = 1; v < nv; ++v) {
      const auto& oe = out_edges[static_cast<std::size_t>(v)];
      if (oe.empty()) continue;
      const bool eligible = std::all_of(
          oe.begin(), oe.end(), [&](std::size_t ei) { return wr[ei] >= 1; });
      if (eligible) {
        shift(v);
        any = true;
      }
      if (count >= target_dffs) break;
    }
    if (!any) break;
  }
  SATPG_CHECK(count == effective_dff_count(g, r));

  res.lag = r;
  res.period_after = graph_period(g, r);  // CHECKs legality
  res.netlist = rebuild(nl, g, r, name);
  return res;
}

// ---- atomic moves -----------------------------------------------------------

bool can_move_forward(const Netlist& nl, NodeId gate) {
  const auto& n = nl.node(gate);
  if (!is_combinational(n.type) || n.fanins.empty()) return false;
  if (n.type == GateType::kConst0 || n.type == GateType::kConst1)
    return false;
  for (NodeId f : n.fanins)
    if (nl.node(f).type != GateType::kDff) return false;
  return true;
}

void move_forward(Netlist& nl, NodeId gate) {
  SATPG_CHECK(can_move_forward(nl, gate));
  const std::vector<NodeId> old_ffs = nl.node(gate).fanins;

  // New initial value = gate function over old initial values.
  const V3 new_init = fold_gate(
      V3Algebra{}, nl.node(gate).type, old_ffs.size(), [&](std::size_t k) {
        const auto init = nl.node(old_ffs[k]).init;
        return init == FfInit::kZero ? V3::kZero
               : init == FfInit::kOne ? V3::kOne
                                      : V3::kX;
      });

  // Record the gate's current fanouts before rewiring.
  std::vector<NodeId> readers;
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const auto& n = nl.node(static_cast<NodeId>(i));
    if (n.dead) continue;
    for (NodeId f : n.fanins)
      if (f == gate) {
        readers.push_back(static_cast<NodeId>(i));
        break;
      }
  }

  // Bypass the input FFs.
  for (std::size_t s = 0; s < old_ffs.size(); ++s)
    nl.set_fanin(gate, s, nl.node(old_ffs[s]).fanins[0]);

  // Insert the output FF and redirect former readers to it.
  const NodeId q = nl.add_dff(
      "fw_" + nl.node(gate).name, gate,
      new_init == V3::kZero ? FfInit::kZero
      : new_init == V3::kOne ? FfInit::kOne
                             : FfInit::kUnknown);
  for (NodeId rd : readers) {
    auto& rn = nl.node_mut(rd);
    for (auto& f : rn.fanins)
      if (f == gate) f = q;
  }

  // Old FFs that lost their last reader disappear. The fan-outs are read
  // as they stand before the first kill.
  const CompiledNetlist& c = nl.compiled();
  for (NodeId f : old_ffs)
    if (!nl.node(f).dead && c.fanouts(f).empty())
      nl.kill_node(f);
}

bool can_move_backward(const Netlist& nl, NodeId gate) {
  const auto& n = nl.node(gate);
  if (!is_combinational(n.type) || n.fanins.empty()) return false;
  if (n.type == GateType::kConst0 || n.type == GateType::kConst1)
    return false;
  const auto fo = nl.fanouts(gate);
  return fo.size() == 1 && nl.node(fo[0]).type == GateType::kDff;
}

void move_backward(Netlist& nl, NodeId gate) {
  SATPG_CHECK(can_move_backward(nl, gate));
  const NodeId q = nl.fanouts(gate)[0];
  const auto q_init = nl.node(q).init;
  const auto fanins = nl.node(gate).fanins;

  // Unique-preimage initial values when the old FF was initialized.
  std::vector<FfInit> new_init(fanins.size(), FfInit::kUnknown);
  if (q_init != FfInit::kUnknown && fanins.size() <= 6) {
    const V3 want = q_init == FfInit::kZero ? V3::kZero : V3::kOne;
    int matches = 0;
    std::vector<bool> match_combo;
    for (unsigned combo = 0; combo < (1u << fanins.size()); ++combo) {
      const V3 out = fold_gate(
          V3Algebra{}, nl.node(gate).type, fanins.size(),
          [combo](std::size_t k) {
            return (combo >> k) & 1u ? V3::kOne : V3::kZero;
          });
      if (out == want) {
        ++matches;
        match_combo.assign(fanins.size(), false);
        for (std::size_t i = 0; i < fanins.size(); ++i)
          match_combo[i] = (combo >> i) & 1u;
      }
    }
    if (matches == 1)
      for (std::size_t i = 0; i < fanins.size(); ++i)
        new_init[i] = match_combo[i] ? FfInit::kOne : FfInit::kZero;
  }

  // Insert one FF per fanin.
  for (std::size_t s = 0; s < fanins.size(); ++s) {
    const NodeId ff = nl.add_dff(
        "bw_" + nl.node(gate).name + "_" + std::to_string(s), fanins[s],
        new_init[s]);
    nl.set_fanin(gate, s, ff);
  }
  // Readers of q now read the gate.
  nl.replace_uses(q, gate);
  nl.kill_node(q);
}

}  // namespace satpg
