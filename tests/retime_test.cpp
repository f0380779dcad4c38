// Tests for src/retime: graph extraction, FEAS retiming (differentially
// against an unbounded reference loop), rebuild equivalence, and the
// atomic-move engine (paper Figures 1-2).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "base/rng.h"
#include "fsm/mcnc_suite.h"
#include "netlist/netlist.h"
#include "retime/retime.h"
#include "sim/simulator.h"
#include "synth/synthesize.h"
#include "synth/techmap.h"

namespace satpg {
namespace {

// Pipeline-ish circuit with slack: in -> AND -> AND -> FF -> out. Retiming
// can balance the two ANDs across the register.
Netlist make_pipeline() {
  Netlist nl("pipe");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId g1 = nl.add_gate(GateType::kAnd, "g1", {a, b});
  const NodeId g2 = nl.add_gate(GateType::kAnd, "g2", {g1, c});
  const NodeId q = nl.add_dff("q", g2, FfInit::kZero);
  const NodeId g3 = nl.add_gate(GateType::kBuf, "g3", {q});
  nl.add_output("o", g3);
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    auto& n = nl.node_mut(static_cast<NodeId>(i));
    if (is_combinational(n.type)) n.delay = 1.0;
  }
  nl.node_mut(g3).delay = 0.25;  // cheap output side leaves retiming slack
  return nl;
}

TEST(RetimeGraphTest, ExtractsVerticesAndWeights) {
  const Netlist nl = make_pipeline();
  const RetimeGraph g = build_retime_graph(nl);
  EXPECT_EQ(g.num_vertices(), 4);  // host + 3 gates
  // One edge should carry the FF (g2 -> g3 with weight 1).
  int weighted = 0;
  for (const auto& e : g.edges) weighted += e.weight;
  EXPECT_EQ(weighted, 1);
}

TEST(RetimeGraphTest, PeriodMatchesCriticalPath) {
  const Netlist nl = make_pipeline();
  const RetimeGraph g = build_retime_graph(nl);
  const std::vector<int> zero(static_cast<std::size_t>(g.num_vertices()), 0);
  EXPECT_DOUBLE_EQ(graph_period(g, zero), critical_path_delay(nl));
}

TEST(RetimeTest, MinPeriodImproves) {
  const Netlist nl = make_pipeline();
  // Original period: a->g1->g2 = 2.0. Retimed: move FF between g1 and g2
  // yields period 1.0... but host edges a->g1 and q-path constraints keep
  // it >= 1.0 + something; just assert improvement.
  const double before = critical_path_delay(nl);
  const RetimeResult r = retime_min_period(nl, "pipe.re");
  EXPECT_LT(r.period_after, before);
  EXPECT_EQ(r.netlist.validate(), std::nullopt);
  EXPECT_DOUBLE_EQ(critical_path_delay(r.netlist), r.period_after);
}

TEST(RetimeTest, InfeasibleTargetRejected) {
  const Netlist nl = make_pipeline();
  const RetimeGraph g = build_retime_graph(nl);
  EXPECT_FALSE(feasible_retiming(g, 0.5).has_value());  // below gate delay
}

TEST(RetimeTest, TargetPeriodHonored) {
  const Netlist nl = make_pipeline();
  const double min_p = min_feasible_period(nl);
  const RetimeResult r = retime_to_period(nl, min_p + 0.25, "pipe.v1");
  EXPECT_LE(r.period_after, min_p + 0.25 + 1e-9);
}

// Lock-step equivalence after a constant-input settle prefix: retiming
// preserves the I/O behaviour once the moved registers have flushed.
void expect_sequentially_equivalent(const Netlist& a, const Netlist& b,
                                    int prefix, int cycles,
                                    std::uint64_t seed) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  SeqSimulator sa(a), sb(b);
  Rng rng(seed);
  const std::vector<V3> settle(a.num_inputs(), V3::kZero);
  for (int t = 0; t < prefix; ++t) {
    sa.step(settle);
    sb.step(settle);
  }
  for (int t = 0; t < cycles; ++t) {
    std::vector<V3> in(a.num_inputs());
    for (auto& v : in) v = rng.next_bool() ? V3::kOne : V3::kZero;
    const auto oa = sa.step(in);
    const auto ob = sb.step(in);
    for (std::size_t o = 0; o < oa.size(); ++o) {
      if (oa[o] == V3::kX || ob[o] == V3::kX) continue;  // unsettled don't-care
      EXPECT_EQ(oa[o], ob[o]) << "cycle " << t << " output " << o;
    }
  }
}

TEST(RetimeTest, PipelineEquivalentAfterRetiming) {
  const Netlist nl = make_pipeline();
  const RetimeResult r = retime_min_period(nl, "pipe.re");
  expect_sequentially_equivalent(nl, r.netlist, 4, 200, 7);
}

// Full-flow property: every synthesized suite circuit stays equivalent
// under min-period retiming, with rst-driven initialization.
class RetimeEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(RetimeEquivalence, SynthesizedCircuitSurvivesRetiming) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == std::string(GetParam())) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.5));
  SynthOptions opts;
  const SynthResult res = synthesize(fsm, opts);
  const RetimeResult r = retime_min_period(res.netlist, res.name + ".re");
  EXPECT_EQ(r.netlist.validate(), std::nullopt);
  EXPECT_LE(r.period_after, r.period_before + 1e-9);
  EXPECT_EQ(r.netlist.num_inputs(), res.netlist.num_inputs());
  EXPECT_EQ(r.netlist.num_outputs(), res.netlist.num_outputs());

  // Settle prefix with rst=1, zero inputs; rst is the last input.
  SeqSimulator sa(res.netlist), sb(r.netlist);
  std::vector<V3> settle(res.netlist.num_inputs(), V3::kZero);
  settle.back() = V3::kOne;  // rst asserted
  int max_lag = 0;
  for (int lag : r.lag) max_lag = std::max(max_lag, std::abs(lag));
  for (int t = 0; t < max_lag + 2; ++t) {
    sa.step(settle);
    sb.step(settle);
  }
  Rng rng(11);
  for (int t = 0; t < 400; ++t) {
    std::vector<V3> in(res.netlist.num_inputs(), V3::kZero);
    for (std::size_t i = 0; i + 1 < in.size(); ++i)
      in[i] = rng.next_bool() ? V3::kOne : V3::kZero;
    // occasionally pulse reset mid-stream too
    if (rng.next_bernoulli(0.02)) in.back() = V3::kOne;
    const auto oa = sa.step(in);
    const auto ob = sb.step(in);
    if (in.back() == V3::kOne) {
      // Re-settle after an asynchronous-looking reset pulse.
      for (int k = 0; k < max_lag + 2; ++k) {
        std::vector<V3> s2(res.netlist.num_inputs(), V3::kZero);
        s2.back() = V3::kOne;
        sa.step(s2);
        sb.step(s2);
      }
      continue;
    }
    EXPECT_EQ(oa, ob) << "cycle " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, RetimeEquivalence,
                         ::testing::Values("dk16", "pma", "s820"));

// The study's scatter transformation must also preserve behaviour.
TEST(RetimeTest, DffTargetRetimingIsEquivalent) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == std::string("pma")) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.5));
  SynthOptions opts;
  const SynthResult res = synthesize(fsm, opts);
  const RetimeResult r = retime_to_dff_target(
      res.netlist, 3 * res.netlist.num_dffs(), res.name + ".re");
  EXPECT_GE(r.netlist.num_dffs(), 3 * res.netlist.num_dffs());
  int max_lag = 0;
  for (int lag : r.lag) max_lag = std::max(max_lag, std::abs(lag));
  // rst-held settle prefix, then lock-step on random inputs.
  SeqSimulator sa(res.netlist), sb(r.netlist);
  std::vector<V3> settle(res.netlist.num_inputs(), V3::kZero);
  settle.back() = V3::kOne;
  for (int t = 0; t < max_lag + 2; ++t) {
    sa.step(settle);
    sb.step(settle);
  }
  Rng rng(23);
  for (int t = 0; t < 500; ++t) {
    std::vector<V3> in(res.netlist.num_inputs(), V3::kZero);
    for (std::size_t i = 0; i + 1 < in.size(); ++i)
      in[i] = rng.next_bool() ? V3::kOne : V3::kZero;
    EXPECT_EQ(sa.step(in), sb.step(in)) << "cycle " << t;
  }
}

TEST(RetimeTest, RetimingAddsFlipFlopsOnSuiteCircuits) {
  // The paper's core observation setup: min-period retiming of these
  // control circuits grows the register count.
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == std::string("s820")) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.5));
  SynthOptions opts;
  opts.script = ScriptKind::kDelay;
  const SynthResult res = synthesize(fsm, opts);
  const RetimeResult r = retime_to_dff_target(
      res.netlist, 3 * res.netlist.num_dffs(), res.name + ".re");
  EXPECT_GT(r.netlist.num_dffs(), res.netlist.num_dffs());
}

// ---- differential FEAS ----
//
// Reference: the FEAS loop without the lag-bound exit, run to convergence
// or |V|+1 rounds, over an independent arrival-time computation. The
// bounded loop in the library must return exactly the same optional lags.

// Arrival times with retimed weight <= 0 treated as wires; host edges do
// not propagate. nullopt when that zero-weight subgraph is cyclic.
std::optional<std::vector<double>> reference_arrivals(
    const RetimeGraph& g, const std::vector<int>& wr) {
  const std::size_t nv = static_cast<std::size_t>(g.num_vertices());
  std::vector<int> indeg(nv, 0);
  for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
    const auto& e = g.edges[ei];
    if (wr[ei] <= 0 && e.from != 0 && e.to != 0)
      ++indeg[static_cast<std::size_t>(e.to)];
  }
  std::vector<double> delta(nv, 0.0);
  std::vector<std::size_t> order;
  for (std::size_t v = 1; v < nv; ++v)
    if (indeg[v] == 0) order.push_back(v);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t v = order[i];
    delta[v] += g.delay[v];
    for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
      const auto& e = g.edges[ei];
      if (wr[ei] > 0 || static_cast<std::size_t>(e.from) != v || e.to == 0)
        continue;
      const auto to = static_cast<std::size_t>(e.to);
      delta[to] = std::max(delta[to], delta[v]);
      if (--indeg[to] == 0) order.push_back(to);
    }
  }
  if (order.size() != nv - 1) return std::nullopt;
  return delta;
}

std::optional<std::vector<int>> reference_feas(const RetimeGraph& g,
                                               double target) {
  const int nv = g.num_vertices();
  std::vector<int> r(static_cast<std::size_t>(nv), 0);
  for (int iter = 0; iter <= nv; ++iter) {
    std::vector<int> wr;
    for (const auto& e : g.edges)
      wr.push_back(e.weight + r[static_cast<std::size_t>(e.to)] -
                   r[static_cast<std::size_t>(e.from)]);
    const auto delta = reference_arrivals(g, wr);
    if (!delta) return std::nullopt;
    bool violated = false;
    for (int v = 1; v < nv; ++v)
      if ((*delta)[static_cast<std::size_t>(v)] > target + 1e-9) {
        ++r[static_cast<std::size_t>(v)];
        violated = true;
      }
    if (!violated) {
      for (int w : wr)
        if (w < 0) return std::nullopt;
      return r;
    }
  }
  return std::nullopt;
}

// What a sweep of target periods saw from the reference.
struct FeasSweep {
  int feasible = 0;
  int infeasible = 0;
  bool moved = false;  ///< some feasible answer has a nonzero lag
};

// Compares library and reference FEAS on every target in a sweep from 0 to
// past the unretimed period, plus just below the largest gate delay and
// exactly at the minimum feasible period.
FeasSweep expect_feas_matches_reference(const Netlist& nl) {
  const RetimeGraph g = build_retime_graph(nl);
  const std::vector<int> zero(static_cast<std::size_t>(g.num_vertices()), 0);
  const double before = graph_period(g, zero);
  const double max_delay = *std::max_element(g.delay.begin(), g.delay.end());
  const double min_period = min_feasible_period(nl);
  std::vector<double> targets = {max_delay - 0.25, min_period};
  for (double t = 0.0; t <= before + 0.5; t += 0.25) targets.push_back(t);

  FeasSweep sweep;
  for (double t : targets) {
    const auto want = reference_feas(g, t);
    EXPECT_EQ(feasible_retiming(g, t), want) << nl.name() << " @ " << t;
    if (!want) {
      ++sweep.infeasible;
      continue;
    }
    ++sweep.feasible;
    sweep.moved |= *want != zero;
  }
  EXPECT_TRUE(reference_feas(g, min_period).has_value()) << nl.name();
  EXPECT_FALSE(reference_feas(g, max_delay - 0.25).has_value()) << nl.name();
  return sweep;
}

// A register on `a` (mockturtle's latch box).
NodeId latch_box(Netlist& nl, NodeId a) {
  return nl.add_dff("l" + std::to_string(nl.num_nodes()), a,
                    FfInit::kUnknown);
}

NodeId gate(Netlist& nl, GateType t, std::vector<NodeId> fanins,
            double delay) {
  const NodeId id =
      nl.add_gate(t, "g" + std::to_string(nl.num_nodes()), fanins);
  nl.node_mut(id).delay = delay;
  return id;
}

// Registers on the inputs and a two-gate path to the output: only a
// forward move would shorten the path, which least-lag FEAS (r(host) = 0,
// lags only rise) cannot make — every shorter target is infeasible.
TEST(FeasDifferentialTest, ForwardCase) {
  Netlist nl("fwd");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId x1 =
      gate(nl, GateType::kAnd, {latch_box(nl, a), latch_box(nl, b)}, 1.0);
  const NodeId x2 = gate(nl, GateType::kOr, {x1, latch_box(nl, c)}, 1.0);
  nl.add_output("o", x2);
  const FeasSweep s = expect_feas_matches_reference(nl);
  EXPECT_FALSE(s.moved);
  EXPECT_GT(s.infeasible, 0);
}

// Registers on the outputs behind a two-gate path: a backward move across
// the last gate halves the period.
TEST(FeasDifferentialTest, BackwardCase) {
  Netlist nl("bwd");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x1 = gate(nl, GateType::kAnd, {a, b}, 1.0);
  const NodeId x2 = gate(nl, GateType::kNot, {x1}, 1.0);
  const NodeId x3 = gate(nl, GateType::kBuf, {x1}, 1.0);
  nl.add_output("o1", latch_box(nl, x2));
  nl.add_output("o2", latch_box(nl, x3));
  const FeasSweep s = expect_feas_matches_reference(nl);
  EXPECT_TRUE(s.moved);
  EXPECT_DOUBLE_EQ(min_feasible_period(nl), 1.0);
}

// Registers between single-gate stages: already at the minimum period, so
// every feasible answer is the zero retiming.
TEST(FeasDifferentialTest, ZeroMoveCase) {
  Netlist nl("zero");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId l1 = latch_box(nl, a);
  const NodeId l2 = latch_box(nl, b);
  nl.add_output("o1", gate(nl, GateType::kAnd, {l1, l2}, 1.0));
  nl.add_output("o2", gate(nl, GateType::kOr, {l1, l2}, 1.0));
  const FeasSweep s = expect_feas_matches_reference(nl);
  EXPECT_FALSE(s.moved);
  EXPECT_GT(s.feasible, 0);
}

// A state loop that reaches no output has no path to the host, so its lags
// are unbounded: below the loop bound both loops run every FEAS round.
TEST(FeasDifferentialTest, LogicWithNoPathToOutput) {
  Netlist nl("nopath");
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_dff("q", a, FfInit::kUnknown);
  const NodeId x1 = gate(nl, GateType::kAnd, {a, q}, 1.0);
  const NodeId x2 = gate(nl, GateType::kNot, {x1}, 1.0);
  nl.set_fanin(q, 0, x2);
  nl.add_output("o", gate(nl, GateType::kBuf, {a}, 0.5));
  const FeasSweep s = expect_feas_matches_reference(nl);
  EXPECT_GT(s.infeasible, 0);
  EXPECT_GT(s.feasible, 0);
}

// Random small sequential netlists: gates read inputs, registers and
// earlier gates; registers read gates or other registers (chains); a few
// gates drive outputs, so some logic usually reaches none.
Netlist random_netlist(Rng& rng, int index) {
  Netlist nl("rand" + std::to_string(index));
  std::vector<NodeId> pool;
  const int inputs = rng.next_int(1, 3);
  for (int i = 0; i < inputs; ++i)
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  std::vector<NodeId> ffs;
  const int num_ffs = rng.next_int(1, 4);
  for (int i = 0; i < num_ffs; ++i) {
    ffs.push_back(latch_box(nl, pool[0]));
    pool.push_back(ffs.back());
  }
  std::vector<NodeId> gates;
  const int num_gates = rng.next_int(3, 10);
  constexpr GateType kTypes[] = {GateType::kAnd, GateType::kOr,
                                 GateType::kXor, GateType::kNand};
  for (int i = 0; i < num_gates; ++i) {
    const NodeId x = pool[rng.next_below(pool.size())];
    const NodeId y = pool[rng.next_below(pool.size())];
    gates.push_back(gate(nl, kTypes[rng.next_below(4)], {x, y},
                         0.5 * rng.next_int(1, 4)));
    pool.push_back(gates.back());
  }
  for (std::size_t i = 0; i < ffs.size(); ++i)
    nl.set_fanin(ffs[i], 0,
                 i > 0 && rng.next_bernoulli(0.25)
                     ? ffs[i - 1]
                     : gates[rng.next_below(gates.size())]);
  const int outputs = rng.next_int(1, 2);
  for (int i = 0; i < outputs; ++i)
    nl.add_output("o" + std::to_string(i),
                  gates[rng.next_below(gates.size())]);
  return nl;
}

TEST(FeasDifferentialTest, RandomNetlists) {
  Rng rng(1991);
  FeasSweep total;
  for (int i = 0; i < 200; ++i) {
    const FeasSweep s = expect_feas_matches_reference(random_netlist(rng, i));
    total.feasible += s.feasible;
    total.infeasible += s.infeasible;
    total.moved |= s.moved;
  }
  EXPECT_GT(total.feasible, 0);
  EXPECT_GT(total.infeasible, 0);
  EXPECT_TRUE(total.moved);
}

// ---- atomic moves ----

Netlist figure2_circuit() {
  // Paper Figure 2 (top): Q2 -> {G1, Gnot}; Gnot -> G2; {G1,G2} -> G3;
  // G3 -> Q1 -> Gbuf -> Q2; PI 'a' second input of G1/G2; PO from Gbuf.
  Netlist nl("fig2");
  const NodeId a = nl.add_input("a");
  const NodeId q2 = nl.add_dff("Q2", a, FfInit::kZero);  // patched below
  const NodeId g1 = nl.add_gate(GateType::kAnd, "G1", {q2, a});
  const NodeId gnot = nl.add_gate(GateType::kNot, "Gnot", {q2});
  const NodeId g2 = nl.add_gate(GateType::kAnd, "G2", {gnot, a});
  const NodeId g3 = nl.add_gate(GateType::kOr, "G3", {g1, g2});
  const NodeId q1 = nl.add_dff("Q1", g3, FfInit::kZero);
  const NodeId gbuf = nl.add_gate(GateType::kBuf, "Gbuf", {q1});
  nl.set_fanin(q2, 0, gbuf);
  nl.add_output("o", gbuf);
  return nl;
}

TEST(AtomicMoveTest, BackwardMoveMatchesFigure2) {
  Netlist nl = figure2_circuit();
  ASSERT_EQ(nl.validate(), std::nullopt);
  const NodeId g3 = nl.find("G3");
  ASSERT_TRUE(can_move_backward(nl, g3));
  Netlist moved = nl.clone("fig2.re");
  move_backward(moved, moved.find("G3"));
  ASSERT_EQ(moved.validate(), std::nullopt);
  // Q1 split into two FFs: register count 2 -> 3.
  EXPECT_EQ(nl.num_dffs(), 2u);
  EXPECT_EQ(moved.num_dffs(), 3u);
  // Behaviour preserved (settle 2 cycles for the X inits).
  expect_sequentially_equivalent(nl, moved, 2, 200, 3);
}

TEST(AtomicMoveTest, ForwardMoveIsInverseOfBackward) {
  Netlist nl = figure2_circuit();
  move_backward(nl, nl.find("G3"));
  // Now G3's fanins are FFs; forward move restores a single output FF.
  ASSERT_TRUE(can_move_forward(nl, nl.find("G3")));
  move_forward(nl, nl.find("G3"));
  EXPECT_EQ(nl.validate(), std::nullopt);
  EXPECT_EQ(nl.num_dffs(), 2u);
  expect_sequentially_equivalent(figure2_circuit(), nl, 2, 200, 5);
}

TEST(AtomicMoveTest, ForwardMovePreservesInitialState) {
  Netlist nl = figure2_circuit();
  move_backward(nl, nl.find("G3"));
  // Backward from Q1 (init 0) through OR: preimage of 0 is unique (0,0).
  for (NodeId ff : nl.dffs()) {
    if (nl.node(ff).name.rfind("bw_", 0) == 0) {
      EXPECT_EQ(nl.node(ff).init, FfInit::kZero);
    }
  }
  move_forward(nl, nl.find("G3"));
  // Forward recomputes OR(0,0) = 0.
  for (NodeId ff : nl.dffs()) {
    if (nl.node(ff).name.rfind("fw_", 0) == 0) {
      EXPECT_EQ(nl.node(ff).init, FfInit::kZero);
    }
  }
}

TEST(AtomicMoveTest, GuardsRejectIllegalMoves) {
  Netlist nl = figure2_circuit();
  EXPECT_FALSE(can_move_forward(nl, nl.find("G1")));   // fanins not all FFs
  EXPECT_FALSE(can_move_backward(nl, nl.find("G1")));  // feeds G3, not a FF
  EXPECT_FALSE(can_move_backward(nl, nl.find("Gbuf")));  // fans out to PO too
}

}  // namespace
}  // namespace satpg
