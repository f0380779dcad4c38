// Tests for src/analysis: sequential depth, cycle
// census (paper Figure 2 semantics), BDD reachability, and the Theorem 2-4
// retiming-invariance properties over the synthesized suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>

#include "analysis/reach.h"
#include "analysis/structure.h"
#include "fsm/mcnc_suite.h"
#include "netlist/bench_io.h"
#include "netlist/netlist.h"
#include "retime/retime.h"
#include "sim/simulator.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

Netlist figure2_circuit() {
  Netlist nl("fig2");
  const NodeId a = nl.add_input("a");
  const NodeId q2 = nl.add_dff("Q2", a, FfInit::kZero);
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

TEST(SeqDepthTest, Figure2DepthIsOne) {
  // Every PI->PO path funnels through Gbuf exactly once, so at most the Q1
  // register can be crossed: a -> G1 -> G3 -> [Q1] -> Gbuf -> o. Reaching
  // Q2 requires leaving Gbuf, and the only way back to the PO revisits it.
  const auto r = max_sequential_depth(figure2_circuit());
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(r.max_depth, 1);
}

TEST(SeqDepthTest, ChainDepthCountsAllFfs) {
  // in -> FF -> FF -> FF -> out: depth 3.
  Netlist nl("chain");
  const NodeId in = nl.add_input("in");
  NodeId prev = in;
  for (int i = 0; i < 3; ++i) {
    const NodeId buf = nl.add_gate(GateType::kBuf, "b" + std::to_string(i),
                                   {prev});
    prev = nl.add_dff("q" + std::to_string(i), buf, FfInit::kZero);
  }
  nl.add_output("o", prev);
  const auto r = max_sequential_depth(nl);
  EXPECT_EQ(r.max_depth, 3);
}

TEST(SeqDepthTest, PicksLongerBranch) {
  // Two parallel paths: one with 1 FF, one with 2 FFs.
  Netlist nl("branch");
  const NodeId in = nl.add_input("in");
  const NodeId q1 = nl.add_dff("q1", in, FfInit::kZero);
  const NodeId q2a = nl.add_dff("q2a", in, FfInit::kZero);
  const NodeId q2b = nl.add_dff("q2b", q2a, FfInit::kZero);
  const NodeId merge = nl.add_gate(GateType::kOr, "m", {q1, q2b});
  nl.add_output("o", merge);
  EXPECT_EQ(max_sequential_depth(nl).max_depth, 2);
}

TEST(CycleCensusTest, Figure2CountsOneCycleBeforeRetiming) {
  const Netlist nl = figure2_circuit();
  const CycleCensus c = count_cycles(nl);
  EXPECT_FALSE(c.saturated);
  // Two structural loops share the FF subset {Q1,Q2}: census counts 1.
  EXPECT_EQ(c.num_cycles, 1);
  EXPECT_EQ(c.max_cycle_length, 2);
}

TEST(CycleCensusTest, Figure2CountsTwoCyclesAfterBackwardMove) {
  Netlist nl = figure2_circuit();
  move_backward(nl, nl.find("G3"));
  const CycleCensus c = count_cycles(nl);
  // Q1 split into Q1a/Q1b: subsets {Q1a,Q2} and {Q1b,Q2}.
  EXPECT_EQ(c.num_cycles, 2);
  EXPECT_EQ(c.max_cycle_length, 2);
}

TEST(CycleCensusTest, SelfLoopCounts) {
  Netlist nl("self");
  const NodeId in = nl.add_input("in");
  const NodeId q = nl.add_dff("q", in, FfInit::kZero);
  const NodeId g = nl.add_gate(GateType::kXor, "g", {q, in});
  nl.set_fanin(q, 0, g);
  nl.add_output("o", g);
  const CycleCensus c = count_cycles(nl);
  EXPECT_EQ(c.num_cycles, 1);
  EXPECT_EQ(c.max_cycle_length, 1);
}

TEST(CycleCensusTest, AcyclicHasNone) {
  Netlist nl("acyc");
  const NodeId in = nl.add_input("in");
  const NodeId q = nl.add_dff("q", in, FfInit::kZero);
  nl.add_output("o", q);
  const CycleCensus c = count_cycles(nl);
  EXPECT_EQ(c.num_cycles, 0);
  EXPECT_EQ(c.max_cycle_length, 0);
}

// ---- reachability ----

// mod-3 counter: 00 -> 01 -> 10 -> 00 (state 11 invalid).
Netlist mod3_counter() {
  Netlist nl("mod3");
  const NodeId tie = nl.add_input("tie");  // unused input keeps PIs nonempty
  const NodeId q0 = nl.add_dff("q0", tie, FfInit::kZero);
  const NodeId q1 = nl.add_dff("q1", tie, FfInit::kZero);
  const NodeId n0 = nl.add_gate(GateType::kNot, "n0", {q0});
  const NodeId n1 = nl.add_gate(GateType::kNot, "n1", {q1});
  const NodeId d0 = nl.add_gate(GateType::kAnd, "d0", {n0, n1});
  nl.set_fanin(q0, 0, d0);
  nl.set_fanin(q1, 0, q0);
  nl.add_output("o", q1);
  return nl;
}

TEST(ReachTest, Mod3CounterDensity) {
  const auto r = compute_reachable(mod3_counter());
  EXPECT_EQ(r.num_dffs, 2);
  EXPECT_DOUBLE_EQ(r.num_valid, 3.0);
  EXPECT_DOUBLE_EQ(r.total_states, 4.0);
  EXPECT_DOUBLE_EQ(r.density, 0.75);
  ASSERT_TRUE(r.enumerated);
  std::set<std::string> states;
  for (const auto& s : r.states) states.insert(s.to_string());
  EXPECT_EQ(states, (std::set<std::string>{"00", "01", "10"}));
}

TEST(ReachTest, UnknownInitMakesAllStatesValid) {
  Netlist nl = mod3_counter();
  for (NodeId ff : nl.dffs()) nl.node_mut(ff).init = FfInit::kUnknown;
  const auto r = compute_reachable(nl);
  // Power-up anywhere: 11 is a valid start (transitions to 00 next).
  EXPECT_DOUBLE_EQ(r.num_valid, 4.0);
}

TEST(ReachTest, ResetChainStartsFromUniversalSetNotInitValues) {
  // q holds its value and ignores rst, so the rst=1 chain from all states
  // keeps both codes; q's init value (0) must not narrow the reset set.
  Netlist nl("hold");
  const NodeId rst = nl.add_input("rst");
  const NodeId q = nl.add_dff("q", rst, FfInit::kZero);
  nl.set_fanin(q, 0, q);
  nl.add_output("o", q);
  EXPECT_DOUBLE_EQ(compute_reachable(nl).num_valid, 2.0);
}

TEST(ReachTest, SynthesizedCircuitValidStatesMatchFsm) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == std::string("dk16")) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.6));
  const SynthResult res = synthesize(fsm, {});
  const auto r = compute_reachable(res.netlist);
  // Valid states == minimized machine states (every state reachable), and
  // the explicit set is exactly the encoding's codes.
  EXPECT_DOUBLE_EQ(r.num_valid,
                   static_cast<double>(res.minimized.num_states()));
  ASSERT_TRUE(r.enumerated);
  std::set<std::string> got;
  for (const auto& s : r.states) got.insert(s.to_string());
  std::set<std::string> want;
  for (const auto& c : res.encoding.code) want.insert(c.to_string());
  EXPECT_EQ(got, want);
}

TEST(ReachTest, RetimedCircuitDensityDrops) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == std::string("s820")) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.5));
  SynthOptions opts;
  opts.script = ScriptKind::kDelay;
  const SynthResult res = synthesize(fsm, opts);
  const RetimeResult rt = retime_to_dff_target(res.netlist, 3 * res.netlist.num_dffs(), res.name + ".re");
  const auto orig = compute_reachable(res.netlist);
  const auto re = compute_reachable(rt.netlist);
  EXPECT_GT(re.total_states, orig.total_states);
  EXPECT_LT(re.density, orig.density);
  // Valid states grow slower than total states (paper §5).
  EXPECT_GE(re.num_valid, orig.num_valid);
}

// Explicit-state reference for compute_reachable: every transition is
// taken from SeqSimulator, then the study's two fixpoints run as plain set
// iteration. Reset chain: the rst=1 image of all 2^n states, iterated until
// it repeats. Reached set: a layered BFS under all 2^m input vectors. Each
// image step counts one iteration, as in ReachResult::fixpoint_iterations.
struct ExplicitReach {
  std::set<std::uint64_t> states;
  int iterations = 0;
};

ExplicitReach explicit_reach(const Netlist& nl, const std::string& rst) {
  const std::size_t n = nl.num_dffs();
  const std::size_t m = nl.num_inputs();
  auto bits = [](std::uint64_t v, std::size_t width) {
    std::vector<V3> out(width);
    for (std::size_t i = 0; i < width; ++i)
      out[i] = (v >> i) & 1 ? V3::kOne : V3::kZero;
    return out;
  };
  SeqSimulator sim(nl);
  std::vector<std::uint64_t> next(std::size_t{1} << (n + m));
  for (std::uint64_t s = 0; s < (1ULL << n); ++s) {
    for (std::uint64_t in = 0; in < (1ULL << m); ++in) {
      sim.set_state(bits(s, n));
      sim.step(bits(in, m));
      std::uint64_t ns = 0;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NE(sim.state()[i], V3::kX);
        if (sim.state()[i] == V3::kOne) ns |= 1ULL << i;
      }
      next[(s << m) | in] = ns;
    }
  }
  int rst_bit = -1;
  for (std::size_t j = 0; j < m; ++j)
    if (nl.node(nl.inputs()[j]).name == rst) rst_bit = static_cast<int>(j);
  auto image = [&](const std::set<std::uint64_t>& set, bool reset_held) {
    std::set<std::uint64_t> out;
    for (std::uint64_t s : set)
      for (std::uint64_t in = 0; in < (1ULL << m); ++in)
        if (!reset_held || ((in >> rst_bit) & 1))
          out.insert(next[(s << m) | in]);
    return out;
  };

  ExplicitReach r;
  std::set<std::uint64_t> init;
  for (std::uint64_t s = 0; s < (1ULL << n); ++s) init.insert(s);
  if (rst_bit >= 0) {
    for (;;) {
      std::set<std::uint64_t> img = image(init, true);
      ++r.iterations;
      if (img == init) break;
      init = std::move(img);
    }
  } else {
    std::erase_if(init, [&](std::uint64_t s) {
      for (std::size_t i = 0; i < n; ++i) {
        const FfInit v = nl.node(nl.dffs()[i]).init;
        if (v != FfInit::kUnknown && ((s >> i) & 1) != (v == FfInit::kOne))
          return true;
      }
      return false;
    });
  }
  r.states = init;
  std::set<std::uint64_t> frontier = init;
  for (;;) {
    std::set<std::uint64_t> fresh;
    for (std::uint64_t s : image(frontier, false))
      if (!r.states.count(s)) fresh.insert(s);
    ++r.iterations;
    if (fresh.empty()) break;
    r.states.insert(fresh.begin(), fresh.end());
    frontier = std::move(fresh);
  }
  return r;
}

TEST(ReachTest, MatchesExplicitStateBfsOnCachedCircuits) {
  int circuits = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SATPG_CACHE_DIR)) {
    const std::string file = entry.path().filename().string();
    if (!file.ends_with("_s3_x30.bench")) continue;
    SCOPED_TRACE(file);
    const Netlist nl = read_bench_file(entry.path().string());
    ASSERT_LE(nl.num_dffs() + nl.num_inputs(), 20u);
    const ReachResult r = compute_reachable(nl);
    const ExplicitReach want = explicit_reach(nl, ReachOptions{}.reset_input);
    ASSERT_TRUE(r.enumerated);
    std::set<std::uint64_t> got;
    for (const BitVec& s : r.states) {
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < nl.num_dffs(); ++i)
        if (s.get(i)) v |= 1ULL << i;
      got.insert(v);
    }
    EXPECT_EQ(got, want.states);
    EXPECT_DOUBLE_EQ(r.num_valid, static_cast<double>(want.states.size()));
    EXPECT_EQ(r.fixpoint_iterations, want.iterations);
    ++circuits;
  }
  EXPECT_EQ(circuits, 32);
}

TEST(ReachTest, PaperScaleRetimedCircuitFitsSmallNodeCap) {
  // 29 flip-flops. A monolithic transition relation overflows this cap;
  // the partitioned image stays well inside it.
  const Netlist nl =
      read_bench_file(SATPG_CACHE_DIR "/s510.jo.sr.re_s1_x100.bench");
  ReachOptions opts;
  opts.bdd_node_limit = 2'000'000;
  const ReachResult r = compute_reachable(nl, opts);
  EXPECT_EQ(r.num_dffs, 29);
  EXPECT_DOUBLE_EQ(r.num_valid, 1984.0);
  EXPECT_EQ(r.fixpoint_iterations, 10);
}

// ---- Theorems 2-4 over the synthesized suite ----

class TheoremInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(TheoremInvariance, DepthAndCycleLengthSurviveRetiming) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == std::string(GetParam())) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.45));
  SynthOptions opts;
  opts.script = ScriptKind::kDelay;
  const SynthResult res = synthesize(fsm, opts);
  const RetimeResult rt = retime_to_dff_target(res.netlist, 3 * res.netlist.num_dffs(), res.name + ".re");

  // Theorem 2: max sequential depth invariant. A capped search yields a
  // lower bound, so saturation weakens the check to <= (the theorem itself
  // supplies the other direction).
  const auto d0 = max_sequential_depth(res.netlist);
  const auto d1 = max_sequential_depth(rt.netlist);
  ASSERT_FALSE(d0.saturated);
  if (d1.saturated)
    EXPECT_LE(d1.max_depth, d0.max_depth);
  else
    EXPECT_EQ(d0.max_depth, d1.max_depth);

  // Theorem 4: max cycle length invariant. Theorem 3 + Figure 2: the
  // subset census may only grow.
  const auto c0 = count_cycles(res.netlist);
  const auto c1 = count_cycles(rt.netlist);
  ASSERT_FALSE(c0.saturated);
  ASSERT_FALSE(c1.saturated);
  EXPECT_EQ(c0.max_cycle_length, c1.max_cycle_length);
  EXPECT_GE(c1.num_cycles, c0.num_cycles);
}

INSTANTIATE_TEST_SUITE_P(Suite, TheoremInvariance,
                         ::testing::Values("dk16", "pma", "s820", "s832"));

TEST(DensityTest, WrapperMatchesFullResult) {
  const Netlist nl = mod3_counter();
  EXPECT_DOUBLE_EQ(density_of_encoding(nl), compute_reachable(nl).density);
}

}  // namespace
}  // namespace satpg
