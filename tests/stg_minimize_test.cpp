// STG extraction + minimizer property tests: the synthesized netlist's
// extracted state graph must agree with the source FSM state-for-state,
// and minimization must be idempotent and behaviour-preserving.
#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.h"
#include "fsm/fsm.h"
#include "fsm/mcnc_suite.h"
#include "fsm/minimize.h"
#include "fsm/stg_extract.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

TEST(StgExtractTest, RecoversCounterGraph) {
  // mod-3 counter: 3 states, deterministic autonomous graph.
  Netlist nl("mod3");
  const NodeId tie = nl.add_input("tie");
  const NodeId q0 = nl.add_dff("q0", tie, FfInit::kZero);
  const NodeId q1 = nl.add_dff("q1", tie, FfInit::kZero);
  const NodeId n0 = nl.add_gate(GateType::kNot, "n0", {q0});
  const NodeId n1 = nl.add_gate(GateType::kNot, "n1", {q1});
  const NodeId d0 = nl.add_gate(GateType::kAnd, "d0", {n0, n1});
  nl.set_fanin(q0, 0, d0);
  nl.set_fanin(q1, 0, q0);
  nl.add_output("o", q1);

  StgExtractOptions opts;
  opts.fixed_inputs = {V3::kZero};
  const auto stg = extract_stg(nl, BitVec::from_string("00"), opts);
  EXPECT_FALSE(stg.truncated);
  ASSERT_EQ(stg.states.size(), 3u);
  // 00 -> 01 -> 10 -> 00 (codes are [q1 q0] MSB-first in to_string()).
  EXPECT_EQ(stg.states[0].to_string(), "00");
  EXPECT_EQ(stg.states[1].to_string(), "01");
  EXPECT_EQ(stg.states[2].to_string(), "10");
  ASSERT_EQ(stg.edges.size(), 3u);
  EXPECT_EQ(stg.edges[0].to, 1);
  EXPECT_EQ(stg.edges[1].to, 2);
  EXPECT_EQ(stg.edges[2].to, 0);
}

TEST(StgExtractTest, SynthesizedCircuitStgMatchesFsm) {
  // Full loop: FSM -> netlist -> extracted STG == FSM (state count and
  // per-edge behaviour), probing every FSM input.
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.4));
  const SynthResult res = synthesize(fsm, {});
  const Fsm& m = res.minimized;
  const Netlist& nl = res.netlist;

  StgExtractOptions opts;
  opts.fixed_inputs.assign(nl.num_inputs(), V3::kZero);  // rst held 0
  for (std::size_t i = 0; i + 1 < nl.num_inputs(); ++i)  // all but rst
    opts.probe_inputs.push_back(i);

  const BitVec start =
      res.encoding.code[static_cast<std::size_t>(m.reset_state())];
  const auto stg = extract_stg(nl, start, opts);
  EXPECT_FALSE(stg.truncated);
  EXPECT_EQ(static_cast<int>(stg.states.size()), m.num_states());

  // Every edge agrees with the symbolic machine.
  for (const auto& e : stg.edges) {
    const int from_fsm = res.encoding.state_of(
        stg.states[static_cast<std::size_t>(e.from)]);
    ASSERT_GE(from_fsm, 0);
    BitVec fsm_in(static_cast<std::size_t>(m.num_inputs()));
    for (std::size_t k = 0; k < opts.probe_inputs.size(); ++k)
      fsm_in.set(opts.probe_inputs[k], e.input.get(k));
    const auto step = m.step(from_fsm, fsm_in);
    ASSERT_TRUE(step.specified);
    EXPECT_EQ(res.encoding.state_of(
                  stg.states[static_cast<std::size_t>(e.to)]),
              step.next_state);
    for (int o = 0; o < m.num_outputs(); ++o) {
      if (step.outputs[static_cast<std::size_t>(o)] == V3::kX) continue;
      EXPECT_EQ(e.outputs[static_cast<std::size_t>(o)],
                step.outputs[static_cast<std::size_t>(o)]);
    }
  }
}

TEST(MinimizeProperty, IdempotentOnSuiteMachines) {
  for (const char* name : {"dk16", "s820", "s832"}) {
    FsmGenSpec spec;
    for (const auto& s : mcnc_specs())
      if (s.name == name) spec = s;
    const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.4));
    const Fsm once = minimize_fsm(fsm);
    const Fsm twice = minimize_fsm(once);
    EXPECT_EQ(once.num_states(), twice.num_states()) << name;
  }
}

TEST(MinimizeProperty, PreservesBehaviourInLockStep) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "s832") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.5));
  const Fsm min = minimize_fsm(fsm);
  Rng rng(4);
  int s_full = fsm.reset_state();
  int s_min = min.reset_state();
  for (int t = 0; t < 500; ++t) {
    BitVec in(static_cast<std::size_t>(fsm.num_inputs()));
    for (std::size_t b = 0; b < in.size(); ++b) in.set(b, rng.next_bool());
    const auto a = fsm.step(s_full, in);
    const auto b = min.step(s_min, in);
    ASSERT_TRUE(a.specified && b.specified);
    for (int o = 0; o < fsm.num_outputs(); ++o) {
      const auto av = a.outputs[static_cast<std::size_t>(o)];
      const auto bv = b.outputs[static_cast<std::size_t>(o)];
      if (av != V3::kX && bv != V3::kX) {
        EXPECT_EQ(av, bv) << "cycle " << t;
      }
    }
    s_full = a.next_state;
    s_min = b.next_state;
  }
}

}  // namespace
}  // namespace satpg
