// Tests for the exact product-machine analyses: fault detectability /
// SRF taxonomy (srf.h) and sequential equivalence checking (seqec.h).
#include <gtest/gtest.h>

#include "analysis/bddcircuit.h"
#include "analysis/seqec.h"
#include "analysis/srf.h"
#include "atpg/engine.h"
#include "fault/fault.h"
#include "fsm/mcnc_suite.h"
#include "retime/retime.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

// q' = rst ? 0 : !q ; out = q.
Netlist toggler() {
  Netlist nl("tog");
  const NodeId rst = nl.add_input("rst");
  const NodeId q = nl.add_dff("q", rst, FfInit::kUnknown);
  const NodeId nq = nl.add_gate(GateType::kNot, "nq", {q});
  const NodeId nrst = nl.add_gate(GateType::kNot, "nrst", {rst});
  const NodeId d = nl.add_gate(GateType::kAnd, "d", {nq, nrst});
  nl.set_fanin(q, 0, d);
  nl.add_output("o", q);
  return nl;
}

TEST(SrfTest, DetectableFaultClassified) {
  const Netlist nl = toggler();
  EXPECT_EQ(classify_srf(nl, {nl.find("d"), -1, false}),
            SrfClass::kDetectable);
}

TEST(SrfTest, InvalidSrfOnUnexcitableLine) {
  // g = AND(b, !b) is always 0: g s-a-0 has no excitation state at all.
  Netlist nl("red");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId nb = nl.add_gate(GateType::kNot, "nb", {b});
  const NodeId g = nl.add_gate(GateType::kAnd, "g", {b, nb});
  const NodeId y = nl.add_gate(GateType::kOr, "y", {a, g});
  const NodeId q = nl.add_dff("q", y, FfInit::kZero);
  nl.add_output("o", q);
  EXPECT_EQ(classify_srf(nl, {g, -1, false}), SrfClass::kInvalidSrf);
  // g s-a-1 IS excitable (g would be 0, stuck makes it 1) and observable.
  EXPECT_EQ(classify_srf(nl, {g, -1, true}), SrfClass::kDetectable);
}

TEST(SrfTest, UnobservableSrf) {
  // Fault on logic masked by a constant-like OR: y = a OR (a AND x) —
  // the AND's output fault never changes y... use: y = OR(a, g), g=AND(a,x):
  // g s-a-0: excitable (a=1,x=1 makes g=1) but y stays a. Unobservable.
  Netlist nl("mask");
  const NodeId a = nl.add_input("a");
  const NodeId x = nl.add_input("x");
  const NodeId g = nl.add_gate(GateType::kAnd, "g", {a, x});
  const NodeId y = nl.add_gate(GateType::kOr, "y", {a, g});
  const NodeId q = nl.add_dff("q", y, FfInit::kZero);
  nl.add_output("o", q);
  EXPECT_EQ(classify_srf(nl, {g, -1, false}), SrfClass::kUnobservableSrf);
}

TEST(SrfTest, InvalidStateExcitationIsInvalidSrf) {
  // mod-3 counter (state 11 unreachable); a fault excitable ONLY in state
  // 11 is an invalid-SRF. Build: flag = AND(q0, q1); out = OR(q1, flag).
  // flag s-a-1? excitable whenever flag==0 — reachable. Instead target
  // flag s-a-0: excitation needs flag==1, i.e. state 11 — invalid.
  Netlist nl("mod3x");
  const NodeId tie = nl.add_input("tie");
  const NodeId q0 = nl.add_dff("q0", tie, FfInit::kZero);
  const NodeId q1 = nl.add_dff("q1", tie, FfInit::kZero);
  const NodeId n0 = nl.add_gate(GateType::kNot, "n0", {q0});
  const NodeId n1 = nl.add_gate(GateType::kNot, "n1", {q1});
  const NodeId d0 = nl.add_gate(GateType::kAnd, "d0", {n0, n1});
  nl.set_fanin(q0, 0, d0);
  nl.set_fanin(q1, 0, q0);
  const NodeId flag = nl.add_gate(GateType::kAnd, "flag", {q0, q1});
  const NodeId out = nl.add_gate(GateType::kOr, "out", {q1, flag});
  nl.add_output("o", out);
  SrfOptions opts;
  opts.reset_input = "";  // init comes from the FF init values
  EXPECT_EQ(classify_srf(nl, {flag, -1, false}, opts),
            SrfClass::kInvalidSrf);
}

// classify_srf reads a stem-faulted line's unforced function through
// node_function. On every node of a synthesized machine it must equal the
// function an unfaulted build_node_functions gives the node, and a faulted
// build must leave the fan-ins of the stem it forces unchanged.
TEST(SrfTest, NodeFunctionMatchesUnfaultedBuild) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const SynthResult res =
      synthesize(generate_control_fsm(scaled_spec(spec, 0.35)), {});
  const Netlist& nl = res.netlist;
  const BddVarMap vm = BddVarMap::single(
      static_cast<unsigned>(nl.num_dffs()),
      static_cast<unsigned>(nl.num_inputs()));
  BddMgr mgr(vm.total());
  const auto fn = build_node_functions(nl, mgr, vm);
  std::vector<NodeId> nodes = nl.inputs();
  nodes.insert(nodes.end(), nl.dffs().begin(), nl.dffs().end());
  for (NodeId id : nl.topo_order())
    if (is_combinational(nl.node(id).type) ||
        nl.node(id).type == GateType::kOutput)
      nodes.push_back(id);
  ASSERT_GT(nl.num_dffs(), 0u);
  ASSERT_GT(nodes.size(), 20u);
  for (NodeId id : nodes) {
    EXPECT_EQ(node_function(nl, mgr, vm, fn, id),
              fn[static_cast<std::size_t>(id)])
        << nl.node(id).name;
    const auto faulty = build_node_functions(nl, mgr, vm, Fault{id, -1, true});
    EXPECT_EQ(node_function(nl, mgr, vm, faulty, id),
              fn[static_cast<std::size_t>(id)])
        << nl.node(id).name << " s-a-1";
  }
}

TEST(SrfTest, OracleAuditsEngineOnSmallMachine) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.35));
  const SynthResult res = synthesize(fsm, {});
  const Netlist& nl = res.netlist;

  EngineOptions eopts;
  eopts.eval_limit = 300'000;
  eopts.backtrack_limit = 400;
  AtpgEngine engine(nl, eopts);
  SrfOptions sopts;
  int audited = 0;
  for (const auto& cf : collapse_faults(nl)) {
    const auto attempt = engine.generate(cf.representative);
    const SrfClass oracle = classify_srf(nl, cf.representative, sopts);
    if (attempt.status == FaultStatus::kDetected) {
      // Everything the engine detects must be detectable.
      EXPECT_EQ(oracle, SrfClass::kDetectable)
          << fault_name(nl, cf.representative);
      ++audited;
    } else if (attempt.status == FaultStatus::kRedundant) {
      // Everything the engine proves redundant must be non-detectable.
      EXPECT_NE(oracle, SrfClass::kDetectable)
          << fault_name(nl, cf.representative);
      ++audited;
    }
  }
  EXPECT_GT(audited, 50);
}

TEST(SeqecTest, CircuitEquivalentToItself) {
  const Netlist nl = toggler();
  const auto r = check_sequential_equivalence(nl, nl);
  EXPECT_TRUE(r.equivalent) << r.note;
}

TEST(SeqecTest, DetectsBehaviouralDifference) {
  const Netlist a = toggler();
  Netlist b = toggler();
  // Flip the output polarity of b.
  const NodeId o = b.outputs()[0];
  const NodeId drv = b.node(o).fanins[0];
  const NodeId inv = b.add_gate(GateType::kNot, "flip", {drv});
  b.set_fanin(o, 0, inv);
  const auto r = check_sequential_equivalence(a, b);
  EXPECT_FALSE(r.equivalent);
  EXPECT_NE(r.note.find("output"), std::string::npos);
}

TEST(SeqecTest, InterfaceMismatchReported) {
  const Netlist a = toggler();
  Netlist b("other");
  b.add_input("rst");
  b.add_input("extra");
  const auto r = check_sequential_equivalence(a, b);
  EXPECT_FALSE(r.equivalent);
  EXPECT_EQ(r.note, "interface mismatch");
}

// q' = first & second ; out = q, with the inputs declared in the given order.
Netlist and_register(const char* first, const char* second) {
  Netlist nl("andreg");
  const NodeId x = nl.add_input(first);
  const NodeId y = nl.add_input(second);
  const NodeId d = nl.add_gate(GateType::kAnd, "d", {x, y});
  nl.add_output("o", nl.add_dff("q", d, FfInit::kZero));
  return nl;
}

TEST(SeqecTest, InputNameMismatchReported) {
  const auto r = check_sequential_equivalence(and_register("x", "y"),
                                              and_register("x", "z"));
  EXPECT_FALSE(r.equivalent);
  EXPECT_EQ(r.note, "input name mismatch: y");
}

TEST(SeqecTest, InputOrderMismatchReported) {
  // The same machine with its inputs declared the other way round.
  const auto r = check_sequential_equivalence(and_register("x", "y"),
                                              and_register("y", "x"));
  EXPECT_FALSE(r.equivalent);
  EXPECT_EQ(r.note, "input order differs; align inputs before checking");
}

TEST(SeqecTest, ProvesRetimingEquivalence) {
  // Formal version of the randomized retiming tests: the scatter-retimed
  // circuit is sequentially equivalent to its original.
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "s820") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.35));
  const SynthResult res = synthesize(fsm, {});
  const RetimeResult rt = retime_to_dff_target(
      res.netlist, 2 * res.netlist.num_dffs(), res.name + ".re");
  const auto r = check_sequential_equivalence(res.netlist, rt.netlist);
  EXPECT_TRUE(r.equivalent) << r.note;
}

TEST(SeqecTest, ProvesSynthesisScriptsAgree)
{
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.35));
  SynthOptions rugged;
  rugged.script = ScriptKind::kRugged;
  SynthOptions delay;
  delay.script = ScriptKind::kDelay;
  const auto a = synthesize(fsm, rugged);
  const auto b = synthesize(fsm, delay);
  const auto r = check_sequential_equivalence(a.netlist, b.netlist);
  EXPECT_TRUE(r.equivalent) << r.note;
}

}  // namespace
}  // namespace satpg
