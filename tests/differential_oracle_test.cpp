// Differential oracles for the ATPG stack: every detected sequence must be
// confirmed by an independent serial fault-simulation replay from the all-X
// power-up state AND by a two-machine replay on src/sim with the fault
// injected structurally; the good-machine time-frame model is cross-checked
// gate-by-gate against the sequential simulator; redundancy verdicts are
// cross-checked against BDD sequential equivalence of the fault-injected
// netlist.
//
// The two detection oracles share src/sim's gate fold but not the fault
// model: the serial fault simulator overlays the fault on SeqSimulator,
// the other rewrites the netlist (fault_inject.h) and steps it fault-free.
// The overlay itself, on SeqSimulator and on the BDD node functions, is
// checked here against the rewrite for every fault of a few machines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/bddcircuit.h"
#include "analysis/seqec.h"
#include "atpg/parallel.h"
#include "atpg/tfm.h"
#include "base/rng.h"
#include "bdd/bdd.h"
#include "fault_inject.h"
#include "fsim/fsim.h"
#include "fsm/mcnc_suite.h"
#include "netlist/bench_io.h"
#include "sim/simulator.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

Netlist mcnc_circuit(const std::string& name, double scale) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == name) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, scale));
  return synthesize(fsm, {}).netlist;
}

ParallelAtpgResult strict_run(const Netlist& nl,
                              EngineKind kind = EngineKind::kHitec) {
  ParallelAtpgOptions popts;
  popts.run.engine.kind = kind;
  popts.run.engine.eval_limit = 150'000;
  popts.run.engine.backtrack_limit = 300;
  popts.run.random_sequences = 4;
  popts.run.random_length = 24;
  popts.run.count_potential_detections = false;
  popts.num_threads = 2;
  return run_parallel_atpg(nl, popts);
}

// --- detections --------------------------------------------------------------

TEST(DifferentialOracleTest, EveryDetectionReplaysUnderTwoIndependentOracles) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  const auto collapsed = collapse_faults(nl);
  const auto r = strict_run(nl);
  ASSERT_EQ(r.status.size(), collapsed.size());

  std::size_t checked = 0, weighted_detected = 0;
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    if (r.status[i] != FaultStatus::kDetected) continue;
    weighted_detected +=
        static_cast<std::size_t>(collapsed[i].class_size);
    const Fault& f = collapsed[i].representative;
    ASSERT_GE(r.detected_by[i], 0) << fault_name(nl, f);
    ASSERT_LT(static_cast<std::size_t>(r.detected_by[i]),
              r.run.tests.size());
    const TestSequence& seq =
        r.run.tests[static_cast<std::size_t>(r.detected_by[i])];
    // Oracle 1: serial three-valued fault simulation from all-X power-up.
    EXPECT_GE(simulate_fault_serial(nl, f, seq), 0) << fault_name(nl, f);
    // Oracle 2: structural injection + two-machine src/sim replay.
    EXPECT_TRUE(seqsim_detects(nl, inject_fault(nl, f), seq))
        << fault_name(nl, f);
    ++checked;
  }
  EXPECT_GT(checked, collapsed.size() / 2);
  // Strict statuses must reconcile with the strict summary numbers.
  EXPECT_EQ(weighted_detected, r.run.detected);
}

// Same two-oracle replay for the SAT engine: every kCdcl detection — a
// model of the Tseitin time-frame CNF lifted to a vector sequence — must
// be confirmed by the serial fault simulator AND by structural injection
// on the src/sim two-machine replay, neither of which shares a line of
// code with the CNF encoder.
TEST(DifferentialOracleTest, EveryCdclDetectionReplaysUnderTwoIndependentOracles) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  const auto collapsed = collapse_faults(nl);
  const auto r = strict_run(nl, EngineKind::kCdcl);
  ASSERT_EQ(r.status.size(), collapsed.size());

  std::size_t checked = 0;
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    if (r.status[i] != FaultStatus::kDetected) continue;
    const Fault& f = collapsed[i].representative;
    ASSERT_GE(r.detected_by[i], 0) << fault_name(nl, f);
    const TestSequence& seq =
        r.run.tests[static_cast<std::size_t>(r.detected_by[i])];
    EXPECT_GE(simulate_fault_serial(nl, f, seq), 0) << fault_name(nl, f);
    EXPECT_TRUE(seqsim_detects(nl, inject_fault(nl, f), seq))
        << fault_name(nl, f);
    ++checked;
  }
  EXPECT_GT(checked, collapsed.size() / 2);
}

// --- the fault overlay against structural injection -------------------------

// Every fault-site kind on a few gates: XOR/XNOR, a 5-input AND, a
// constant, PI and FF stems, DFF D pins and PO marker pins.
Netlist overlay_machine() {
  Netlist nl("overlay");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId d = nl.add_input("d");
  const NodeId e = nl.add_input("e");
  const NodeId q1 = nl.add_dff("q1", a, FfInit::kUnknown);
  const NodeId q2 = nl.add_dff("q2", b, FfInit::kZero);
  const NodeId x1 = nl.add_gate(GateType::kXor, "x1", {a, q1});
  const NodeId x2 = nl.add_gate(GateType::kXnor, "x2", {b, c, q2});
  const NodeId a5 = nl.add_gate(GateType::kAnd, "a5", {a, b, c, d, e});
  const NodeId k1 = nl.add_const(true, "k1");
  const NodeId n1 = nl.add_gate(GateType::kNand, "n1", {x1, k1});
  const NodeId o1 = nl.add_gate(GateType::kOr, "o1", {a5, x2, n1});
  const NodeId nt = nl.add_gate(GateType::kNot, "nt", {o1});
  const NodeId be = nl.add_gate(GateType::kBuf, "be", {e});
  const NodeId r2 = nl.add_gate(GateType::kNor, "r2", {x1, be});
  nl.set_fanin(q1, 0, o1);
  nl.set_fanin(q2, 0, r2);
  nl.add_output("o_x2", x2);
  nl.add_output("o_nt", nt);
  nl.add_output("o_q2", q2);
  nl.add_output("o_a5", a5);
  return nl;
}

// SeqSimulator with a fault overlaid must step exactly like the
// structurally injected netlist: from all-X, over seeded random sequences
// with X inputs, the same PO and next-state values in every frame, for
// every fault of enumerate_faults on a hand-built machine and on a cached
// synthesized circuit and its retimed twin.
TEST(DifferentialOracleTest, SeqSimulatorOverlayMatchesInjectionPerFrame) {
  const std::string dir = SATPG_CACHE_DIR;
  const std::vector<Netlist> circuits = {
      overlay_machine(),
      read_bench_file(dir + "/dk16.ji.sd_s3_x30.bench"),
      read_bench_file(dir + "/dk16.ji.sd.re_s3_x30.bench")};
  for (const Netlist& nl : circuits) {
    Rng rng(17);
    std::vector<TestSequence> seqs(3);
    for (auto& seq : seqs)
      for (int t = 0; t < 12; ++t) {
        std::vector<V3> pi(nl.num_inputs());
        for (auto& v : pi)
          v = rng.next_below(8) == 0 ? V3::kX
              : rng.next_bool()      ? V3::kOne
                                     : V3::kZero;
        seq.push_back(pi);
      }
    const std::vector<V3> all_x(nl.num_dffs(), V3::kX);
    const auto faults = enumerate_faults(nl);
    ASSERT_GT(faults.size(), 40u) << nl.name();
    for (const Fault& f : faults) {
      const Netlist injected = inject_fault(nl, f);
      for (const TestSequence& seq : seqs) {
        SeqSimulator overlay(nl, f), reference(injected);
        overlay.set_state(all_x);
        reference.set_state(all_x);
        for (std::size_t t = 0; t < seq.size(); ++t) {
          ASSERT_EQ(overlay.step(seq[t]), reference.step(seq[t]))
              << nl.name() << " " << fault_name(nl, f) << " frame " << t;
          ASSERT_EQ(overlay.state(), reference.state())
              << nl.name() << " " << fault_name(nl, f) << " frame " << t;
        }
      }
    }
  }
}

// The faulted build_node_functions must give every PO marker the function
// the injected netlist gives it, and every flip-flop (through state_bits,
// which forces a D-pin fault) the injected netlist's next-state function.
TEST(DifferentialOracleTest, BddOverlayMatchesInjectionAtPosAndDffs) {
  const Netlist nl = overlay_machine();
  const BddVarMap vm =
      BddVarMap::single(static_cast<unsigned>(nl.num_dffs()),
                        static_cast<unsigned>(nl.num_inputs()));
  BddMgr mgr(vm.total());
  for (const Fault& f : enumerate_faults(nl)) {
    const Netlist injected = inject_fault(nl, f);
    const auto fn = build_node_functions(nl, mgr, vm, f);
    const auto ref = build_node_functions(injected, mgr, vm);
    for (NodeId po : nl.outputs())
      EXPECT_EQ(fn[static_cast<std::size_t>(po)],
                ref[static_cast<std::size_t>(po)])
          << fault_name(nl, f) << " at " << nl.node(po).name;
    const auto bits = state_bits(nl, mgr, vm, fn, f);
    const auto ref_bits = state_bits(injected, mgr, vm, ref);
    for (std::size_t i = 0; i < bits.size(); ++i)
      EXPECT_EQ(bits[i].next, ref_bits[i].next)
          << fault_name(nl, f) << " at " << nl.node(nl.dffs()[i]).name;
  }
}

// --- good-machine cross-check ------------------------------------------------

// The time-frame model (the engine's view of the good machine) must agree
// gate-by-gate, frame-by-frame with the sequential simulator when both
// start from the all-X power-up state and see the same input vectors.
TEST(DifferentialOracleTest, TimeFrameModelMatchesSimulatorGateByGate) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  const auto r = strict_run(nl);
  ASSERT_FALSE(r.run.tests.empty());

  std::size_t sequences = 0;
  for (const auto& seq : r.run.tests) {
    if (sequences++ >= 6) break;
    const int frames = static_cast<int>(std::min<std::size_t>(seq.size(), 12));
    TimeFrameModel tfm(nl, std::nullopt, frames);
    SeqSimulator sim(nl);
    sim.set_state(std::vector<V3>(nl.num_dffs(), V3::kX));
    for (int t = 0; t < frames; ++t) {
      for (std::size_t i = 0; i < nl.num_inputs(); ++i)
        if (seq[static_cast<std::size_t>(t)][i] != V3::kX)
          tfm.assign(t, nl.inputs()[i], seq[static_cast<std::size_t>(t)][i]);
      sim.eval_outputs(seq[static_cast<std::size_t>(t)]);
      for (std::size_t n = 0; n < nl.num_nodes(); ++n) {
        const auto& node = nl.node(static_cast<NodeId>(n));
        if (node.dead) continue;
        EXPECT_EQ(tfm.value(t, static_cast<NodeId>(n)).g,
                  sim.value(static_cast<NodeId>(n)))
            << "node " << node.name << " frame " << t;
      }
      sim.set_state(sim.next_state());
    }
  }
}

// --- redundancy --------------------------------------------------------------

// A hand-built redundancy: y = OR(a, AND(b, !b)); the AND output s-a-0 is
// unexcitable. State space is 2, so exhaustive two-machine comparison over
// every (state, input) is a complete oracle.
TEST(DifferentialOracleTest, HandRedundancyIsBehaviourallyInvisible) {
  Netlist nl("red");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId nb = nl.add_gate(GateType::kNot, "nb", {b});
  const NodeId g = nl.add_gate(GateType::kAnd, "g", {b, nb});
  const NodeId y = nl.add_gate(GateType::kOr, "y", {a, g});
  const NodeId q = nl.add_dff("q", y, FfInit::kUnknown);
  nl.add_output("o", q);

  const Fault f{g, -1, false};
  AtpgEngine engine(nl, {});
  ASSERT_EQ(engine.generate(f).status, FaultStatus::kRedundant);
  // The SAT engine must reach the same verdict through its own proof path
  // (UNSAT single-frame dual-rail CNF instead of PODEM exhaustion).
  EngineOptions cdcl_opts;
  cdcl_opts.kind = EngineKind::kCdcl;
  AtpgEngine cdcl_engine(nl, cdcl_opts);
  ASSERT_EQ(cdcl_engine.generate(f).status, FaultStatus::kRedundant);

  const Netlist faulty = inject_fault(nl, f);
  SeqSimulator sg(nl), sf(faulty);
  for (int state = 0; state < 2; ++state) {
    for (int in = 0; in < 4; ++in) {
      const std::vector<V3> st{state ? V3::kOne : V3::kZero};
      const std::vector<V3> pi{(in & 1) ? V3::kOne : V3::kZero,
                               (in & 2) ? V3::kOne : V3::kZero};
      sg.set_state(st);
      sf.set_state(st);
      EXPECT_EQ(sg.step(pi), sf.step(pi)) << "state " << state << " in " << in;
      EXPECT_EQ(sg.next_state(), sf.next_state())
          << "state " << state << " in " << in;
    }
  }
}

// Engine-redundant faults on a synthesized machine must leave the circuit
// sequentially equivalent to the fault-free original (BDD product-machine
// proof). The engine's free-state single-frame proof is strictly stronger
// than reset-synchronized equivalence, so equivalence must always hold.
TEST(DifferentialOracleTest, RedundantFaultsAreSequentiallyEquivalent) {
  // s820 at this scale is the smallest suite member whose synthesis leaves
  // engine-provable redundancies (dk16 has none at any scale).
  const Netlist nl = mcnc_circuit("s820", 0.5);
  // The oracle itself must accept the identity before we trust it on
  // injected netlists.
  try {
    ASSERT_TRUE(check_sequential_equivalence(nl, nl).equivalent);
  } catch (const BddOverflow&) {
    GTEST_SKIP() << "circuit too large for the BDD oracle";
  }

  const auto collapsed = collapse_faults(nl);
  const auto r = strict_run(nl);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    if (r.status[i] != FaultStatus::kRedundant) continue;
    const Fault& f = collapsed[i].representative;
    try {
      const auto eq = check_sequential_equivalence(nl, inject_fault(nl, f));
      EXPECT_TRUE(eq.equivalent)
          << fault_name(nl, f) << ": " << eq.note;
      ++checked;
    } catch (const BddOverflow&) {
      // Intractable instance: the verdict is checked elsewhere by random
      // barrage (atpg_test) and reachability enumeration (property_test).
    }
  }
  // dk16 at this scale is expected to expose at least one redundancy; if
  // synthesis changes that, the test silently checks nothing — fail loudly
  // instead so the calibration gets revisited.
  EXPECT_GT(checked, 0u);
}

// Every kCdcl `redundant` verdict (an UNSAT proof over the single-frame
// dual-rail CNF with free state) must be confirmed by the BDD sequential-
// equivalence prover on the fault-injected netlist — the independent proof
// path the study's redundancy claims rest on.
TEST(DifferentialOracleTest, CdclRedundantVerdictsAreSequentiallyEquivalent) {
  const Netlist nl = mcnc_circuit("s820", 0.5);
  try {
    ASSERT_TRUE(check_sequential_equivalence(nl, nl).equivalent);
  } catch (const BddOverflow&) {
    GTEST_SKIP() << "circuit too large for the BDD oracle";
  }

  const auto collapsed = collapse_faults(nl);
  const auto r = strict_run(nl, EngineKind::kCdcl);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    if (r.status[i] != FaultStatus::kRedundant) continue;
    const Fault& f = collapsed[i].representative;
    try {
      const auto eq = check_sequential_equivalence(nl, inject_fault(nl, f));
      EXPECT_TRUE(eq.equivalent) << fault_name(nl, f) << ": " << eq.note;
      ++checked;
    } catch (const BddOverflow&) {
      // Intractable instance; covered by the reachability barrage in
      // property_test.
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace satpg
