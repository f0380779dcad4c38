// Tests for the ATPG stack: the time-frame model's implication/undo
// machinery, PODEM goals, engine soundness (every detected fault's test is
// fault-simulation verified; every redundant claim cross-checked by
// exhaustive analysis on small circuits), and the three-engine driver.
#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "atpg/parallel.h"
#include "atpg/podem.h"
#include "atpg/scoap.h"
#include "atpg/tfm.h"
#include "fsm/mcnc_suite.h"
#include "sim/simulator.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

// q' = rst ? 0 : !q ; out = q   (1-bit toggler with reset).
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

TEST(TfmTest, InitialStateIsAllX) {
  const Netlist nl = toggler();
  TimeFrameModel tfm(nl, std::nullopt, 2);
  for (int t = 0; t < 2; ++t)
    EXPECT_EQ(tfm.value(t, nl.outputs()[0]).g, V3::kX);
}

TEST(TfmTest, AssignPropagatesAcrossFrames) {
  const Netlist nl = toggler();
  TimeFrameModel tfm(nl, std::nullopt, 3);
  // rst=1 in frame 0 -> q=0 in frame 1 regardless of initial state.
  tfm.assign(0, nl.inputs()[0], V3::kOne);
  EXPECT_EQ(tfm.value(1, nl.dffs()[0]).g, V3::kZero);
  // rst=0 in frame 1 -> q toggles to 1 in frame 2.
  tfm.assign(1, nl.inputs()[0], V3::kZero);
  EXPECT_EQ(tfm.value(2, nl.dffs()[0]).g, V3::kOne);
}

TEST(TfmTest, UndoRestoresExactly) {
  const Netlist nl = toggler();
  TimeFrameModel tfm(nl, std::nullopt, 3);
  std::vector<V5> snapshot;
  for (int t = 0; t < 3; ++t)
    for (std::size_t i = 0; i < nl.num_nodes(); ++i)
      snapshot.push_back(tfm.value(t, static_cast<NodeId>(i)));
  const std::size_t mark = tfm.assign(0, nl.inputs()[0], V3::kOne);
  tfm.assign(1, nl.inputs()[0], V3::kZero);
  tfm.undo_to(mark);
  std::size_t k = 0;
  for (int t = 0; t < 3; ++t)
    for (std::size_t i = 0; i < nl.num_nodes(); ++i)
      EXPECT_EQ(tfm.value(t, static_cast<NodeId>(i)), snapshot[k++]);
}

TEST(TfmTest, PseudoPiAndStemFault) {
  const Netlist nl = toggler();
  const Fault f{nl.dffs()[0], -1, true};  // q stuck at 1
  TimeFrameModel tfm(nl, f, 1);
  // Faulty rail pinned to 1 even with a 0 pseudo-PI assignment.
  tfm.assign(0, nl.dffs()[0], V3::kZero);
  const V5 q = tfm.value(0, nl.dffs()[0]);
  EXPECT_EQ(q.g, V3::kZero);
  EXPECT_EQ(q.f, V3::kOne);
  EXPECT_TRUE(q.is_d());
  // The PO sees the D directly.
  EXPECT_TRUE(tfm.detected_at_po());
}

TEST(TfmTest, EffectPossibleTracksBlocking) {
  const Netlist nl = toggler();
  const Fault f{nl.find("d"), -1, false};  // d s-a-0
  TimeFrameModel tfm(nl, f, 1);
  EXPECT_TRUE(tfm.effect_still_possible(true));
  // Hold rst=1: d is 0 in the good machine too — no excitation possible
  // anywhere in this window.
  tfm.assign(0, nl.inputs()[0], V3::kOne);
  EXPECT_FALSE(tfm.effect_still_possible(true));
}

TEST(PodemTest, FindsDetectionAcrossFrames) {
  const Netlist nl = toggler();
  const Fault f{nl.find("d"), -1, false};
  const Scoap scoap = compute_scoap(nl);
  TimeFrameModel tfm(nl, f, 3);
  Podem podem(tfm, scoap, /*allow_state=*/true, PodemGoal::kDetect);
  PodemBudget budget;
  EXPECT_EQ(podem.search(budget), PodemStatus::kSuccess);
  EXPECT_TRUE(tfm.detected_at_po());
}

TEST(PodemTest, JustifyReachesTargetState) {
  const Netlist nl = toggler();
  const Scoap scoap = compute_scoap(nl);
  TimeFrameModel tfm(nl, std::nullopt, 1);
  // Target: next state q = 0. rst=1 is the easy answer.
  Podem podem(tfm, scoap, true, PodemGoal::kJustify,
              {{nl.dffs()[0], V3::kZero}});
  PodemBudget budget;
  EXPECT_EQ(podem.search(budget), PodemStatus::kSuccess);
  const NodeId d = nl.node(nl.dffs()[0]).fanins[0];
  EXPECT_EQ(tfm.value(0, d).g, V3::kZero);
}

TEST(PodemTest, ExhaustsOnImpossibleJustify) {
  // Target q=1 while holding rst at 1 is impossible... rst is a decision
  // var, so instead ask for an impossible pair: build a circuit where
  // d = AND(a, !a) is constant 0 and demand 1.
  Netlist nl("c0");
  const NodeId a = nl.add_input("a");
  const NodeId na = nl.add_gate(GateType::kNot, "na", {a});
  const NodeId d = nl.add_gate(GateType::kAnd, "d", {a, na});
  const NodeId q = nl.add_dff("q", d, FfInit::kUnknown);
  nl.add_output("o", q);
  const Scoap scoap = compute_scoap(nl);
  TimeFrameModel tfm(nl, std::nullopt, 1);
  Podem podem(tfm, scoap, true, PodemGoal::kJustify, {{q, V3::kOne}});
  PodemBudget budget;
  EXPECT_EQ(podem.search(budget), PodemStatus::kExhausted);
}

TEST(EngineTest, DetectsTogglerFaults) {
  const Netlist nl = toggler();
  EngineOptions opts;
  AtpgEngine engine(nl, opts);
  const Fault f{nl.find("d"), -1, false};
  const auto attempt = engine.generate(f);
  ASSERT_EQ(attempt.status, FaultStatus::kDetected);
  // The engine verified it already; double-check here.
  EXPECT_GE(simulate_fault_serial(nl, f, attempt.sequence), 0);
}

TEST(EngineTest, ProvesUnexcitableFaultRedundant) {
  // y = OR(a, AND(b, !b)): the AND output s-a-0 is redundant.
  Netlist nl("red");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId nb = nl.add_gate(GateType::kNot, "nb", {b});
  const NodeId g = nl.add_gate(GateType::kAnd, "g", {b, nb});
  const NodeId y = nl.add_gate(GateType::kOr, "y", {a, g});
  const NodeId q = nl.add_dff("q", y, FfInit::kUnknown);
  nl.add_output("o", q);
  EngineOptions opts;
  AtpgEngine engine(nl, opts);
  const auto attempt = engine.generate({g, -1, false});
  EXPECT_EQ(attempt.status, FaultStatus::kRedundant);
}

// Soundness sweep: on a synthesized machine every engine's detected faults
// carry verified tests and the redundant ones are never detected by heavy
// random simulation.
class EngineSoundness : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineSoundness, DetectionsVerifiedRedundantsUndetected) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "s820") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.35));
  const SynthResult res = synthesize(fsm, {});
  const Netlist& nl = res.netlist;

  EngineOptions opts;
  opts.kind = GetParam();
  opts.eval_limit = 400'000;
  opts.backtrack_limit = 600;
  AtpgEngine engine(nl, opts);

  const auto collapsed = collapse_faults(nl);
  std::vector<Fault> redundant;
  int detected = 0, aborted = 0;
  for (const auto& cf : collapsed) {
    const auto attempt = engine.generate(cf.representative);
    switch (attempt.status) {
      case FaultStatus::kDetected:
        ++detected;
        EXPECT_GE(
            simulate_fault_serial(nl, cf.representative, attempt.sequence),
            0)
            << fault_name(nl, cf.representative);
        break;
      case FaultStatus::kRedundant:
        redundant.push_back(cf.representative);
        break;
      default:
        ++aborted;
    }
  }
  // The forward-only engine has no pseudo-PI state decisions and no random
  // phase here, so it resolves far fewer faults on its own — the driver
  // pairs it with random warm-up in real runs.
  const double floor = GetParam() == EngineKind::kForward ? 0.25 : 0.75;
  EXPECT_GT(detected, static_cast<int>(collapsed.size() * floor));
  // Redundant faults must survive a serious random barrage.
  if (!redundant.empty()) {
    const auto seqs = make_random_sequences(nl, 16, 64, 99);
    const auto fr = run_fault_simulation(nl, redundant, seqs);
    for (std::size_t i = 0; i < redundant.size(); ++i)
      EXPECT_EQ(fr.detected_at[i], -1)
          << "redundant-labelled fault detected: "
          << fault_name(nl, redundant[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineSoundness,
                         ::testing::Values(EngineKind::kHitec,
                                           EngineKind::kForward,
                                           EngineKind::kLearning),
                         [](const auto& info) {
                           return std::string(engine_kind_name(info.param));
                         });

TEST(DriverTest, RunAtpgProducesConsistentAccounting) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.4));
  const SynthResult res = synthesize(fsm, {});
  ParallelAtpgOptions opts;
  opts.run.engine.eval_limit = 300'000;
  opts.run.engine.backtrack_limit = 500;
  const auto run = run_parallel_atpg(res.netlist, opts).run;
  EXPECT_EQ(run.detected + run.redundant + run.aborted, run.total_faults);
  EXPECT_GE(run.fault_efficiency, run.fault_coverage);
  EXPECT_GT(run.fault_coverage, 80.0);
  EXPECT_FALSE(run.tests.empty());
  EXPECT_GT(run.evals, 0u);
  // The FE trace is monotone non-decreasing in both coordinates.
  for (std::size_t i = 1; i < run.fe_trace.size(); ++i) {
    EXPECT_GE(run.fe_trace[i].first, run.fe_trace[i - 1].first);
    EXPECT_GE(run.fe_trace[i].second, run.fe_trace[i - 1].second - 1e-9);
  }
  // Every reported test detects at least one collapsed fault.
  const auto collapsed = collapse_faults(res.netlist);
  std::vector<Fault> faults;
  for (const auto& cf : collapsed) faults.push_back(cf.representative);
  for (const auto& seq : run.tests) {
    const auto fr = run_fault_simulation(res.netlist, faults, {seq});
    EXPECT_GT(fr.num_detected, 0u);
  }
}

TEST(DriverTest, StrictModeNeverExceedsPotentialCredit) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.4));
  const SynthResult res = synthesize(fsm, {});
  ParallelAtpgOptions credit;
  credit.run.engine.eval_limit = 200'000;
  credit.run.engine.backtrack_limit = 300;
  ParallelAtpgOptions strict = credit;
  strict.run.count_potential_detections = false;
  const auto r1 = run_parallel_atpg(res.netlist, credit).run;
  const auto r0 = run_parallel_atpg(res.netlist, strict).run;
  EXPECT_LE(r0.fault_coverage, r1.fault_coverage + 1e-9);
}

// Regression for the per-search budget bug: the eval budget used to be
// rebuilt for every window growth and every recursive justification level,
// so a single hard fault could burn many multiples of eval_limit. The
// budget is now one cumulative counter per fault across all phases
// (propagation windows, justification recursion, redundancy check).
TEST(EngineBudgetTest, EvalBudgetIsCumulativePerFault) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.4));
  const SynthResult res = synthesize(fsm, {});
  const Netlist& nl = res.netlist;

  EngineOptions opts;
  opts.eval_limit = 5'000;
  opts.backtrack_limit = 1'000'000;  // evals are the binding constraint
  AtpgEngine engine(nl, opts);

  std::uint64_t sum = 0;
  int aborted = 0;
  for (const auto& cf : collapse_faults(nl)) {
    const auto attempt = engine.generate(cf.representative);
    sum += attempt.stats.evals;
    if (attempt.status == FaultStatus::kAborted) ++aborted;
    // Slack of one eval_limit absorbs the final propagation pass that runs
    // between the last budget check and the abort; anything above 2x means
    // some phase got a fresh budget again.
    EXPECT_LT(attempt.stats.evals, 2 * opts.eval_limit)
        << fault_name(nl, cf.representative);
  }
  // Accounting: the engine's cumulative counter is the sum of per-attempt
  // work, and the tight limit actually bites so the bound above is
  // exercised (if it never aborts, the test checks nothing — recalibrate).
  EXPECT_EQ(engine.total_evals(), sum);
  EXPECT_GT(aborted, 0);
}

TEST(RandomSequenceTest, AssertsResetFirst) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.4));
  const SynthResult res = synthesize(fsm, {});
  const auto seqs = make_random_sequences(res.netlist, 3, 10, 5);
  int rst_index = -1;
  for (std::size_t i = 0; i < res.netlist.inputs().size(); ++i)
    if (res.netlist.node(res.netlist.inputs()[i]).name == "rst")
      rst_index = static_cast<int>(i);
  ASSERT_GE(rst_index, 0);
  for (const auto& seq : seqs)
    EXPECT_EQ(seq[0][static_cast<std::size_t>(rst_index)], V3::kOne);
}

}  // namespace
}  // namespace satpg
