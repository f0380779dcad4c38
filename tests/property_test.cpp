// Cross-module property tests: randomized invariants that tie the
// substrates together (simulation vs BDD semantics, retiming legality
// sweeps, fault-collapse soundness under simulation, espresso on wider
// functions, cover algebra laws, ATPG fault-dropping invariance and
// redundancy-vs-reachability agreement).
#include <gtest/gtest.h>

#include <set>

#include "analysis/bddcircuit.h"
#include "analysis/reach.h"
#include "atpg/parallel.h"
#include "fsm/mcnc_suite.h"
#include "base/rng.h"
#include "bdd/bdd.h"
#include "fault_inject.h"
#include "fault/fault.h"
#include "fsim/fsim.h"
#include "netlist/bench_io.h"
#include "netlist/netlist.h"
#include "retime/retime.h"
#include "sim/simulator.h"
#include "synth/cover.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

// Random small sequential circuit: `pis` inputs, `ffs` flip-flops,
// `gates` gates, all-zero FF init, every FF fed from the gate pool.
Netlist random_circuit(std::uint64_t seed, int pis, int ffs, int gates) {
  Rng rng(seed * 1315423911u + 7);
  Netlist nl("rand" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i)
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  std::vector<NodeId> dffs;
  for (int i = 0; i < ffs; ++i) {
    const NodeId q = nl.add_dff("q" + std::to_string(i), pool[0],
                                FfInit::kZero);
    dffs.push_back(q);
    pool.push_back(q);
  }
  for (int g = 0; g < gates; ++g) {
    const GateType types[] = {GateType::kAnd, GateType::kOr, GateType::kNand,
                              GateType::kNor, GateType::kXor, GateType::kNot};
    const GateType t = types[rng.next_int(0, 5)];
    const int arity = (t == GateType::kNot) ? 1
                      : (t == GateType::kXor) ? 2
                                              : rng.next_int(2, 4);
    std::vector<NodeId> fanins;
    for (int k = 0; k < arity; ++k)
      fanins.push_back(pool[static_cast<std::size_t>(
          rng.next_int(0, static_cast<int>(pool.size()) - 1))]);
    pool.push_back(nl.add_gate(t, "g" + std::to_string(g), fanins));
  }
  for (std::size_t i = 0; i < dffs.size(); ++i)
    nl.set_fanin(dffs[i], 0,
                 pool[pool.size() - 1 - (i % std::min<std::size_t>(
                                             pool.size(), 5))]);
  nl.add_output("o0", pool.back());
  nl.add_output("o1", pool[pool.size() - 2]);
  return nl;
}

// --- simulation vs BDD semantics -------------------------------------------

class SimVsBdd : public ::testing::TestWithParam<int> {};

TEST_P(SimVsBdd, NodeFunctionsAgreeWithSimulator) {
  const Netlist nl =
      random_circuit(static_cast<std::uint64_t>(GetParam()), 3, 2, 12);
  const BddVarMap vm = BddVarMap::single(
      static_cast<unsigned>(nl.num_dffs()),
      static_cast<unsigned>(nl.num_inputs()));
  BddMgr mgr(vm.total());
  const auto fn = build_node_functions(nl, mgr, vm);

  SeqSimulator sim(nl);
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 101);
  for (int round = 0; round < 64; ++round) {
    std::vector<V3> pi(nl.num_inputs());
    std::vector<V3> st(nl.num_dffs());
    std::vector<bool> assign(vm.total(), false);
    for (std::size_t i = 0; i < pi.size(); ++i) {
      const bool b = rng.next_bool();
      pi[i] = b ? V3::kOne : V3::kZero;
      assign[vm.in(static_cast<unsigned>(i))] = b;
    }
    for (std::size_t i = 0; i < st.size(); ++i) {
      const bool b = rng.next_bool();
      st[i] = b ? V3::kOne : V3::kZero;
      assign[vm.ps(static_cast<unsigned>(i))] = b;
    }
    sim.set_state(st);
    sim.eval_outputs(pi);
    for (std::size_t n = 0; n < nl.num_nodes(); ++n) {
      const auto& node = nl.node(static_cast<NodeId>(n));
      if (node.dead) continue;
      const V3 s = sim.value(static_cast<NodeId>(n));
      if (s == V3::kX) continue;
      EXPECT_EQ(mgr.eval(fn[n], assign), s == V3::kOne)
          << "node " << node.name << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimVsBdd, ::testing::Range(0, 8));

// --- retiming legality sweeps ----------------------------------------------

class RetimeLegality : public ::testing::TestWithParam<int> {};

TEST_P(RetimeLegality, DffTargetsAreLegalAndMonotone) {
  const Netlist nl =
      random_circuit(static_cast<std::uint64_t>(GetParam()) + 50, 3, 3, 16);
  if (nl.validate() != std::nullopt) GTEST_SKIP();
  for (std::size_t target : {4u, 8u, 12u}) {
    const RetimeResult r = retime_to_dff_target(
        nl, target, nl.name() + ".t" + std::to_string(target));
    // Legality is CHECKed inside (graph_period); the rebuilt netlist must
    // validate, keep the I/O interface, and keep the gate population.
    // (The achieved FF count is NOT monotone in the target: level sweeps
    // change how fanout chains share registers.)
    EXPECT_EQ(r.netlist.validate(), std::nullopt);
    EXPECT_EQ(r.netlist.num_inputs(), nl.num_inputs());
    EXPECT_EQ(r.netlist.num_outputs(), nl.num_outputs());
    EXPECT_EQ(r.netlist.num_gates(), nl.num_gates());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetimeLegality, ::testing::Range(0, 6));

std::vector<TestSequence> make_test_sequences(const Netlist& nl, int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 11);
  std::vector<TestSequence> seqs;
  for (int s = 0; s < 4; ++s) {
    TestSequence seq;
    for (int t = 0; t < 24; ++t) {
      std::vector<V3> v(nl.num_inputs());
      for (auto& x : v) x = rng.next_bool() ? V3::kOne : V3::kZero;
      seq.push_back(std::move(v));
    }
    seqs.push_back(std::move(seq));
  }
  return seqs;
}

// --- fault collapse soundness ----------------------------------------------

class CollapseSoundness : public ::testing::TestWithParam<int> {};

TEST_P(CollapseSoundness, ClassmatesAreDetectionEquivalent) {
  // Every fault in the universe must be detected by a random test set
  // exactly when its class representative is.
  Netlist nl =
      random_circuit(static_cast<std::uint64_t>(GetParam()) + 90, 3, 2, 10);
  for (NodeId ff : nl.dffs()) nl.node_mut(ff).init = FfInit::kUnknown;
  const auto all = enumerate_faults(nl);
  const auto seqs = make_test_sequences(nl, GetParam());
  const auto r_all = run_fault_simulation(nl, all, seqs);

  const auto collapsed = collapse_faults(nl);
  std::vector<Fault> reps;
  for (const auto& cf : collapsed) reps.push_back(cf.representative);
  const auto r_reps = run_fault_simulation(nl, reps, seqs);

  // Build representative detection lookup.
  std::map<Fault, bool> rep_detected;
  for (std::size_t i = 0; i < reps.size(); ++i)
    rep_detected[reps[i]] = r_reps.detected_at[i] >= 0;

  // Equivalence-collapsed faults must agree with their representative on
  // *any* test set. We can't recover the classes from the public API, so
  // check the aggregate: total detections over the universe equal the
  // class-size-weighted detections over representatives.
  std::size_t universe_detected = 0;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (r_all.detected_at[i] >= 0) ++universe_detected;
  std::size_t weighted = 0;
  for (std::size_t i = 0; i < collapsed.size(); ++i)
    if (r_reps.detected_at[i] >= 0)
      weighted += static_cast<std::size_t>(collapsed[i].class_size);
  EXPECT_EQ(universe_detected, weighted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapseSoundness, ::testing::Range(0, 6));


// --- cover algebra laws ------------------------------------------------------

TEST(CoverLaws, CofactorOfTautologyIsTautology) {
  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    // Build a cover guaranteed tautological: c and its complement cube.
    Cube c;
    c.value = BitVec(6);
    c.care = BitVec(6);
    for (std::size_t b = 0; b < 6; ++b)
      if (rng.next_bool()) {
        c.care.set(b, true);
        c.value.set(b, rng.next_bool());
      }
    // {c} plus, for each cared literal of c, the cube flipping it.
    Cover cover{c};
    for (std::size_t b = c.care.find_first(); b < 6;
         b = c.care.find_next(b)) {
      Cube d;
      d.value = BitVec(6);
      d.care = BitVec(6);
      d.care.set(b, true);
      d.value.set(b, !c.value.get(b));
      cover.push_back(d);
    }
    ASSERT_TRUE(cover_tautology(cover, 6));
    Cube cof;
    cof.value = BitVec(6);
    cof.care = BitVec(6);
    cof.care.set(1, true);
    cof.value.set(1, rng.next_bool());
    EXPECT_TRUE(cover_tautology(cover_cofactor(cover, cof), 6));
  }
}

TEST(CoverLaws, ContainmentIsReflexiveAndAntisymmetricOnCubes) {
  Rng rng(9);
  for (int round = 0; round < 50; ++round) {
    Cube a;
    a.value = BitVec(5);
    a.care = BitVec(5);
    for (std::size_t b = 0; b < 5; ++b)
      if (rng.next_bool()) {
        a.care.set(b, true);
        a.value.set(b, rng.next_bool());
      }
    EXPECT_TRUE(cube_contains(a, a));
    Cube wider = a;
    const std::size_t drop = a.care.find_first();
    if (drop < 5) {
      wider.care.set(drop, false);
      wider.value.set(drop, false);
      EXPECT_TRUE(cube_contains(wider, a));
      EXPECT_FALSE(cube_contains(a, wider));
    }
  }
}

// --- ATPG fault-dropping invariance ------------------------------------------

class AtpgDropInvariance : public ::testing::TestWithParam<int> {};

// Fault dropping (crediting faults that a previously generated test happens
// to detect) is an optimization, not a semantics change: under generous
// budgets the final per-fault verdicts must match a no-drop driver that
// attacks every collapsed fault with a fresh engine.
TEST_P(AtpgDropInvariance, DroppingNeverChangesVerdicts) {
  const Netlist nl =
      random_circuit(static_cast<std::uint64_t>(GetParam()) + 300, 3, 3, 14);
  if (nl.validate() != std::nullopt) GTEST_SKIP();

  ParallelAtpgOptions popts;
  popts.run.random_sequences = 0;  // deterministic phase only: drops do work
  popts.num_threads = 2;
  const auto par = run_parallel_atpg(nl, popts);

  const auto collapsed = collapse_faults(nl);
  ASSERT_EQ(par.status.size(), collapsed.size());
  std::size_t baseline_detected = 0, any_aborted = 0;
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    AtpgEngine engine(nl, popts.run.engine);  // fresh: no drop, no reuse
    const auto attempt = engine.generate(collapsed[i].representative);
    const std::string what = fault_name(nl, collapsed[i].representative);
    switch (attempt.status) {
      case FaultStatus::kDetected:
        ++baseline_detected;
        // Dropping may only change HOW a fault got detected, never whether.
        EXPECT_EQ(par.status[i], FaultStatus::kDetected) << what;
        break;
      case FaultStatus::kRedundant:
        // Redundant faults are undetectable, so no drop can claim them.
        EXPECT_EQ(par.status[i], FaultStatus::kRedundant) << what;
        break;
      case FaultStatus::kAborted:
        ++any_aborted;
        // A drop may rescue a fault the standalone search gave up on; the
        // claimed detection must then replay under independent simulation.
        if (par.status[i] == FaultStatus::kDetected) {
          ASSERT_GE(par.detected_by[i], 0) << what;
          EXPECT_GE(simulate_fault_serial(
                        nl, collapsed[i].representative,
                        par.run.tests[static_cast<std::size_t>(
                            par.detected_by[i])]),
                    0)
              << what;
        }
        break;
    }
  }
  // With default (generous) budgets these tiny machines should resolve
  // completely, making the invariance check exact:
  if (any_aborted == 0 && par.run.aborted == 0) {
    std::size_t par_detected = 0;
    for (const auto s : par.status)
      if (s == FaultStatus::kDetected) ++par_detected;
    EXPECT_EQ(par_detected, baseline_detected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtpgDropInvariance, ::testing::Range(0, 4));

// --- redundancy vs BDD reachability ------------------------------------------

class RedundancyVsReachability : public ::testing::TestWithParam<int> {};

// Engine-redundant faults must be invisible from every reachable state:
// for each state the BDD reachability analysis enumerates and every input
// vector, the good and fault-injected machines agree on outputs AND next
// state (the engine's proof covers unreachable states too, so this is the
// weaker direction and must always hold).
TEST_P(RedundancyVsReachability, RedundantFaultsInvisibleFromReachableStates) {
  const Netlist nl =
      random_circuit(static_cast<std::uint64_t>(GetParam()) + 400, 3, 2, 10);
  if (nl.validate() != std::nullopt) GTEST_SKIP();

  ParallelAtpgOptions popts;
  popts.run.random_sequences = 0;
  popts.num_threads = 1;
  const auto par = run_parallel_atpg(nl, popts);
  const auto collapsed = collapse_faults(nl);

  std::vector<Fault> redundant;
  for (std::size_t i = 0; i < collapsed.size(); ++i)
    if (par.status[i] == FaultStatus::kRedundant)
      redundant.push_back(collapsed[i].representative);
  if (redundant.empty()) GTEST_SKIP() << "no redundancies at this seed";

  const ReachResult reach = compute_reachable(nl);
  if (!reach.enumerated) GTEST_SKIP() << "state space not enumerated";

  const std::size_t num_pi = nl.num_inputs();
  for (const Fault& f : redundant) {
    const Netlist faulty = inject_fault(nl, f);
    SeqSimulator sg(nl), sf(faulty);
    for (const BitVec& bits : reach.states) {
      std::vector<V3> st(nl.num_dffs());
      for (std::size_t i = 0; i < st.size(); ++i)
        st[i] = bits.get(i) ? V3::kOne : V3::kZero;
      for (std::size_t in = 0; in < (std::size_t{1} << num_pi); ++in) {
        std::vector<V3> pi(num_pi);
        for (std::size_t i = 0; i < num_pi; ++i)
          pi[i] = (in >> i) & 1 ? V3::kOne : V3::kZero;
        sg.set_state(st);
        sf.set_state(st);
        EXPECT_EQ(sg.step(pi), sf.step(pi)) << fault_name(nl, f);
        EXPECT_EQ(sg.next_state(), sf.next_state()) << fault_name(nl, f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedundancyVsReachability,
                         ::testing::Range(0, 6));

// --- CDCL cube-sharing soundness ---------------------------------------------

// The kCdcl engine's cross-fault learning currency is the proven-
// unreachable frame-0 state cube (DESIGN.md §9). Soundness of the whole
// scheme rests on one invariant: a cube may be recorded in the failure
// cache / published to the SharedLearningCache ONLY if it intersects no
// reachable state. Check every exported cube against the exact-BDD
// reachability oracle, across random-circuit seeds and an MCNC machine
// plus its retimed twin (retiming is what manufactures unreachable states,
// so that is where the exports actually happen).
void check_exported_cubes_unreachable(const Netlist& nl) {
  const StateValidityOracle oracle = StateValidityOracle::build(nl);
  if (oracle.info().mode != ValidityOracleInfo::Mode::kExact)
    GTEST_SKIP() << "reachable set not enumerable for " << nl.name();

  EngineOptions eopts;
  eopts.kind = EngineKind::kCdcl;
  eopts.eval_limit = 60'000;
  eopts.backtrack_limit = 200;
  AtpgEngine engine(nl, eopts);
  SharedLearningCache cache;
  SharedLearningCache::View view(&cache, /*read_epoch=*/0);
  engine.set_shared_learning(&view);
  for (const auto& cf : collapse_faults(nl)) engine.generate(cf.representative);
  cache.publish(/*round=*/0, /*unit=*/0, engine);

  // Both the engine-local failure cache and the cubes the shared cache
  // would serve to other workers must be disjoint from the reachable set.
  std::size_t checked = 0;
  for (const StateKey& cube : engine.learned_fail()) {
    EXPECT_EQ(oracle.classify(cube), StateValidity::kInvalid)
        << nl.name() << " local cube " << cube.to_string();
    ++checked;
  }
  for (const LearningShare::FailCubeInfo& info :
       SharedLearningCache::View(&cache, /*read_epoch=*/1).fail_cube_infos()) {
    EXPECT_EQ(oracle.classify(info.key), StateValidity::kInvalid)
        << nl.name() << " shared cube " << info.key.to_string();
    ++checked;
  }
  // Silence is not soundness: record how much this circuit exercised.
  ::testing::Test::RecordProperty(nl.name() + "_cubes_checked",
                                  static_cast<int>(checked));
}

class CdclCubeSoundness : public ::testing::TestWithParam<int> {};

TEST_P(CdclCubeSoundness, ExportedCubesNeverExcludeReachableStates) {
  const Netlist nl =
      random_circuit(static_cast<std::uint64_t>(GetParam()) + 500, 3, 3, 14);
  if (nl.validate() != std::nullopt) GTEST_SKIP();
  check_exported_cubes_unreachable(nl);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdclCubeSoundness, ::testing::Range(0, 6));

TEST(CdclCubeSoundness, RetimedMcncTwinExportsOnlyUnreachableCubes) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.35));
  const SynthResult res = synthesize(fsm, {});
  check_exported_cubes_unreachable(res.netlist);
  const RetimeResult rt = retime_to_dff_target(
      res.netlist, 2 * res.netlist.num_dffs(), res.name + ".re");
  check_exported_cubes_unreachable(rt.netlist);
}

// --- bench round trip on random circuits -------------------------------------

class BenchRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BenchRoundTrip, SimulationSurvivesSerialization) {
  const Netlist a =
      random_circuit(static_cast<std::uint64_t>(GetParam()) + 200, 4, 3, 14);
  const Netlist b = read_bench_string(write_bench_string(a), a.name());
  SeqSimulator sa(a), sb(b);
  // .bench drops FF init values (documented): align states explicitly.
  sa.set_state(std::vector<V3>(a.num_dffs(), V3::kZero));
  sb.set_state(std::vector<V3>(b.num_dffs(), V3::kZero));
  Rng rng(3);
  for (int t = 0; t < 100; ++t) {
    std::vector<V3> in(a.num_inputs());
    for (auto& v : in) v = rng.next_bool() ? V3::kOne : V3::kZero;
    EXPECT_EQ(sa.step(in), sb.step(in)) << "cycle " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenchRoundTrip, ::testing::Range(0, 6));

}  // namespace
}  // namespace satpg
