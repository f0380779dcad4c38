// Stress tests for the time-frame model: the event-driven incremental
// implication with trail undo is compared against a from-scratch oracle
// (fresh model, same assignments) across random assignment/undo schedules,
// fault types, and window sizes. Also checks the incrementally-maintained
// D-set against a full rescan, and pins the eval count (the budget
// currency) to the set of evaluations the model is defined to perform.
// Windows run up to 8 frames, HITEC's widest, on synthesized machines, on a
// committed retimed circuit, on a hand-built one whose gates read one node
// on two pins, and on one that covers every fold path (fixed fan-in rows
// of one to four fan-ins, the loop for XOR/XNOR, a 5-input gate and the
// fault's host). A copy of a template model must behave and count
// exactly like a fresh one. Every (frame, node) value of those models is
// also checked against a from-scratch reference that shares no code with
// the model: the good and the structurally faulted netlist stepped frame
// by frame on src/sim's SeqSimulator.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "atpg/tfm.h"
#include "base/metrics.h"
#include "netlist/bench_io.h"
#include "base/rng.h"
#include "fault_inject.h"
#include "fault/fault.h"
#include "fsm/mcnc_suite.h"
#include "sim/simulator.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

Netlist small_machine(std::uint64_t salt) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  spec.seed += salt;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.3));
  return synthesize(fsm, {}).netlist;
}

// All decision variables of a model.
std::vector<std::pair<int, NodeId>> decision_vars(const Netlist& nl,
                                                  int frames) {
  std::vector<std::pair<int, NodeId>> vars;
  for (int t = 0; t < frames; ++t)
    for (NodeId pi : nl.inputs()) vars.push_back({t, pi});
  for (NodeId ff : nl.dffs()) vars.push_back({0, ff});
  return vars;
}

void expect_models_equal(const TimeFrameModel& a, const TimeFrameModel& b,
                         const Netlist& nl, int frames) {
  for (int t = 0; t < frames; ++t)
    for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
      const NodeId id = static_cast<NodeId>(i);
      ASSERT_EQ(a.value(t, id), b.value(t, id))
          << "frame " << t << " node " << nl.node(id).name;
    }
}

// The model's every (frame, node) value against the good and the faulty
// netlist stepped on SeqSimulator from the model's own decisions: frame t
// applies the PI decisions of frame t, frame 0 starts from the FF
// decisions (X where unassigned), and each later frame from the clocked
// state. The faulty rail of a stem-faulted node is its stuck value; every
// other faulty value is the faulted netlist's.
void expect_model_matches_simulation(const TimeFrameModel& m,
                                     const Netlist& nl,
                                     const std::optional<Fault>& fault) {
  const Netlist faulty = fault ? inject_fault(nl, *fault) : nl;
  SeqSimulator good_sim(nl), faulty_sim(faulty);
  std::vector<V3> state;
  for (NodeId ff : nl.dffs()) state.push_back(m.decision_value(0, ff));
  good_sim.set_state(state);
  faulty_sim.set_state(state);
  const V3 stuck = fault && fault->stuck1 ? V3::kOne : V3::kZero;
  for (int t = 0; t < m.num_frames(); ++t) {
    std::vector<V3> pi;
    for (NodeId id : nl.inputs()) pi.push_back(m.decision_value(t, id));
    good_sim.step(pi);
    faulty_sim.step(pi);
    for (NodeId id : nl.compiled().topo) {
      const bool stem = fault && fault->pin < 0 && fault->node == id;
      const V5 want{good_sim.value(id), stem ? stuck : faulty_sim.value(id)};
      ASSERT_EQ(m.value(t, id), want)
          << "frame " << t << " node " << nl.node(id).name;
    }
  }
}

// A random assign/undo schedule on `fault`'s model, then the model against
// a fresh one given the surviving assignments and against the simulation
// reference, and its D-set against a full rescan.
void expect_incremental_matches_scratch(const Netlist& nl,
                                        const std::optional<Fault>& fault,
                                        int frames, std::uint64_t seed) {
  TimeFrameModel inc(nl, fault, frames);
  Rng rng(seed);
  const auto vars = decision_vars(nl, frames);

  // Random schedule: assignments with occasional undo to a random mark.
  std::vector<std::pair<std::size_t, std::map<std::pair<int, NodeId>, V3>>>
      marks;  // (trail mark, assignment snapshot)
  std::map<std::pair<int, NodeId>, V3> current;

  for (int step = 0; step < 60; ++step) {
    if (!marks.empty() && rng.next_bernoulli(0.25)) {
      const std::size_t k = static_cast<std::size_t>(rng.next_below(
          marks.size()));
      inc.undo_to(marks[k].first);
      current = marks[k].second;
      marks.resize(k);
      continue;
    }
    // Assign a random unassigned variable.
    const auto& v = vars[static_cast<std::size_t>(rng.next_below(
        vars.size()))];
    if (current.count(v)) continue;
    const V3 val = rng.next_bool() ? V3::kOne : V3::kZero;
    marks.push_back({inc.assign(v.first, v.second, val), current});
    current[v] = val;
  }

  // Oracle: fresh model, replay the surviving assignments in order.
  TimeFrameModel oracle(nl, fault, frames);
  for (const auto& [v, val] : current) oracle.assign(v.first, v.second, val);
  expect_models_equal(inc, oracle, nl, frames);
  expect_model_matches_simulation(inc, nl, fault);

  // D-set agrees with a full rescan.
  std::set<std::pair<int, NodeId>> rescan;
  for (int t = 0; t < frames; ++t)
    for (std::size_t i = 0; i < nl.num_nodes(); ++i)
      if (inc.value(t, static_cast<NodeId>(i)).is_d())
        rescan.insert({t, static_cast<NodeId>(i)});
  EXPECT_EQ(inc.d_set(), rescan) << "frames " << frames;
}

class TfmStress : public ::testing::TestWithParam<int> {};

TEST_P(TfmStress, IncrementalMatchesFromScratch) {
  const Netlist nl = small_machine(static_cast<std::uint64_t>(GetParam()));
  // Seeds 0..9 cover windows of 1..8 frames.
  const int frames = 1 + (GetParam() * 3) % 8;
  // Pick a fault (cycling through kinds) or none.
  std::optional<Fault> fault;
  const auto universe = enumerate_faults(nl);
  if (GetParam() % 4 != 0)
    fault = universe[static_cast<std::size_t>(GetParam() * 37) %
                     universe.size()];
  expect_incremental_matches_scratch(
      nl, fault, frames, static_cast<std::uint64_t>(GetParam()) * 1337 + 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TfmStress, ::testing::Range(0, 10));

// The (frame, node) pairs an assign() must evaluate, from the values before
// and after it: the decision itself, every node with a same-frame fan-in
// whose value changed, and every FF whose D driver changed a frame earlier.
std::size_t expected_evals(const Netlist& nl, int frames,
                           const std::vector<V5>& before,
                           const std::vector<V5>& after, int dec_frame,
                           NodeId dec_node) {
  const std::size_t n = nl.num_nodes();
  auto changed = [&](int t, NodeId id) {
    const std::size_t i = static_cast<std::size_t>(t) * n +
                          static_cast<std::size_t>(id);
    return before[i] != after[i];
  };
  std::size_t count = 0;
  for (int t = 0; t < frames; ++t)
    for (NodeId id : nl.topo_order()) {
      const Node& node = nl.node(id);
      bool evaluated = t == dec_frame && id == dec_node;
      if (node.type == GateType::kDff)
        evaluated |= t > 0 && changed(t - 1, node.fanins[0]);
      else
        for (NodeId f : node.fanins) evaluated |= changed(t, f);
      count += evaluated ? 1 : 0;
    }
  return count;
}

std::vector<V5> snapshot(const TimeFrameModel& m) {
  std::vector<V5> values;
  for (int t = 0; t < m.num_frames(); ++t)
    for (std::size_t i = 0; i < m.netlist().num_nodes(); ++i)
      values.push_back(m.value(t, static_cast<NodeId>(i)));
  return values;
}

// Drives `fault`'s model through a random assign/undo schedule and checks
// every assign()'s evals against expected_evals. Returns the number of
// assigns checked.
std::uint64_t expect_evals_match_contract(const Netlist& nl,
                                          const std::optional<Fault>& fault,
                                          int frames, std::uint64_t seed) {
  TimeFrameModel m(nl, fault, frames);
  EXPECT_EQ(m.evals(),
            static_cast<std::uint64_t>(frames) * nl.topo_order().size());
  Rng rng(seed);
  const auto vars = decision_vars(nl, frames);
  std::vector<std::size_t> marks;
  std::uint64_t checked = 0;
  for (int step = 0; step < 40; ++step) {
    if (!marks.empty() && rng.next_bernoulli(0.3)) {
      const std::size_t k = static_cast<std::size_t>(
          rng.next_below(marks.size()));
      m.undo_to(marks[k]);
      marks.resize(k);
      continue;
    }
    const auto& [t, id] = vars[static_cast<std::size_t>(
        rng.next_below(vars.size()))];
    if (m.decision_value(t, id) != V3::kX) continue;
    const std::vector<V5> before = snapshot(m);
    const std::uint64_t evals_before = m.evals();
    marks.push_back(m.assign(t, id, rng.next_bool() ? V3::kOne
                                                    : V3::kZero));
    EXPECT_EQ(m.evals() - evals_before,
              expected_evals(nl, frames, before, snapshot(m), t, id))
        << "frames " << frames << " step " << step;
    ++checked;
  }
  return checked;
}

// The fault-free machine, one fault of each (node type, stem or pin) kind
// (PI/FF/gate stems, gate and PO pins, FF D pins; `num_kinds` of them),
// and every `stride`-th fault.
std::vector<std::optional<Fault>> faults_of_every_kind(
    const Netlist& nl, std::size_t stride, std::size_t* num_kinds) {
  const auto universe = enumerate_faults(nl);
  std::vector<std::optional<Fault>> faults = {std::nullopt};
  std::set<std::pair<GateType, bool>> kinds;
  for (const Fault& f : universe)
    if (kinds.insert({nl.node(f.node).type, f.pin >= 0}).second)
      faults.push_back(f);
  for (std::size_t i = 0; i < universe.size(); i += stride)
    faults.push_back(universe[i]);
  *num_kinds = kinds.size();
  return faults;
}

TEST(TfmEvalContract, EvalsMatchTheChangedFaninSet) {
  const Netlist nl = small_machine(5);
  std::size_t num_kinds = 0;
  const auto faults = faults_of_every_kind(nl, 11, &num_kinds);
  ASSERT_GE(num_kinds, 5u);

  std::uint64_t checked_assigns = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    SCOPED_TRACE("fault #" + std::to_string(fi));
    checked_assigns += expect_evals_match_contract(
        nl, faults[fi], 1 + static_cast<int>(fi % 8), fi * 7919 + 3);
    if (HasFailure()) return;
  }
  EXPECT_GT(checked_assigns, 500u);
}

// A committed retimed circuit (six FFs, several on register chains) in
// windows of 1..8 frames: FF sinks are queued straight into the next
// frame, so every frame boundary of a wide window is crossed.
TEST(TfmWideWindow, RetimedCircuitKeepsContractAndMatchesScratch) {
  const Netlist nl = read_bench_file(std::string(SATPG_CACHE_DIR) +
                                     "/dk16.ji.sd.re_s3_x30.bench");
  ASSERT_GE(nl.dffs().size(), 6u);
  std::size_t num_kinds = 0;
  const auto faults = faults_of_every_kind(nl, 9, &num_kinds);
  ASSERT_GE(num_kinds, 5u);
  std::uint64_t checked_assigns = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    SCOPED_TRACE("fault #" + std::to_string(fi));
    const int frames = 1 + static_cast<int>(fi % 8);
    checked_assigns +=
        expect_evals_match_contract(nl, faults[fi], frames, fi * 31 + 1);
    expect_incremental_matches_scratch(nl, faults[fi], frames, fi * 17 + 2);
    if (HasFailure()) return;
  }
  EXPECT_GT(checked_assigns, 300u);
}

// Gates that read one node on two pins: the node is listed twice among its
// driver's fan-outs, and the queue must hold the sink once, or the eval
// count doubles. One of them reads a FF on both pins, and a FF latches a
// doubly read gate.
TEST(TfmWideWindow, NodeReadOnTwoPinsIsQueuedOnce) {
  Netlist nl("two_pins");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId q1 = nl.add_dff("q1", a, FfInit::kUnknown);
  const NodeId q2 = nl.add_dff("q2", a, FfInit::kUnknown);
  const NodeId g1 = nl.add_gate(GateType::kAnd, "g1", {a, a});
  const NodeId g2 = nl.add_gate(GateType::kNor, "g2", {q1, b, q1});
  const NodeId g3 = nl.add_gate(GateType::kXor, "g3", {g1, g2, g1});
  const NodeId g4 = nl.add_gate(GateType::kXnor, "g4", {g3, q2, g3});
  nl.set_fanin(q1, 0, g3);
  nl.set_fanin(q2, 0, q1);
  nl.add_output("o1", g4);
  nl.add_output("o2", q2);

  const auto universe = enumerate_faults(nl);
  std::vector<std::optional<Fault>> faults = {std::nullopt};
  for (const Fault& f : universe) faults.push_back(f);
  std::uint64_t checked_assigns = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    SCOPED_TRACE("fault #" + std::to_string(fi));
    const int frames = 1 + static_cast<int>(fi % 8);
    checked_assigns +=
        expect_evals_match_contract(nl, faults[fi], frames, fi * 13 + 7);
    expect_incremental_matches_scratch(nl, faults[fi], frames, fi * 5 + 1);
    if (HasFailure()) return;
  }
  EXPECT_GT(checked_assigns, 300u);
}

// Queue bookkeeping that goes wrong shows in the values, where only the
// simulation reference sees it (both models run the same kernel). `a` is
// read by g1 on two pins and g1 is alone at level 1, so a g1 queued twice
// spills into level 2's first bucket slot, which holds g2: g2 (id below
// g1's, so queued first) would then never be evaluated. A FF sink never
// queued into the next frame would leave q stale.
TEST(TfmSimReference, QueueBookkeepingShowsInValues) {
  Netlist nl("spill");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g2 = nl.add_gate(GateType::kAnd, "g2", {a, b});
  const NodeId g1 = nl.add_gate(GateType::kOr, "g1", {a, a});
  nl.set_fanin(g2, 1, g1);
  const NodeId q = nl.add_dff("q", b, FfInit::kUnknown);
  const NodeId g3 = nl.add_gate(GateType::kXor, "g3", {g2, q});
  nl.set_fanin(q, 0, g3);
  nl.add_output("o1", g3);
  nl.add_output("o2", g1);
  ASSERT_EQ(nl.compiled().level[static_cast<std::size_t>(g1)], 1u);
  ASSERT_EQ(nl.compiled().level[static_cast<std::size_t>(g2)], 2u);

  std::vector<std::optional<Fault>> faults = {std::nullopt};
  for (const Fault& f : enumerate_faults(nl)) faults.push_back(f);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    SCOPED_TRACE("fault #" + std::to_string(fi));
    expect_incremental_matches_scratch(nl, faults[fi],
                                       1 + static_cast<int>(fi % 8),
                                       fi * 11 + 3);
    if (HasFailure()) return;
  }
}

// The fold's edge cases. Every library cell (BUF/NOT, AND/NAND/OR/NOR at
// two to four fan-ins, XOR/XNOR at two) and the PO markers fold from a
// fixed four-slot fan-in row whose spare slots repeat fan-in 0; a 5-input
// AND and 3-input XOR/XNOR take the CSR loop, and a NAND reads one node on
// all four pins. The fault's host always takes the pin-aware loop. Every
// (frame, node) value is checked against src/sim for the fault-free
// machine and every stem and pin fault, in windows of 1..8 frames.
TEST(TfmSimReference, FixedRowFoldMatchesSimulation) {
  Netlist nl("fold");
  std::vector<NodeId> src;
  for (const char* name : {"a", "b", "c", "d", "e"})
    src.push_back(nl.add_input(name));
  const NodeId q1 = nl.add_dff("q1", src[0], FfInit::kUnknown);
  const NodeId q2 = nl.add_dff("q2", src[1], FfInit::kUnknown);
  src.insert(src.begin() + 2, q1);
  src.push_back(q2);  // a b q1 c d e q2

  std::vector<NodeId> gates;
  int rot = 0;  // each gate starts one source further along
  const auto add = [&](GateType t, std::size_t arity) {
    std::vector<NodeId> in;
    for (std::size_t k = 0; k < arity; ++k)
      in.push_back(src[(static_cast<std::size_t>(rot) + k) % src.size()]);
    ++rot;
    gates.push_back(nl.add_gate(
        t, gate_type_name(t) + std::to_string(arity) + "_" +
               std::to_string(rot),
        in));
  };
  add(GateType::kBuf, 1);
  add(GateType::kNot, 1);
  for (const GateType t :
       {GateType::kAnd, GateType::kNand, GateType::kOr, GateType::kNor})
    for (std::size_t arity = 2; arity <= 4; ++arity) add(t, arity);
  add(GateType::kXor, 2);
  add(GateType::kXnor, 2);
  add(GateType::kAnd, 5);
  add(GateType::kXor, 3);
  add(GateType::kXnor, 3);
  const NodeId x = gates[4];  // AND4
  const NodeId same = nl.add_gate(GateType::kNand, "same4", {x, x, x, x});
  // A second level reads gates through fixed rows and loops alike.
  const NodeId mix = nl.add_gate(GateType::kOr, "mix",
                                 {gates[0], gates[7], gates[14], same});
  const NodeId par = nl.add_gate(GateType::kXor, "par",
                                 {gates[1], gates[18], gates[16]});
  nl.set_fanin(q1, 0, mix);
  nl.set_fanin(q2, 0, par);
  for (const NodeId g : gates)
    nl.add_output("o_" + nl.node(g).name, g);
  nl.add_output("o_same", same);
  nl.add_output("o_mix", mix);
  nl.add_output("o_par", par);

  const CompiledNetlist& c = nl.compiled();
  const auto row = [&](NodeId id) {
    return c.fanin_row.data() +
           CompiledNetlist::kRowFanins * static_cast<std::size_t>(id);
  };
  EXPECT_EQ(row(gates[2])[1], src[3]);  // AND2: its own two pins, then
  EXPECT_EQ(row(gates[2])[2], src[2]);  // fan-in 0 repeated
  EXPECT_EQ(row(gates[2])[3], src[2]);
  EXPECT_EQ(row(gates[14])[0], kNoNode);  // XOR2
  EXPECT_EQ(row(gates[16])[0], kNoNode);  // AND5
  EXPECT_EQ(row(same)[3], x);

  std::vector<std::optional<Fault>> faults = {std::nullopt};
  std::size_t pin_faults = 0;
  for (const Fault& f : enumerate_faults(nl)) {
    faults.push_back(f);
    pin_faults += f.pin >= 0 ? 1 : 0;
  }
  ASSERT_GT(pin_faults, 100u);
  for (std::size_t fi = 0; fi < faults.size(); ++fi)
    for (int frames = 1; frames <= 8; ++frames) {
      SCOPED_TRACE("fault #" + std::to_string(fi) + " frames " +
                   std::to_string(frames));
      expect_incremental_matches_scratch(nl, faults[fi], frames,
                                         fi * 8 + frames);
      if (HasFailure()) return;
    }
}

// A copy of a template and a fresh model, driven by the same random
// assign/undo schedule, agree after every step on values, evals(), the
// D-set and the byte footprint.
TEST(TfmTemplateCopy, CopyMatchesFreshUnderRandomSchedules) {
  const Netlist nl = small_machine(9);
  const auto universe = enumerate_faults(nl);
  std::vector<std::optional<Fault>> faults = {std::nullopt};
  for (std::size_t i = 0; i < universe.size(); i += 13)
    faults.push_back(universe[i]);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const int frames = 1 + static_cast<int>(fi % 3);
    const TimeFrameModel tmpl(TimeFrameModel::Template{}, nl, faults[fi],
                              frames);
    // Two copies in turn, so a copy is shown not to disturb the template.
    for (int round = 0; round < 2; ++round) {
      TimeFrameModel copy(tmpl);
      TimeFrameModel fresh(nl, faults[fi], frames);
      ASSERT_EQ(copy.evals(), fresh.evals());
      ASSERT_EQ(copy.footprint_bytes(), fresh.footprint_bytes());
      Rng rng(fi * 104729 + static_cast<std::uint64_t>(round));
      const auto vars = decision_vars(nl, frames);
      std::vector<std::size_t> marks;
      for (int step = 0; step < 40; ++step) {
        if (!marks.empty() && rng.next_bernoulli(0.3)) {
          const std::size_t k =
              static_cast<std::size_t>(rng.next_below(marks.size()));
          copy.undo_to(marks[k]);
          fresh.undo_to(marks[k]);
          marks.resize(k);
        } else {
          const auto& [t, id] =
              vars[static_cast<std::size_t>(rng.next_below(vars.size()))];
          if (fresh.decision_value(t, id) != V3::kX) continue;
          const V3 v = rng.next_bool() ? V3::kOne : V3::kZero;
          const std::size_t mark = fresh.assign(t, id, v);
          ASSERT_EQ(copy.assign(t, id, v), mark);
          marks.push_back(mark);
        }
        expect_models_equal(copy, fresh, nl, frames);
        expect_model_matches_simulation(copy, nl, faults[fi]);
        ASSERT_EQ(copy.evals(), fresh.evals()) << "step " << step;
        ASSERT_EQ(copy.d_set(), fresh.d_set()) << "step " << step;
        ASSERT_EQ(copy.footprint_bytes(), fresh.footprint_bytes());
      }
    }
    EXPECT_EQ(tmpl.trail_mark(), 0u);
  }
}

// The "tfm.evals" registry counter sees a copy exactly as it sees a fresh
// model (its whole evals(), initial settle included), and never sees the
// template itself.
TEST(TfmTemplateCopy, RegistryCountsCopiesLikeFreshModels) {
  const Netlist nl = small_machine(4);
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);
  MetricsRegistry::Counter& counter =
      MetricsRegistry::global().counter("tfm.evals");
  const auto drive = [&](TimeFrameModel& m) {
    for (const NodeId pi : nl.inputs()) m.assign(0, pi, V3::kOne);
    for (const NodeId ff : nl.dffs()) m.assign(0, ff, V3::kZero);
  };

  std::uint64_t fresh_evals = 0;
  std::uint64_t before = counter.total();
  {
    TimeFrameModel fresh(nl, std::nullopt, 2);
    drive(fresh);
    fresh_evals = fresh.evals();
  }
  EXPECT_EQ(counter.total() - before, fresh_evals);

  before = counter.total();
  {
    const TimeFrameModel tmpl(TimeFrameModel::Template{}, nl, std::nullopt,
                              2);
    for (int i = 0; i < 3; ++i) {
      TimeFrameModel copy(tmpl);
      drive(copy);
      EXPECT_EQ(copy.evals(), fresh_evals);
    }
  }
  EXPECT_EQ(counter.total() - before, 3 * fresh_evals);
  set_metrics_enabled(was_enabled);
}

TEST(TfmFaultKinds, EveryFaultKindInjectsOnFaultyRailOnly) {
  const Netlist nl = small_machine(3);
  const auto universe = enumerate_faults(nl);
  Rng rng(77);
  int checked = 0;
  for (std::size_t fi = 0; fi < universe.size(); fi += 7) {
    const Fault f = universe[fi];
    TimeFrameModel tfm(nl, f, 2);
    // Fully assign frame 0.
    for (NodeId pi : nl.inputs())
      tfm.assign(0, pi, rng.next_bool() ? V3::kOne : V3::kZero);
    for (NodeId ff : nl.dffs())
      tfm.assign(0, ff, rng.next_bool() ? V3::kOne : V3::kZero);
    // Good rails must match the fault-free model under the same inputs.
    TimeFrameModel clean(nl, std::nullopt, 2);
    for (NodeId pi : nl.inputs())
      clean.assign(0, pi, tfm.decision_value(0, pi));
    for (NodeId ff : nl.dffs())
      clean.assign(0, ff, tfm.decision_value(0, ff));
    for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
      const NodeId id = static_cast<NodeId>(i);
      ASSERT_EQ(tfm.value(0, id).g, clean.value(0, id).g)
          << fault_name(nl, f) << " node " << nl.node(id).name;
    }
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(TfmBoundary, DReachesBoundaryDetectsStoredEffects) {
  // Fault on a next-state line that cannot reach a PO in one frame must
  // still be visible at the frame boundary.
  Netlist nl("store");
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_dff("q", a, FfInit::kUnknown);
  const NodeId g = nl.add_gate(GateType::kBuf, "g", {a});
  nl.set_fanin(q, 0, g);
  nl.add_output("o", q);
  const Fault f{g, -1, true};  // g s-a-1: effect stores into q
  TimeFrameModel tfm(nl, f, 1);
  tfm.assign(0, a, V3::kZero);  // good g=0, faulty g=1
  EXPECT_FALSE(tfm.detected_at_po());
  EXPECT_TRUE(tfm.d_reaches_boundary());
}

}  // namespace
}  // namespace satpg
