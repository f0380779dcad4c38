// Tests for scan DFT: structural correctness of the chain, functional
// transparency in mission mode, shiftability in scan mode, cycle-breaking
// selection, and the headline payoff — scan restores testability on a
// retimed circuit.
#include <gtest/gtest.h>

#include "atpg/parallel.h"
#include "dft/scan.h"
#include "fsm/mcnc_suite.h"
#include "retime/retime.h"
#include "sim/simulator.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

Netlist small_machine() {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.4));
  return synthesize(fsm, {}).netlist;
}

TEST(ScanTest, FullScanStructure) {
  const Netlist nl = small_machine();
  const ScanResult scan = insert_full_scan(nl);
  EXPECT_EQ(scan.netlist.validate(), std::nullopt);
  EXPECT_EQ(scan.chain.size(), nl.num_dffs());
  EXPECT_EQ(scan.netlist.num_inputs(), nl.num_inputs() + 2);
  EXPECT_EQ(scan.netlist.num_outputs(), nl.num_outputs() + 1);
  EXPECT_EQ(scan.netlist.num_dffs(), nl.num_dffs());
  EXPECT_NE(scan.netlist.find("scan_in"), kNoNode);
  EXPECT_NE(scan.netlist.find("scan_en"), kNoNode);
}

TEST(ScanTest, MissionModeIsTransparent) {
  const Netlist nl = small_machine();
  const ScanResult scan = insert_full_scan(nl);
  // With scan_en = 0 the scan circuit behaves exactly like the original.
  SeqSimulator s0(nl), s1(scan.netlist);
  Rng rng(17);
  for (int t = 0; t < 200; ++t) {
    std::vector<V3> in0(nl.num_inputs());
    for (std::size_t i = 0; i < in0.size(); ++i)
      in0[i] = (t == 0 && nl.node(nl.inputs()[i]).name == "rst")
                   ? V3::kOne
                   : (rng.next_bool() ? V3::kOne : V3::kZero);
    if (t == 0)
      for (std::size_t i = 0; i < in0.size(); ++i)
        if (nl.node(nl.inputs()[i]).name == "rst") in0[i] = V3::kOne;
    std::vector<V3> in1 = in0;
    in1.push_back(V3::kZero);  // scan_in
    in1.push_back(V3::kZero);  // scan_en
    const auto o0 = s0.step(in0);
    const auto o1 = s1.step(in1);
    for (std::size_t o = 0; o < o0.size(); ++o)
      EXPECT_EQ(o0[o], o1[o]) << "cycle " << t << " output " << o;
  }
}

TEST(ScanTest, ChainShiftsPatternsThrough) {
  const Netlist nl = small_machine();
  const ScanResult scan = insert_full_scan(nl);
  const Netlist& sn = scan.netlist;
  SeqSimulator sim(sn);
  const std::size_t n = scan.chain.size();
  // Shift in an alternating pattern with scan_en = 1.
  std::vector<V3> pattern;
  for (std::size_t i = 0; i < n; ++i)
    pattern.push_back(i % 2 ? V3::kOne : V3::kZero);
  int scan_in_idx = -1, scan_en_idx = -1;
  for (std::size_t i = 0; i < sn.inputs().size(); ++i) {
    if (sn.node(sn.inputs()[i]).name == "scan_in")
      scan_in_idx = static_cast<int>(i);
    if (sn.node(sn.inputs()[i]).name == "scan_en")
      scan_en_idx = static_cast<int>(i);
  }
  ASSERT_GE(scan_in_idx, 0);
  ASSERT_GE(scan_en_idx, 0);
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<V3> in(sn.num_inputs(), V3::kZero);
    in[static_cast<std::size_t>(scan_en_idx)] = V3::kOne;
    in[static_cast<std::size_t>(scan_in_idx)] = pattern[n - 1 - k];
    sim.step(in);
  }
  // The chain (in chain order) now holds the pattern.
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t dff_pos = 0;
    for (std::size_t j = 0; j < sn.dffs().size(); ++j)
      if (sn.dffs()[j] == scan.chain[i]) dff_pos = j;
    EXPECT_EQ(sim.state()[dff_pos], pattern[i]) << "chain position " << i;
  }
}

TEST(ScanTest, CycleBreakingSelectionBreaksCycles) {
  const Netlist nl = small_machine();
  EXPECT_FALSE(breaks_all_cycles(nl, {}));  // state machines have cycles
  const auto picked = select_cycle_breaking_ffs(nl);
  EXPECT_FALSE(picked.empty());
  EXPECT_LE(picked.size(), nl.num_dffs());
  EXPECT_TRUE(breaks_all_cycles(nl, picked));
}

TEST(ScanTest, PartialScanValid) {
  const Netlist nl = small_machine();
  const auto picked = select_cycle_breaking_ffs(nl);
  const ScanResult scan = insert_partial_scan(nl, picked);
  EXPECT_EQ(scan.netlist.validate(), std::nullopt);
  EXPECT_EQ(scan.chain.size(), picked.size());
}

TEST(ScanTest, FullScanRestoresTestabilityOnRetimedCircuit) {
  // The paper's DFT motivation, demonstrated: the retimed circuit is hard
  // for sequential ATPG; after full scan the engine does far better with
  // the same budget.
  const Netlist nl = small_machine();
  const RetimeResult rt =
      retime_to_dff_target(nl, 3 * nl.num_dffs(), nl.name() + ".re");
  ParallelAtpgOptions opts;
  opts.run.engine.eval_limit = 150'000;
  opts.run.engine.backtrack_limit = 200;
  const auto hard = run_parallel_atpg(rt.netlist, opts).run;
  const ScanResult scan = insert_full_scan(rt.netlist);
  const auto scanned = run_parallel_atpg(scan.netlist, opts).run;
  EXPECT_GT(scanned.fault_efficiency, hard.fault_efficiency - 1e-9);
  // Scan makes state directly controllable: expect a solid efficiency.
  EXPECT_GT(scanned.fault_efficiency, 90.0);
}

}  // namespace
}  // namespace satpg
