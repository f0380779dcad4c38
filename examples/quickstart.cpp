// Quickstart: build a small sequential circuit with the netlist API, run
// the HITEC-style sequential ATPG on it, and print the generated tests.
//
//   $ ./quickstart
//
// The circuit is a 2-bit saturating counter with an enable input and an
// explicit synchronous reset — the same shape (control logic + reset line)
// as the study's circuits.
#include <cstdio>

#include "atpg/parallel.h"
#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/value.h"

using namespace satpg;

namespace {

Netlist build_counter() {
  Netlist nl("satcnt2");
  const NodeId en = nl.add_input("en");
  const NodeId rst = nl.add_input("rst");

  // Flip-flops created against a placeholder driver, wired below.
  const NodeId q0 = nl.add_dff("q0", en, FfInit::kUnknown);
  const NodeId q1 = nl.add_dff("q1", en, FfInit::kUnknown);

  // Saturating increment: stop at 11.
  const NodeId at_max = nl.add_gate(GateType::kAnd, "at_max", {q0, q1});
  const NodeId n_at_max = nl.add_gate(GateType::kNot, "n_at_max", {at_max});
  const NodeId bump = nl.add_gate(GateType::kAnd, "bump", {en, n_at_max});
  const NodeId d0 = nl.add_gate(GateType::kXor, "d0", {q0, bump});
  const NodeId carry = nl.add_gate(GateType::kAnd, "carry", {q0, bump});
  const NodeId d1 = nl.add_gate(GateType::kXor, "d1", {q1, carry});

  // Synchronous reset forces 00.
  const NodeId nrst = nl.add_gate(GateType::kNot, "nrst", {rst});
  const NodeId rd0 = nl.add_gate(GateType::kAnd, "rd0", {d0, nrst});
  const NodeId rd1 = nl.add_gate(GateType::kAnd, "rd1", {d1, nrst});
  nl.set_fanin(q0, 0, rd0);
  nl.set_fanin(q1, 0, rd1);

  nl.add_output("saturated", at_max);
  return nl;
}

}  // namespace

int main() {
  const Netlist nl = build_counter();
  std::printf("circuit %s: %zu gates, %zu DFFs, %zu faults (collapsed %zu)\n",
              nl.name().c_str(), nl.num_gates(), nl.num_dffs(),
              enumerate_faults(nl).size(), collapse_faults(nl).size());

  ParallelAtpgOptions opts;
  opts.run.engine.kind = EngineKind::kHitec;
  const AtpgRunResult run = run_parallel_atpg(nl, opts).run;

  std::printf("fault coverage  : %.1f%%\n", run.fault_coverage);
  std::printf("fault efficiency: %.1f%%\n", run.fault_efficiency);
  std::printf("work            : %llu node evaluations, %llu backtracks\n",
              static_cast<unsigned long long>(run.evals),
              static_cast<unsigned long long>(run.backtracks));
  std::printf("test sequences  : %zu\n", run.tests.size());

  // Print the first few sequences; inputs are in nl.inputs() order (en,
  // rst).
  int shown = 0;
  for (const auto& seq : run.tests) {
    if (++shown > 3) break;
    std::printf("  sequence %d (%zu cycles): en,rst =", shown, seq.size());
    for (const auto& vec : seq)
      std::printf(" %c%c", v3_char(vec[0]), v3_char(vec[1]));
    std::printf("\n");
  }
  std::printf("states traversed by the test set: %zu\n",
              run.states_traversed.size());
  return 0;
}
