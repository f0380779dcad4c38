// Density of encoding as a direct knob: the same FSM synthesized with
// minimum-bit encoders and with one-hot encoding. No retiming involved —
// the sparser the encoding, the harder the structural ATPG has to work,
// which is the paper's central claim stripped to its essence.
//
//   $ ./density_sweep
#include <cstdio>

#include "analysis/reach.h"
#include "atpg/parallel.h"
#include "fsm/mcnc_suite.h"
#include "synth/synthesize.h"

using namespace satpg;

int main() {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.7));
  std::printf("machine: %d states, %d inputs, %d outputs\n\n",
              fsm.num_states(), fsm.num_inputs(), fsm.num_outputs());

  std::printf("%-14s %5s %8s %12s %10s %7s %7s %12s\n", "encoding", "#DFF",
              "#valid", "total", "density", "%FC", "%FE", "work (evals)");
  for (const EncodeAlgo algo :
       {EncodeAlgo::kNatural, EncodeAlgo::kInputDominant,
        EncodeAlgo::kOutputDominant, EncodeAlgo::kCombined,
        EncodeAlgo::kOneHot}) {
    SynthOptions so;
    so.encode = algo;
    const SynthResult res = synthesize(fsm, so);
    const auto reach = compute_reachable(res.netlist);
    const AtpgRunResult run = run_parallel_atpg(res.netlist, {}).run;
    std::printf("%-14s %5zu %8.0f %12.4g %10.2e %7.1f %7.1f %12llu\n",
                encode_algo_suffix(algo), res.netlist.num_dffs(),
                reach.num_valid, reach.total_states, reach.density,
                run.fault_coverage, run.fault_efficiency,
                static_cast<unsigned long long>(run.evals));
  }
  std::printf(
      "\nOne-hot leaves almost the whole state space invalid; watch the\n"
      "work column track the density column, not the gate count.\n");
  return 0;
}
