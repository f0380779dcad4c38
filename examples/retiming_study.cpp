// The paper's experiment in miniature: synthesize one control FSM, retime
// it, and watch test generation get harder while sequential depth and
// cycle structure stay put — but density of encoding collapses.
//
//   $ ./retiming_study [fsm-name]     (default: s820, scaled down for speed)
#include <cstdio>
#include <string>

#include "analysis/reach.h"
#include "analysis/structure.h"
#include "atpg/parallel.h"
#include "fsm/mcnc_suite.h"
#include "retime/retime.h"
#include "synth/synthesize.h"
#include "synth/techmap.h"

using namespace satpg;

namespace {

void report(const Netlist& nl) {
  const auto depth = max_sequential_depth(nl);
  const auto cycles = count_cycles(nl);
  const auto reach = compute_reachable(nl);
  const AtpgRunResult run = run_parallel_atpg(nl, {}).run;

  std::printf("%-18s #DFF=%-3zu delay=%-6.2f\n", nl.name().c_str(),
              nl.num_dffs(), critical_path_delay(nl));
  std::printf("  structure : max seq depth=%d%s  max cycle len=%d  "
              "#cycles=%d%s\n",
              depth.max_depth, depth.saturated ? "+" : "",
              cycles.max_cycle_length, cycles.num_cycles,
              cycles.saturated ? "+" : "");
  std::printf("  state space: valid=%.0f of %.3g  density=%.3g\n",
              reach.num_valid, reach.total_states, reach.density);
  std::printf("  ATPG      : FC=%.1f%% FE=%.1f%% work=%llu evals "
              "(%zu states traversed)\n\n",
              run.fault_coverage, run.fault_efficiency,
              static_cast<unsigned long long>(run.evals),
              run.states_traversed.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "s820";
  FsmGenSpec spec;
  bool found = false;
  for (const auto& s : mcnc_specs())
    if (s.name == name) {
      spec = s;
      found = true;
    }
  if (!found) {
    std::fprintf(stderr, "unknown FSM '%s'\n", name.c_str());
    return 2;
  }

  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.6));
  SynthOptions so;
  so.encode = EncodeAlgo::kOutputDominant;
  so.script = ScriptKind::kDelay;
  const SynthResult res = synthesize(fsm, so);

  std::printf("== original circuit ==\n");
  report(res.netlist);

  const RetimeResult rt = retime_to_dff_target(
      res.netlist, 3 * res.netlist.num_dffs(), res.name + ".re");
  std::printf("== retimed circuit (register scatter, same function) ==\n");
  report(rt.netlist);

  std::printf("The retimed machine implements the same FSM with identical\n"
              "sequential depth and cycle lengths; only the density of\n"
              "encoding changed — and with it the ATPG effort.\n");
  return 0;
}
