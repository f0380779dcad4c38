#include "harness/extensions.h"

#include "analysis/srf.h"
#include "atpg/compact.h"
#include "base/strutil.h"
#include "dft/scan.h"
#include "fsm/mcnc_suite.h"
#include "retime/retime.h"
#include "synth/synthesize.h"

namespace satpg {

Table run_srf_census(const ExperimentOptions& opts) {
  Table t({"circuit", "#collapsed faults", "detectable", "invalid-SRF",
           "unobservable-SRF"});
  // Reduced-scale pair: product-machine BDDs over 2x state bits.
  FsmGenSpec gen;
  for (const auto& s : mcnc_specs())
    if (s.name == "s820") gen = s;
  gen = scaled_spec(gen, 0.5);
  gen.seed ^= opts.seed * 0x9e3779b97f4a7c15ULL;
  const Fsm fsm = generate_control_fsm(gen);
  SynthOptions so;
  so.encode = EncodeAlgo::kOutputDominant;
  so.seed = opts.seed;
  const SynthResult res = synthesize(fsm, so);
  const RetimeResult rt = retime_to_dff_target(
      res.netlist, 3 * res.netlist.num_dffs(), res.name + ".re");

  for (const Netlist* nl : {&res.netlist, &rt.netlist}) {
    // Every product-machine classification costs a reachability fixpoint;
    // a deterministic sample of about 60 faults per circuit keeps the
    // census to about two minutes. (The test suite audits the oracle
    // exhaustively on smaller machines.)
    std::vector<Fault> faults;
    const auto collapsed = collapse_faults(*nl);
    const std::size_t stride = std::max<std::size_t>(1, collapsed.size() / 60);
    for (std::size_t i = 0; i < collapsed.size(); i += stride)
      faults.push_back(collapsed[i].representative);
    const SrfCensus census = classify_faults(*nl, faults);
    t.add_row({nl->name(),
               std::to_string(faults.size()) + " of " +
                   std::to_string(collapsed.size()),
               std::to_string(census.detectable),
               std::to_string(census.invalid),
               std::to_string(census.unobservable)});
  }
  return t;
}

Table run_ablation_scan(Suite& suite, const ExperimentOptions& opts) {
  Table t({"circuit", "variant", "#DFF scanned", "%FC", "%FE", "kEv"});
  for (const char* name : {"s820.ji.sr.re", "dk16.ji.sd.re"}) {
    const Netlist nl = suite.circuit(name);
    const auto run_opts = scaled_run_options(opts, EngineKind::kHitec);

    const auto seq = run_atpg_threaded(nl, opts, run_opts);
    t.add_row({name, "sequential", "0", strprintf("%.1f", seq.fault_coverage),
               strprintf("%.1f", seq.fault_efficiency),
               strprintf("%.0f", static_cast<double>(seq.evals) / 1000.0)});

    const auto partial_ffs = select_cycle_breaking_ffs(nl);
    const ScanResult partial = insert_partial_scan(nl, partial_ffs);
    const auto pr = run_atpg_threaded(partial.netlist, opts, run_opts);
    t.add_row({name, "partial scan", std::to_string(partial.chain.size()),
               strprintf("%.1f", pr.fault_coverage),
               strprintf("%.1f", pr.fault_efficiency),
               strprintf("%.0f", static_cast<double>(pr.evals) / 1000.0)});

    const ScanResult full = insert_full_scan(nl);
    const auto fr = run_atpg_threaded(full.netlist, opts, run_opts);
    t.add_row({name, "full scan", std::to_string(full.chain.size()),
               strprintf("%.1f", fr.fault_coverage),
               strprintf("%.1f", fr.fault_efficiency),
               strprintf("%.0f", static_cast<double>(fr.evals) / 1000.0)});
  }
  return t;
}

Table run_compaction_study(Suite& suite, const ExperimentOptions& opts) {
  Table t({"circuit", "#sequences", "#after compaction",
           "collapsed detected (before)", "collapsed detected (after)"});
  for (const char* name : {"dk16.ji.sd", "s820.jc.sr", "s832.jo.sr"}) {
    const Netlist nl = suite.circuit(name);
    auto run_opts = scaled_run_options(opts, EngineKind::kHitec);
    run_opts.random_sequences = 16;  // leave room to compact
    const auto run = run_atpg_threaded(nl, opts, run_opts);
    const auto c = compact_tests(nl, run.tests);
    t.add_row({name, std::to_string(c.before), std::to_string(c.after),
               std::to_string(c.detected_before),
               std::to_string(c.detected_after)});
  }
  return t;
}

}  // namespace satpg
