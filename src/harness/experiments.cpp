#include "harness/experiments.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "analysis/reach.h"
#include "analysis/structure.h"
#include "atpg/parallel.h"
#include "base/strutil.h"
#include "fsm/mcnc_suite.h"
#include "fsm/minimize.h"
#include "synth/techmap.h"

namespace satpg {

AtpgRunOptions scaled_run_options(const ExperimentOptions& opts,
                                  EngineKind kind) {
  AtpgRunOptions run;
  run.engine.kind = kind;
  run.engine.eval_limit =
      static_cast<std::uint64_t>(1'000'000 * opts.budget_scale);
  run.engine.backtrack_limit =
      static_cast<std::uint64_t>(1500 * opts.budget_scale);
  run.engine.max_forward_frames = 8;
  run.engine.max_backward_frames = 20;
  run.engine.verify_reject_limit = 10;
  run.random_sequences = 8;
  run.random_length = 40;
  run.seed = opts.seed;
  // Per-circuit work ceiling: keeps the largest machine (scf) from
  // dominating a table run; faults beyond the ceiling abort, exactly like
  // the paper's manually-halted million-second runs. Scale with --budget
  // for sharper numbers.
  run.total_eval_budget =
      static_cast<std::uint64_t>(120'000'000 * opts.budget_scale);
  run.fsim = opts.fsim;
  return run;
}

AtpgRunResult run_atpg_threaded(const Netlist& nl,
                                const ExperimentOptions& opts,
                                const AtpgRunOptions& run) {
  ParallelAtpgOptions p;
  p.run = run;
  p.num_threads = opts.num_threads;
  p.deadline_ms = opts.deadline_ms;
  return run_parallel_atpg(nl, p).run;
}

namespace {

std::string kev(std::uint64_t evals) {
  return strprintf("%.0f", static_cast<double>(evals) / 1000.0);
}

std::string pct(double v) { return strprintf("%.1f", v); }

// Count traversed states that are fully specified and valid.
std::size_t traversed_valid(const StateSet& traversed,
                            const ReachResult& reach) {
  std::unordered_set<std::string> valid;
  for (const auto& s : reach.states) valid.insert(s.to_string());
  std::size_t n = 0;
  for (const auto& s : traversed)
    if (s.fully_specified() && valid.count(s.to_string())) ++n;
  return n;
}

}  // namespace

Table run_table1_fsms(Suite& suite) {
  Table t({"FSM", "PI", "PO", "states", "min-states"});
  for (const auto& spec : mcnc_specs()) {
    FsmGenSpec gen = spec;
    if (suite.options().fsm_scale != 1.0)
      gen = scaled_spec(gen, suite.options().fsm_scale);
    gen.seed ^= suite.options().seed * 0x9e3779b97f4a7c15ULL;
    const Fsm fsm = generate_control_fsm(gen);
    t.add_row({fsm.name(), std::to_string(fsm.num_inputs()),
               std::to_string(fsm.num_outputs()),
               std::to_string(fsm.num_states()),
               std::to_string(minimize_fsm(fsm).num_states())});
  }
  return t;
}

namespace {

// Shared body for Tables 2-4: run `kind` on selected pairs.
Table run_engine_table(Suite& suite, const ExperimentOptions& opts,
                       EngineKind kind,
                       const std::vector<PairSpec>& pairs,
                       bool absolute_columns) {
  Table t = absolute_columns
                ? Table({"circuit", "#DFF", "%FC", "%FE", "kEv", "wall_s",
                         "CPU ratio"})
                : Table({"circuit", "%FC (orig)", "%FE (orig)", "%FC (re)",
                         "%FE (re)", "CPU ratio"});
  for (const auto& spec : pairs) {
    const Netlist orig = suite.circuit(spec.name());
    const Netlist re = suite.circuit(spec.retimed_name());
    // No column reads effort attribution, so skip the validity oracle it
    // needs; evals and coverage do not depend on it.
    auto run_opts = scaled_run_options(opts, kind);
    run_opts.attribute_effort = false;
    const AtpgRunResult r0 = run_atpg_threaded(orig, opts, run_opts);
    const AtpgRunResult r1 = run_atpg_threaded(re, opts, run_opts);
    const double ratio = static_cast<double>(r1.evals) /
                         static_cast<double>(std::max<std::uint64_t>(1,
                                                                     r0.evals));
    if (absolute_columns) {
      t.add_row({spec.name(), std::to_string(orig.num_dffs()),
                 pct(r0.fault_coverage), pct(r0.fault_efficiency),
                 kev(r0.evals), strprintf("%.1f", r0.wall_seconds), ""});
      t.add_row({spec.retimed_name(), std::to_string(re.num_dffs()),
                 pct(r1.fault_coverage), pct(r1.fault_efficiency),
                 kev(r1.evals), strprintf("%.1f", r1.wall_seconds),
                 strprintf("%.1f", ratio)});
    } else {
      t.add_row({spec.name(), pct(r0.fault_coverage),
                 pct(r0.fault_efficiency), pct(r1.fault_coverage),
                 pct(r1.fault_efficiency), strprintf("%.1f", ratio)});
    }
  }
  return t;
}

std::vector<PairSpec> pairs_by_names(const std::vector<std::string>& names) {
  std::vector<PairSpec> out;
  for (const auto& name : names)
    for (const auto& spec : table2_specs())
      if (spec.name() == name) out.push_back(spec);
  return out;
}

}  // namespace

Table run_table2_hitec(Suite& suite, const ExperimentOptions& opts) {
  return run_engine_table(suite, opts, EngineKind::kHitec, table2_specs(),
                          /*absolute_columns=*/true);
}

Table run_table3_attest(Suite& suite, const ExperimentOptions& opts) {
  return run_engine_table(
      suite, opts, EngineKind::kForward,
      pairs_by_names({"dk16.ji.sd", "pma.jo.sd", "s510.jc.sd", "s510.ji.sr",
                      "s510.jo.sr"}),
      /*absolute_columns=*/false);
}

Table run_table4_sest(Suite& suite, const ExperimentOptions& opts) {
  return run_engine_table(
      suite, opts, EngineKind::kLearning,
      pairs_by_names({"dk16.ji.sd", "pma.jo.sd", "s510.jc.sd", "s510.ji.sd",
                      "s510.jo.sr"}),
      /*absolute_columns=*/false);
}

Table run_table5_structure(Suite& suite, const ExperimentOptions& opts) {
  (void)opts;
  Table t({"circuit", "max seq depth (orig)", "max cycle len (orig)",
           "#cycles (orig)", "max seq depth (re)", "max cycle len (re)",
           "#cycles (re)"});
  auto fmt = [](int v, bool saturated) {
    if (!saturated) return std::to_string(v);
    // A capped search that found nothing yet has no information to report.
    return v == 0 ? std::string("n/a(cap)") : (">=" + std::to_string(v));
  };
  for (const auto& spec : table2_specs()) {
    const Netlist orig = suite.circuit(spec.name());
    const Netlist re = suite.circuit(spec.retimed_name());
    const auto d0 = max_sequential_depth(orig);
    const auto d1 = max_sequential_depth(re);
    const auto c0 = count_cycles(orig);
    const auto c1 = count_cycles(re);
    t.add_row({spec.name(), fmt(d0.max_depth, d0.saturated),
               fmt(c0.max_cycle_length, c0.saturated),
               fmt(c0.num_cycles, c0.saturated),
               fmt(d1.max_depth, d1.saturated),
               fmt(c1.max_cycle_length, c1.saturated),
               fmt(c1.num_cycles, c1.saturated)});
  }
  return t;
}

Table run_table6_density(Suite& suite, const ExperimentOptions& opts) {
  Table t({"circuit", "#states trav", "#valid states", "%valid trav",
           "total #states", "density of encoding"});
  for (const auto& spec : table2_specs()) {
    for (const bool retimed : {false, true}) {
      const std::string name =
          retimed ? spec.retimed_name() : spec.name();
      const Netlist nl = suite.circuit(name);
      const auto run = run_atpg_threaded(
          nl, opts, scaled_run_options(opts, EngineKind::kHitec));
      const auto reach = compute_reachable(nl);
      const std::size_t tv = traversed_valid(run.states_traversed, reach);
      const double pct_trav =
          reach.num_valid > 0
              ? 100.0 * static_cast<double>(tv) / reach.num_valid
              : 0.0;
      t.add_row({name, std::to_string(run.states_traversed.size()),
                 strprintf("%.0f", reach.num_valid),
                 strprintf("%.0f", pct_trav),
                 format_count(reach.total_states),
                 format_density(reach.density)});
    }
  }
  return t;
}

Table run_table7_sensitivity(Suite& suite, const ExperimentOptions& opts) {
  (void)opts;
  Table t({"circuit", "delay (ns)", "#DFF", "#valid states", "total #states",
           "density of encoding"});
  std::vector<std::string> names{"s510.jo.sr"};
  for (const auto& [suffix, dffs] : table7_ladder())
    names.push_back("s510.jo.sr" + suffix);
  for (const auto& name : names) {
    const Netlist nl = suite.circuit(name);
    const auto reach = compute_reachable(nl);
    t.add_row({name, strprintf("%.2f", critical_path_delay(nl)),
               std::to_string(nl.num_dffs()),
               strprintf("%.0f", reach.num_valid),
               format_count(reach.total_states),
               format_density(reach.density)});
  }
  return t;
}

Table run_table8_replay(Suite& suite, const ExperimentOptions& opts) {
  Table t({"circuit", "%FC", "%FE", "#states trav", "#valid states",
           "#states trav by orig test set", "%FC orig test set"});
  const std::vector<std::string> rows{"s510.jc.sr", "s510.jo.sr", "s832.jc.sr",
                                      "scf.ji.sd"};
  for (const auto& base : rows) {
    PairSpec spec;
    for (const auto& s : table2_specs())
      if (s.name() == base) spec = s;
    const Netlist orig = suite.circuit(spec.name());
    const Netlist re = suite.circuit(spec.retimed_name());
    const auto run_opts = scaled_run_options(opts, EngineKind::kHitec);
    const AtpgRunResult r_orig = run_atpg_threaded(orig, opts, run_opts);
    const AtpgRunResult r_re = run_atpg_threaded(re, opts, run_opts);
    const auto reach = compute_reachable(re);

    // Replay the original circuit's test set on the retimed circuit
    // (identical PI ordering by construction of the rebuild).
    const auto collapsed = collapse_faults(re);
    std::vector<Fault> faults;
    for (const auto& cf : collapsed) faults.push_back(cf.representative);
    const auto replay = run_fault_simulation(re, faults, r_orig.tests,
                                             opts.fsim);
    std::size_t det_w = 0, tot_w = 0;
    for (std::size_t i = 0; i < collapsed.size(); ++i) {
      tot_w += static_cast<std::size_t>(collapsed[i].class_size);
      if (replay.detected_at[i] >= 0 || replay.potential_at[i] >= 0)
        det_w += static_cast<std::size_t>(collapsed[i].class_size);
    }
    const double replay_fc =
        100.0 * static_cast<double>(det_w) /
        static_cast<double>(std::max<std::size_t>(1, tot_w));

    t.add_row({spec.retimed_name(), pct(r_re.fault_coverage),
               pct(r_re.fault_efficiency),
               std::to_string(r_re.states_traversed.size()),
               strprintf("%.0f", reach.num_valid),
               std::to_string(replay.good_states.size()),
               pct(replay_fc)});
  }
  return t;
}

Table run_fig3_fe_vs_cpu(Suite& suite, const ExperimentOptions& opts) {
  Table t({"circuit", "kEv (cumulative)", "%FE attained"});
  std::vector<std::string> names{"s510.jo.sr"};
  for (const auto& [suffix, dffs] : table7_ladder())
    names.push_back("s510.jo.sr" + suffix);
  for (const auto& name : names) {
    const Netlist nl = suite.circuit(name);
    const auto run = run_atpg_threaded(
        nl, opts, scaled_run_options(opts, EngineKind::kHitec));
    // Sample ~12 points along the trace plus the endpoint.
    const auto& trace = run.fe_trace;
    const std::size_t stride =
        std::max<std::size_t>(1, trace.size() / 12);
    for (std::size_t i = 0; i < trace.size(); i += stride)
      t.add_row({name, kev(trace[i].first), pct(trace[i].second)});
    if (!trace.empty())
      t.add_row({name, kev(trace.back().first), pct(trace.back().second)});
    t.add_row({name + " (final)", kev(run.evals),
               pct(run.fault_efficiency)});
  }
  return t;
}

Table run_table9_cdcl(Suite& suite, const ExperimentOptions& opts) {
  // The Table-4 circuit pairs, each row one circuit: the cdcl engine's
  // coverage/work/solver counters next to the hitec baseline's work and
  // the attribution oracle's invalid-state effort fraction for both
  // engines. The "inv%" gap on the retimed rows is the question the
  // engine exists to answer: does conflict learning shrink the share of
  // effort burned justifying into unreachable states?
  Table t({"circuit", "%FC", "%FE", "kEv cdcl", "conflicts", "cubes",
           "inv% cdcl", "kEv hitec", "inv% hitec"});
  for (const auto& spec :
       pairs_by_names({"dk16.ji.sd", "pma.jo.sd", "s510.jc.sd"})) {
    for (const auto& name : {spec.name(), spec.retimed_name()}) {
      const Netlist nl = suite.circuit(name);
      const auto rc = run_atpg_threaded(
          nl, opts, scaled_run_options(opts, EngineKind::kCdcl));
      const auto rh = run_atpg_threaded(
          nl, opts, scaled_run_options(opts, EngineKind::kHitec));
      t.add_row({name, pct(rc.fault_coverage), pct(rc.fault_efficiency),
                 kev(rc.evals), std::to_string(rc.conflicts),
                 std::to_string(rc.cube_exports),
                 pct(100.0 * rc.effort_invalid_frac), kev(rh.evals),
                 pct(100.0 * rh.effort_invalid_frac)});
    }
  }
  return t;
}

Table run_ablation_learning(Suite& suite, const ExperimentOptions& opts) {
  Table t({"circuit", "%FE hitec", "kEv hitec", "%FE learning",
           "kEv learning", "speedup"});
  for (const auto& name :
       {"dk16.ji.sd.re", "s820.jo.sr.re", "s832.jo.sr.re"}) {
    const Netlist nl = suite.circuit(name);
    const auto r0 = run_atpg_threaded(
        nl, opts, scaled_run_options(opts, EngineKind::kHitec));
    const auto r1 = run_atpg_threaded(
        nl, opts, scaled_run_options(opts, EngineKind::kLearning));
    t.add_row({name, pct(r0.fault_efficiency), kev(r0.evals),
               pct(r1.fault_efficiency), kev(r1.evals),
               strprintf("%.2f", static_cast<double>(r0.evals) /
                                     static_cast<double>(std::max<
                                         std::uint64_t>(1, r1.evals)))});
  }
  return t;
}

Table run_ablation_cdcl_sharing(Suite& suite, const ExperimentOptions& opts) {
  // Retimed twins, cdcl engine, identical flags except the shared cache:
  // sharing must never raise total conflicts, and on justification-heavy
  // twins it should strictly lower them (the tier2 bench gate asserts the
  // strict version for dk16).
  Table t({"circuit", "conflicts shared", "conflicts solo", "cubes",
           "kEv shared", "kEv solo"});
  for (const auto& name :
       {"dk16.ji.sd.re", "s820.jo.sr.re", "s832.jo.sr.re"}) {
    const Netlist nl = suite.circuit(name);
    auto run_opts = scaled_run_options(opts, EngineKind::kCdcl);
    const auto shared = run_atpg_threaded(nl, opts, run_opts);
    run_opts.engine.share_learning = false;
    const auto solo = run_atpg_threaded(nl, opts, run_opts);
    t.add_row({name, std::to_string(shared.conflicts),
               std::to_string(solo.conflicts),
               std::to_string(shared.cube_exports), kev(shared.evals),
               kev(solo.evals)});
  }
  return t;
}

Table run_ablation_budget(Suite& suite, const ExperimentOptions& opts) {
  Table t({"circuit", "budget scale", "%FC", "%FE", "kEv"});
  const Netlist nl = suite.circuit("s820.jo.sd.re");
  for (const double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    ExperimentOptions scaled = opts;
    scaled.budget_scale = opts.budget_scale * scale;
    const auto r = run_atpg_threaded(
        nl, scaled, scaled_run_options(scaled, EngineKind::kHitec));
    t.add_row({nl.name(), strprintf("%.2f", scale), pct(r.fault_coverage),
               pct(r.fault_efficiency), kev(r.evals)});
  }
  return t;
}

Table run_ablation_encoding(const ExperimentOptions& opts) {
  // Density of encoding varied directly (no retiming): the same machine
  // synthesized with minimum-bit encoders vs one-hot.
  Table t({"circuit", "#DFF", "#valid", "total", "density", "%FC", "%FE",
           "kEv"});
  FsmGenSpec gen;
  for (const auto& s : mcnc_specs())
    if (s.name == "s820") gen = s;
  gen = scaled_spec(gen, 0.75);
  gen.seed ^= opts.seed * 0x9e3779b97f4a7c15ULL;
  const Fsm fsm = generate_control_fsm(gen);
  for (const EncodeAlgo algo :
       {EncodeAlgo::kNatural, EncodeAlgo::kInputDominant,
        EncodeAlgo::kOutputDominant, EncodeAlgo::kCombined,
        EncodeAlgo::kOneHot}) {
    SynthOptions so;
    so.encode = algo;
    so.seed = opts.seed;
    const SynthResult res = synthesize(fsm, so);
    const auto reach = compute_reachable(res.netlist);
    const auto run = run_atpg_threaded(
        res.netlist, opts, scaled_run_options(opts, EngineKind::kHitec));
    t.add_row({res.name, std::to_string(res.netlist.num_dffs()),
               strprintf("%.0f", reach.num_valid),
               format_count(reach.total_states),
               format_density(reach.density), pct(run.fault_coverage),
               pct(run.fault_efficiency), kev(run.evals)});
  }
  return t;
}

namespace {

[[noreturn]] void bench_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--budget=F] [--seed=N] [--scale=F] "
               "[--cache=DIR] [--threads=N] [--deadline-ms=N]\n"
               "          [--metrics-json=FILE] [--trace-json=FILE] "
               "[--width=64|128|256|512] [--no-sidecar]\n",
               argv0);
  std::exit(2);
}

[[noreturn]] void bench_bad_value(const char* argv0, const std::string& arg) {
  std::fprintf(stderr, "error: bad value %s\n", arg.c_str());
  bench_usage(argv0);
}

}  // namespace

BenchConfig parse_bench_flags(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    bool ok = true;
    if (const char* v = value_of("--budget=")) {
      ok = parse_positive_double(v, &cfg.experiment.budget_scale);
    } else if (const char* v = value_of("--seed=")) {
      ok = parse_u64(v, &cfg.experiment.seed);
      cfg.suite.seed = cfg.experiment.seed;
    } else if (const char* v = value_of("--scale=")) {
      ok = parse_positive_double(v, &cfg.suite.fsm_scale);
    } else if (const char* v = value_of("--cache=")) {
      cfg.suite.cache_dir = v;
    } else if (const char* v = value_of("--threads=")) {
      ok = parse_count(v, &cfg.experiment.num_threads);
    } else if (const char* v = value_of("--deadline-ms=")) {
      ok = parse_positive_u64(v, &cfg.experiment.deadline_ms);
    } else if (const char* v = value_of("--width=")) {
      unsigned width = 0;
      ok = parse_count(v, &width) &&
           simd_tier_from_width(width, &cfg.experiment.fsim.simd);
    } else if (cfg.telemetry.parse(arg.c_str())) {
      // --metrics-json= / --trace-json= handled by the shared helper.
    } else if (arg == "--no-sidecar") {
      cfg.write_sidecar = false;
    } else {
      bench_usage(argv[0]);
    }
    if (!ok) bench_bad_value(argv[0], arg);
  }
  if (!cfg.telemetry.error.empty())
    bench_bad_value(argv[0], cfg.telemetry.error);
  return cfg;
}

}  // namespace satpg
