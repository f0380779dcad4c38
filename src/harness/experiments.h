// Experiment drivers: one function per table/figure of the paper.
//
// Each returns a formatted Table whose rows mirror the paper's layout.
// "CPU" columns report the deterministic work metric (kilo node-evaluations
// — kEv) and wall seconds; ratios are computed on the work metric. See
// EXPERIMENTS.md for the measured-vs-paper comparison and the rationale for
// reporting work instead of 1995 DECstation seconds.
//
// `budget_scale` scales per-fault backtrack/eval budgets: 1.0 ≈ minutes for
// the full suite on one core; larger values sharpen the retimed-circuit
// blowups (the paper burned >5000 CPU hours — the shape, not the absolute
// magnitude, is the reproduction target).
#pragma once

#include <string>

#include "atpg/engine.h"
#include "base/table.h"
#include "base/telemetry_flags.h"
#include "fsim/fsim.h"
#include "harness/suite.h"

namespace satpg {

struct ExperimentOptions {
  double budget_scale = 1.0;
  std::uint64_t seed = 1;
  /// ATPG worker threads (0 = hardware). Every experiment routes through
  /// the fault-parallel driver, whose results are bit-identical for any
  /// thread count — tables never depend on this knob.
  unsigned num_threads = 0;
  /// Wall-clock deadline per ATPG run in ms (0 = none). Timing-dependent:
  /// only for bounding exploratory runs, never for table reproduction.
  std::uint64_t deadline_ms = 0;
  /// Fault-simulation engine/width selection. Results are byte-identical
  /// across engines and SIMD tiers by contract, so this knob only moves
  /// wall-clock (and the engine-scoped fsim.wide.* counters).
  FsimOptions fsim;
};

/// Baseline engine budgets used by all experiments, scaled.
AtpgRunOptions scaled_run_options(const ExperimentOptions& opts,
                                  EngineKind kind);

/// One ATPG run of an experiment: run_parallel_atpg with the experiment's
/// --threads and --deadline-ms. The driver's thread-count-invariant rounds
/// make the thread count change throughput, never table content.
AtpgRunResult run_atpg_threaded(const Netlist& nl,
                                const ExperimentOptions& opts,
                                const AtpgRunOptions& run);

Table run_table1_fsms(Suite& suite);
Table run_table2_hitec(Suite& suite, const ExperimentOptions& opts);
Table run_table3_attest(Suite& suite, const ExperimentOptions& opts);
Table run_table4_sest(Suite& suite, const ExperimentOptions& opts);
Table run_table5_structure(Suite& suite, const ExperimentOptions& opts);
Table run_table6_density(Suite& suite, const ExperimentOptions& opts);
Table run_table7_sensitivity(Suite& suite, const ExperimentOptions& opts);
Table run_table8_replay(Suite& suite, const ExperimentOptions& opts);
/// Figure 3: per-circuit (cumulative kEv, FE%) series over the Table 7
/// ladder, printed as aligned columns.
Table run_fig3_fe_vs_cpu(Suite& suite, const ExperimentOptions& opts);

/// Fourth engine column for Tables 2-4: the SAT/CDCL engine on the
/// Table-4 circuit pairs, side by side with the structural baseline —
/// coverage, work, solver counters, and the per-engine
/// `effort_invalid_frac` the attribution oracle makes comparable across
/// engines (DESIGN.md §9).
Table run_table9_cdcl(Suite& suite, const ExperimentOptions& opts);

// Ablations motivated by §5 of the paper.
Table run_ablation_learning(Suite& suite, const ExperimentOptions& opts);
/// Cross-fault cube sharing on vs off (--no-shared-learning) for the cdcl
/// engine on retimed twins: total conflicts, cube exports, and work.
Table run_ablation_cdcl_sharing(Suite& suite, const ExperimentOptions& opts);
Table run_ablation_budget(Suite& suite, const ExperimentOptions& opts);
Table run_ablation_encoding(const ExperimentOptions& opts);

/// Tiny flag parser shared by the bench mains: recognizes
/// --budget=<float>, --seed=<n>, --scale=<float> (FSM scale),
/// --cache=<dir>, --threads=<n>, --deadline-ms=<n>,
/// --metrics-json=<file> (dump the metrics registry after the run),
/// --trace-json=<file> (record a Chrome trace_event timeline) and the
/// other TelemetryFlags, --width=<64|128|256|512> (pin the wide fsim SIMD
/// tier; 64 is the portable scalar kernel), and --no-sidecar (suppress the
/// BENCH_*.json table sidecar). Numeric values are strict, as in
/// `satpg atpg`: budget, scale, threads and deadline must be positive,
/// the seed may be 0. An unknown flag or a malformed value exits 2 with
/// a usage message.
struct BenchConfig {
  ExperimentOptions experiment;
  SuiteOptions suite;
  TelemetryFlags telemetry;  ///< --metrics-json / --trace-json
  bool write_sidecar = true; ///< BENCH_<bench>.json next to the table
};
BenchConfig parse_bench_flags(int argc, char** argv);

}  // namespace satpg
