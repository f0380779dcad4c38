// Deterministic differ over archived atpg_run reports.
//
// parse_run_report loads a satpg.atpg_run.v6 report (the only schema it
// accepts) into a flat struct; diff_runs computes
// coverage/effort/per-fault deltas, ranked regressions, and the
// invalid-state-fraction scatter the paper's Figure 3 mechanism predicts;
// write_run_diff renders everything as aligned text. All of it is a pure
// function of the two input texts — identical inputs give byte-identical
// output, so diff output can itself be diffed across machines and thread
// counts.
//
// evaluate_gate applies regression thresholds (coverage drop in points,
// effort growth as a ratio) for the tools/bench_gate CI gate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace satpg {

/// One report, flattened for comparison. Missing numeric fields parse as 0.
struct RunReport {
  std::string schema;
  std::string circuit;
  std::string engine;
  std::uint64_t seed = 0;
  double fault_coverage = 0.0;
  double fault_efficiency = 0.0;
  std::uint64_t evals = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t justify_calls = 0;
  std::uint64_t justify_failures = 0;
  double effort_invalid_frac = 0.0;
  std::string oracle_mode;  ///< "exact"/"superset"/"disabled"
  double density = -1.0;    ///< -1 when unknown
  /// Build provenance, flattened to one comparable line
  /// ("gcc 13.2.0 Release san=none simd=avx2/avx2"). Two runs
  /// whose lines differ are perf-incomparable; write_run_diff flags them.
  std::string build_line;
  /// Memory block totals: the sum-of-subsystem-peaks bound and cumulative
  /// allocated logical bytes (0 when memstats were disarmed).
  std::uint64_t mem_peak_bytes = 0;
  std::uint64_t mem_allocated_bytes = 0;

  struct PerFault {
    std::string name;
    std::string status;  ///< "detected"/"redundant"/"aborted"
    bool attempted = false;
    std::uint64_t evals = 0;
    std::uint64_t backtracks = 0;
    std::uint64_t justify_failures = 0;
    double effort_invalid_frac = 0.0;
  };
  std::vector<PerFault> per_fault;
};

/// Parse a report (text form). Returns false with a one-line *error (when
/// non-null) on malformed input or any schema but kAtpgRunSchema.
bool parse_run_report(const std::string& json_text, RunReport* out,
                      std::string* error = nullptr);

struct DiffOptions {
  /// Max rows in the ranked per-fault regression table.
  std::size_t top_regressions = 10;
  /// Scatter-table bucket count over effort_invalid_frac [0, 1].
  std::size_t scatter_bins = 10;
};

/// b relative to a ("a -> b": a is the baseline).
struct RunDiff {
  double coverage_delta = 0.0;    ///< b - a, percentage points
  double efficiency_delta = 0.0;  ///< b - a, percentage points
  double evals_ratio = 1.0;       ///< b / a (1 when a == 0 and b == 0)
  double backtracks_ratio = 1.0;
  double invalid_frac_delta = 0.0;  ///< run-level effort_invalid_frac b - a

  struct FaultDelta {
    std::string name;
    std::string status_a, status_b;
    std::int64_t evals_delta = 0;  ///< b - a
    double invalid_frac_a = 0.0, invalid_frac_b = 0.0;
  };
  /// Faults present in both reports whose evals grew, ranked by delta
  /// descending (name ascending as tie-break), truncated to
  /// top_regressions.
  std::vector<FaultDelta> regressions;
  /// Faults whose status changed (detected -> aborted etc.), name order.
  std::vector<FaultDelta> status_changes;

  /// Scatter rows: per-fault effort_invalid_frac histogram, bin i covering
  /// [i/bins, (i+1)/bins) (last bin closed), for each side.
  std::vector<std::uint64_t> scatter_a, scatter_b;
  /// Attempted-fault counts behind the scatter.
  std::uint64_t attempted_a = 0, attempted_b = 0;
};

RunDiff diff_runs(const RunReport& a, const RunReport& b,
                  const DiffOptions& opts = {});

/// Human-readable (and byte-stable) rendering of a diff.
void write_run_diff(std::ostream& os, const RunReport& a, const RunReport& b,
                    const RunDiff& diff);

// ---- regression gate --------------------------------------------------------

struct GateOptions {
  /// Fail when candidate coverage drops more than this many points below
  /// the baseline.
  double max_coverage_drop = 0.5;
  /// Fail when candidate evals exceed baseline evals by more than this
  /// factor.
  double max_effort_ratio = 1.25;
};

struct GateResult {
  bool pass = true;
  /// One line per violated threshold (empty when pass).
  std::vector<std::string> violations;
};

/// Apply the thresholds to a baseline->candidate diff. Pure.
GateResult evaluate_gate(const RunReport& baseline,
                         const RunReport& candidate,
                         const GateOptions& opts = {});

}  // namespace satpg
