// Deterministic differ over archived atpg_run reports (parsed by
// parse_run_report, harness/report.h).
//
// diff_runs computes coverage/effort deltas, evals-to-FE% milestones off
// the fe_trace, the per-fault divergence table, and the invalid-state-
// fraction scatter the paper's Figure 3 mechanism predicts;
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

#include "harness/report.h"

namespace satpg {

struct DiffOptions {
  /// Max rows in the per-fault divergence table.
  std::size_t top = 10;
  /// Scatter-table bucket count over effort_invalid_frac [0, 1].
  std::size_t scatter_bins = 10;
};

/// b relative to a ("a -> b": a is the baseline).
struct RunDiff {
  double coverage_delta = 0.0;    ///< b - a, percentage points
  double efficiency_delta = 0.0;  ///< b - a, percentage points
  /// b / a (1 when a == 0 and b == 0, infinity when only a == 0).
  double evals_ratio = 1.0;
  double backtracks_ratio = 1.0;
  double invalid_frac_delta = 0.0;  ///< run-level effort_invalid_frac b - a

  /// Cumulative evals at which each side's fe_trace first reaches
  /// fe_pct; -1 when it never does.
  struct Milestone {
    double fe_pct = 0.0;
    std::int64_t evals_a = -1, evals_b = -1;
  };
  std::vector<Milestone> milestones;

  struct FaultDelta {
    std::string name;
    std::string status_a, status_b;
    std::int64_t evals_delta = 0;  ///< b - a
    double invalid_frac_a = 0.0, invalid_frac_b = 0.0;
  };
  /// Faults present in both reports whose status or evals differ: status
  /// changes first, then |evals_delta| descending, then name; truncated
  /// to DiffOptions::top.
  std::vector<FaultDelta> divergent;
  /// Divergent faults before truncation; 0 = identical trajectories.
  std::size_t divergent_total = 0;

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
