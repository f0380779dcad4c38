// Cross-run analytics over flight-recorder event logs and archived
// reports: the read side of the observability stack (`satpg inspect`).
//
// inspect_source accepts either artifact the run side writes —
//   * a satpg.events.v1 NDJSON flight-recorder log (--events-json), or
//   * a satpg.atpg_run.v6 report (--metrics-json / archive entry; no
//     other report schema is accepted)
// — detects which it got from the schema, and renders:
//   * default: run identity, the top-k hardest-faults table (ranked by
//     evals, then invalid fraction, then name) and the cube-sharing
//     provenance summary (exporters -> beneficiaries with hit counts);
//   * --fault=ID (name or collapsed index): that fault's full search
//     timeline (event log) or its per-fault record + cube sources
//     (report);
//   * --memory: the v6 per-subsystem byte-accounting block, the budget
//     verdict, and the hungriest faults ranked by per-attempt peak bytes.
// inspect_source also accepts a satpg.profile.* sidecar when --profile
// is set, rendering the ranked where-do-the-cycles-go phase table.
// inspect_diff compares two reports as trajectories: summary deltas,
// fault-efficiency milestones from the fe_trace, and the per-fault
// divergence table.
// inspect_trend walks a sequence of archived documents (reports and
// profile sidecars, in archive append order) and renders one row per
// report — coverage, evals, peak bytes, plus evals/s and cycles/eval
// joined from the latest profile sidecar with the same configuration.
//
// Everything here is a pure function of the input texts — identical
// inputs give byte-identical output in both txt and json formats, so
// inspect output can itself be diffed across machines and thread counts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace satpg {

struct InspectOptions {
  /// Fault to show a timeline for: a fault name or an all-digits
  /// collapsed-fault index. Empty = run overview.
  std::string fault;
  /// Rows in the hardest-faults table.
  std::size_t top = 10;
  /// Memory view (--memory): the report's per-subsystem byte accounting
  /// plus the hungriest faults by peak_bytes. Event logs have no such block.
  bool memory = false;
  /// Profile view (--profile): the ranked per-phase cost table from a
  /// satpg.profile.* sidecar (--profile-json output).
  bool profile = false;
  /// Machine-readable output (--format=json) instead of aligned text.
  bool json = false;
};

/// One archived document handed to inspect_trend: the archive hash and
/// the stored text (report or profile sidecar), in append order.
struct TrendEntry {
  std::string hash;
  std::string text;
};

/// Inspect one artifact (event log or report text). Returns false with a
/// one-line *error (when non-null) on malformed input or an unknown
/// fault; writes nothing to `os` in that case.
bool inspect_source(std::ostream& os, const std::string& text,
                    const InspectOptions& opts, std::string* error = nullptr);

/// Trajectory diff of two atpg_run reports (a = baseline). Returns false
/// with *error on malformed input or non-report artifacts.
bool inspect_diff(std::ostream& os, const std::string& a_text,
                  const std::string& b_text, const InspectOptions& opts,
                  std::string* error = nullptr);

/// Cross-run trend table over archived documents in append order: one
/// row per atpg_run report; profile sidecars in the sequence contribute
/// evals/s and cycles/eval to the latest same-configuration report row
/// ("-" when no profile matches). Returns false with *error when an
/// entry is malformed or no report rows remain.
bool inspect_trend(std::ostream& os, const std::vector<TrendEntry>& entries,
                   const InspectOptions& opts, std::string* error = nullptr);

}  // namespace satpg
