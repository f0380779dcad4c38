// Structured run reports: the machine-readable side of an ATPG run.
//
// write_atpg_report_json dumps schema "satpg.atpg_run.v6": circuit and
// engine identity (v4 adds share_learning and the CDCL solver counters —
// conflicts/propagations/restarts/learned_clauses/cube_exports — in the
// summary and per-fault records; v5 adds cube-sharing provenance: a
// per-fault "cube_sources" array naming which exporter fault and epoch
// each imported cube came from, and a top-level "cube_provenance" block
// whose exports total equals the summary cube_exports counter; v6 adds
// the "build_info" provenance block, the top-level "memory" block of
// per-subsystem byte accounting, a per-fault "peak_bytes" field, and the
// watchdog block's "memory" budget verdict — see DESIGN.md §11), the
// invalid-state attribution block (oracle mode,
// num_valid, density, bucket order), the watchdog block (threshold, defer
// mode, stuck-fault verdicts — empty when the watchdog is off), the
// summary numbers the tables print (including the attribution bucket sums
// and effort_invalid_frac), the Figure-3 fe_trace, a per-fault record
// array (status + full FaultSearchStats + per-fault attribution), and the
// global metrics registry. Everything in the report is deterministic —
// wall-clock times and thread counts are deliberately absent, so the same
// run dumps byte-identical JSON at any --threads value, with or without
// the live monitor (DESIGN.md §5/§6/§7). Timing belongs in the trace JSON
// (base/trace.h) and the heartbeat stream (base/monitor.h), which make no
// such promise.
//
// parse_run_report is the read side: the one reader of the schema,
// flattening a report into RunReport for diff, inspect and
// tools/bench_gate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "atpg/parallel.h"
#include "base/events.h"
#include "netlist/netlist.h"

namespace satpg {

/// The one report schema this build writes. Every reader (diff, inspect,
/// archive, tools/bench_gate) accepts exactly this schema and rejects the
/// rest.
inline constexpr char kAtpgRunSchema[] = "satpg.atpg_run.v6";

/// True when `text` is an atpg_run report of any other schema version.
/// The CLI exits 2 (usage error) for such inputs, not 1.
bool is_stale_atpg_run_report(const std::string& text);

/// One report, flattened for the read side. Missing numeric fields parse
/// as 0. inspect's event-log reader fills the same struct from a
/// satpg.events.v1 log (schema, identity, attempted faults and their
/// events; provenance derived from the events).
struct RunReport {
  std::string schema;
  std::string circuit;
  std::string engine;
  std::uint64_t seed = 0;
  std::uint64_t total_faults = 0;
  double fault_coverage = 0.0;
  double fault_efficiency = 0.0;
  std::uint64_t evals = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t justify_failures = 0;
  std::uint64_t cube_exports = 0;  ///< summary counter
  double effort_invalid_frac = 0.0;
  std::string oracle_mode;  ///< "exact"/"superset"/"disabled"
  double density = -1.0;    ///< -1 when unknown
  /// Build provenance, flattened to one comparable line
  /// ("gcc 13.2.0 Release san=none simd=avx2/avx2"). Two runs
  /// whose lines differ are perf-incomparable; write_run_diff flags them.
  std::string build_line;
  /// watchdog.defer: parked faults were requeued, so the summary counters
  /// include first attempts that per_fault does not.
  bool watchdog_defer = false;
  /// Figure-3 trace: (cumulative evals, fault efficiency %) points.
  std::vector<std::pair<std::uint64_t, double>> fe_trace;

  /// One flight-recorder event, as read back from an event log.
  struct Event {
    std::string k;
    std::uint64_t at = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::uint64_t bytes = 0;  ///< byte annotation (db_reduce reclaimed, ...)
    std::string cube;
    std::string src;
    std::vector<std::uint64_t> lbd;
  };

  struct PerFault {
    std::string name;
    std::size_t index = 0;  ///< collapsed-fault index
    std::string status;     ///< "detected"/"redundant"/"aborted"
    bool attempted = false;
    std::uint64_t evals = 0;
    std::uint64_t backtracks = 0;
    double effort_invalid_frac = 0.0;
    std::uint64_t cube_exports = 0;
    std::uint64_t peak_bytes = 0;
    std::vector<CubeSource> cube_sources;
    std::vector<Event> events;  ///< event logs only
  };
  std::vector<PerFault> per_fault;

  /// cube_provenance block: run totals and the exporter rollup.
  struct Exporter {
    std::string fault;
    std::uint64_t cubes = 0;
    std::uint64_t beneficiaries = 0;
    std::uint64_t hits = 0;
  };
  std::uint64_t prov_exports = 0;
  std::uint64_t prov_hits = 0;
  std::vector<Exporter> exporters;

  /// memory block: per-subsystem rows in the writer's sorted-name order,
  /// then the totals — peak is the sum-of-subsystem-peaks bound, and all
  /// are 0 when memstats were disarmed.
  struct MemRow {
    std::string name;
    std::uint64_t live = 0;
    std::uint64_t peak = 0;
    std::uint64_t allocated = 0;
    std::uint64_t allocs = 0;
  };
  bool has_memory = false;
  std::vector<MemRow> memory;
  std::uint64_t mem_live_bytes = 0;
  std::uint64_t mem_peak_bytes = 0;
  std::uint64_t mem_allocated_bytes = 0;
  /// watchdog.memory verdict: budget bytes (0 = off) and the outcome.
  std::uint64_t mem_budget = 0;
  std::uint64_t mem_tripped = 0;
  std::uint64_t mem_requeued = 0;
  std::string mem_verdict;  ///< "off" / "clean" / "degraded"
};

/// Parse a report (text form). Returns false with a one-line *error (when
/// non-null) on malformed input or any schema but kAtpgRunSchema.
bool parse_run_report(const std::string& json_text, RunReport* out,
                      std::string* error = nullptr);

/// Stream form; the caller owns the stream.
void write_atpg_report_json(std::ostream& os, const Netlist& nl,
                            const ParallelAtpgOptions& opts,
                            const ParallelAtpgResult& res);

/// File form. Returns false when the file cannot be opened.
bool write_atpg_report_json(const std::string& path, const Netlist& nl,
                            const ParallelAtpgOptions& opts,
                            const ParallelAtpgResult& res);

/// Flight-recorder event log, NDJSON (one JSON object per line):
///   line 1: header {"schema": "satpg.events.v1", circuit, engine, seed,
///           faults, attempted}
///   then, per attempted fault in collapsed-fault-index order, one fault
///   line {"fault", "index", "status", "evals", "backtracks",
///   "invalid_frac", "events"} followed by its event lines
///   (base/events.h append_event_json).
/// Everything is wall-clock free — the "at" axis is the fault's budget
/// eval counter — so the stream is byte-identical at any --threads value
/// (same contract as the report; DESIGN.md §10).
void write_events_json(std::ostream& os, const Netlist& nl,
                       const ParallelAtpgOptions& opts,
                       const ParallelAtpgResult& res);

/// File form. Returns false when the file cannot be opened.
bool write_events_json(const std::string& path, const Netlist& nl,
                       const ParallelAtpgOptions& opts,
                       const ParallelAtpgResult& res);

}  // namespace satpg
