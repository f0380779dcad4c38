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
#pragma once

#include <iosfwd>
#include <string>

#include "atpg/parallel.h"
#include "netlist/netlist.h"

namespace satpg {

/// The one report schema this build writes. Every reader (diff, inspect,
/// tools/bench_gate) accepts exactly this schema and rejects the rest.
inline constexpr char kAtpgRunSchema[] = "satpg.atpg_run.v6";

/// True when `text` is an atpg_run report of any other schema version.
/// The CLI exits 2 (usage error) for such inputs, not 1.
bool is_stale_atpg_run_report(const std::string& text);

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
