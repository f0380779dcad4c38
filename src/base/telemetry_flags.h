// Shared command-line plumbing for the telemetry subsystem.
//
// Every tool that can run an engine accepts the same flag family:
//   --metrics-json=FILE          deterministic structured metrics dump
//   --events-json=FILE           deterministic flight-recorder event log
//   --trace-json=FILE            Chrome trace_event timeline (wall-clock)
//   --heartbeat-json=FILE        live NDJSON heartbeat stream (wall-clock)
//   --heartbeat-interval-ms=N    monitor sampling period (default 500)
//   --progress                   one-line live progress samples on stderr
//   --profile-json=FILE          cycle profiler sidecar (wall-clock plane)
// The trace and the profile sidecar are two sinks of the same PhaseSpans
// (base/profiler.h): --trace-json renders the timeline phases,
// --profile-json every phase's counters.
// TelemetryFlags is the one place those flags are recognized and acted on,
// so the CLI subcommands, the bench mains, and the experiment harness all
// agree on spelling and arming semantics instead of each carrying a copy.
// The monitor flags are only *wired* where a run exposes monitor hooks
// (today: `satpg atpg` via the parallel driver); other tools parse them for
// spelling uniformity and ignore them.
//
// Usage: call parse() from the flag loop (returns true when the arg was
// consumed), arm() once before the measured work, then finish_trace() and
// either write_metrics_registry() (generic dump) or a schema-specific
// report writer after it. monitor_options() hands the parsed monitor flags
// to whatever run accepts a RunMonitorOptions.
#pragma once

#include <iosfwd>
#include <string>

#include "base/monitor.h"

namespace satpg {

/// Strict numeric flag parsing: the whole value must be a decimal number
/// with `*out > 0` — anything else (empty, trailing junk, zero, negative,
/// and for the double an infinity or NaN) returns false so the caller can
/// exit 2 with usage instead of silently clamping a typo into a real run.
/// parse_nonnegative_double also accepts zero.
bool parse_positive_u64(const char* s, std::uint64_t* out);
bool parse_positive_double(const char* s, double* out);
bool parse_nonnegative_double(const char* s, double* out);

struct TelemetryFlags {
  std::string metrics_json;    ///< empty = metrics disabled
  std::string events_json;     ///< empty = flight recorder disabled
  std::string trace_json;      ///< empty = tracing disabled
  std::string heartbeat_json;  ///< empty = no heartbeat stream
  std::string profile_json;    ///< empty = cycle profiler disabled
  bool progress = false;       ///< live progress lines on stderr
  std::uint64_t heartbeat_interval_ms = 500;
  /// First flag whose value failed strict validation ("" = all valid).
  /// parse() still consumes such a flag; callers must check error after
  /// their flag loop and exit 2 with usage.
  std::string error;

  /// Consume one of the telemetry flags above. Returns false when `arg` is
  /// none of them (caller keeps parsing its own flags).
  bool parse(const char* arg);

  bool metrics_enabled() const { return !metrics_json.empty(); }
  bool events_enabled() const { return !events_json.empty(); }
  bool trace_enabled() const { return !trace_json.empty(); }
  bool monitor_enabled() const {
    return !heartbeat_json.empty() || progress;
  }
  bool profile_enabled() const { return !profile_json.empty(); }

  /// The parsed monitor flags in the shape base/monitor.h consumes.
  RunMonitorOptions monitor_options() const {
    RunMonitorOptions opts;
    opts.heartbeat_json = heartbeat_json;
    opts.progress = progress;
    opts.interval_ms = heartbeat_interval_ms;
    return opts;
  }

  /// Reset + enable the metrics and memstats registries and/or start the
  /// trace recorder and the profiler, as requested by the parsed flags. Call once, before
  /// the measured work.
  void arm() const;

  /// Stop the recorder and write trace_json. Returns false (after printing
  /// to stderr) on write failure; true when tracing was never requested.
  bool finish_trace(std::ostream* info = nullptr) const;

  /// Disable metrics and write the generic registry dump
  ///   {"schema": <schema>, "bench": <label>, "metrics": {...}}
  /// to metrics_json. Returns false (after printing to stderr) on write
  /// failure; true when metrics were never requested. Tools with a richer
  /// schema (satpg atpg) write their own report instead of calling this.
  bool write_metrics_registry(const char* schema, const std::string& label,
                              std::ostream* info = nullptr) const;
};

}  // namespace satpg
