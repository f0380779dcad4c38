// The Chrome trace_event writer behind `--trace-json=FILE`.
//
// The recorder buffers complete ("X") and counter ("C") events with
// per-thread lanes (tid = `telemetry_thread_index()`), and writes the
// Trace Event Format JSON that chrome://tracing and Perfetto load
// directly. Complete events come from the timeline phases of PhaseSpan
// (base/profiler.h), which also arms this sink: start() and stop() flip
// the trace bit of the span sinks byte, so tracing_enabled() is one
// relaxed load.
//
// Unlike the metrics registry (base/metrics.h), everything here is
// wall-clock and therefore nondeterministic by design — timing belongs in
// the trace, never in the metrics JSON (DESIGN.md §5).
//
// Event names and categories must be string literals (or otherwise outlive
// the recorder): events store the pointers, not copies.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/profiler.h"

namespace satpg {

class TraceRecorder {
 public:
  /// Buffered-event cap; events beyond it are counted and dropped so a
  /// runaway phase cannot exhaust memory. The drop count is surfaced as a
  /// `trace_events_dropped` metadata event in the written JSON and as the
  /// `trace_events_dropped` counter in the metrics registry (recorded at
  /// stop()).
  static constexpr std::size_t kMaxEvents = 1u << 22;

  /// Clear the buffer, re-arm the epoch, and enable recording.
  void start();
  /// Disable recording; buffered events are kept for write_json().
  void stop();

  /// Microseconds since start()'s epoch.
  std::uint64_t now_us() const;

  /// Complete event ("X"): a [ts, ts+dur] slice on lane `tid`.
  void add_complete(const char* name, const char* cat, unsigned tid,
                    std::uint64_t ts_us, std::uint64_t dur_us);
  /// Counter event ("C"): a sampled value series (e.g. queue depth).
  void add_counter(const char* name, std::uint64_t ts_us,
                   std::uint64_t value);

  /// Human-readable lane name shown by the viewer; callers register their
  /// thread once (cheap, works before start()).
  void set_thread_name(unsigned tid, const std::string& name);

  std::size_t num_events() const;
  std::size_t num_dropped() const;

  /// Write the buffered events as Trace Event Format JSON. Returns false
  /// when the file cannot be opened.
  bool write_json(const std::string& path) const;

  static TraceRecorder& global();

 private:
  struct Event {
    const char* name;
    const char* cat;  ///< nullptr for counter events
    unsigned tid;
    std::uint64_t ts;
    std::uint64_t dur;    ///< complete events only
    std::uint64_t value;  ///< counter events only
    char type;            ///< 'X' or 'C'
  };

  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<unsigned, std::string> thread_names_;
  std::size_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace satpg
