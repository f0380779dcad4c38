#include "base/telemetry_flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

#include "base/json.h"
#include "base/memstats.h"
#include "base/metrics.h"
#include "base/profiler.h"
#include "base/trace.h"

namespace satpg {

namespace {

const char* flag_value(const char* arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

}  // namespace

bool parse_u64(const char* s, std::uint64_t* out) {
  // strtoull alone would skip leading blanks and wrap a '-' value around.
  if (s == nullptr || !std::isdigit(static_cast<unsigned char>(*s)))
    return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_positive_u64(const char* s, std::uint64_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, &v) || v == 0) return false;
  *out = v;
  return true;
}

bool parse_nonnegative_double(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !(v >= 0.0) ||
      !std::isfinite(v))
    return false;
  *out = v;
  return true;
}

bool parse_positive_double(const char* s, double* out) {
  double v = 0.0;
  if (!parse_nonnegative_double(s, &v) || v == 0.0) return false;
  *out = v;
  return true;
}

bool TelemetryFlags::parse(const char* arg) {
  if (const char* v = flag_value(arg, "--metrics-json=")) {
    metrics_json = v;
    return true;
  }
  if (const char* v = flag_value(arg, "--events-json=")) {
    events_json = v;
    return true;
  }
  if (const char* v = flag_value(arg, "--trace-json=")) {
    trace_json = v;
    return true;
  }
  if (const char* v = flag_value(arg, "--heartbeat-json=")) {
    heartbeat_json = v;
    return true;
  }
  if (const char* v = flag_value(arg, "--heartbeat-interval-ms=")) {
    if (!parse_positive_u64(v, &heartbeat_interval_ms) && error.empty())
      error = arg;
    return true;
  }
  if (const char* v = flag_value(arg, "--profile-json=")) {
    profile_json = v;
    return true;
  }
  if (std::strcmp(arg, "--progress") == 0) {
    progress = true;
    return true;
  }
  return false;
}

void TelemetryFlags::arm() const {
  if (metrics_enabled()) {
    MetricsRegistry::global().reset();
    set_metrics_enabled(true);
    MemStatsRegistry::global().reset();
    set_memstats_enabled(true);
  }
  if (trace_enabled()) TraceRecorder::global().start();
  if (profile_enabled()) Profiler::global().start();
}

bool TelemetryFlags::finish_trace(std::ostream* info) const {
  if (!trace_enabled()) return true;
  TraceRecorder::global().stop();
  if (!TraceRecorder::global().write_json(trace_json)) {
    std::fprintf(stderr, "cannot write %s\n", trace_json.c_str());
    return false;
  }
  if (info)
    *info << "trace written    : " << trace_json << " ("
          << TraceRecorder::global().num_events() << " events)\n";
  return true;
}

bool TelemetryFlags::write_metrics_registry(const char* schema,
                                            const std::string& label,
                                            std::ostream* info) const {
  if (!metrics_enabled()) return true;
  set_metrics_enabled(false);
  std::ofstream os(metrics_json);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", metrics_json.c_str());
    return false;
  }
  os << "{\"schema\": \"" << json_escape(schema) << "\", \"bench\": \""
     << json_escape(label) << "\",\n \"metrics\": ";
  MetricsRegistry::global().write_json(os, 1);
  os << "\n}\n";
  if (!os.good()) {
    std::fprintf(stderr, "write failed: %s\n", metrics_json.c_str());
    return false;
  }
  if (info) *info << "metrics written  : " << metrics_json << "\n";
  return true;
}

}  // namespace satpg
