#include "base/trace.h"

#include <cstdio>
#include <set>

#include "base/metrics.h"

namespace satpg {

void TraceRecorder::start() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  detail::g_span_sinks.fetch_or(detail::kSinkTrace,
                                std::memory_order_relaxed);
}

void TraceRecorder::stop() {
  detail::g_span_sinks.fetch_and(
      static_cast<std::uint8_t>(~detail::kSinkTrace),
      std::memory_order_relaxed);
  // Surface the overflow count instead of silently swallowing it: a
  // `trace_events_dropped` counter in the metrics JSON (normally 0 — the
  // buffer cap is far above any real run) plus the metadata event
  // write_json() emits. Only traced runs register the counter, so untraced
  // metrics reports are unaffected.
  MetricsRegistry::global()
      .counter("trace_events_dropped")
      .add(num_dropped());
}

std::uint64_t TraceRecorder::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceRecorder::add_complete(const char* name, const char* cat,
                                 unsigned tid, std::uint64_t ts_us,
                                 std::uint64_t dur_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back({name, cat, tid, ts_us, dur_us, 0, 'X'});
}

void TraceRecorder::add_counter(const char* name, std::uint64_t ts_us,
                                std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back({name, nullptr, 0, ts_us, 0, value, 'C'});
}

void TraceRecorder::set_thread_name(unsigned tid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[tid] = name;
}

std::size_t TraceRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t TraceRecorder::num_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool TraceRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);

  std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n");
  std::fprintf(f, " \"traceEvents\": [\n");

  bool first = true;
  auto sep = [&] {
    std::fputs(first ? "  " : ",\n  ", f);
    first = false;
  };

  // Buffer-overflow accounting as a proper metadata event (visible in the
  // viewer's metadata pane) rather than a bespoke top-level key.
  sep();
  std::fprintf(f,
               "{\"name\": \"trace_events_dropped\", \"ph\": \"M\", "
               "\"pid\": 1, \"tid\": 0, \"args\": {\"dropped\": %zu}}",
               dropped_);

  // Lane-name metadata: explicit registrations plus a default for every
  // lane that carried events.
  std::set<unsigned> tids;
  for (const auto& e : events_)
    if (e.type == 'X') tids.insert(e.tid);
  for (const auto& [tid, name] : thread_names_) {
    sep();
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                 tid, name.c_str());
    tids.erase(tid);
  }
  for (unsigned tid : tids) {
    sep();
    const std::string name =
        tid == 0 ? "main" : "thread-" + std::to_string(tid);
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                 tid, name.c_str());
  }

  for (const auto& e : events_) {
    sep();
    if (e.type == 'X') {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %llu, \"dur\": %llu}",
                   e.name, e.cat, e.tid,
                   static_cast<unsigned long long>(e.ts),
                   static_cast<unsigned long long>(e.dur));
    } else {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, "
                   "\"ts\": %llu, \"args\": {\"value\": %llu}}",
                   e.name, static_cast<unsigned long long>(e.ts),
                   static_cast<unsigned long long>(e.value));
    }
  }
  std::fprintf(f, "\n ]}\n");
  std::fclose(f);
  return true;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* const recorder = new TraceRecorder;  // immortal
  return *recorder;
}

}  // namespace satpg
