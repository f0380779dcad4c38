#include "base/profiler.h"

#include <cstdlib>
#include <cstring>
#include <ctime>

#include "base/metrics.h"
#include "base/trace.h"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define SATPG_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace satpg {

namespace detail {
std::atomic<std::uint8_t> g_span_sinks{0};
}

namespace {

// CLOCK_THREAD_CPUTIME_ID is the one counter source that works everywhere
// we build; both backends report it as task_clock_ns.
std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

// The five hardware counters in the perf_event group, in ProfCounter
// order starting at kCycles (the group leader).
constexpr std::size_t kNumPerfEvents = 5;

#if defined(SATPG_HAVE_PERF_EVENT)

constexpr std::uint64_t kPerfConfigs[kNumPerfEvents] = {
    PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_BRANCH_MISSES};

int perf_event_open_fd(std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;  // lowers the perf_event_paranoid bar
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1,
                                  group_fd, 0));
}

// Per-thread counter group, opened lazily on the first profiled span of
// each thread and closed when the thread exits. Counters are free-running
// (spans take deltas), so groups survive profiler restarts.
struct PerfThreadGroup {
  int leader = -1;
  bool tried = false;

  bool open() {
    if (tried) return leader >= 0;
    tried = true;
    leader = perf_event_open_fd(kPerfConfigs[0], -1);
    if (leader < 0) return false;
    for (std::size_t i = 1; i < kNumPerfEvents; ++i) {
      const int fd = perf_event_open_fd(kPerfConfigs[i], leader);
      if (fd < 0) {
        // A partially-available PMU (e.g. no cache events in a VM) is
        // not worth a mixed-shape group: degrade the whole thread to
        // task-clock only so every lane reports the same counter set.
        ::close(leader);
        leader = -1;
        return false;
      }
      fds[i] = fd;
    }
    return true;
  }

  // Scaled group read in ProfCounter order (cycles first). Returns false
  // (zeros) when the group is unavailable or the read fails.
  bool read_values(std::uint64_t* out) {
    if (!open()) return false;
    // read_format: nr, time_enabled, time_running, values[nr].
    std::uint64_t buf[3 + kNumPerfEvents];
    const ssize_t n = ::read(leader, buf, sizeof(buf));
    if (n != static_cast<ssize_t>(sizeof(buf)) || buf[0] != kNumPerfEvents)
      return false;
    const std::uint64_t enabled = buf[1], running = buf[2];
    // Multiplexing scale-up: with one group per thread this is almost
    // always 1.0, but a contended PMU still yields usable estimates.
    const double scale =
        (running > 0 && running < enabled)
            ? static_cast<double>(enabled) / static_cast<double>(running)
            : 1.0;
    for (std::size_t i = 0; i < kNumPerfEvents; ++i)
      out[i] = static_cast<std::uint64_t>(
          static_cast<double>(buf[3 + i]) * scale);
    return true;
  }

  ~PerfThreadGroup() {
    for (std::size_t i = 1; i < kNumPerfEvents; ++i)
      if (fds[i] >= 0) ::close(fds[i]);
    if (leader >= 0) ::close(leader);
  }

  int fds[kNumPerfEvents] = {-1, -1, -1, -1, -1};
};

thread_local PerfThreadGroup t_perf_group;

bool perf_backend_usable() { return t_perf_group.open(); }

bool read_perf_group(std::uint64_t* out) {
  return t_perf_group.read_values(out);
}

#else

bool perf_backend_usable() { return false; }
bool read_perf_group(std::uint64_t*) { return false; }

#endif  // SATPG_HAVE_PERF_EVENT

}  // namespace

ProfPhase prof_phase_for_wide_kernel(SimdTier tier) {
  switch (tier) {
    case SimdTier::kSse2:
      return ProfPhase::kFsimWideKernelSse2;
    case SimdTier::kAvx2:
      return ProfPhase::kFsimWideKernelAvx2;
    case SimdTier::kAvx512:
      return ProfPhase::kFsimWideKernelAvx512;
    case SimdTier::kAuto:
    case SimdTier::kScalar:
      break;
  }
  return ProfPhase::kFsimWideKernelScalar;
}

const char* prof_counter_name(ProfCounter c) {
  switch (c) {
    case ProfCounter::kTaskClockNs:
      return "task_clock_ns";
    case ProfCounter::kCycles:
      return "cycles";
    case ProfCounter::kInstructions:
      return "instructions";
    case ProfCounter::kCacheReferences:
      return "cache_references";
    case ProfCounter::kCacheMisses:
      return "cache_misses";
    case ProfCounter::kBranchMisses:
      return "branch_misses";
  }
  return "?";
}

const char* prof_backend_name(ProfBackend b) {
  switch (b) {
    case ProfBackend::kOff:
      return "off";
    case ProfBackend::kPerfEvent:
      return "perf_event";
    case ProfBackend::kFallback:
      return "fallback";
  }
  return "?";
}

Profiler& Profiler::global() {
  static Profiler* const p = new Profiler;  // immortal
  return *p;
}

void Profiler::start() {
  stop();  // idempotence: a dangling previous session is closed first
  const auto reset = [](Lane::Totals& t) {
    t.calls.store(0, std::memory_order_relaxed);
    for (auto& c : t.counters) c.store(0, std::memory_order_relaxed);
  };
  for (Lane& lane : lanes_) {
    for (Lane::Totals& ph : lane.phases) reset(ph);
    reset(lane.root);
  }
  wall_seconds_ = 0.0;

  // Backend ladder: the env pin wins, then a live probe on this thread.
  // "perf" requests the perf backend but still degrades — arming the
  // profiler must never fail a run.
  ProfBackend backend = ProfBackend::kFallback;
  const char* env = std::getenv("SATPG_PROFILE_BACKEND");
  const bool pinned_fallback =
      env != nullptr && std::strcmp(env, "fallback") == 0;
  if (!pinned_fallback && perf_backend_usable())
    backend = ProfBackend::kPerfEvent;
  backend_.store(static_cast<std::uint8_t>(backend),
                 std::memory_order_relaxed);

  epoch_ = std::chrono::steady_clock::now();
  detail::g_span_sinks.fetch_or(detail::kSinkProfile,
                                std::memory_order_relaxed);
}

void Profiler::stop() {
  const std::uint8_t was = detail::g_span_sinks.fetch_and(
      static_cast<std::uint8_t>(~detail::kSinkProfile),
      std::memory_order_relaxed);
  if ((was & detail::kSinkProfile) != 0)
    wall_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch_)
            .count();
}

void Profiler::read_thread_counters(std::uint64_t* vals) {
  vals[static_cast<std::size_t>(ProfCounter::kTaskClockNs)] =
      thread_cpu_ns();
  std::uint64_t hw[kNumPerfEvents] = {};
  if (backend() == ProfBackend::kPerfEvent) read_perf_group(hw);
  for (std::size_t i = 0; i < kNumPerfEvents; ++i)
    vals[static_cast<std::size_t>(ProfCounter::kCycles) + i] = hw[i];
}

void Profiler::accumulate(ProfPhase phase, const std::uint64_t* deltas,
                          bool root) {
  unsigned lane = telemetry_thread_index();
  if (lane >= kMaxLanes) lane = kMaxLanes - 1;  // foreign/overflow lane
  const auto charge = [deltas](Lane::Totals& t) {
    t.calls.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t c = 0; c < kNumProfCounters; ++c)
      if (deltas[c] != 0)
        t.counters[c].fetch_add(deltas[c], std::memory_order_relaxed);
  };
  charge(lanes_[lane].phases[static_cast<std::size_t>(phase)]);
  if (root) charge(lanes_[lane].root);
}

ProfSnapshot Profiler::snapshot() const {
  ProfSnapshot snap;
  snap.backend = backend();
  snap.wall_seconds = wall_seconds_;
  const auto load = [](const Lane::Totals& ph, ProfPhaseTotals& t) {
    t.calls = ph.calls.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < kNumProfCounters; ++c)
      t.counters[c] = ph.counters[c].load(std::memory_order_relaxed);
  };
  for (std::size_t l = 0; l < kMaxLanes; ++l) {
    ProfSnapshot::Lane out;
    out.lane = static_cast<unsigned>(l);
    for (std::size_t p = 0; p < kNumProfPhases; ++p)
      load(lanes_[l].phases[p], out.phases[p]);
    load(lanes_[l].root, out.root);
    bool any = false;  // a root charge always comes with a phase charge
    for (const ProfPhaseTotals& t : out.phases) any = any || t.calls != 0;
    if (any) snap.lanes.push_back(out);
  }
  return snap;
}

ProfPhaseTotals ProfSnapshot::phase(ProfPhase p) const {
  ProfPhaseTotals t;
  for (const Lane& lane : lanes)
    t.add(lane.phases[static_cast<std::size_t>(p)]);
  return t;
}

ProfPhaseTotals ProfSnapshot::total() const {
  ProfPhaseTotals t;
  for (const Lane& lane : lanes) t.add(lane.root);
  return t;
}

namespace {
// Profiled spans open on this thread: a span that finds none is a root.
thread_local unsigned t_open_spans = 0;
}  // namespace

void PhaseSpan::begin() {
  if ((sinks_ & detail::kSinkTrace) != 0)
    start_us_ = TraceRecorder::global().now_us();
  if ((sinks_ & detail::kSinkProfile) != 0) {
    root_ = t_open_spans++ == 0;
    Profiler::global().read_thread_counters(at_);
  }
}

void PhaseSpan::end() {
  if ((sinks_ & detail::kSinkProfile) != 0) {
    std::uint64_t now[kNumProfCounters];
    Profiler::global().read_thread_counters(now);
    std::uint64_t deltas[kNumProfCounters];
    for (std::size_t c = 0; c < kNumProfCounters; ++c)
      deltas[c] = now[c] >= at_[c] ? now[c] - at_[c] : 0;
    Profiler::global().accumulate(phase_, deltas, root_);
    --t_open_spans;
  }
  if ((sinks_ & detail::kSinkTrace) != 0) {
    TraceRecorder& rec = TraceRecorder::global();
    const ProfPhaseInfo& info = prof_phase_info(phase_);
    rec.add_complete(info.name, info.subsystem, telemetry_thread_index(),
                     start_us_, rec.now_us() - start_us_);
  }
}

}  // namespace satpg
