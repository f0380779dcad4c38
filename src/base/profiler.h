// Phase spans and cycle-level profiling: one span type for the pipeline.
//
// A PhaseSpan brackets one phase of the pipeline — synth, retime, the
// oracle build, the random phase, every ATPG work unit and the merge
// barrier, the replay, fault-simulation runs and their passes and wide
// kernels (per dispatched SIMD tier), PODEM justify/backtrace, CDCL
// encode/lift/propagate/analyze/reduce, and every thread-pool task — named
// by one ProfPhase of the phase table below. It feeds two sinks:
//   * the profiler's per-worker counter lanes (`--profile-json`): every
//     span charges its phase on the calling thread's lane;
//   * the Chrome trace (`--trace-json`, base/trace.h): only the phases the
//     table marks `timeline` emit a complete event, named by the phase
//     with its subsystem as the category.
// So the trace and the `satpg.profile.v2` sidecar are two renderings of
// the same spans. Phase counters are inclusive (a span's counters include
// its nested spans'); a span opened with no enclosing profiled span on
// its thread also charges its lane's root total, and only root totals fold
// into ProfSnapshot::total(), so nesting never double-counts the total.
//
// Like the monitor (DESIGN.md §7), everything here lives on the wall-clock
// plane: counter readings are nondeterministic by nature and may only ever
// reach the trace and the sidecar, never the deterministic metrics/events
// artifacts. Both sinks are armed through one atomic byte: with both off a
// span costs one relaxed load in the constructor and nothing in the
// destructor, so spans can sit on per-decision paths without perturbing
// unprofiled runs.
//
// Backend ladder (probed once per start()):
//   * perf_event  per-thread perf_event_open counter group (cycles,
//                 instructions, cache-references, cache-misses,
//                 branch-misses) plus CLOCK_THREAD_CPUTIME_ID task-clock.
//   * fallback    CLOCK_THREAD_CPUTIME_ID task-clock only — containers
//                 with perf_event_paranoid locked down, and non-Linux.
// `SATPG_PROFILE_BACKEND=fallback` pins the fallback (CI runners mask
// perf_event); `=perf` requests the perf backend but still degrades to
// the fallback when the syscall is refused — arming the profiler must
// never fail a run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "base/cpu.h"

namespace satpg {

/// One pipeline phase. Enum order is sorted-name order (like
/// MemSubsystem), so iterating the enum emits sorted JSON keys, and it is
/// subsystem-contiguous.
enum class ProfPhase : std::uint8_t {
  kAtpgMerge = 0,         ///< parallel driver merge barrier
  kAtpgOracleBuild,       ///< state-validity (BDD reachability) oracle
  kAtpgRandomPhase,       ///< random-sequence phase before the rounds
  kAtpgReplay,            ///< final replay for the state census
  kAtpgUnit,              ///< one deterministic-phase work unit
  kCdclAnalyze,           ///< CDCL conflict analysis (1UIP)
  kCdclEncode,            ///< time-frame CNF encoding
  kCdclLift,              ///< greedy lifting of a model's state
  kCdclPropagate,         ///< CDCL unit propagation
  kCdclReduceDb,          ///< CDCL learned-clause DB reduction
  kFsimBatch,             ///< 64-slot faulty-batch simulation
  kFsimGood,              ///< 64-slot good-machine pass
  kFsimRun,               ///< one run_fault_simulation call
  kFsimWideKernelAvx2,    ///< wide kernel, avx2 tier
  kFsimWideKernelAvx512,  ///< wide kernel, avx512 tier
  kFsimWideKernelScalar,  ///< wide kernel, scalar tier
  kFsimWideKernelSse2,    ///< wide kernel, sse2 tier
  kPodemBacktrace,        ///< PODEM objective backtrace
  kPodemJustify,          ///< multi-frame state justification (depth 0)
  kPoolTask,              ///< one thread-pool task on a worker
  kRetime,                ///< retiming to a flip-flop target
  kSynth,                 ///< FSM synthesis to a gate netlist
};
inline constexpr std::size_t kNumProfPhases = 22;

/// One row of the phase table.
struct ProfPhaseInfo {
  const char* name;       ///< stable JSON key and Chrome event name
  const char* subsystem;  ///< owner, and the Chrome event category
  bool timeline;          ///< also a Chrome event when tracing is armed
};

/// The phase table, in enum order. Timeline phases are the coarse layer
/// spans; the rest are kernel spans that only the profiler sees.
inline constexpr ProfPhaseInfo kProfPhases[kNumProfPhases] = {
    {"atpg.merge", "atpg", true},
    {"atpg.oracle_build", "atpg", true},
    {"atpg.random_phase", "atpg", true},
    {"atpg.replay", "atpg", true},
    {"atpg.unit", "atpg", true},
    {"cdcl.analyze", "cdcl", false},
    {"cdcl.encode", "cdcl", false},
    {"cdcl.lift", "cdcl", false},
    {"cdcl.propagate", "cdcl", false},
    {"cdcl.reduce_db", "cdcl", false},
    {"fsim.batch", "fsim", false},
    {"fsim.good", "fsim", false},
    {"fsim.run", "fsim", true},
    {"fsim.wide.kernel.avx2", "fsim", false},
    {"fsim.wide.kernel.avx512", "fsim", false},
    {"fsim.wide.kernel.scalar", "fsim", false},
    {"fsim.wide.kernel.sse2", "fsim", false},
    {"podem.backtrace", "podem", false},
    {"podem.justify", "podem", false},
    {"pool.task", "pool", true},
    {"retime", "retime", true},
    {"synth", "synth", true},
};

constexpr const ProfPhaseInfo& prof_phase_info(ProfPhase p) {
  return kProfPhases[static_cast<std::size_t>(p)];
}
/// "atpg.merge", "cdcl.propagate", ... — stable JSON keys.
constexpr const char* prof_phase_name(ProfPhase p) {
  return prof_phase_info(p).name;
}
/// Owning subsystem: "atpg", "cdcl", "fsim", "podem", "pool", ...
constexpr const char* prof_phase_subsystem(ProfPhase p) {
  return prof_phase_info(p).subsystem;
}
/// The wide-kernel phase for a resolved (non-auto) SIMD tier.
ProfPhase prof_phase_for_wide_kernel(SimdTier tier);

/// Per-span counter slots. kTaskClockNs is sampled from
/// CLOCK_THREAD_CPUTIME_ID under both backends; the rest only move under
/// the perf_event backend.
enum class ProfCounter : std::uint8_t {
  kTaskClockNs = 0,
  kCycles,
  kInstructions,
  kCacheReferences,
  kCacheMisses,
  kBranchMisses,
};
inline constexpr std::size_t kNumProfCounters = 6;
const char* prof_counter_name(ProfCounter c);

enum class ProfBackend : std::uint8_t { kOff = 0, kPerfEvent, kFallback };
const char* prof_backend_name(ProfBackend b);

namespace detail {
/// The span sinks, as bits of one atomic byte (TraceRecorder::start/stop
/// flip kSinkTrace, Profiler::start/stop flip kSinkProfile).
inline constexpr std::uint8_t kSinkTrace = 1;
inline constexpr std::uint8_t kSinkProfile = 2;
extern std::atomic<std::uint8_t> g_span_sinks;
}  // namespace detail

inline bool tracing_enabled() {
  return (detail::g_span_sinks.load(std::memory_order_relaxed) &
          detail::kSinkTrace) != 0;
}
inline bool profiler_enabled() {
  return (detail::g_span_sinks.load(std::memory_order_relaxed) &
          detail::kSinkProfile) != 0;
}

/// Folded counters for one phase (one lane, or a fold across lanes).
struct ProfPhaseTotals {
  std::uint64_t calls = 0;
  std::uint64_t counters[kNumProfCounters] = {};

  void add(const ProfPhaseTotals& o) {
    calls += o.calls;
    for (std::size_t c = 0; c < kNumProfCounters; ++c)
      counters[c] += o.counters[c];
  }
  std::uint64_t counter(ProfCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
};

/// Plain copy of the profiler state taken at stop()/snapshot() time.
struct ProfSnapshot {
  struct Lane {
    unsigned lane = 0;
    ProfPhaseTotals phases[kNumProfPhases];  ///< inclusive, per phase
    ProfPhaseTotals root;  ///< spans with no enclosing span on the lane
  };

  ProfBackend backend = ProfBackend::kOff;
  double wall_seconds = 0.0;
  std::vector<Lane> lanes;  ///< lanes with activity, ascending lane id

  /// Fold of one phase across all lanes.
  ProfPhaseTotals phase(ProfPhase p) const;
  /// Fold of the lanes' root totals: every profiled cycle counted once.
  ProfPhaseTotals total() const;
};

/// Process-wide profiler. start()/stop() bracket the measured work;
/// PhaseSpans accumulate into fixed per-worker lanes (indexed by
/// telemetry_thread_index(); threads past the lane cap share the last
/// lane). Not reentrant: one start()/stop() pair at a time.
class Profiler {
 public:
  static constexpr std::size_t kMaxLanes = 64;

  /// Reset lanes, probe the backend (honoring SATPG_PROFILE_BACKEND), and
  /// arm the profile sink.
  void start();
  /// Disarm the profile sink and freeze wall_seconds.
  void stop();

  /// Backend selected by the last start() (kOff before any start()).
  ProfBackend backend() const {
    return static_cast<ProfBackend>(
        backend_.load(std::memory_order_relaxed));
  }

  /// Copy of everything recorded since the last start().
  ProfSnapshot snapshot() const;

  static Profiler& global();

  // --- PhaseSpan internals -------------------------------------------------
  /// Read the calling thread's counters into vals[kNumProfCounters].
  void read_thread_counters(std::uint64_t* vals);
  /// Accumulate one completed span's deltas into the caller's lane, and
  /// into the lane's root total when the span was a root.
  void accumulate(ProfPhase phase, const std::uint64_t* deltas, bool root);

 private:
  struct alignas(64) Lane {
    struct Totals {
      std::atomic<std::uint64_t> calls{0};
      std::atomic<std::uint64_t> counters[kNumProfCounters];
    };
    Totals phases[kNumProfPhases];
    Totals root;
  };

  Lane lanes_[kMaxLanes];
  std::atomic<std::uint8_t> backend_{0};
  std::chrono::steady_clock::time_point epoch_;
  double wall_seconds_ = 0.0;
};

/// RAII phase span. Charges the phase on the calling thread's profiler
/// lane while the profiler is armed, and records a Chrome complete event
/// while tracing is armed and the phase is a timeline phase. One relaxed
/// load and an early return while neither sink wants it.
class PhaseSpan {
 public:
  explicit PhaseSpan(ProfPhase phase)
      : phase_(phase),
        sinks_(detail::g_span_sinks.load(std::memory_order_relaxed) &
               (prof_phase_info(phase).timeline
                    ? detail::kSinkTrace | detail::kSinkProfile
                    : detail::kSinkProfile)) {
    if (sinks_ != 0) begin();
  }
  ~PhaseSpan() {
    if (sinks_ != 0) end();
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  void begin();
  void end();

  ProfPhase phase_;
  std::uint8_t sinks_;  ///< the sinks armed at construction, masked
  bool root_ = false;   ///< no enclosing profiled span on this thread
  std::uint64_t start_us_ = 0;
  std::uint64_t at_[kNumProfCounters];
};

}  // namespace satpg
