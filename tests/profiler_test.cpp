// Tests for PhaseSpan and the base/profiler cycle-accounting layer
// (DESIGN.md §12): the phase table invariants the JSON writers rely on
// (sorted enum order, subsystem-contiguous blocks, the timeline column,
// wide-kernel tier mapping), the disabled-span no-op contract, the
// fallback backend ladder (SATPG_PROFILE_BACKEND pins it; task-clock
// moves, hardware counters stay zero), per-worker lane attribution
// through the thread pool, the root fold behind total() (nested spans
// never double-count it), the two sinks (only timeline phases reach the
// trace; arming only the trace charges no lane), and the --profile-json
// flag shared by every tool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/profiler.h"
#include "base/telemetry_flags.h"
#include "base/threadpool.h"
#include "base/trace.h"

namespace satpg {
namespace {

// Spin long enough for CLOCK_THREAD_CPUTIME_ID to observe the span.
void burn_cpu() {
  volatile std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 400000; ++i) acc = acc + i * i;
}

// Every test arms and disarms the process-wide profiler; pin the backend
// explicitly per test so a developer machine with perf_event available
// behaves like the CI runner where it matters.
struct BackendGuard {
  explicit BackendGuard(const char* backend) {
    if (backend)
      ::setenv("SATPG_PROFILE_BACKEND", backend, 1);
    else
      ::unsetenv("SATPG_PROFILE_BACKEND");
  }
  ~BackendGuard() { ::unsetenv("SATPG_PROFILE_BACKEND"); }
};

// --- phase taxonomy ---------------------------------------------------------

TEST(ProfPhaseTest, NamesAreSortedUniqueAndMatchEnumOrder) {
  // The JSON writers iterate the enum and emit keys in declaration order;
  // sorted-name order is what makes the sidecar's phase block sorted.
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kNumProfPhases; ++i)
    names.push_back(prof_phase_name(static_cast<ProfPhase>(i)));
  for (std::size_t i = 1; i < names.size(); ++i)
    EXPECT_LT(names[i - 1], names[i])
        << "enum order must be sorted-name order";
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
}

TEST(ProfPhaseTest, SubsystemsAreContiguousAndPrefixNames) {
  // Each subsystem owns one contiguous enum range, and a phase name is
  // its subsystem ("synth") or carries it as a prefix ("cdcl.lift").
  std::vector<std::string> seen_order;
  for (std::size_t i = 0; i < kNumProfPhases; ++i) {
    const auto p = static_cast<ProfPhase>(i);
    const std::string sub = prof_phase_subsystem(p);
    const std::string name = prof_phase_name(p);
    EXPECT_TRUE(name == sub || name.rfind(sub + ".", 0) == 0)
        << name << " must be or start with \"" << sub << ".\"";
    if (seen_order.empty() || seen_order.back() != sub) {
      for (const auto& earlier : seen_order)
        EXPECT_NE(earlier, sub) << "subsystem " << sub << " is split";
      seen_order.push_back(sub);
    }
  }
  EXPECT_EQ(seen_order,
            (std::vector<std::string>{"atpg", "cdcl", "fsim", "podem",
                                      "pool", "retime", "synth"}));
}

TEST(ProfPhaseTest, TimelinePhasesAreTheLayerSpans) {
  // The trace carries exactly these event names; every other phase is a
  // kernel span that only the profiler sees.
  std::set<std::string> timeline;
  for (std::size_t i = 0; i < kNumProfPhases; ++i)
    if (kProfPhases[i].timeline) timeline.insert(kProfPhases[i].name);
  EXPECT_EQ(timeline,
            (std::set<std::string>{"atpg.merge", "atpg.oracle_build",
                                   "atpg.random_phase", "atpg.replay",
                                   "atpg.unit", "fsim.run", "pool.task",
                                   "retime", "synth"}));
}

TEST(ProfPhaseTest, WideKernelTierMapping) {
  EXPECT_EQ(prof_phase_for_wide_kernel(SimdTier::kScalar),
            ProfPhase::kFsimWideKernelScalar);
  EXPECT_EQ(prof_phase_for_wide_kernel(SimdTier::kSse2),
            ProfPhase::kFsimWideKernelSse2);
  EXPECT_EQ(prof_phase_for_wide_kernel(SimdTier::kAvx2),
            ProfPhase::kFsimWideKernelAvx2);
  EXPECT_EQ(prof_phase_for_wide_kernel(SimdTier::kAvx512),
            ProfPhase::kFsimWideKernelAvx512);
}

TEST(ProfCounterTest, NamesAreStable) {
  EXPECT_STREQ(prof_counter_name(ProfCounter::kTaskClockNs),
               "task_clock_ns");
  EXPECT_STREQ(prof_counter_name(ProfCounter::kCycles), "cycles");
  std::set<std::string> names;
  for (std::size_t i = 0; i < kNumProfCounters; ++i)
    names.insert(prof_counter_name(static_cast<ProfCounter>(i)));
  EXPECT_EQ(names.size(), kNumProfCounters);
}

// --- span / backend contracts ----------------------------------------------

TEST(ProfilerTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(profiler_enabled())
      << "tests must leave the global profiler stopped";
  {
    PhaseSpan span(ProfPhase::kFsimGood);
    burn_cpu();
  }
  // Arm once just to read a snapshot; the span above must not be in it.
  BackendGuard guard("fallback");
  Profiler::global().start();
  Profiler::global().stop();
  const ProfSnapshot snap = Profiler::global().snapshot();
  EXPECT_EQ(snap.total().calls, 0u);
}

TEST(ProfilerTest, FallbackBackendCountsTaskClockOnly) {
  BackendGuard guard("fallback");
  Profiler::global().start();
  EXPECT_TRUE(profiler_enabled());
  {
    PhaseSpan span(ProfPhase::kPodemJustify);
    burn_cpu();
  }
  Profiler::global().stop();
  EXPECT_FALSE(profiler_enabled());

  const ProfSnapshot snap = Profiler::global().snapshot();
  EXPECT_EQ(snap.backend, ProfBackend::kFallback);
  EXPECT_GT(snap.wall_seconds, 0.0);
  const ProfPhaseTotals justify = snap.phase(ProfPhase::kPodemJustify);
  EXPECT_EQ(justify.calls, 1u);
  EXPECT_GT(justify.counter(ProfCounter::kTaskClockNs), 0u)
      << "task-clock moves under both backends";
  // Hardware counters only move under the perf_event backend.
  EXPECT_EQ(justify.counter(ProfCounter::kCycles), 0u);
  EXPECT_EQ(justify.counter(ProfCounter::kInstructions), 0u);
  EXPECT_EQ(justify.counter(ProfCounter::kCacheMisses), 0u);
  // Other phases stay untouched.
  EXPECT_EQ(snap.phase(ProfPhase::kCdclPropagate).calls, 0u);
}

TEST(ProfilerTest, AutoProbeNeverFailsToArm) {
  // Arming must never fail a run: the probe lands on perf_event where the
  // kernel allows it and degrades to the fallback otherwise.
  BackendGuard guard(nullptr);
  Profiler::global().start();
  const ProfBackend backend = Profiler::global().backend();
  EXPECT_TRUE(backend == ProfBackend::kPerfEvent ||
              backend == ProfBackend::kFallback);
  {
    PhaseSpan span(ProfPhase::kCdclPropagate);
    burn_cpu();
  }
  Profiler::global().stop();
  const ProfSnapshot snap = Profiler::global().snapshot();
  EXPECT_EQ(snap.phase(ProfPhase::kCdclPropagate).calls, 1u);
  EXPECT_GT(snap.phase(ProfPhase::kCdclPropagate)
                .counter(ProfCounter::kTaskClockNs),
            0u);
}

TEST(ProfilerTest, RestartResetsLanes) {
  BackendGuard guard("fallback");
  Profiler::global().start();
  { PhaseSpan span(ProfPhase::kFsimBatch); burn_cpu(); }
  Profiler::global().stop();
  EXPECT_EQ(Profiler::global().snapshot().phase(ProfPhase::kFsimBatch).calls,
            1u);

  Profiler::global().start();
  Profiler::global().stop();
  EXPECT_EQ(Profiler::global().snapshot().total().calls, 0u)
      << "start() must reset the lanes from the previous run";
}

// --- lanes ------------------------------------------------------------------

TEST(ProfilerTest, WorkerLanesAttributeSpansPerThread) {
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kSpansPerWorker = 3;
  ThreadPool pool(kWorkers);

  BackendGuard guard("fallback");
  Profiler::global().start();
  pool.run_on_workers(kWorkers, [&](unsigned) {
    for (std::uint64_t i = 0; i < kSpansPerWorker; ++i) {
      PhaseSpan span(ProfPhase::kAtpgMerge);
      burn_cpu();
    }
  });
  Profiler::global().stop();

  const ProfSnapshot snap = Profiler::global().snapshot();
  const ProfPhaseTotals merge = snap.phase(ProfPhase::kAtpgMerge);
  EXPECT_EQ(merge.calls, kWorkers * kSpansPerWorker);
  EXPECT_GT(merge.counter(ProfCounter::kTaskClockNs), 0u);

  // Each pool worker runs its share inside one pool.task span, so its
  // merge spans nest; fn(0) runs on the calling thread, where they are
  // roots.
  EXPECT_EQ(snap.phase(ProfPhase::kPoolTask).calls, kWorkers - 1);

  // Lanes appear ascending and only for threads that recorded activity;
  // the calling thread is lane 0, pool workers register as >= 1.
  ASSERT_FALSE(snap.lanes.empty());
  std::uint64_t lane_root_calls = 0;
  for (std::size_t i = 0; i < snap.lanes.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(snap.lanes[i - 1].lane, snap.lanes[i].lane);
    }
    lane_root_calls += snap.lanes[i].root.calls;
  }
  EXPECT_EQ(lane_root_calls, snap.total().calls)
      << "total() must be exactly the fold of the per-lane root totals";
  EXPECT_EQ(snap.total().calls, kSpansPerWorker + (kWorkers - 1))
      << "roots: fn(0)'s merge spans plus one pool.task per worker";
  EXPECT_EQ(snap.lanes.front().lane, 0u)
      << "run_on_workers executes fn(0) on the calling thread";
}

// --- sinks and nesting ------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(ProfilerTest, NestedKernelSpanChargesBothPhasesAndOneRoot) {
  BackendGuard guard("fallback");
  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  Profiler::global().start();
  {
    PhaseSpan unit(ProfPhase::kAtpgUnit);
    burn_cpu();
    {
      PhaseSpan propagate(ProfPhase::kCdclPropagate);
      burn_cpu();
    }
  }
  Profiler::global().stop();
  rec.stop();

  // One Chrome event: the timeline phase, with its subsystem as category.
  EXPECT_EQ(rec.num_events(), 1u);
  const std::string path = ::testing::TempDir() + "profiler_test_trace.json";
  ASSERT_TRUE(rec.write_json(path));
  const std::string trace = slurp(path);
  EXPECT_NE(trace.find("\"name\": \"atpg.unit\", \"cat\": \"atpg\""),
            std::string::npos);
  EXPECT_EQ(trace.find("cdcl.propagate"), std::string::npos);

  // Both phases charged, inclusively; the total is the outer span alone.
  const ProfSnapshot snap = Profiler::global().snapshot();
  const ProfPhaseTotals unit = snap.phase(ProfPhase::kAtpgUnit);
  const ProfPhaseTotals propagate = snap.phase(ProfPhase::kCdclPropagate);
  EXPECT_EQ(unit.calls, 1u);
  EXPECT_EQ(propagate.calls, 1u);
  EXPECT_GT(propagate.counter(ProfCounter::kTaskClockNs), 0u);
  EXPECT_GE(unit.counter(ProfCounter::kTaskClockNs),
            propagate.counter(ProfCounter::kTaskClockNs));
  const ProfPhaseTotals total = snap.total();
  EXPECT_EQ(total.calls, 1u);
  EXPECT_EQ(total.counter(ProfCounter::kTaskClockNs),
            unit.counter(ProfCounter::kTaskClockNs));
}

TEST(ProfilerTest, TraceOnlyChargesNoLane) {
  BackendGuard guard("fallback");
  Profiler::global().start();  // reset the lanes, then disarm
  Profiler::global().stop();
  TraceRecorder& rec = TraceRecorder::global();
  rec.start();
  {
    PhaseSpan unit(ProfPhase::kAtpgUnit);
    PhaseSpan propagate(ProfPhase::kCdclPropagate);
    burn_cpu();
  }
  rec.stop();
  EXPECT_EQ(rec.num_events(), 1u);
  EXPECT_TRUE(Profiler::global().snapshot().lanes.empty())
      << "the profile sink was never armed";
}

// --- flag validation --------------------------------------------------------

TEST(TelemetryFlagsTest, ProfileFlagsParseStrictly) {
  TelemetryFlags good;
  EXPECT_TRUE(good.parse("--profile-json=prof.json"));
  EXPECT_TRUE(good.error.empty()) << good.error;
  EXPECT_TRUE(good.profile_enabled());

  // The removed timeline-sampler flags are no longer ours: each tool's own
  // flag loop rejects them as unknown.
  TelemetryFlags f;
  EXPECT_FALSE(f.parse("--profile-interval-ms=25"));
  EXPECT_FALSE(f.parse("--profile-max-samples=128"));
}

TEST(TelemetryFlagsTest, ProfileDisabledByDefault) {
  TelemetryFlags f;
  EXPECT_FALSE(f.profile_enabled());
}

}  // namespace
}  // namespace satpg
