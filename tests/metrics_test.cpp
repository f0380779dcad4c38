// Tests for the telemetry subsystem (DESIGN.md §5): metrics registry
// correctness, sharded-counter merge determinism across thread counts,
// disabled-mode zero side effects, JSON stability, the trace recorder, and
// the structured ATPG report's thread-count invariance on an MCNC circuit
// and its retimed twin.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/parallel.h"
#include "base/json.h"
#include "base/metrics.h"
#include "base/profiler.h"
#include "base/threadpool.h"
#include "base/trace.h"
#include "fsm/mcnc_suite.h"
#include "harness/report.h"
#include "retime/retime.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

// Every test leaves the global enable flags off and the registry zeroed so
// suites can run in any order within the binary.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::global().reset();
    set_metrics_enabled(false);
  }
  void TearDown() override {
    set_metrics_enabled(false);
    MetricsRegistry::global().reset();
  }
};

TEST_F(MetricsTest, CounterBasics) {
  set_metrics_enabled(true);
  auto& c = MetricsRegistry::global().counter("test.counter_basics");
  EXPECT_EQ(c.total(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.total(), 42u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
  // Same name returns the same counter object.
  auto& again = MetricsRegistry::global().counter("test.counter_basics");
  EXPECT_EQ(&c, &again);
}

TEST_F(MetricsTest, DisabledModeHasZeroSideEffects) {
  ASSERT_FALSE(metrics_enabled());
  auto& c = MetricsRegistry::global().counter("test.disabled_counter");
  c.add(1000);
  EXPECT_EQ(c.total(), 0u);
}

// The merged total must be a pure function of what was recorded, no matter
// how many pool workers did the recording or how the scheduler interleaved
// them. Runs the same fixed workload under 1-, 2-, and 8-worker pools.
TEST_F(MetricsTest, ShardedCounterMergeIsThreadCountInvariant) {
  set_metrics_enabled(true);
  constexpr std::uint64_t kAddsPerWorker = 10'000;
  constexpr unsigned kWorkUnits = 8;  // fixed geometry, like atpg/parallel
  std::uint64_t expected = 0;
  std::vector<std::uint64_t> totals;
  for (unsigned threads : {1u, 2u, 8u}) {
    auto& c = MetricsRegistry::global().counter("test.sharded_merge");
    c.reset();
    ThreadPool pool(threads);
    pool.run_on_workers(kWorkUnits, [&](unsigned) {
      for (std::uint64_t i = 0; i < kAddsPerWorker; ++i) c.add();
    });
    totals.push_back(c.total());
    expected = kWorkUnits * kAddsPerWorker;
  }
  for (std::uint64_t t : totals) EXPECT_EQ(t, expected);
}

TEST_F(MetricsTest, JsonIsValidSortedAndStable) {
  set_metrics_enabled(true);
  auto& reg = MetricsRegistry::global();
  reg.counter("test.z_last").add(3);
  reg.counter("test.a_first").add(1);
  const std::string a = reg.to_json();
  const std::string b = reg.to_json();  // reading must not perturb anything
  EXPECT_EQ(a, b);
  std::string err;
  JsonValue doc;
  ASSERT_TRUE(json_parse(a, &doc, &err)) << err;
  // One section: the registry holds counters only.
  ASSERT_EQ(doc.members().size(), 1u);
  EXPECT_EQ(doc.members()[0].first, "counters");
  EXPECT_EQ(doc.find("counters")->uint_or("test.z_last", 0), 3u);
  // Sorted name order.
  EXPECT_LT(a.find("test.a_first"), a.find("test.z_last"));
}

TEST_F(MetricsTest, TraceRecorderSmoke) {
  auto& rec = TraceRecorder::global();
  rec.start();
  ASSERT_TRUE(tracing_enabled());
  {
    PhaseSpan span(ProfPhase::kSynth);
    PhaseSpan inner(ProfPhase::kRetime);
  }
  rec.add_counter("test.queue_depth", rec.now_us(), 3);
  rec.stop();
  EXPECT_FALSE(tracing_enabled());
  EXPECT_GE(rec.num_events(), 3u);
  const std::string path = ::testing::TempDir() + "metrics_test_trace.json";
  ASSERT_TRUE(rec.write_json(path));
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  std::string err;
  EXPECT_TRUE(json_valid(ss.str(), &err)) << err;
  EXPECT_NE(ss.str().find("traceEvents"), std::string::npos);
  EXPECT_NE(ss.str().find("\"name\": \"synth\", \"cat\": \"synth\""),
            std::string::npos);
}

TEST_F(MetricsTest, DisabledTraceSpanRecordsNothing) {
  ASSERT_FALSE(tracing_enabled());
  auto& rec = TraceRecorder::global();
  rec.start();
  rec.stop();  // clears the buffer, then disables
  const std::size_t before = rec.num_events();
  { PhaseSpan span(ProfPhase::kSynth); }
  EXPECT_EQ(rec.num_events(), before);
}

// --- structured ATPG report ---------------------------------------------------

Netlist mcnc_circuit(const std::string& name, double scale) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == name) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, scale));
  return synthesize(fsm, {}).netlist;
}

ParallelAtpgOptions small_options(unsigned threads) {
  ParallelAtpgOptions popts;
  popts.run.engine.kind = EngineKind::kHitec;
  popts.run.engine.eval_limit = 150'000;
  popts.run.engine.backtrack_limit = 300;
  popts.run.random_sequences = 4;
  popts.run.random_length = 24;
  popts.num_threads = threads;
  return popts;
}

// Arm the registry the way the CLI does, run, and dump the report.
std::string report_for(const Netlist& nl, unsigned threads) {
  MetricsRegistry::global().reset();
  set_metrics_enabled(true);
  const ParallelAtpgResult res = run_parallel_atpg(nl, small_options(threads));
  set_metrics_enabled(false);
  std::ostringstream os;
  write_atpg_report_json(os, nl, small_options(threads), res);
  return os.str();
}

// The acceptance criterion of this subsystem: the full report — summary,
// per-fault stats, and the metrics registry dump — is byte-identical at any
// thread count, and the retimed twin shows measurably more search effort.
TEST_F(MetricsTest, AtpgReportIdenticalAcrossThreadsAndShowsRetimedBlowup) {
  const Netlist orig = mcnc_circuit("dk16", 0.4);
  const Netlist twin =
      retime_to_dff_target(orig, orig.num_dffs() * 2, orig.name() + ".re")
          .netlist;

  const std::string orig1 = report_for(orig, 1);
  std::string err;
  ASSERT_TRUE(json_valid(orig1, &err)) << err;
  for (unsigned threads : {2u, 8u})
    EXPECT_EQ(orig1, report_for(orig, threads)) << "threads=" << threads;

  const std::string twin1 = report_for(twin, 1);
  ASSERT_TRUE(json_valid(twin1, &err)) << err;
  for (unsigned threads : {2u, 8u})
    EXPECT_EQ(twin1, report_for(twin, threads)) << "threads=" << threads;

  // Retimed blowup, measured on the structured results themselves.
  const ParallelAtpgResult ro = run_parallel_atpg(orig, small_options(2));
  const ParallelAtpgResult rt = run_parallel_atpg(twin, small_options(2));
  EXPECT_GT(rt.run.backtracks, ro.run.backtracks);
  EXPECT_GE(rt.run.justify_failures, ro.run.justify_failures);
  EXPECT_GT(rt.run.backtracks + rt.run.justify_failures,
            ro.run.backtracks + ro.run.justify_failures);
}

// Per-fault stats ride along with the parallel result and agree with the
// merged summary on the thread-count-invariant integers.
TEST_F(MetricsTest, PerFaultStatsSumToRunTotals) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  const ParallelAtpgResult res = run_parallel_atpg(nl, small_options(4));
  ASSERT_EQ(res.fault_stats.size(), res.status.size());
  ASSERT_EQ(res.attempted.size(), res.status.size());
  std::uint64_t impl = 0, growths = 0, jcalls = 0, jfails = 0;
  for (std::size_t i = 0; i < res.fault_stats.size(); ++i) {
    if (!res.attempted[i]) continue;
    impl += res.fault_stats[i].implications;
    growths += res.fault_stats[i].window_growths;
    jcalls += res.fault_stats[i].justify_calls;
    jfails += res.fault_stats[i].justify_failures;
  }
  EXPECT_EQ(impl, res.run.implications);
  EXPECT_EQ(growths, res.run.window_growths);
  EXPECT_EQ(jcalls, res.run.justify_calls);
  EXPECT_EQ(jfails, res.run.justify_failures);
}

}  // namespace
}  // namespace satpg
