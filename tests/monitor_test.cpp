// Tests for the §7 observability stack: RunMonitor heartbeat sampling with
// a fake source, DecisionRing window/arm semantics, the stuck-search
// watchdog (observe-only invariance, defer-and-requeue coverage parity and
// thread-count invariance), deterministic capture/replay of watchdog- and
// deadline-flagged searches, a malformed-capture corpus, and the trace
// dropped-event metadata.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atpg/capture.h"
#include "atpg/parallel.h"
#include "base/json.h"
#include "base/metrics.h"
#include "base/monitor.h"
#include "base/rng.h"
#include "base/trace.h"
#include "fsm/mcnc_suite.h"
#include "retime/retime.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

Netlist mcnc_circuit(const std::string& name, double scale) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == name) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, scale));
  return synthesize(fsm, {}).netlist;
}

ParallelAtpgOptions small_options(EngineKind kind, unsigned threads) {
  ParallelAtpgOptions popts;
  popts.run.engine.kind = kind;
  popts.run.engine.eval_limit = 150'000;
  popts.run.engine.backtrack_limit = 300;
  popts.run.random_sequences = 4;
  popts.run.random_length = 24;
  popts.num_threads = threads;
  return popts;
}

// The deterministic surface of a run — everything the report serializes.
void expect_identical(const ParallelAtpgResult& a, const ParallelAtpgResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.detected_by, b.detected_by) << what;
  EXPECT_EQ(a.run.tests, b.run.tests) << what;
  EXPECT_EQ(a.run.detected, b.run.detected) << what;
  EXPECT_EQ(a.run.redundant, b.run.redundant) << what;
  EXPECT_EQ(a.run.aborted, b.run.aborted) << what;
  EXPECT_EQ(a.run.evals, b.run.evals) << what;
  EXPECT_EQ(a.run.backtracks, b.run.backtracks) << what;
  EXPECT_EQ(a.run.fault_coverage, b.run.fault_coverage) << what;
  EXPECT_EQ(a.run.fault_efficiency, b.run.fault_efficiency) << what;
  EXPECT_EQ(a.run.fe_trace, b.run.fe_trace) << what;
  EXPECT_EQ(a.run.states_traversed, b.run.states_traversed) << what;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// --- DecisionRing -----------------------------------------------------------

TEST(DecisionRingTest, WindowKeepsLastKWithAbsoluteIndices) {
  DecisionRing ring(4);
  for (std::uint32_t i = 0; i < 10; ++i)
    ring.push({DecisionEventKind::kDecision, 0,
               static_cast<std::int32_t>(i), 1, 0});
  EXPECT_EQ(ring.total(), 10u);
  const auto w = ring.window();
  // The window covers absolute indices [6, 10), oldest first.
  ASSERT_EQ(w.size(), 4u);
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_EQ(w[i].frame, static_cast<std::int32_t>(6 + i));
}

// --- RunMonitor with a fake source ------------------------------------------

class FakeSource final : public MonitorSource {
 public:
  std::string heartbeat_json(std::uint64_t seq, double elapsed_s) override {
    ++heartbeats;
    return "{\"schema\": \"fake.v1\", \"seq\": " + std::to_string(seq) +
           ", \"elapsed_s\": " + std::to_string(elapsed_s) + "}";
  }
  std::string progress_line(double) override {
    ++progress;
    return "fake progress";
  }
  std::atomic<int> heartbeats{0};
  std::atomic<int> progress{0};
};

TEST(RunMonitorTest, StreamsValidNdjsonWithMonotonicSeq) {
  const std::string path = ::testing::TempDir() + "monitor_fake.ndjson";
  FakeSource src;
  RunMonitorOptions opts;
  opts.heartbeat_json = path;
  opts.interval_ms = 1;
  RunMonitor mon(&src, opts);
  ASSERT_TRUE(mon.start());
  EXPECT_TRUE(mon.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  mon.stop();
  EXPECT_FALSE(mon.running());
  EXPECT_GE(mon.samples(), 1u);

  std::ifstream is(path);
  std::string line, err;
  std::uint64_t expect_seq = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ASSERT_TRUE(json_valid(line, &err)) << err;
    JsonValue v;
    ASSERT_TRUE(json_parse(line, &v, &err)) << err;
    EXPECT_EQ(v.uint_or("seq", ~0ull), expect_seq++);
  }
  EXPECT_EQ(expect_seq, mon.samples());
}

TEST(RunMonitorTest, StopTakesFinalSampleEvenBeforeFirstInterval) {
  const std::string path = ::testing::TempDir() + "monitor_final.ndjson";
  FakeSource src;
  RunMonitorOptions opts;
  opts.heartbeat_json = path;
  opts.interval_ms = 60'000;  // far beyond the test's lifetime
  RunMonitor mon(&src, opts);
  ASSERT_TRUE(mon.start());
  mon.stop();
  // Even an instant run gets one heartbeat: the synchronous final sample.
  EXPECT_EQ(mon.samples(), 1u);
  EXPECT_FALSE(slurp(path).empty());
}

TEST(RunMonitorTest, DisabledOptionsAreANoOp) {
  FakeSource src;
  RunMonitor mon(&src, RunMonitorOptions{});
  EXPECT_TRUE(mon.start());  // no-op succeeds
  EXPECT_FALSE(mon.running());
  mon.stop();
  EXPECT_EQ(mon.samples(), 0u);
  EXPECT_EQ(src.heartbeats.load(), 0);
}

// --- watchdog: observe-only invariance --------------------------------------

// A retimed twin plus a tiny eval threshold guarantees flagged faults.
// Flag-only mode must not change any deterministic result field — the
// watchdog block is pure annotation.
TEST(WatchdogTest, ObserveOnlyFlagsStuckFaultsWithoutChangingResults) {
  const Netlist orig = mcnc_circuit("s820", 0.3);
  const Netlist twin =
      retime_to_dff_target(orig, orig.num_dffs() * 2, orig.name() + ".re")
          .netlist;
  const ParallelAtpgResult base =
      run_parallel_atpg(twin, small_options(EngineKind::kHitec, 2));
  ParallelAtpgOptions wopts = small_options(EngineKind::kHitec, 2);
  wopts.watchdog.stuck_evals = 100;
  const ParallelAtpgResult wd = run_parallel_atpg(twin, wopts);

  expect_identical(base, wd, "watchdog observe-only");
  EXPECT_EQ(base.stuck_faults.size(), 0u);
  ASSERT_FALSE(wd.stuck_faults.empty())
      << "threshold of 100 evals flagged nothing on the retimed twin";
  EXPECT_EQ(wd.deferred_requeued, 0u);
  // Verdicts are in fault-index order with the threshold actually exceeded.
  for (std::size_t i = 0; i < wd.stuck_faults.size(); ++i) {
    EXPECT_GE(wd.stuck_faults[i].evals, wopts.watchdog.stuck_evals);
    EXPECT_FALSE(wd.stuck_faults[i].deferred);
    if (i > 0) {
      EXPECT_LT(wd.stuck_faults[i - 1].fault_index,
                wd.stuck_faults[i].fault_index);
    }
  }
}

// --- watchdog: defer-and-requeue ---------------------------------------------

// Deferred faults get their full budget on the requeue pass, so final
// coverage/efficiency match the no-watchdog run exactly; and the defer
// schedule itself must stay thread-count invariant.
TEST(WatchdogTest, DeferPreservesCoverageAndIsThreadInvariant) {
  const Netlist orig = mcnc_circuit("s820", 0.3);
  const Netlist twin =
      retime_to_dff_target(orig, orig.num_dffs() * 2, orig.name() + ".re")
          .netlist;
  const ParallelAtpgResult base =
      run_parallel_atpg(twin, small_options(EngineKind::kHitec, 1));

  auto defer_run = [&](unsigned threads) {
    ParallelAtpgOptions opts = small_options(EngineKind::kHitec, threads);
    opts.watchdog.stuck_evals = 500;
    opts.watchdog.defer = true;
    return run_parallel_atpg(twin, opts);
  };
  const ParallelAtpgResult d1 = defer_run(1);
  ASSERT_GT(d1.deferred_requeued, 0u) << "defer never engaged";
  EXPECT_EQ(d1.run.fault_coverage, base.run.fault_coverage);
  EXPECT_EQ(d1.run.fault_efficiency, base.run.fault_efficiency);
  EXPECT_EQ(d1.status, base.status);

  for (unsigned threads : {2u, 4u}) {
    const ParallelAtpgResult dt = defer_run(threads);
    expect_identical(d1, dt, "defer threads=" + std::to_string(threads));
    EXPECT_EQ(d1.deferred_requeued, dt.deferred_requeued);
    ASSERT_EQ(d1.stuck_faults.size(), dt.stuck_faults.size());
    for (std::size_t i = 0; i < d1.stuck_faults.size(); ++i) {
      EXPECT_EQ(d1.stuck_faults[i].fault_index,
                dt.stuck_faults[i].fault_index);
      EXPECT_EQ(d1.stuck_faults[i].evals, dt.stuck_faults[i].evals);
      EXPECT_EQ(d1.stuck_faults[i].deferred, dt.stuck_faults[i].deferred);
    }
  }
}

// --- capture/replay -----------------------------------------------------------

// The primary tier-1 replay assertion: capture a watchdog-flagged search,
// re-run it from the capture alone, and require the decision streams to
// match event for event.
TEST(CaptureReplayTest, WatchdogCaptureReplaysExactly) {
  const Netlist orig = mcnc_circuit("s820", 0.3);
  const Netlist twin =
      retime_to_dff_target(orig, orig.num_dffs() * 2, orig.name() + ".re")
          .netlist;
  ParallelAtpgOptions opts = small_options(EngineKind::kHitec, 2);
  opts.watchdog.stuck_evals = 100;
  opts.capture.armed = true;
  const ParallelAtpgResult res = run_parallel_atpg(twin, opts);
  ASSERT_TRUE(res.capture.has_value()) << "watchdog flagged no capture";
  EXPECT_EQ(res.capture->reason, "watchdog");
  EXPECT_GT(res.capture->ring_total, 0u);

  const ReplayResult rep = replay_capture(twin, *res.capture);
  EXPECT_TRUE(rep.ok) << rep.message;
  EXPECT_EQ(rep.replayed_events, res.capture->ring_total);
  EXPECT_EQ(rep.mismatch_index, -1);
  EXPECT_EQ(rep.status, res.capture->status);

  // Round-trip through the JSON file form too.
  const std::string path = ::testing::TempDir() + "wd_capture.json";
  ASSERT_TRUE(write_capture_json(path, *res.capture));
  SearchCapture loaded;
  std::string err;
  ASSERT_TRUE(parse_capture_json(path, &loaded, &err)) << err;
  EXPECT_EQ(loaded.events, res.capture->events);
  EXPECT_TRUE(replay_capture(twin, loaded).ok);
}

// --capture-fault targets one collapsed fault by index; the capture fires
// regardless of watchdog/deadline state and replays exactly.
TEST(CaptureReplayTest, RequestedCaptureReplaysExactly) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  ParallelAtpgOptions opts = small_options(EngineKind::kHitec, 2);
  opts.run.random_sequences = 0;  // keep every fault in the search phase
  opts.capture.armed = true;
  opts.capture.fault = "0";
  const ParallelAtpgResult res = run_parallel_atpg(nl, opts);
  ASSERT_TRUE(res.capture.has_value());
  EXPECT_EQ(res.capture->reason, "requested");
  EXPECT_EQ(res.capture->fault_index, 0u);
  const ReplayResult rep = replay_capture(nl, *res.capture);
  EXPECT_TRUE(rep.ok) << rep.message;
}

// Arming a capture never changes search results, memory-budgeted runs
// included: the ring is charged into each attempt's tally for the whole
// attempt, so it shows in peak_bytes but must not count against the limit.
// Each engine's budget trips some of its attempts without the ring.
TEST(CaptureReplayTest, ArmingCaptureLeavesMemoryBudgetedRunUnchanged) {
  const Netlist orig = mcnc_circuit("dk16", 0.35);
  const Netlist twin =
      retime_to_dff_target(orig, orig.num_dffs() * 2, orig.name() + ".re")
          .netlist;
  for (const EngineKind kind : {EngineKind::kHitec, EngineKind::kCdcl}) {
    const std::string what = engine_kind_name(kind);
    ParallelAtpgOptions opts = small_options(kind, 2);
    opts.mem_budget_bytes = kind == EngineKind::kCdcl ? 40'000 : 4'000;
    const ParallelAtpgResult base = run_parallel_atpg(twin, opts);
    opts.capture.armed = true;
    opts.capture.fault = "0";
    const ParallelAtpgResult armed = run_parallel_atpg(twin, opts);
    EXPECT_GT(base.mem_tripped, 0u) << what << ": the budget never tripped";
    expect_identical(base, armed, what + " capture armed");
    EXPECT_EQ(base.mem_tripped, armed.mem_tripped) << what;
    EXPECT_EQ(base.mem_requeued, armed.mem_requeued) << what;
    ASSERT_EQ(base.fault_stats.size(), armed.fault_stats.size()) << what;
    for (std::size_t i = 0; i < base.fault_stats.size(); ++i)
      EXPECT_EQ(base.fault_stats[i].evals, armed.fault_stats[i].evals)
          << what << " fault " << i;
  }
}

// A capture cut short by the wall-clock deadline replays deterministically:
// replay cuts the attempt at the capture's recorded abort_check. The
// deadline is nondeterministic, so retry over growing deadlines until one
// lands mid-search. No eval or backtrack limit ends an attempt and no
// oracle build delays the first one, so from the first rung on only the
// deadline stops the search; the ladder still grows by 25% a step in case
// machine load delays the search's start.
TEST(CaptureReplayTest, DeadlineCaptureReplaysExactly) {
  const Netlist orig = mcnc_circuit("s820", 0.3);
  const Netlist twin =
      retime_to_dff_target(orig, orig.num_dffs() * 2, orig.name() + ".re")
          .netlist;
  for (std::uint64_t deadline_ms = 1; deadline_ms <= 250;
       deadline_ms += std::max<std::uint64_t>(1, deadline_ms / 4)) {
    ParallelAtpgOptions opts = small_options(EngineKind::kHitec, 2);
    opts.run.random_sequences = 0;
    opts.run.attribute_effort = false;
    opts.run.engine.eval_limit = 10'000'000'000;
    opts.run.engine.backtrack_limit = 1'000'000'000;
    opts.deadline_ms = deadline_ms;
    opts.capture.armed = true;
    const ParallelAtpgResult res = run_parallel_atpg(twin, opts);
    if (!res.capture || res.capture->ring_total == 0) continue;
    EXPECT_EQ(res.capture->reason, "deadline");
    const ReplayResult rep = replay_capture(twin, *res.capture);
    EXPECT_TRUE(rep.ok) << "deadline_ms=" << deadline_ms << ": "
                        << rep.message;
    return;
  }
  FAIL() << "no deadline of 1-250 ms landed mid-search";
}

// Tampered captures are rejected by the config digest.
TEST(CaptureReplayTest, DigestGuardsAgainstEditedCaptures) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  ParallelAtpgOptions opts = small_options(EngineKind::kHitec, 1);
  opts.run.random_sequences = 0;
  opts.capture.armed = true;
  opts.capture.fault = "0";
  const ParallelAtpgResult res = run_parallel_atpg(nl, opts);
  ASSERT_TRUE(res.capture.has_value());
  SearchCapture cap = *res.capture;
  cap.soft_eval_cap = 12345;  // replay input changed, digest now stale
  const ReplayResult rep = replay_capture(nl, cap);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.message.find("digest"), std::string::npos) << rep.message;
}

// Replace the number that follows the first `key` at or after `from` with
// `value`.
std::string with_number(std::string text, const std::string& key,
                        const std::string& value, std::size_t from = 0) {
  const std::size_t at = text.find(key, from);
  if (at == std::string::npos) return text;
  const std::size_t begin = at + key.size();
  const std::size_t end = text.find_first_of(",]}", begin);
  return text.replace(begin, end - begin, value);
}

// Malformed-capture corpus: seeded truncations and single-byte
// substitutions of a capture made here, plus fixed out-of-range numbers.
// parse_capture_json either refuses an input with a message or accepts
// it, and an accepted capture either replays or says why not; nothing
// crashes or casts a number it cannot hold. Sized to stay well under 2 s
// in the ASan job.
TEST(CaptureReplayTest, MutatedCapturesFailCleanly) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  ParallelAtpgOptions opts = small_options(EngineKind::kHitec, 1);
  opts.run.random_sequences = 0;
  opts.capture.armed = true;
  opts.capture.fault = "0";
  const ParallelAtpgResult res = run_parallel_atpg(nl, opts);
  ASSERT_TRUE(res.capture.has_value());
  ASSERT_FALSE(res.capture->events.empty());
  const std::string path = ::testing::TempDir() + "corpus_capture.json";
  ASSERT_TRUE(write_capture_json(path, *res.capture));
  const std::string golden = slurp(path);

  // Returns the refusal message, or "" when the capture was accepted.
  const auto load = [&](const std::string& text) {
    std::ofstream(path) << text;
    SearchCapture cap;
    std::string err;
    if (!parse_capture_json(path, &cap, &err)) return err.empty() ? "?" : err;
    const ReplayResult rep = replay_capture(nl, cap);
    EXPECT_TRUE(rep.ok || !rep.message.empty());
    return std::string();
  };

  EXPECT_EQ(load(golden), "");
  // The first event's frame: the number after its code.
  const std::string big_frame =
      load(with_number(golden, "\", ", "1e300", golden.find("\"events\"")));
  EXPECT_NE(big_frame.find("frame"), std::string::npos) << big_frame;
  const std::string big_engine =
      load(with_number(golden, "\"max_forward_frames\": ", "1e300"));
  EXPECT_NE(big_engine.find("max_forward_frames"), std::string::npos)
      << big_engine;
  const std::string big_ring =
      load(with_number(golden, "\"capacity\": ", "40e6"));
  EXPECT_NE(big_ring.find("ring capacity"), std::string::npos) << big_ring;

  // Bytes that break or bend the grammar; sizeof counts the NUL too.
  static const char kBytes[] = "{}[]\",:\\-.eE+09 \n";
  constexpr int kMutants = 60;
  Rng rng(0xca97);
  int refused = 0;
  for (int k = 0; k < kMutants; ++k) {
    std::string text = golden;
    if (k % 2 == 0)
      text.resize(rng.next_below(text.size()));
    else
      text[rng.next_below(text.size())] =
          kBytes[rng.next_below(sizeof kBytes)];
    SCOPED_TRACE("mutant " + std::to_string(k));
    if (!load(text).empty()) ++refused;
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(refused, 0);
  EXPECT_LT(refused, kMutants);
}

// --- monitored runs stay deterministic ---------------------------------------

// Arming the in-process monitor (heartbeat sink + tiny interval) must not
// perturb the run: results bit-identical to an unmonitored run.
TEST(MonitoredRunTest, MonitorDoesNotPerturbResults) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  const ParallelAtpgResult base =
      run_parallel_atpg(nl, small_options(EngineKind::kHitec, 2));
  ParallelAtpgOptions mopts = small_options(EngineKind::kHitec, 2);
  mopts.monitor.heartbeat_json =
      ::testing::TempDir() + "monitored_run.ndjson";
  mopts.monitor.interval_ms = 1;
  const ParallelAtpgResult mon = run_parallel_atpg(nl, mopts);
  expect_identical(base, mon, "monitored run");

  // The stream itself: valid NDJSON, schema-tagged, final phase "done".
  std::ifstream is(mopts.monitor.heartbeat_json);
  std::string line, last, err;
  while (std::getline(is, line))
    if (!line.empty()) {
      ASSERT_TRUE(json_valid(line, &err)) << err;
      last = line;
    }
  ASSERT_FALSE(last.empty());
  JsonValue v;
  ASSERT_TRUE(json_parse(last, &v, &err)) << err;
  EXPECT_EQ(v.str_or("schema", ""), "satpg.heartbeat.v2");
  EXPECT_EQ(v.str_or("phase", ""), "done");
  EXPECT_EQ(v.uint_or("faults", 0), v.uint_or("resolved", 1));
}

// --- trace dropped-event surfacing -------------------------------------------

TEST(TraceDroppedTest, MetadataEventAndCounterAlwaysPresent) {
  set_metrics_enabled(true);
  MetricsRegistry::global().reset();
  TraceRecorder rec;
  rec.start();
  rec.add_complete("phase", "test", 0, 0, 10);
  rec.stop();
  EXPECT_EQ(rec.num_dropped(), 0u);

  const std::string path = ::testing::TempDir() + "trace_dropped.json";
  ASSERT_TRUE(rec.write_json(path));
  const std::string json = slurp(path);
  std::string err;
  EXPECT_TRUE(json_valid(json, &err)) << err;
  // The metadata event is present even when nothing was dropped, so its
  // absence can never be confused with "nothing dropped".
  EXPECT_NE(json.find("\"trace_events_dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);

  std::ostringstream ms;
  MetricsRegistry::global().write_json(ms);
  EXPECT_NE(ms.str().find("\"trace_events_dropped\": 0"), std::string::npos);
  set_metrics_enabled(false);
}

}  // namespace
}  // namespace satpg
