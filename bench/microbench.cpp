// google-benchmark microbenchmarks for the performance-critical substrates:
// logic simulation, parallel fault simulation, BDD reachability, espresso
// minimization, and the time-frame model's event propagation. These guard
// the throughput the experiment harness depends on.
//
// In addition to the google-benchmark suite, main() times the fault
// simulator and the fault-parallel ATPG driver serial-vs-parallel on a
// Table-2-sized circuit and writes BENCH_fsim.json / BENCH_atpg.json so
// both perf trajectories are tracked from PR to PR.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/reach.h"
#include "base/cpu.h"
#include "base/memstats.h"
#include "base/metrics.h"
#include "base/profiler.h"
#include "base/threadpool.h"
#include "harness/build_info.h"
#include "atpg/engine.h"
#include "atpg/parallel.h"
#include "atpg/podem.h"
#include "atpg/scoap.h"
#include "atpg/tfm.h"
#include "base/rng.h"
#include "fsim/fsim.h"
#include "fsm/mcnc_suite.h"
#include "sim/simulator.h"
#include "synth/cover.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

// One mid-sized circuit shared by the benchmarks (built once).
const SynthResult& shared_circuit() {
  static const SynthResult res = [] {
    FsmGenSpec spec;
    for (const auto& s : mcnc_specs())
      if (s.name == "s820") spec = s;
    const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.6));
    SynthOptions so;
    so.encode = EncodeAlgo::kOutputDominant;
    return synthesize(fsm, so);
  }();
  return res;
}

void BM_SeqSimulatorStep(benchmark::State& state) {
  const Netlist& nl = shared_circuit().netlist;
  SeqSimulator sim(nl);
  Rng rng(1);
  std::vector<V3> in(nl.num_inputs(), V3::kZero);
  for (auto _ : state) {
    for (auto& v : in) v = rng.next_bool() ? V3::kOne : V3::kZero;
    benchmark::DoNotOptimize(sim.step(in));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nl.num_gates()));
}
BENCHMARK(BM_SeqSimulatorStep);

void BM_ParallelFaultSim(benchmark::State& state) {
  // arg 0: fsim worker threads (1 = serial reference, 0 = hardware).
  const Netlist& nl = shared_circuit().netlist;
  const auto collapsed = collapse_faults(nl);
  std::vector<Fault> faults;
  for (const auto& cf : collapsed) faults.push_back(cf.representative);
  const auto seqs = make_random_sequences(nl, 2, 32, 7);
  FsimOptions opts;
  opts.num_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fault_simulation(nl, faults, seqs, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_ParallelFaultSim)->Arg(1)->Arg(0);

void BM_BddReachability(benchmark::State& state) {
  const Netlist& nl = shared_circuit().netlist;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_reachable(nl));
  }
}
BENCHMARK(BM_BddReachability);

void BM_EspressoMinimize(benchmark::State& state) {
  // Random 8-variable single-output function.
  Rng rng(3);
  const std::size_t nv = 8;
  Cover on, dc;
  for (std::size_t m = 0; m < (1u << nv); ++m) {
    const int k = rng.next_int(0, 5);
    if (k >= 4) continue;
    Cube c;
    c.value = BitVec::from_value(nv, m);
    c.care = BitVec(nv);
    c.care.set_all();
    if (k < 2)
      on.push_back(c);
    else if (k == 2)
      dc.push_back(c);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(espresso_lite(on, dc, nv, {}));
  }
}
BENCHMARK(BM_EspressoMinimize);

void BM_TimeFrameAssignUndo(benchmark::State& state) {
  const Netlist& nl = shared_circuit().netlist;
  TimeFrameModel tfm(nl, std::nullopt, 4);
  Rng rng(5);
  for (auto _ : state) {
    const std::size_t mark = tfm.trail_mark();
    for (int k = 0; k < 8; ++k) {
      const NodeId pi = nl.inputs()[static_cast<std::size_t>(rng.next_int(
          0, static_cast<int>(nl.num_inputs()) - 1))];
      const int frame = rng.next_int(0, 3);
      if (tfm.decision_value(frame, pi) == V3::kX)
        tfm.assign(frame, pi, rng.next_bool() ? V3::kOne : V3::kZero);
    }
    tfm.undo_to(mark);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TimeFrameAssignUndo);

void BM_ScoapAnalysis(benchmark::State& state) {
  const Netlist& nl = shared_circuit().netlist;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_scoap(nl));
  }
}
BENCHMARK(BM_ScoapAnalysis);

// The build_info block rendered for embedding in fprintf-written JSON.
std::string build_info_str(int indent) {
  std::ostringstream ss;
  write_build_info_json(ss, build_info(), indent);
  return ss.str();
}

// Packed-vs-baseline fault-simulation comparison on the Table-8 replay
// workload (full s820, collapsed faults, 64 random sequences x 32
// frames), written to BENCH_fsim.json. One row for the seed 64-slot
// engine and one wide-engine row per usable SIMD tier; all rows run at
// hardware threads so the comparison isolates the pattern-parallel
// dimension. Detection counts are cross-checked on the spot: every
// engine/tier must agree or the file records a determinism violation.
// v3 adds build_info + host_cpu provenance and per-row cycle costs from
// one extra profiled (untimed) pass per row — cycles are zero under the
// fallback backend, task-clock is always live.
// tools/bench_gate --fsim consumes this file (non-blocking in CI).
void write_fsim_bench_json() {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "s820") spec = s;
  SynthOptions so;
  so.encode = EncodeAlgo::kOutputDominant;
  const SynthResult res = synthesize(generate_control_fsm(spec), so);
  const Netlist& nl = res.netlist;

  const auto collapsed = collapse_faults(nl);
  std::vector<Fault> faults;
  for (const auto& cf : collapsed) faults.push_back(cf.representative);
  const auto seqs = make_random_sequences(nl, 64, 32, 7);
  const double patterns =
      static_cast<double>(seqs.size()) *
      static_cast<double>(seqs.empty() ? std::size_t{0} : seqs[0].size());
  const unsigned hw = ThreadPool::hardware_threads();

  struct Row {
    std::string label;
    FsimEngine engine;
    SimdTier tier;
    double seconds = 0.0;
    std::size_t detected = 0;
    std::uint64_t peak_bytes = 0;  ///< accounted arena/lane peak (memstats)
    /// Profiled pass, root fold (fsim.run on the calling thread plus
    /// pool.task on the workers): task-clock, and cycles under perf.
    std::uint64_t span_task_ns = 0;
    std::uint64_t span_cycles = 0;
  };
  std::vector<Row> rows;
  rows.push_back({"baseline64", FsimEngine::kBaseline64, SimdTier::kAuto});
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kSse2,
                              SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (!fsim_wide_tier_usable(tier)) continue;
    rows.push_back({std::string("wide/") + simd_tier_name(tier),
                    FsimEngine::kWide, tier});
  }

  ProfBackend prof_backend = ProfBackend::kOff;
  for (auto& row : rows) {
    FsimOptions opts;
    opts.num_threads = hw;
    opts.engine = row.engine;
    opts.simd = row.tier;
    // Warm the netlist caches and the thread pool outside the timed runs;
    // the warm pass doubles as the byte-accounted pass (memstats armed),
    // so the timed loop below runs with accounting off.
    MemStatsRegistry::global().reset();
    set_memstats_enabled(true);
    const FsimResult warm = run_fault_simulation(nl, faults, seqs, opts);
    set_memstats_enabled(false);
    row.detected = warm.num_detected;
    row.peak_bytes = MemStatsRegistry::global().snapshot().peak_upper_bound();
    MemStatsRegistry::global().reset();
    // One profiled (untimed) pass per row: where do this engine's cycles
    // go. The timed loop below runs with the profiler disarmed.
    Profiler::global().start();
    run_fault_simulation(nl, faults, seqs, opts);
    Profiler::global().stop();
    const ProfSnapshot prof = Profiler::global().snapshot();
    const ProfPhaseTotals prof_total = prof.total();
    row.span_task_ns = prof_total.counter(ProfCounter::kTaskClockNs);
    row.span_cycles = prof_total.counter(ProfCounter::kCycles);
    prof_backend = prof.backend;
    double best = 1e100;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(run_fault_simulation(nl, faults, seqs, opts));
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      best = std::min(best, s);
    }
    row.seconds = best;
  }

  bool deterministic = true;
  for (const auto& row : rows)
    if (row.detected != rows[0].detected) deterministic = false;
  if (!deterministic)
    std::fprintf(stderr,
                 "BENCH_fsim: DETERMINISM VIOLATION: engines disagree on "
                 "detection counts\n");

  const double base_s = rows[0].seconds;
  double best_speedup = 1.0;
  for (const auto& row : rows)
    best_speedup =
        std::max(best_speedup, base_s / std::max(row.seconds, 1e-12));

  std::FILE* f = std::fopen("BENCH_fsim.json", "w");
  if (!f) {
    std::fprintf(stderr, "BENCH_fsim.json: cannot open for writing\n");
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"satpg.bench_fsim.v3\",\n"
               "  \"bench\": \"fsim_packed_vs_baseline\",\n"
               "  \"circuit\": \"%s\",\n"
               "  \"nodes\": %zu,\n"
               "  \"dffs\": %zu,\n"
               "  \"faults\": %zu,\n"
               "  \"sequences\": %zu,\n"
               "  \"frames_per_sequence\": %zu,\n"
               "  \"num_threads\": %u,\n"
               "  \"build_info\": %s,\n"
               "  \"host_cpu\": \"%s\",\n"
               "  \"profile_backend\": \"%s\",\n"
               "  \"deterministic\": %s,\n"
               "  \"rows\": [\n",
               nl.name().c_str(), nl.num_nodes(), nl.num_dffs(),
               faults.size(), seqs.size(),
               seqs.empty() ? std::size_t{0} : seqs[0].size(), hw,
               build_info_str(16).c_str(), cpu_model_name().c_str(),
               prof_backend_name(prof_backend),
               deterministic ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"seconds\": %.6f, "
                 "\"patterns_per_second\": %.1f, "
                 "\"faults_per_second\": %.1f, "
                 "\"speedup_vs_baseline\": %.3f, "
                 "\"peak_bytes\": %llu, "
                 "\"task_clock_ns_per_pattern\": %.1f, "
                 "\"cycles_per_pattern\": %.1f}%s\n",
                 row.label.c_str(), row.seconds,
                 patterns / std::max(row.seconds, 1e-12),
                 static_cast<double>(faults.size()) /
                     std::max(row.seconds, 1e-12),
                 base_s / std::max(row.seconds, 1e-12),
                 static_cast<unsigned long long>(row.peak_bytes),
                 static_cast<double>(row.span_task_ns) /
                     std::max(patterns, 1.0),
                 static_cast<double>(row.span_cycles) /
                     std::max(patterns, 1.0),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"best_speedup\": %.3f\n"
               "}\n",
               best_speedup);
  std::fclose(f);
  for (const auto& row : rows)
    std::printf("BENCH_fsim.json: %-12s %.3fs  %9.0f patterns/s  %.2fx  "
                "%llu peak bytes  %.0f cyc/pat\n",
                row.label.c_str(), row.seconds,
                patterns / std::max(row.seconds, 1e-12),
                base_s / std::max(row.seconds, 1e-12),
                static_cast<unsigned long long>(row.peak_bytes),
                static_cast<double>(row.span_cycles) /
                    std::max(patterns, 1.0));
}

// Serial-vs-parallel comparison of the fault-parallel ATPG driver
// (DESIGN.md §4d) on a Table-2-sized circuit, written to BENCH_atpg.json.
// Beyond wall time it asserts the determinism contract on the spot: the
// parallel run's eval count must equal the serial run's.
void write_atpg_bench_json() {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "s820") spec = s;
  SynthOptions so;
  so.encode = EncodeAlgo::kOutputDominant;
  const SynthResult res = synthesize(generate_control_fsm(spec), so);
  const Netlist& nl = res.netlist;

  ParallelAtpgOptions popts;
  popts.run.engine.eval_limit = 400'000;
  popts.run.engine.backtrack_limit = 600;

  auto time_run = [&](unsigned num_threads, int reps, std::uint64_t* evals) {
    popts.num_threads = num_threads;
    run_parallel_atpg(nl, popts);  // warm caches and the thread pool
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto pr = run_parallel_atpg(nl, popts);
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      best = std::min(best, s);
      *evals = pr.run.evals;
    }
    return best;
  };

  const unsigned hw = ThreadPool::hardware_threads();
  std::uint64_t serial_evals = 0, parallel_evals = 0;
  const double serial_s = time_run(1, 3, &serial_evals);
  const double parallel_s = time_run(hw, 3, &parallel_evals);
  if (serial_evals != parallel_evals)
    std::fprintf(stderr,
                 "BENCH_atpg: DETERMINISM VIOLATION: serial %llu evals vs "
                 "parallel %llu\n",
                 static_cast<unsigned long long>(serial_evals),
                 static_cast<unsigned long long>(parallel_evals));

  std::FILE* f = std::fopen("BENCH_atpg.json", "w");
  if (!f) {
    std::fprintf(stderr, "BENCH_atpg.json: cannot open for writing\n");
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"atpg_serial_vs_parallel\",\n"
               "  \"circuit\": \"%s\",\n"
               "  \"nodes\": %zu,\n"
               "  \"dffs\": %zu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"serial_seconds\": %.6f,\n"
               "  \"parallel_num_threads\": %u,\n"
               "  \"parallel_seconds\": %.6f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"evals\": %llu,\n"
               "  \"deterministic\": %s\n"
               "}\n",
               nl.name().c_str(), nl.num_nodes(), nl.num_dffs(), hw, serial_s,
               hw, parallel_s, serial_s / std::max(parallel_s, 1e-12),
               static_cast<unsigned long long>(serial_evals),
               serial_evals == parallel_evals ? "true" : "false");
  std::fclose(f);
  std::printf("BENCH_atpg.json: serial %.3fs, parallel(x%u) %.3fs, "
              "speedup %.2fx, deterministic=%s\n",
              serial_s, hw, parallel_s,
              serial_s / std::max(parallel_s, 1e-12),
              serial_evals == parallel_evals ? "true" : "false");
}

// Telemetry overhead guard (DESIGN.md §5/§10): the metrics registry
// promises near-zero cost on the fsim hot path, and the flight recorder
// promises the same for an armed --events-json run on the ATPG search
// path. Times each pair disabled vs enabled (best of 5, interleaved
// against drift) and flags a violation when an enabled run is more than
// 3% slower. Written to BENCH_metrics_overhead.json so the trajectory is
// tracked.
void write_metrics_overhead_json() {
  const Netlist& nl = shared_circuit().netlist;
  const auto collapsed = collapse_faults(nl);
  std::vector<Fault> faults;
  for (const auto& cf : collapsed) faults.push_back(cf.representative);
  const auto seqs = make_random_sequences(nl, 4, 32, 7);
  FsimOptions opts;
  opts.num_threads = ThreadPool::hardware_threads();

  run_fault_simulation(nl, faults, seqs, opts);  // warm caches + pool
  auto timed_run = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run_fault_simulation(nl, faults, seqs, opts));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  // The enabled arm arms BOTH observability planes — the metrics registry
  // and memstats byte accounting — so the 3% budget covers the full cost
  // of an instrumented run, not just the counter half.
  constexpr int kReps = 5;
  double off_s = 1e100, on_s = 1e100;
  std::uint64_t fsim_peak_bytes = 0;
  for (int r = 0; r < kReps; ++r) {
    set_metrics_enabled(false);
    set_memstats_enabled(false);
    off_s = std::min(off_s, timed_run());
    MetricsRegistry::global().reset();
    MemStatsRegistry::global().reset();
    set_metrics_enabled(true);
    set_memstats_enabled(true);
    on_s = std::min(on_s, timed_run());
    fsim_peak_bytes =
        MemStatsRegistry::global().snapshot().peak_upper_bound();
    set_metrics_enabled(false);
    set_memstats_enabled(false);
  }
  const double overhead = on_s / std::max(off_s, 1e-12) - 1.0;
  const bool ok = overhead < 0.03;
  if (!ok)
    std::fprintf(stderr,
                 "BENCH_metrics_overhead: METRICS OVERHEAD VIOLATION: "
                 "enabled %.6fs vs disabled %.6fs (%.2f%% > 3%%)\n",
                 on_s, off_s, overhead * 100.0);

  // Flight-recorder pair: a full parallel ATPG run with the recorder
  // disarmed vs armed. The event buffers ride the existing merge, so the
  // only admissible cost is appending to per-attempt vectors.
  ParallelAtpgOptions popts;
  popts.run.engine.eval_limit = 60'000;
  popts.run.engine.backtrack_limit = 200;
  popts.num_threads = ThreadPool::hardware_threads();
  auto timed_atpg = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run_parallel_atpg(nl, popts));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  run_parallel_atpg(nl, popts);  // warm caches and the thread pool
  double ev_off_s = 1e100, ev_on_s = 1e100;
  for (int r = 0; r < kReps; ++r) {
    popts.record_events = false;
    ev_off_s = std::min(ev_off_s, timed_atpg());
    popts.record_events = true;
    ev_on_s = std::min(ev_on_s, timed_atpg());
  }
  const double ev_overhead = ev_on_s / std::max(ev_off_s, 1e-12) - 1.0;
  const bool ev_ok = ev_overhead < 0.03;
  if (!ev_ok)
    std::fprintf(stderr,
                 "BENCH_metrics_overhead: EVENTS OVERHEAD VIOLATION: "
                 "armed %.6fs vs disabled %.6fs (%.2f%% > 3%%)\n",
                 ev_on_s, ev_off_s, ev_overhead * 100.0);

  // Profiler pair: the same fsim workload with the cycle profiler
  // disarmed vs armed. The fsim spans are coarse (one per good-machine
  // pass / 63-fault batch / kernel dispatch), so an armed run must stay
  // inside the same 3% budget as the metrics registry.
  double prof_off_s = 1e100, prof_on_s = 1e100;
  for (int r = 0; r < kReps; ++r) {
    prof_off_s = std::min(prof_off_s, timed_run());
    Profiler::global().start();
    prof_on_s = std::min(prof_on_s, timed_run());
    Profiler::global().stop();
  }
  const double prof_overhead = prof_on_s / std::max(prof_off_s, 1e-12) - 1.0;
  const bool prof_ok = prof_overhead < 0.03;
  if (!prof_ok)
    std::fprintf(stderr,
                 "BENCH_metrics_overhead: PROFILER OVERHEAD VIOLATION: "
                 "armed %.6fs vs disabled %.6fs (%.2f%% > 3%%)\n",
                 prof_on_s, prof_off_s, prof_overhead * 100.0);

  std::FILE* f = std::fopen("BENCH_metrics_overhead.json", "w");
  if (!f) {
    std::fprintf(stderr,
                 "BENCH_metrics_overhead.json: cannot open for writing\n");
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fsim_metrics_overhead\",\n"
               "  \"circuit\": \"%s\",\n"
               "  \"faults\": %zu,\n"
               "  \"disabled_seconds\": %.6f,\n"
               "  \"enabled_seconds\": %.6f,\n"
               "  \"overhead_fraction\": %.4f,\n"
               "  \"budget_fraction\": 0.03,\n"
               "  \"within_budget\": %s,\n"
               "  \"fsim_peak_bytes\": %llu,\n"
               "  \"events_disabled_seconds\": %.6f,\n"
               "  \"events_armed_seconds\": %.6f,\n"
               "  \"events_overhead_fraction\": %.4f,\n"
               "  \"events_within_budget\": %s,\n"
               "  \"profile_disabled_seconds\": %.6f,\n"
               "  \"profile_armed_seconds\": %.6f,\n"
               "  \"profile_overhead_fraction\": %.4f,\n"
               "  \"profile_within_budget\": %s\n"
               "}\n",
               nl.name().c_str(), faults.size(), off_s, on_s, overhead,
               ok ? "true" : "false",
               static_cast<unsigned long long>(fsim_peak_bytes), ev_off_s,
               ev_on_s, ev_overhead, ev_ok ? "true" : "false", prof_off_s,
               prof_on_s, prof_overhead, prof_ok ? "true" : "false");
  std::fclose(f);
  std::printf("BENCH_metrics_overhead.json: disabled %.3fs, enabled %.3fs, "
              "overhead %.2f%% (budget 3%%)\n",
              off_s, on_s, overhead * 100.0);
  std::printf("BENCH_metrics_overhead.json: events disabled %.3fs, "
              "armed %.3fs, overhead %.2f%% (budget 3%%)\n",
              ev_off_s, ev_on_s, ev_overhead * 100.0);
  std::printf("BENCH_metrics_overhead.json: profiler disabled %.3fs, "
              "armed %.3fs, overhead %.2f%% (budget 3%%)\n",
              prof_off_s, prof_on_s, prof_overhead * 100.0);
}

}  // namespace
}  // namespace satpg

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  satpg::write_fsim_bench_json();
  satpg::write_atpg_bench_json();
  satpg::write_metrics_overhead_json();
  return 0;
}
