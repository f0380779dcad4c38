// Wide-vs-64-slot fault-simulation tier table, written to BENCH_fsim.json
// in the working directory. tools/bench_gate --fsim reads it (CI's
// fsim-speedup job); EXPERIMENTS.md describes the committed copy.
//
// Usage: fsim_tiers        (no flags; exit 1 when the file cannot be
//                           written, 2 on any argument)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "base/cpu.h"
#include "base/memstats.h"
#include "base/profiler.h"
#include "base/threadpool.h"
#include "fault/fault.h"
#include "fsim/fsim.h"
#include "fsm/mcnc_suite.h"
#include "harness/build_info.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

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
// engine/tier, and every timed repetition of a row, must agree or the
// file records a determinism violation.
// v3 adds build_info + host_cpu provenance and per-row cycle costs from
// one extra profiled (untimed) pass per row — cycles are zero under the
// fallback backend, task-clock is always live.
// Returns false when the file cannot be written.
bool write_fsim_bench_json() {
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
    bool repeatable = true;  ///< every timed run matched the warm count
    /// Accounted lane peak (memstats); the baseline64 reference charges
    /// no bytes, so its row reads 0.
    std::uint64_t peak_bytes = 0;
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
      const FsimResult timed = run_fault_simulation(nl, faults, seqs, opts);
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      best = std::min(best, s);
      if (timed.num_detected != row.detected) row.repeatable = false;
    }
    row.seconds = best;
  }

  bool deterministic = true;
  for (const auto& row : rows)
    if (row.detected != rows[0].detected || !row.repeatable)
      deterministic = false;
  if (!deterministic)
    std::fprintf(stderr,
                 "BENCH_fsim: DETERMINISM VIOLATION: engines or repeated "
                 "runs disagree on detection counts\n");

  const double base_s = rows[0].seconds;
  double best_speedup = 1.0;
  for (const auto& row : rows)
    best_speedup =
        std::max(best_speedup, base_s / std::max(row.seconds, 1e-12));

  std::FILE* f = std::fopen("BENCH_fsim.json", "w");
  if (!f) {
    std::fprintf(stderr, "BENCH_fsim.json: cannot open for writing\n");
    return false;
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
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "BENCH_fsim.json: write failed\n");
    return false;
  }
  for (const auto& row : rows)
    std::printf("BENCH_fsim.json: %-12s %.3fs  %9.0f patterns/s  %.2fx  "
                "%llu peak bytes  %.0f cyc/pat\n",
                row.label.c_str(), row.seconds,
                patterns / std::max(row.seconds, 1e-12),
                base_s / std::max(row.seconds, 1e-12),
                static_cast<unsigned long long>(row.peak_bytes),
                static_cast<double>(row.span_cycles) /
                    std::max(patterns, 1.0));
  return true;
}

}  // namespace
}  // namespace satpg

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s   (takes no arguments)\n", argv[0]);
    return 2;
  }
  return satpg::write_fsim_bench_json() ? 0 : 1;
}
