// satpg — command-line front end.
//
//   satpg info     <circuit.bench>              structural summary
//   satpg analyze  <circuit.bench>              depth/cycles/density report
//   satpg atpg     <circuit.bench> [options]    run an engine, write tests
//   satpg fsim     <circuit.bench> [options]    grade random sequences
//   satpg retime   <in.bench> <out.bench> [--dffs=N]
//   satpg scan     <in.bench> <out.bench> [--partial]
//   satpg faults   <circuit.bench>              fault universe summary
//   satpg archive  <report.json>|--list         store run reports by hash
//   satpg diff     <a> <b> [--top=N]            compare two run reports
//   satpg inspect  <src> [--fault=ID]           event-log / report analytics
//   satpg replay   <capture.json>               re-run a captured search
//
// ATPG options: --engine=hitec|forward|learning|cdcl  --budget=F  --seed=N
//               --no-shared-learning (cdcl only: per-fault caches only)
//               --strict (no potential-detection credit)
//               --tests=FILE (write the test sequences)
//               --metrics-json=FILE (deterministic structured run report)
//               --events-json=FILE (deterministic flight-recorder NDJSON)
//               --trace-json=FILE (Chrome trace_event timeline; wall-clock)
//               --heartbeat-json=FILE / --progress (live monitor, §7)
//               --stuck-evals=N / --stuck-seconds=F / --defer-stuck
//               --mem-budget-mb=F (deterministic per-attempt byte cap)
//               --capture-json=FILE / --capture-fault=ID
//               --profile-json=FILE (cycle-level profile sidecar; wall-clock)
// fsim options: --sequences=N --length=N --seed=N --threads=N
//               --engine=wide|baseline (baseline: the 64-slot reference)
//               --width=64|128|256|512 (pin the wide kernel's SIMD tier;
//               64 is the portable scalar kernel, as SATPG_FORCE_SCALAR=1)
// Numeric flag values are strict: a malformed, negative or out-of-range
// value is a usage error (exit 2), never a silent default. --seed may be 0.
// Every engine-running subcommand accepts --metrics-json/--trace-json; the
// flags are parsed by the shared TelemetryFlags helper. The monitor,
// watchdog, capture, and flight-recorder flags are wired in `satpg atpg`
// only; --profile-json is wired in atpg and fsim.
//
// archive, diff and inspect read only satpg.atpg_run.v6 reports and exit
// 2 on any other report schema (inspect also reads satpg.events.v1 logs
// and, with --profile, satpg.profile.* sidecars; the archive stores
// profile sidecars too so `inspect --trend` can join them to their runs);
// <a>/<b>/<src> may each be a file path or a stored report's hash prefix
// (see harness/archive.h). diff prints summary deltas, evals-to-FE%
// milestones, the per-fault divergence table (--top rows) and the
// invalid-fraction scatter.
//
// Exit codes: 0 success; 1 runtime failure (bad file, replay mismatch);
// 2 usage error. `--help` anywhere prints usage to stdout and exits 0;
// `--version` anywhere prints build provenance to stdout and exits 0.
// (tools/bench_gate uses the same convention: 0 pass, 1 regression,
// 2 usage/missing-golden.)
//
// Circuits are ISCAS-89 .bench files; flip-flops power up unknown and the
// tool follows the library convention that an input named "rst" is the
// reset line.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/reach.h"
#include "analysis/structure.h"
#include "atpg/capture.h"
#include "atpg/compact.h"
#include "atpg/engine.h"
#include "atpg/parallel.h"
#include "base/cpu.h"
#include "base/memstats.h"
#include "base/metrics.h"
#include "base/profiler.h"
#include "base/strutil.h"
#include "base/telemetry_flags.h"
#include "dft/scan.h"
#include "fsim/fsim.h"
#include "base/trace.h"
#include "harness/archive.h"
#include "harness/build_info.h"
#include "harness/diff.h"
#include "harness/inspect.h"
#include "harness/profile.h"
#include "harness/report.h"
#include "netlist/bench_io.h"
#include "retime/retime.h"
#include "synth/library.h"
#include "synth/techmap.h"

using namespace satpg;

namespace {

void print_usage(std::FILE* f) {
  std::fprintf(
      f,
      "usage: satpg"
      " <info|analyze|atpg|fsim|retime|scan|faults|archive|diff|inspect|"
      "replay> ...\n"
      "  satpg info    c.bench\n"
      "  satpg analyze c.bench\n"
      "  satpg faults  c.bench\n"
      "  satpg atpg    c.bench [--engine=hitec|forward|learning|cdcl]"
      " [--budget=F] [--seed=N]\n"
      "                [--no-shared-learning (cdcl only)] [--strict]"
      " [--tests=FILE] [--compact]\n"
      "                [--threads=N] [--deadline-ms=N]"
      " [--metrics-json=FILE] [--events-json=FILE]\n"
      "                [--trace-json=FILE] [--profile-json=FILE]\n"
      "                [--heartbeat-json=FILE] [--heartbeat-interval-ms=N]"
      " [--progress]\n"
      "                [--stuck-evals=N] [--stuck-seconds=F]"
      " [--defer-stuck]\n"
      "                [--mem-budget-mb=F] (per-attempt accounted-byte cap;"
      " trips park + requeue)\n"
      "                [--capture-json=FILE] [--capture-fault=NAME|INDEX]\n"
      "  satpg fsim    c.bench [--sequences=N] [--length=N] [--seed=N]"
      " [--threads=N]\n"
      "                [--engine=wide|baseline]"
      " [--width=64|128|256|512]\n"
      "                [--metrics-json=FILE] [--trace-json=FILE]"
      " [--profile-json=FILE]\n"
      "                (--width=64, or SATPG_FORCE_SCALAR=1 in the"
      " environment, pins the scalar kernel)\n"
      "  satpg retime  in.bench out.bench [--dffs=N]\n"
      "  satpg scan    in.bench out.bench [--partial]\n"
      "  satpg archive <report.json>... [--dir=DIR]\n"
      "  satpg archive --list [--dir=DIR]\n"
      "  satpg diff    <a> <b> [--dir=DIR] [--top=N]"
      "   (a/b: file path or archive hash)\n"
      "  satpg inspect <src> [--fault=NAME|INDEX] [--top=N] [--memory]"
      " [--format=txt|json] [--dir=DIR]\n"
      "  satpg inspect --profile <profile.json> [--format=txt|json]"
      " [--dir=DIR]\n"
      "  satpg inspect --trend [--format=txt|json] [--dir=DIR]"
      "   (whole archive, append order)\n"
      "                (src: events-json log, report file, or archive"
      " hash)\n"
      "  satpg replay  capture.json [--circuit=FILE] [--dump]\n"
      "exit codes: 0 ok, 1 failure/replay-mismatch, 2 usage\n"
      "`satpg --version` (any position) prints build provenance and"
      " exits 0\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

// A malformed flag value: one diagnostic line, then usage (exit 2).
int bad_value(const char* flag, const char* value) {
  std::fprintf(stderr, "error: bad value %s%s\n", flag, value);
  return usage();
}

// limit * factor, saturating where the product leaves uint64_t's range.
std::uint64_t scale_limit(std::uint64_t limit, double factor) {
  const double v = static_cast<double>(limit) * factor;
  return v >= 0x1p64 ? std::numeric_limits<std::uint64_t>::max()
                      : static_cast<std::uint64_t>(v);
}

Netlist load(const std::string& path) {
  Netlist nl = read_bench_file(path);
  annotate_library(nl);
  return nl;
}

const char* flag_value(const char* arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

int cmd_info(const Netlist& nl) {
  std::printf("circuit  : %s\n", nl.name().c_str());
  std::printf("inputs   : %zu\n", nl.num_inputs());
  std::printf("outputs  : %zu\n", nl.num_outputs());
  std::printf("gates    : %zu\n", nl.num_gates());
  std::printf("flipflops: %zu\n", nl.num_dffs());
  std::printf("area     : %.1f\n", nl.total_area());
  std::printf("delay    : %.2f\n", critical_path_delay(nl));
  return 0;
}

int cmd_analyze(const Netlist& nl) {
  cmd_info(nl);
  const auto depth = max_sequential_depth(nl);
  std::printf("max sequential depth: %d%s\n", depth.max_depth,
              depth.saturated ? " (lower bound)" : "");
  const auto cycles = count_cycles(nl);
  std::printf("cycle census        : %d cycles, max length %d%s\n",
              cycles.num_cycles, cycles.max_cycle_length,
              cycles.saturated ? " (lower bounds)" : "");
  const auto reach = compute_reachable(nl);
  std::printf("valid states        : %.0f of %.6g\n", reach.num_valid,
              reach.total_states);
  std::printf("density of encoding : %.3g\n", reach.density);
  return 0;
}

int cmd_faults(const Netlist& nl) {
  const auto all = enumerate_faults(nl);
  const auto collapsed = collapse_faults(nl);
  std::printf("fault universe : %zu stuck-at faults\n", all.size());
  std::printf("collapsed      : %zu equivalence classes\n", collapsed.size());
  return 0;
}

int cmd_atpg(const Netlist& nl, const std::string& circuit_path, int argc,
             char** argv) {
  ParallelAtpgOptions popts;
  AtpgRunOptions& opts = popts.run;
  std::string tests_file;
  std::string capture_file;
  TelemetryFlags telemetry;
  bool do_compact = false;
  for (int i = 0; i < argc; ++i) {
    if (telemetry.parse(argv[i])) {
      continue;
    }
    if (const char* v = flag_value(argv[i], "--engine=")) {
      if (!std::strcmp(v, "hitec"))
        opts.engine.kind = EngineKind::kHitec;
      else if (!std::strcmp(v, "forward"))
        opts.engine.kind = EngineKind::kForward;
      else if (!std::strcmp(v, "learning"))
        opts.engine.kind = EngineKind::kLearning;
      else if (!std::strcmp(v, "cdcl"))
        opts.engine.kind = EngineKind::kCdcl;
      else
        return usage();
    } else if (!std::strcmp(argv[i], "--no-shared-learning")) {
      opts.engine.share_learning = false;
    } else if (const char* v2 = flag_value(argv[i], "--budget=")) {
      double f = 0.0;
      if (!parse_positive_double(v2, &f)) return bad_value("--budget=", v2);
      opts.engine.eval_limit = scale_limit(opts.engine.eval_limit, f);
      opts.engine.backtrack_limit =
          scale_limit(opts.engine.backtrack_limit, f);
    } else if (const char* v3 = flag_value(argv[i], "--seed=")) {
      if (!parse_u64(v3, &opts.seed)) return bad_value("--seed=", v3);
    } else if (!std::strcmp(argv[i], "--strict")) {
      opts.count_potential_detections = false;
    } else if (const char* v4 = flag_value(argv[i], "--tests=")) {
      tests_file = v4;
    } else if (!std::strcmp(argv[i], "--compact")) {
      do_compact = true;
    } else if (const char* v5 = flag_value(argv[i], "--threads=")) {
      if (!parse_count(v5, &popts.num_threads))
        return bad_value("--threads=", v5);
    } else if (const char* v6 = flag_value(argv[i], "--deadline-ms=")) {
      if (!parse_positive_u64(v6, &popts.deadline_ms))
        return bad_value("--deadline-ms=", v6);
    } else if (const char* v7 = flag_value(argv[i], "--stuck-evals=")) {
      if (!parse_positive_u64(v7, &popts.watchdog.stuck_evals))
        return bad_value("--stuck-evals=", v7);
    } else if (const char* vm = flag_value(argv[i], "--mem-budget-mb=")) {
      // Fractional MB are legal: small circuits trip at sub-MB footprints.
      double mb = 0.0;
      if (!parse_positive_double(vm, &mb))
        return bad_value("--mem-budget-mb=", vm);
      popts.mem_budget_bytes =
          static_cast<std::uint64_t>(mb * 1024.0 * 1024.0);
    } else if (const char* v8 = flag_value(argv[i], "--stuck-seconds=")) {
      if (!parse_positive_double(v8, &popts.watchdog.stuck_seconds))
        return bad_value("--stuck-seconds=", v8);
    } else if (!std::strcmp(argv[i], "--defer-stuck")) {
      popts.watchdog.defer = true;
    } else if (const char* v9 = flag_value(argv[i], "--capture-json=")) {
      capture_file = v9;
    } else if (const char* v10 = flag_value(argv[i], "--capture-fault=")) {
      popts.capture.fault = v10;
    } else {
      return usage();
    }
  }
  if (!telemetry.error.empty()) {
    std::fprintf(stderr, "error: bad value %s\n", telemetry.error.c_str());
    return usage();
  }
  if (popts.watchdog.defer && !popts.watchdog.enabled()) {
    std::fprintf(stderr, "--defer-stuck requires --stuck-evals=N\n");
    return 2;
  }
  // Only CDCL can run without the cross-worker cube cache; on any other
  // engine the flag would be reported but change nothing.
  if (!opts.engine.share_learning && opts.engine.kind != EngineKind::kCdcl) {
    std::fprintf(stderr, "--no-shared-learning requires --engine=cdcl\n");
    return 2;
  }
  std::ptrdiff_t capture_idx = -1;
  std::string capture_name;
  if (!popts.capture.fault.empty()) {
    const auto collapsed = collapse_faults(nl);
    capture_idx = resolve_capture_fault(nl, collapsed, popts.capture.fault);
    if (capture_idx < 0) {
      std::fprintf(stderr,
                   "error: --capture-fault: no collapsed fault named or "
                   "indexed \"%s\" (%zu collapsed faults)\n",
                   popts.capture.fault.c_str(), collapsed.size());
      return 2;
    }
    capture_name = fault_name(
        nl, collapsed[static_cast<std::size_t>(capture_idx)].representative);
    if (capture_file.empty()) capture_file = "satpg_capture.json";
  }
  popts.capture.armed = !capture_file.empty();
  popts.monitor = telemetry.monitor_options();
  popts.record_events = telemetry.events_enabled();
  telemetry.arm();
  ParallelAtpgResult pres = run_parallel_atpg(nl, popts);
  if (!telemetry.finish_trace(&std::cout)) return 1;
  // End-of-run telemetry accounting goes to stderr: both numbers are
  // wall-clock shaped (sample cadence, buffer pressure), so they must stay
  // out of every deterministic artifact.
  if (telemetry.monitor_enabled() || telemetry.trace_enabled())
    std::fprintf(stderr,
                 "telemetry        : %llu heartbeat samples, "
                 "%zu trace events dropped\n",
                 static_cast<unsigned long long>(pres.heartbeat_samples),
                 TraceRecorder::global().num_dropped());
  if (telemetry.events_enabled()) {
    if (!write_events_json(telemetry.events_json, nl, popts, pres)) {
      std::fprintf(stderr, "cannot write %s\n", telemetry.events_json.c_str());
      return 1;
    }
    std::printf("events written   : %s\n", telemetry.events_json.c_str());
  }
  if (popts.capture.armed) {
    if (pres.capture) {
      pres.capture->circuit_path = circuit_path;
      if (!write_capture_json(capture_file, *pres.capture)) {
        std::fprintf(stderr, "cannot write %s\n", capture_file.c_str());
        return 1;
      }
      std::printf("capture written  : %s (%s, %s)\n", capture_file.c_str(),
                  pres.capture->fault.c_str(), pres.capture->reason.c_str());
    } else if (capture_idx >= 0 &&
               !pres.attempted[static_cast<std::size_t>(capture_idx)]) {
      // The named fault never reached a search: fault simulation dropped
      // it first, or the budget ran out before its turn.
      const bool detected =
          pres.status[static_cast<std::size_t>(capture_idx)] ==
          FaultStatus::kDetected;
      std::printf("capture armed    : %s never searched (%snothing written)\n",
                  capture_name.c_str(),
                  detected ? "detected by fault simulation; " : "");
    } else {
      std::printf("capture armed    : no trigger (nothing written)\n");
    }
  }
  if (telemetry.metrics_enabled()) {
    // atpg has a richer schema than the generic registry dump: the full
    // satpg.atpg_run.v6 report (harness/report). Freeze both registries
    // first so writing the report cannot perturb what it reports.
    set_metrics_enabled(false);
    set_memstats_enabled(false);
    if (!write_atpg_report_json(telemetry.metrics_json, nl, popts, pres)) {
      std::fprintf(stderr, "cannot write %s\n",
                   telemetry.metrics_json.c_str());
      return 1;
    }
    std::printf("metrics written  : %s\n", telemetry.metrics_json.c_str());
  }
  if (telemetry.profile_enabled()) {
    // Stop before snapshotting so the sidecar sees a frozen wall clock;
    // the profile lives entirely on the wall-clock plane and never feeds
    // back into the deterministic artifacts above.
    Profiler::global().stop();
    ProfileArtifact pa;
    pa.tool = "atpg";
    pa.circuit = nl.name();
    pa.engine_kind = engine_kind_name(opts.engine.kind);
    pa.eval_limit = opts.engine.eval_limit;
    pa.backtrack_limit = opts.engine.backtrack_limit;
    pa.max_forward_frames =
        static_cast<std::uint64_t>(opts.engine.max_forward_frames);
    pa.max_backward_frames =
        static_cast<std::uint64_t>(opts.engine.max_backward_frames);
    pa.seed = opts.seed;
    pa.evals = pres.run.evals;
    pa.snap = Profiler::global().snapshot();
    if (!write_profile_json(telemetry.profile_json, pa)) return 1;
    std::printf("profile written  : %s (backend %s)\n",
                telemetry.profile_json.c_str(),
                prof_backend_name(pa.snap.backend));
  }
  AtpgRunResult& run = pres.run;
  std::printf("engine           : %s\n", engine_kind_name(opts.engine.kind));
  std::printf("fault coverage   : %.2f%%\n", run.fault_coverage);
  std::printf("fault efficiency : %.2f%%\n", run.fault_efficiency);
  std::printf("faults           : %zu total, %zu detected, %zu redundant, "
              "%zu aborted\n",
              run.total_faults, run.detected, run.redundant, run.aborted);
  std::printf("work             : %llu evals, %llu backtracks, %.1f s\n",
              static_cast<unsigned long long>(run.evals),
              static_cast<unsigned long long>(run.backtracks),
              run.wall_seconds);
  if (opts.engine.kind == EngineKind::kCdcl)
    std::printf("cdcl             : %llu conflicts, %llu propagations, "
                "%llu restarts, %llu cube exports\n",
                static_cast<unsigned long long>(run.conflicts),
                static_cast<unsigned long long>(run.propagations),
                static_cast<unsigned long long>(run.restarts),
                static_cast<unsigned long long>(run.cube_exports));
  std::printf("test sequences   : %zu\n", run.tests.size());
  std::printf("states traversed : %zu\n", run.states_traversed.size());
  if (pres.aborted_by_deadline > 0)
    std::printf("deadline aborts  : %zu faults\n", pres.aborted_by_deadline);
  if (popts.watchdog.enabled())
    std::printf("watchdog         : %zu stuck faults, %zu requeued\n",
                pres.stuck_faults.size(), pres.deferred_requeued);
  if (popts.mem_budget_bytes != 0)
    std::printf("memory budget    : %llu bytes, %zu tripped, %zu requeued\n",
                static_cast<unsigned long long>(pres.mem_budget_bytes),
                pres.mem_tripped, pres.mem_requeued);
  if (do_compact) {
    const auto c = compact_tests(nl, run.tests);
    std::printf("compacted        : %zu -> %zu sequences\n", c.before,
                c.after);
    run.tests = c.tests;
  }
  if (!tests_file.empty()) {
    std::ofstream os(tests_file);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", tests_file.c_str());
      return 1;
    }
    os << "# test sequences for " << nl.name() << "\n# inputs:";
    for (NodeId pi : nl.inputs()) os << ' ' << nl.node(pi).name;
    os << "\n";
    for (std::size_t s = 0; s < run.tests.size(); ++s) {
      os << "sequence " << s << "\n";
      for (const auto& vec : run.tests[s]) {
        for (V3 v : vec) os << v3_char(v);
        os << "\n";
      }
    }
    std::printf("tests written    : %s\n", tests_file.c_str());
  }
  return 0;
}

int cmd_replay(int argc, char** argv) {
  std::string capture_path;
  std::string circuit_path;
  bool dump = false;
  for (int i = 0; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--circuit=")) {
      circuit_path = v;
    } else if (!std::strcmp(argv[i], "--dump")) {
      dump = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (capture_path.empty()) {
      capture_path = argv[i];
    } else {
      return usage();
    }
  }
  if (capture_path.empty()) return usage();
  SearchCapture cap;
  std::string err;
  if (!parse_capture_json(capture_path, &cap, &err)) {
    std::fprintf(stderr, "error: %s: %s\n", capture_path.c_str(),
                 err.c_str());
    return 1;
  }
  if (circuit_path.empty()) circuit_path = cap.circuit_path;
  if (circuit_path.empty()) {
    std::fprintf(stderr,
                 "error: capture has no circuit_path; pass --circuit=FILE\n");
    return 1;
  }
  const Netlist nl = load(circuit_path);
  std::printf("capture          : %s (%s, reason %s, %llu events)\n",
              capture_path.c_str(), cap.fault.c_str(), cap.reason.c_str(),
              static_cast<unsigned long long>(cap.ring_total));
  const ReplayResult res = replay_capture(nl, cap);
  if (dump) {
    const std::size_t kept =
        std::min<std::size_t>(cap.events.size(), res.events.size());
    const std::size_t base =
        cap.ring_total - std::min<std::uint64_t>(cap.ring_total,
                                                 cap.ring_capacity);
    for (std::size_t i = 0; i < res.events.size(); ++i) {
      const DecisionEvent& e = res.events[i];
      const bool matches = i < kept && e == cap.events[i];
      std::printf("  [%zu] %s frame=%d node=%d value=%u aux=%llu%s\n",
                  base + i, decision_event_code(e.kind), e.frame, e.node,
                  static_cast<unsigned>(e.value),
                  static_cast<unsigned long long>(e.aux),
                  matches ? "" : "   <- differs from capture");
    }
  }
  std::printf("replay           : %s\n", res.message.c_str());
  return res.ok ? 0 : 1;
}

int cmd_fsim(const Netlist& nl, int argc, char** argv) {
  int sequences = 32;
  int length = 64;
  std::uint64_t seed = 1;
  FsimOptions fopts;
  TelemetryFlags telemetry;
  for (int i = 0; i < argc; ++i) {
    if (telemetry.parse(argv[i])) {
      continue;
    }
    if (const char* v = flag_value(argv[i], "--sequences=")) {
      if (!parse_count(v, &sequences)) return bad_value("--sequences=", v);
    } else if (const char* v2 = flag_value(argv[i], "--length=")) {
      if (!parse_count(v2, &length)) return bad_value("--length=", v2);
    } else if (const char* v3 = flag_value(argv[i], "--seed=")) {
      if (!parse_u64(v3, &seed)) return bad_value("--seed=", v3);
    } else if (const char* v4 = flag_value(argv[i], "--threads=")) {
      if (!parse_count(v4, &fopts.num_threads))
        return bad_value("--threads=", v4);
    } else if (const char* v5 = flag_value(argv[i], "--engine=")) {
      if (std::strcmp(v5, "baseline") == 0) {
        fopts.engine = FsimEngine::kBaseline64;
      } else if (std::strcmp(v5, "wide") == 0) {
        fopts.engine = FsimEngine::kWide;
      } else {
        std::fprintf(stderr, "error: unknown --engine=%s\n", v5);
        return 2;
      }
    } else if (const char* v6 = flag_value(argv[i], "--width=")) {
      unsigned width = 0;
      SimdTier tier;
      if (!parse_count(v6, &width) || !simd_tier_from_width(width, &tier))
        return bad_value("--width=", v6);
      if (!fsim_wide_tier_usable(tier)) {
        std::fprintf(stderr,
                     "error: --width=%s kernel is not available on this "
                     "machine/build\n",
                     v6);
        return 1;
      }
      fopts.simd = tier;
    } else {
      return usage();
    }
  }
  if (!telemetry.error.empty()) {
    std::fprintf(stderr, "error: bad value %s\n", telemetry.error.c_str());
    return usage();
  }
  if (telemetry.monitor_enabled())
    std::fprintf(stderr,
                 "note: --heartbeat-json/--progress are wired in `satpg atpg`"
                 " only; ignored here\n");
  const auto collapsed = collapse_faults(nl);
  std::vector<Fault> faults;
  faults.reserve(collapsed.size());
  for (const auto& c : collapsed) faults.push_back(c.representative);
  const auto seqs = make_random_sequences(nl, sequences, length, seed);

  telemetry.arm();
  const FsimResult r = run_fault_simulation(nl, faults, seqs, fopts);
  if (!telemetry.finish_trace(&std::cout)) return 1;
  if (!telemetry.write_metrics_registry("satpg.metrics.v1", "fsim",
                                        &std::cout))
    return 1;
  if (telemetry.profile_enabled()) {
    Profiler::global().stop();
    ProfileArtifact pa;
    pa.tool = "fsim";
    pa.circuit = nl.name();
    pa.seed = seed;
    // One pattern = one simulated frame across all sequences: the unit the
    // per-tier cycles_per_pattern rates divide by.
    pa.patterns = static_cast<std::uint64_t>(sequences) *
                  static_cast<std::uint64_t>(length);
    pa.snap = Profiler::global().snapshot();
    if (!write_profile_json(telemetry.profile_json, pa)) return 1;
    std::printf("profile written  : %s (backend %s)\n",
                telemetry.profile_json.c_str(),
                prof_backend_name(pa.snap.backend));
  }

  const auto [detected_weight, total_weight] =
      graded_coverage(collapsed, r.detected_at);
  std::printf("engine           : %s\n",
              fopts.engine == FsimEngine::kWide
                  ? (std::string("wide/") +
                     simd_tier_name(fsim_wide_resolve_tier(fopts.simd)))
                        .c_str()
                  : "baseline64");
  std::printf("sequences        : %d x %d cycles (seed %llu)\n", sequences,
              length, static_cast<unsigned long long>(seed));
  std::printf("faults           : %zu collapsed classes (%zu weighted)\n",
              collapsed.size(), total_weight);
  std::printf("detected         : %zu classes (%zu weighted)\n",
              r.num_detected, detected_weight);
  std::printf("fault coverage   : %.2f%%\n",
              total_weight == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(detected_weight) /
                        static_cast<double>(total_weight));
  std::printf("states traversed : %zu\n", r.good_states.size());
  // Which faults were detected, not only how many: FNV-1a 64 over one
  // "<detected_at> <potential_at>\n" line per collapsed fault, in order.
  std::string per_fault;
  for (std::size_t i = 0; i < r.detected_at.size(); ++i)
    per_fault += std::to_string(r.detected_at[i]) + ' ' +
                 std::to_string(r.potential_at[i]) + '\n';
  std::printf("per-fault digest : %s\n", fnv1a64_hex(per_fault).c_str());
  return 0;
}

int cmd_archive(int argc, char** argv) {
  std::string dir = "runs";
  bool do_list = false;
  std::vector<std::string> files;
  for (int i = 0; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--dir=")) {
      dir = v;
    } else if (!std::strcmp(argv[i], "--list")) {
      do_list = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (!do_list && files.empty()) return usage();
  RunArchive archive(dir);
  for (const std::string& f : files) {
    const std::string text = load_report_spec(archive, f);
    ArchiveEntry e;
    try {
      e = archive.add(text);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s: %s\n", f.c_str(), ex.what());
      return is_stale_atpg_run_report(text) ? 2 : 1;
    }
    std::printf("archived %s  %s %s (config %s)\n", e.hash.c_str(),
                e.circuit.c_str(), e.engine.c_str(), e.config_digest.c_str());
  }
  if (do_list) {
    const auto entries = archive.list();
    if (entries.empty()) {
      std::printf("archive %s/ is empty\n", archive.dir().c_str());
      return 0;
    }
    std::printf("%-16s  %-18s  %-16s  %-8s  %s\n", "hash", "schema",
                "circuit", "engine", "config");
    for (const ArchiveEntry& e : entries)
      std::printf("%-16s  %-18s  %-16s  %-8s  %s\n", e.hash.c_str(),
                  e.schema.c_str(), e.circuit.c_str(), e.engine.c_str(),
                  e.config_digest.c_str());
  }
  return 0;
}

int cmd_diff(int argc, char** argv) {
  std::string dir = "runs";
  DiffOptions dopts;
  std::vector<std::string> specs;
  for (int i = 0; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--dir=")) {
      dir = v;
    } else if (const char* v2 = flag_value(argv[i], "--top=")) {
      if (!parse_count(v2, &dopts.top)) return bad_value("--top=", v2);
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      specs.emplace_back(argv[i]);
    }
  }
  if (specs.size() != 2) return usage();
  const RunArchive archive(dir);
  RunReport reports[2];
  for (int k = 0; k < 2; ++k) {
    const std::string text = load_report_spec(archive, specs[k]);
    std::string err;
    if (!parse_run_report(text, &reports[k], &err)) {
      std::fprintf(stderr, "error: %s: %s\n", specs[k].c_str(), err.c_str());
      return is_stale_atpg_run_report(text) ? 2 : 1;
    }
  }
  const RunReport& a = reports[0];
  const RunReport& b = reports[1];
  const RunDiff d = diff_runs(a, b, dopts);
  write_run_diff(std::cout, a, b, d);
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  std::string dir = "runs";
  InspectOptions iopts;
  bool do_trend = false;
  std::vector<std::string> specs;
  for (int i = 0; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--dir=")) {
      dir = v;
    } else if (const char* v2 = flag_value(argv[i], "--fault=")) {
      iopts.fault = v2;
    } else if (const char* v3 = flag_value(argv[i], "--top=")) {
      if (!parse_count(v3, &iopts.top)) return bad_value("--top=", v3);
    } else if (const char* v4 = flag_value(argv[i], "--format=")) {
      if (!std::strcmp(v4, "json"))
        iopts.json = true;
      else if (std::strcmp(v4, "txt") != 0)
        return usage();
    } else if (!std::strcmp(argv[i], "--memory")) {
      iopts.memory = true;
    } else if (!std::strcmp(argv[i], "--profile")) {
      iopts.profile = true;
    } else if (!std::strcmp(argv[i], "--trend")) {
      do_trend = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      specs.emplace_back(argv[i]);
    }
  }
  if (do_trend && iopts.profile) return usage();
  if (specs.size() != (do_trend ? 0u : 1u)) return usage();
  const RunArchive archive(dir);
  std::string err;
  bool ok = false;
  bool stale = false;  // an input is an older atpg_run schema: exit 2
  try {
    if (do_trend) {
      // The whole archive in append order; inspect joins profile sidecars
      // to their reports by configuration.
      std::vector<TrendEntry> entries;
      for (const ArchiveEntry& e : archive.list()) {
        entries.push_back({e.hash, archive.load(e)});
        stale = stale || is_stale_atpg_run_report(entries.back().text);
      }
      ok = inspect_trend(std::cout, entries, iopts, &err);
    } else {
      const std::string text = load_report_spec(archive, specs[0]);
      stale = is_stale_atpg_run_report(text);
      ok = inspect_source(std::cout, text, iopts, &err);
    }
  } catch (const std::exception& e) {
    err = e.what();
  }
  if (!ok) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return stale ? 2 : 1;
  }
  return 0;
}

int cmd_retime(const Netlist& nl, const std::string& out_path, int argc,
               char** argv) {
  std::uint64_t dffs = 0;  // 0 = min-period retiming
  for (int i = 0; i < argc; ++i) {
    if (const char* v = flag_value(argv[i], "--dffs=")) {
      if (!parse_positive_u64(v, &dffs)) return bad_value("--dffs=", v);
    } else {
      return usage();
    }
  }
  const RetimeResult r =
      dffs > 0 ? retime_to_dff_target(nl, dffs, nl.name() + ".re")
               : retime_min_period(nl, nl.name() + ".re");
  std::printf("period: %.2f -> %.2f, flip-flops: %zu -> %zu\n",
              r.period_before, r.period_after, nl.num_dffs(),
              r.netlist.num_dffs());
  std::ofstream os(out_path);
  if (!os) return 1;
  write_bench(r.netlist, os);
  std::printf("written: %s\n", out_path.c_str());
  return 0;
}

int cmd_scan(const Netlist& nl, const std::string& out_path, bool partial) {
  const ScanResult r = partial
                           ? insert_partial_scan(
                                 nl, select_cycle_breaking_ffs(nl))
                           : insert_full_scan(nl);
  std::printf("scanned %zu of %zu flip-flops\n", r.chain.size(),
              nl.num_dffs());
  std::ofstream os(out_path);
  if (!os) return 1;
  write_bench(r.netlist, os);
  std::printf("written: %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help")) {
      print_usage(stdout);
      return 0;
    }
    if (!std::strcmp(argv[i], "--version")) {
      // Build provenance (DESIGN.md §11) plus the host CPU: everything
      // needed to label a measurement taken with this binary.
      const BuildInfo& b = build_info();
      std::printf("satpg (%s %s, %s, sanitizer %s)\n", b.compiler.c_str(),
                  b.compiler_version.c_str(), b.build_type.c_str(),
                  b.sanitizer.c_str());
      std::printf("simd     : compiled %s, dispatched %s\n",
                  b.simd_compiled.c_str(), b.simd_dispatched.c_str());
      std::printf("host cpu : %s\n", cpu_model_name().c_str());
      return 0;
    }
  }
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "info") return cmd_info(load(argv[2]));
    if (cmd == "analyze") return cmd_analyze(load(argv[2]));
    if (cmd == "faults") return cmd_faults(load(argv[2]));
    if (cmd == "atpg")
      return cmd_atpg(load(argv[2]), argv[2], argc - 3, argv + 3);
    if (cmd == "fsim") return cmd_fsim(load(argv[2]), argc - 3, argv + 3);
    if (cmd == "archive") return cmd_archive(argc - 2, argv + 2);
    if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
    if (cmd == "inspect") return cmd_inspect(argc - 2, argv + 2);
    if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
    if (cmd == "retime") {
      if (argc < 4) return usage();
      return cmd_retime(load(argv[2]), argv[3], argc - 4, argv + 4);
    }
    if (cmd == "scan") {
      if (argc < 4) return usage();
      const bool partial = argc > 4 && !std::strcmp(argv[4], "--partial");
      return cmd_scan(load(argv[2]), argv[3], partial);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
