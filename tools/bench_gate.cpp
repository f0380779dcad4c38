// bench_gate — CI regression gate over two atpg_run reports.
//
//   bench_gate <baseline> <candidate> [--max-coverage-drop=F]
//              [--max-effort-ratio=F] [--mem] [--max-mem-ratio=F]
//              [--dir=DIR]
//   bench_gate --fsim <BENCH_fsim.json> [--min-fsim-speedup=F]
//
// <baseline>/<candidate> are report file paths or archive hash prefixes
// (resolved against --dir, default "runs"); both must carry schema
// satpg.atpg_run.v6 — any other schema exits 2 with a one-line diagnostic.
// Prints the full deterministic diff, then PASS or FAIL with one line per
// violated threshold. Each report also gets an internal-consistency
// check: the cube_provenance block's exports total must equal the summary
// cube_exports counter (a mismatch means the provenance plumbing dropped
// or double-counted an export).
//
// --mem adds a memory check over the memory block totals: the
// candidate's accounted peak bytes must stay within --max-mem-ratio
// (default 1.25x) of the baseline's. Skipped with a note when either
// side reports zero peak bytes (a run with memstats disarmed) — absence
// of accounting is not evidence of regression.
// Wired non-blocking in CI, like --fsim: logical-byte footprints are
// deterministic, but budget tuning belongs to a human.
//
// --fsim mode reads the packed-vs-baseline table the microbench writes
// (schema satpg.bench_fsim.v3), prints it, and passes iff the engines
// agreed on detection counts and the best wide row reached the speedup
// floor (default 2.0x over the 64-slot baseline). Wired non-blocking in
// CI: wall-clock on shared runners is advisory, determinism is not.
//
// Thresholds are strict: each must be a finite decimal, the coverage drop
// >= 0 and the three ratios > 0; anything else exits 2. A zero-eval
// baseline makes any candidate effort an infinite ratio, which fails.
//
// Exit codes: 0 = pass, 1 = threshold violated, 2 = usage/load error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/telemetry_flags.h"
#include "harness/archive.h"
#include "harness/diff.h"

using namespace satpg;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_gate <baseline> <candidate>"
               " [--max-coverage-drop=F] [--max-effort-ratio=F]"
               " [--mem] [--max-mem-ratio=F] [--dir=DIR]\n"
               "       bench_gate --fsim <BENCH_fsim.json>"
               " [--min-fsim-speedup=F]\n"
               "  baseline/candidate: report file path or archive hash\n");
  return 2;
}

const char* flag_value(const char* arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

// --fsim mode: gate on the microbench's packed-vs-baseline table.
int run_fsim_gate(const std::string& path, double min_speedup) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << is.rdbuf();

  JsonValue doc;
  std::string err;
  if (!json_parse(ss.str(), &doc, &err)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  const JsonValue* rows = doc.find("rows");
  if (!rows || !rows->is_array() || rows->array().empty()) {
    std::fprintf(stderr, "error: %s: missing rows[]\n", path.c_str());
    return 2;
  }

  std::printf("fsim bench: %s on %s (%llu faults, %llu x %llu patterns, "
              "%llu threads)\n",
              doc.str_or("bench", "?").c_str(),
              doc.str_or("circuit", "?").c_str(),
              static_cast<unsigned long long>(doc.uint_or("faults", 0)),
              static_cast<unsigned long long>(doc.uint_or("sequences", 0)),
              static_cast<unsigned long long>(
                  doc.uint_or("frames_per_sequence", 0)),
              static_cast<unsigned long long>(doc.uint_or("num_threads", 0)));
  std::printf("  %-14s %10s %16s %10s %14s\n", "engine", "seconds",
              "patterns/s", "speedup", "peak bytes");
  double best_wide_speedup = 0.0;
  for (const JsonValue& row : rows->array()) {
    const std::string engine = row.str_or("engine", "?");
    const double speedup = row.num_or("speedup_vs_baseline", 0.0);
    std::printf("  %-14s %10.4f %16.0f %9.2fx %14llu\n", engine.c_str(),
                row.num_or("seconds", 0.0),
                row.num_or("patterns_per_second", 0.0), speedup,
                static_cast<unsigned long long>(row.uint_or("peak_bytes", 0)));
    if (engine.compare(0, 5, "wide/") == 0)
      best_wide_speedup = std::max(best_wide_speedup, speedup);
  }

  bool pass = true;
  if (!doc.bool_or("deterministic", false)) {
    std::printf("VIOLATION: engines disagreed on detection counts\n");
    pass = false;
  }
  if (best_wide_speedup < min_speedup) {
    std::printf("VIOLATION: best wide speedup %.2fx below the %.2fx floor\n",
                best_wide_speedup, min_speedup);
    pass = false;
  }
  std::printf("gate threshold: wide speedup >= %.2fx over baseline64\n",
              min_speedup);
  std::printf("%s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

// Internal consistency: cube_provenance.exports must mirror the summary
// cube_exports counter. Returns false and appends a violation line on
// mismatch.
bool check_provenance(const std::string& label, const RunReport& r,
                      std::vector<std::string>* violations) {
  // Defer-requeue runs legitimately diverge: a parked fault's first
  // attempt adds to the summary counters while per_fault (and with it the
  // provenance rollup) keeps only the requeued attempt.
  if (r.watchdog_defer || r.prov_exports == r.cube_exports) return true;
  violations->push_back(label + ": cube_provenance.exports " +
                        std::to_string(r.prov_exports) +
                        " != summary cube_exports " +
                        std::to_string(r.cube_exports));
  return false;
}

// A malformed threshold value: one diagnostic line, then usage (exit 2).
int bad_value(const char* arg) {
  std::fprintf(stderr, "error: bad value %s\n", arg);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = "runs";
  GateOptions gopts;
  std::string fsim_path;
  double min_fsim_speedup = 2.0;
  bool fsim_mode = false;
  bool mem_gate = false;
  double max_mem_ratio = 1.25;
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fsim") == 0) {
      if (i + 1 >= argc) return usage();
      fsim_mode = true;
      fsim_path = argv[++i];
    } else if (std::strcmp(argv[i], "--mem") == 0) {
      mem_gate = true;
    } else if (const char* v5 = flag_value(argv[i], "--max-mem-ratio=")) {
      if (!parse_positive_double(v5, &max_mem_ratio)) return bad_value(argv[i]);
    } else if (const char* v4 = flag_value(argv[i], "--min-fsim-speedup=")) {
      if (!parse_positive_double(v4, &min_fsim_speedup))
        return bad_value(argv[i]);
    } else if (const char* v = flag_value(argv[i], "--max-coverage-drop=")) {
      if (!parse_nonnegative_double(v, &gopts.max_coverage_drop))
        return bad_value(argv[i]);
    } else if (const char* v2 = flag_value(argv[i], "--max-effort-ratio=")) {
      if (!parse_positive_double(v2, &gopts.max_effort_ratio))
        return bad_value(argv[i]);
    } else if (const char* v3 = flag_value(argv[i], "--dir=")) {
      dir = v3;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      specs.emplace_back(argv[i]);
    }
  }
  if (fsim_mode) {
    if (!specs.empty()) return usage();
    return run_fsim_gate(fsim_path, min_fsim_speedup);
  }
  if (specs.size() != 2) return usage();

  RunReport reports[2];
  try {
    const RunArchive archive(dir);
    for (int k = 0; k < 2; ++k) {
      std::string err;
      if (!parse_run_report(load_report_spec(archive, specs[k]), &reports[k],
                            &err)) {
        std::fprintf(stderr, "error: %s: %s\n", specs[k].c_str(),
                     err.c_str());
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const RunReport& baseline = reports[0];
  const RunReport& candidate = reports[1];
  const RunDiff d = diff_runs(baseline, candidate);
  write_run_diff(std::cout, baseline, candidate, d);

  GateResult gate = evaluate_gate(baseline, candidate, gopts);
  if (!check_provenance("baseline", baseline, &gate.violations))
    gate.pass = false;
  if (!check_provenance("candidate", candidate, &gate.violations))
    gate.pass = false;
  if (mem_gate) {
    if (baseline.mem_peak_bytes == 0 || candidate.mem_peak_bytes == 0) {
      std::cout << "memory gate: skipped (peak bytes unavailable on "
                << (baseline.mem_peak_bytes == 0 ? "baseline" : "candidate")
                << " — memstats disarmed)\n";
    } else {
      const double limit =
          static_cast<double>(baseline.mem_peak_bytes) * max_mem_ratio;
      if (static_cast<double>(candidate.mem_peak_bytes) > limit) {
        gate.violations.push_back(
            "peak mem bytes " + std::to_string(candidate.mem_peak_bytes) +
            " exceeds " + std::to_string(max_mem_ratio) + "x baseline " +
            std::to_string(baseline.mem_peak_bytes));
        gate.pass = false;
      }
    }
  }
  std::cout << "\ngate thresholds: coverage drop <= "
            << gopts.max_coverage_drop << " points, effort ratio <= "
            << gopts.max_effort_ratio
            << "x, cube_provenance.exports == cube_exports";
  if (mem_gate)
    std::cout << ", peak mem ratio <= " << max_mem_ratio << "x";
  std::cout << "\n";
  for (const std::string& v : gate.violations)
    std::cout << "VIOLATION: " << v << "\n";
  std::cout << (gate.pass ? "PASS" : "FAIL") << "\n";
  return gate.pass ? 0 : 1;
}
