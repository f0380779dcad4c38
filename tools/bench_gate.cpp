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
// --profile mode is purely advisory: it reads a satpg.profile.* sidecar
// (--profile-json output), prints the backend and the ranked per-phase
// cost table plus cycles/eval, and exits 0 for any well-formed sidecar
// (2 when malformed). There is no threshold — cycle counts on shared
// runners are for reading trends, not for gating merges.
//
// Exit codes: 0 = pass, 1 = threshold violated, 2 = usage/load error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.h"
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
               "       bench_gate --profile <profile.json>   (advisory,"
               " always 0 when well-formed)\n"
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

// --profile mode: advisory where-do-the-cycles-go report off a
// satpg.profile.* sidecar. No thresholds; exit 0 iff well-formed.
int run_profile_report(const std::string& path) {
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
  const std::string schema = doc.str_or("schema", "");
  if (schema.rfind("satpg.profile.", 0) != 0) {
    std::fprintf(stderr, "error: %s: not a profile sidecar (schema \"%s\")\n",
                 path.c_str(), schema.c_str());
    return 2;
  }
  const JsonValue* phases = doc.find("phases");
  if (!phases || !phases->is_object()) {
    std::fprintf(stderr, "error: %s: missing phases{}\n", path.c_str());
    return 2;
  }

  std::string circuit = "?";
  if (const JsonValue* c = doc.find("circuit"))
    circuit = c->str_or("name", "?");
  std::printf("profile: %s (%s) backend=%s wall=%.6g s\n", circuit.c_str(),
              doc.str_or("tool", "?").c_str(),
              doc.str_or("backend", "?").c_str(),
              doc.num_or("wall_seconds", 0.0));

  struct Row {
    std::string name;
    std::uint64_t calls;
    std::uint64_t task_ns;
    std::uint64_t cycles;
  };
  std::vector<Row> rows;
  for (const auto& [name, v] : phases->members()) {
    const std::uint64_t calls = v.uint_or("calls", 0);
    if (calls == 0) continue;
    rows.push_back({name, calls, v.uint_or("task_clock_ns", 0),
                    v.uint_or("cycles", 0)});
  }
  // Phase rows nest (inclusive counters), so shares are of the total.
  const JsonValue* total = doc.find("total");
  const std::uint64_t total_ns =
      total ? total->uint_or("task_clock_ns", 0) : 0;
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.task_ns != b.task_ns) return a.task_ns > b.task_ns;
    return a.name < b.name;
  });
  std::printf("  %-26s %10s %12s %7s %16s\n", "phase", "calls", "task ms",
              "share", "cycles");
  for (const Row& r : rows)
    std::printf("  %-26s %10llu %12.3f %6.1f%% %16llu\n", r.name.c_str(),
                static_cast<unsigned long long>(r.calls),
                static_cast<double>(r.task_ns) / 1e6,
                total_ns == 0 ? 0.0
                              : 100.0 * static_cast<double>(r.task_ns) /
                                    static_cast<double>(total_ns),
                static_cast<unsigned long long>(r.cycles));
  if (const JsonValue* d = doc.find("derived"); d && d->is_object())
    for (const auto& [name, v] : d->members())
      if (v.is_number())
        std::printf("  derived %-32s %.6g\n", name.c_str(), v.number());
  std::printf("advisory: no thresholds (cycle counts on shared runners"
              " are for trends, not gates)\nPASS\n");
  return 0;
}

// Internal consistency: cube_provenance.exports must mirror the summary
// cube_exports counter. Returns false and appends a violation line on
// mismatch.
bool check_provenance(const std::string& label, const std::string& text,
                      std::vector<std::string>* violations) {
  JsonValue doc;
  if (!json_parse(text, &doc)) return true;  // parse errors caught earlier
  const JsonValue* prov = doc.find("cube_provenance");
  if (prov == nullptr) return true;
  // Defer-requeue runs legitimately diverge: a parked fault's first
  // attempt adds to the summary counters while per_fault (and with it the
  // provenance rollup) keeps only the requeued attempt.
  if (const JsonValue* wd = doc.find("watchdog");
      wd && wd->bool_or("defer", false))
    return true;
  const JsonValue* summary = doc.find("summary");
  const std::uint64_t prov_exports = prov->uint_or("exports", 0);
  const std::uint64_t summary_exports =
      summary ? summary->uint_or("cube_exports", 0) : 0;
  if (prov_exports == summary_exports) return true;
  violations->push_back(
      label + ": cube_provenance.exports " + std::to_string(prov_exports) +
      " != summary cube_exports " + std::to_string(summary_exports));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = "runs";
  GateOptions gopts;
  std::string fsim_path;
  std::string profile_path;
  double min_fsim_speedup = 2.0;
  bool fsim_mode = false;
  bool profile_mode = false;
  bool mem_gate = false;
  double max_mem_ratio = 1.25;
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fsim") == 0) {
      if (i + 1 >= argc) return usage();
      fsim_mode = true;
      fsim_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      if (i + 1 >= argc) return usage();
      profile_mode = true;
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--mem") == 0) {
      mem_gate = true;
    } else if (const char* v5 = flag_value(argv[i], "--max-mem-ratio=")) {
      max_mem_ratio = std::atof(v5);
    } else if (const char* v4 = flag_value(argv[i], "--min-fsim-speedup=")) {
      min_fsim_speedup = std::atof(v4);
    } else if (const char* v = flag_value(argv[i], "--max-coverage-drop=")) {
      gopts.max_coverage_drop = std::atof(v);
    } else if (const char* v2 = flag_value(argv[i], "--max-effort-ratio=")) {
      gopts.max_effort_ratio = std::atof(v2);
    } else if (const char* v3 = flag_value(argv[i], "--dir=")) {
      dir = v3;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      specs.emplace_back(argv[i]);
    }
  }
  if (fsim_mode && profile_mode) return usage();
  if (fsim_mode) {
    if (!specs.empty()) return usage();
    return run_fsim_gate(fsim_path, min_fsim_speedup);
  }
  if (profile_mode) {
    if (!specs.empty()) return usage();
    return run_profile_report(profile_path);
  }
  if (specs.size() != 2) return usage();

  RunReport baseline, candidate;
  std::string baseline_text, candidate_text;
  try {
    const RunArchive archive(dir);
    std::string err;
    baseline_text = load_report_spec(archive, specs[0]);
    if (!parse_run_report(baseline_text, &baseline, &err)) {
      std::fprintf(stderr, "error: %s: %s\n", specs[0].c_str(), err.c_str());
      return 2;
    }
    candidate_text = load_report_spec(archive, specs[1]);
    if (!parse_run_report(candidate_text, &candidate, &err)) {
      std::fprintf(stderr, "error: %s: %s\n", specs[1].c_str(), err.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const RunDiff d = diff_runs(baseline, candidate);
  write_run_diff(std::cout, baseline, candidate, d);

  GateResult gate = evaluate_gate(baseline, candidate, gopts);
  if (!check_provenance("baseline", baseline_text, &gate.violations))
    gate.pass = false;
  if (!check_provenance("candidate", candidate_text, &gate.violations))
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
