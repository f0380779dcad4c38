// Tier-1 smoke test for the satpg CLI's telemetry flags: runs the real
// binary on a small cached MCNC circuit with --metrics-json and
// --trace-json, validates that both files are well-formed JSON, and checks
// the metrics report is byte-identical across thread counts — including
// with the live monitor (--heartbeat-json/--progress) enabled, which by
// the DESIGN.md §7 contract must not perturb the deterministic report.
// Also covers the replay round-trip (capture a watchdog-flagged search,
// re-run it, expect exit 0), the flight-recorder/--events-json and
// `satpg inspect` smoke (DESIGN.md §10), the §11 memory surface
// (--mem-budget-mb graceful degradation, inspect --memory, strict
// numeric-flag validation), the §12 cycle profiler (arming --profile-json
// must leave --metrics-json and --events-json byte-identical on the
// parent circuit and its retimed twin at 1/2/8 threads; the sidecar,
// inspect --profile, and the archive-joined inspect --trend all render
// deterministically), and the `--help`/`--version` conventions
// (stdout, exit 0, every subcommand). Paths are injected by CMake:
// SATPG_CLI_PATH is the built tool, SATPG_SMOKE_CIRCUIT a committed
// circuits_cache netlist (no FSM synthesis at test time).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.h"

namespace satpg {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// Runs `satpg <args>` redirecting stdout+stderr to files (either may be
// empty for /dev/null). Returns the exit status (-1 if the shell could
// not run it).
int run_satpg(const std::string& args, const std::string& stdout_path = "",
              const std::string& stderr_path = "") {
  std::string cmd = std::string("\"") + SATPG_CLI_PATH + "\" " + args;
  cmd += " > " + (stdout_path.empty() ? "/dev/null" : stdout_path);
  cmd += " 2> " + (stderr_path.empty() ? "/dev/null" : stderr_path);
  const int rc = std::system(cmd.c_str());
  return rc < 0 ? -1 : WEXITSTATUS(rc);
}

// Returns the CLI's exit status (-1 if the shell could not run it).
int run_cli(unsigned threads, const std::string& metrics_path,
            const std::string& trace_path, const std::string& extra = "") {
  std::string args = std::string("atpg \"") + SATPG_SMOKE_CIRCUIT +
                     "\" --budget=0.05 --threads=" + std::to_string(threads) +
                     " --metrics-json=" + metrics_path;
  if (!trace_path.empty()) args += " --trace-json=" + trace_path;
  if (!extra.empty()) args += " " + extra;
  return run_satpg(args);
}

TEST(CliSmokeTest, MetricsAndTraceJsonAreValid) {
  const std::string dir = ::testing::TempDir();
  const std::string metrics = dir + "cli_smoke_metrics.json";
  const std::string trace = dir + "cli_smoke_trace.json";
  ASSERT_EQ(run_cli(2, metrics, trace), 0);

  const std::string mjson = slurp(metrics);
  ASSERT_FALSE(mjson.empty());
  std::string err;
  EXPECT_TRUE(json_valid(mjson, &err)) << err;
  EXPECT_NE(mjson.find("\"schema\": \"satpg.atpg_run.v6\""),
            std::string::npos);
  EXPECT_NE(mjson.find("\"per_fault\""), std::string::npos);
  EXPECT_NE(mjson.find("\"metrics\""), std::string::npos);
  // v6: build provenance and the per-subsystem memory accounting block,
  // with a per-fault peak and the watchdog's budget verdict.
  EXPECT_NE(mjson.find("\"build_info\""), std::string::npos);
  EXPECT_NE(mjson.find("\"simd_dispatched\""), std::string::npos);
  EXPECT_NE(mjson.find("\"memory\""), std::string::npos);
  EXPECT_NE(mjson.find("\"subsystems\""), std::string::npos);
  EXPECT_NE(mjson.find("\"peak_bytes\""), std::string::npos);
  EXPECT_NE(mjson.find("\"verdict\": \"off\""), std::string::npos);
  // v5: the cube-sharing provenance rollup.
  EXPECT_NE(mjson.find("\"cube_provenance\""), std::string::npos);
  // v2: the invalid-state attribution block and run-level fraction.
  EXPECT_NE(mjson.find("\"attribution\""), std::string::npos);
  EXPECT_NE(mjson.find("\"effort_invalid_frac\""), std::string::npos);
  // v3: the watchdog block is always present (empty when off).
  EXPECT_NE(mjson.find("\"watchdog\""), std::string::npos);
  EXPECT_NE(mjson.find("\"stuck_faults\": []"), std::string::npos);
  // Wall-clock values must never leak into the deterministic report.
  EXPECT_EQ(mjson.find("wall"), std::string::npos);

  const std::string tjson = slurp(trace);
  ASSERT_FALSE(tjson.empty());
  EXPECT_TRUE(json_valid(tjson, &err)) << err;
  EXPECT_NE(tjson.find("\"traceEvents\""), std::string::npos);
}

TEST(CliSmokeTest, MetricsJsonIdenticalAcrossThreadCounts) {
  const std::string dir = ::testing::TempDir();
  const std::string m1 = dir + "cli_smoke_m1.json";
  const std::string m2 = dir + "cli_smoke_m2.json";
  ASSERT_EQ(run_cli(1, m1, ""), 0);
  ASSERT_EQ(run_cli(2, m2, ""), 0);
  const std::string a = slurp(m1);
  const std::string b = slurp(m2);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// The §7 contract: the monitor observes, it never steers. The report must
// be byte-identical with the monitor on or off, at any thread count.
TEST(CliSmokeTest, MonitorDoesNotPerturbMetricsJson) {
  const std::string dir = ::testing::TempDir();
  const std::string off = dir + "cli_mon_off.json";
  ASSERT_EQ(run_cli(1, off, ""), 0);
  for (unsigned threads : {1u, 8u}) {
    const std::string on =
        dir + "cli_mon_on_" + std::to_string(threads) + ".json";
    const std::string hb =
        dir + "cli_mon_hb_" + std::to_string(threads) + ".ndjson";
    ASSERT_EQ(run_cli(threads, on, "",
                      "--heartbeat-json=" + hb +
                          " --heartbeat-interval-ms=5 --progress"),
              0);
    EXPECT_EQ(slurp(off), slurp(on)) << "threads=" << threads;
  }
}

// Heartbeats are NDJSON: every line parses on its own and carries the
// schema tag; the --progress flag writes at least one line to stderr.
TEST(CliSmokeTest, HeartbeatStreamIsValidNdjson) {
  const std::string dir = ::testing::TempDir();
  const std::string hb = dir + "cli_hb.ndjson";
  const std::string progress_err = dir + "cli_hb_progress.err";
  const std::string args = std::string("atpg \"") + SATPG_SMOKE_CIRCUIT +
                           "\" --budget=0.05 --threads=2 --heartbeat-json=" +
                           hb + " --heartbeat-interval-ms=5 --progress";
  ASSERT_EQ(run_satpg(args, "", progress_err), 0);

  std::ifstream is(hb);
  std::string line, last, err;
  std::size_t lines = 0;
  std::uint64_t expect_seq = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ASSERT_TRUE(json_valid(line, &err)) << "line " << lines << ": " << err;
    EXPECT_NE(line.find("\"schema\": \"satpg.heartbeat.v2\""),
              std::string::npos);
    JsonValue v;
    ASSERT_TRUE(json_parse(line, &v, &err)) << err;
    EXPECT_EQ(v.uint_or("seq", ~0ull), expect_seq++);
    EXPECT_FALSE(v.str_or("phase", "").empty());
    last = line;
    ++lines;
  }
  // The final sample is taken synchronously at stop(), so even an
  // instant run emits at least one heartbeat, phase "done".
  ASSERT_GE(lines, 1u);
  EXPECT_NE(last.find("\"phase\": \"done\""), std::string::npos);
  // v2 memory fields: accounted live bytes plus the kernel's peak-RSS
  // reading (the one wall-side number, quarantined to the heartbeat
  // stream — it must never appear in the deterministic report).
  EXPECT_NE(last.find("\"mem_live_bytes\""), std::string::npos);
  EXPECT_NE(last.find("\"peak_rss_kb\""), std::string::npos);

  const std::string progress_text = slurp(progress_err);
  EXPECT_NE(progress_text.find("done"), std::string::npos);
  // The stderr summary reports the telemetry volume: heartbeat sample
  // count plus how many trace ring-buffer events were dropped.
  EXPECT_NE(progress_text.find("heartbeat samples"), std::string::npos);
  EXPECT_NE(progress_text.find("trace events dropped"), std::string::npos);
}

// Arm the capture on a watchdog-flagged fault, then replay it: the decision
// stream must reproduce exactly (exit 0). A corrupted capture must not
// (exit 1).
TEST(CliSmokeTest, CaptureReplayRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string cap = dir + "cli_capture.json";
  const std::string out = dir + "cli_replay.out";
  ASSERT_EQ(run_cli(2, dir + "cli_cap_m.json", "",
                    "--stuck-evals=200 --capture-json=" + cap),
            0);
  const std::string cap_text = slurp(cap);
  ASSERT_FALSE(cap_text.empty()) << "watchdog never triggered a capture";
  std::string err;
  EXPECT_TRUE(json_valid(cap_text, &err)) << err;
  EXPECT_NE(cap_text.find("\"schema\": \"satpg.search_capture.v1\""),
            std::string::npos);

  ASSERT_EQ(run_satpg("replay " + cap + " --circuit=\"" +
                          SATPG_SMOKE_CIRCUIT + "\"",
                      out),
            0);
  EXPECT_NE(slurp(out).find("replay matched"), std::string::npos);

  // Flip one recorded event: replay must detect the divergence.
  std::string bad_text = cap_text;
  const std::size_t pos = bad_text.find("[\"D\", ");
  ASSERT_NE(pos, std::string::npos);
  bad_text.replace(pos, 6, "[\"B\", ");
  const std::string bad = dir + "cli_capture_bad.json";
  std::ofstream(bad) << bad_text;
  EXPECT_EQ(run_satpg("replay " + bad + " --circuit=\"" +
                          SATPG_SMOKE_CIRCUIT + "\""),
            1);
}

// Flight recorder + inspect smoke (DESIGN.md §10): --events-json writes
// an NDJSON log that is byte-identical across thread counts, `satpg
// inspect` renders it and maps an unknown fault to exit 1, `satpg diff`
// finds two runs' reports identical, and inspect, diff and archive refuse
// an older report schema with exit 2.
TEST(CliSmokeTest, EventsJsonAndInspectSmoke) {
  const std::string dir = ::testing::TempDir();
  const std::string e1 = dir + "cli_events_1.ndjson";
  const std::string e2 = dir + "cli_events_2.ndjson";
  const std::string m1 = dir + "cli_events_m1.json";
  const std::string m2 = dir + "cli_events_m2.json";
  ASSERT_EQ(run_cli(1, m1, "", "--events-json=" + e1), 0);
  ASSERT_EQ(run_cli(2, m2, "", "--events-json=" + e2), 0);
  const std::string log = slurp(e1);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log, slurp(e2));
  EXPECT_NE(log.find("\"schema\": \"satpg.events.v1\""), std::string::npos);
  // NDJSON: every line parses on its own; no wall clock anywhere.
  std::istringstream is(log);
  std::string line, err;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ASSERT_TRUE(json_valid(line, &err)) << "line " << lines << ": " << err;
    ++lines;
  }
  ASSERT_GE(lines, 2u) << "header plus at least one fault line";
  EXPECT_EQ(log.find("wall"), std::string::npos);

  const std::string out = dir + "cli_inspect.out";
  ASSERT_EQ(run_satpg("inspect " + e1, out), 0);
  EXPECT_NE(slurp(out).find("hardest faults"), std::string::npos);
  ASSERT_EQ(run_satpg("inspect " + m1, out), 0);
  EXPECT_NE(slurp(out).find("hardest faults"), std::string::npos);
  // Two deterministic runs of the same configuration diff clean; the one
  // run diff is `satpg diff`, and inspect no longer has a --diff mode.
  ASSERT_EQ(run_satpg("diff " + m1 + " " + m2, out), 0);
  EXPECT_NE(slurp(out).find("per-fault trajectories identical"),
            std::string::npos);
  EXPECT_EQ(run_satpg("inspect --diff " + m1 + " " + m2), 2);
  // Unknown fault: runtime failure, exit 1 (README "Exit codes").
  EXPECT_EQ(run_satpg("inspect " + e1 + " --fault=bogus"), 1);
  // An older report schema is the wrong input, not a failed run: diff and
  // inspect refuse it with exit 2 and a one-line diagnostic.
  std::string v5 = slurp(m1);
  v5.replace(v5.find("atpg_run.v6"), 11, "atpg_run.v5");
  const std::string old = dir + "cli_events_v5.json";
  std::ofstream(old) << v5;
  const std::string errf = dir + "cli_inspect.err";
  EXPECT_EQ(run_satpg("inspect " + old, "", errf), 2);
  const std::string diag = slurp(errf);
  EXPECT_NE(diag.find("satpg.atpg_run.v5"), std::string::npos) << diag;
  EXPECT_EQ(std::count(diag.begin(), diag.end(), '\n'), 1) << diag;
  EXPECT_EQ(run_satpg("diff " + m1 + " " + old), 2);
  EXPECT_EQ(run_satpg("archive " + old + " --dir=" + dir + "cli_events_runs"),
            2);
}

// Wide-fsim engine selection on the real CLI. The determinism contract
// (DESIGN.md §8): the metrics report and the human-readable result lines
// are byte-identical whether the wide engine runs its widest SIMD tier,
// the portable scalar kernel (--width=64 or SATPG_FORCE_SCALAR=1), or any
// other explicit --width; the baseline engine agrees on every result line
// (its registry differs only in engine-scoped fsim.wide.* rows).
TEST(CliSmokeTest, FsimEngineFlagsAreDeterministic) {
  const std::string dir = ::testing::TempDir();
  auto fsim_run = [&](const std::string& tag, const std::string& extra,
                      const std::string& env = "") {
    const std::string metrics = dir + "cli_fsim_" + tag + ".json";
    const std::string out = dir + "cli_fsim_" + tag + ".out";
    std::string args = std::string("fsim \"") + SATPG_SMOKE_CIRCUIT +
                       "\" --sequences=8 --length=16 --metrics-json=" +
                       metrics;
    if (!extra.empty()) args += " " + extra;
    if (!env.empty()) args = env + " \"" + SATPG_CLI_PATH + "\" " + args;
    EXPECT_EQ(env.empty()
                  ? run_satpg(args, out)
                  : WEXITSTATUS(std::system(
                        (args + " > " + out + " 2> /dev/null").c_str())),
              0)
        << tag;
    // Drop the engine-name line: it names the tier on purpose.
    std::string body, line;
    std::istringstream is(slurp(out));
    while (std::getline(is, line))
      if (line.compare(0, 6, "engine") != 0 &&
          line.compare(0, 7, "metrics") != 0)
        body += line + "\n";
    return std::make_pair(slurp(metrics), body);
  };

  const auto def = fsim_run("default", "");
  const auto env_scalar = fsim_run("env", "", "SATPG_FORCE_SCALAR=1");
  ASSERT_FALSE(def.first.empty());
  EXPECT_EQ(env_scalar.first, def.first);
  EXPECT_EQ(env_scalar.second, def.second);
  for (const char* width : {"64", "128", "256", "512"}) {
    const auto w = fsim_run(std::string("w") + width,
                            std::string("--width=") + width);
    // A tier the CPU lacks exits 1 with an empty report; a supported one
    // must match the default byte-for-byte.
    if (!w.first.empty()) {
      EXPECT_EQ(w.first, def.first) << "--width=" << width;
      EXPECT_EQ(w.second, def.second) << "--width=" << width;
    }
  }
  // Result lines agree across engines even though registries differ.
  const auto base = fsim_run("baseline", "--engine=baseline");
  const auto wide = fsim_run("wide", "--engine=wide");
  EXPECT_EQ(base.second, def.second);
  EXPECT_EQ(wide.second, def.second);

  // One sequence, as ATPG's verify-and-drop simulates it, runs wide too.
  const std::string one = dir + "cli_fsim_one.out";
  ASSERT_EQ(run_satpg(std::string("fsim \"") + SATPG_SMOKE_CIRCUIT +
                          "\" --sequences=1",
                      one),
            0);
  const std::string text = slurp(one);
  const std::string engine_line = text.substr(0, text.find('\n'));
  bool named_tier = false;
  for (const char* tier : {"scalar", "sse2", "avx2", "avx512"})
    named_tier |= engine_line == std::string("engine           : wide/") + tier;
  EXPECT_TRUE(named_tier) << engine_line;
}

// Bad engine/width values are usage errors (exit 2, README "Exit codes").
TEST(CliSmokeTest, FsimEngineFlagErrors) {
  const std::string args_prefix =
      std::string("fsim \"") + SATPG_SMOKE_CIRCUIT + "\" ";
  EXPECT_EQ(run_satpg(args_prefix + "--engine=bogus"), 2);
  // The production engine is the wide one; there is no `auto` any more.
  const std::string auto_err = ::testing::TempDir() + "cli_fsim_auto.err";
  EXPECT_EQ(run_satpg(args_prefix + "--engine=auto", "", auto_err), 2);
  EXPECT_NE(slurp(auto_err).find("error: unknown --engine=auto"),
            std::string::npos);
  for (const char* bad : {"--width=7", "--width=64junk", "--width=-64"}) {
    const std::string err = ::testing::TempDir() + "cli_fsim_badwidth.err";
    EXPECT_EQ(run_satpg(args_prefix + bad, "", err), 2) << bad;
    EXPECT_NE(slurp(err).find(std::string("error: bad value ") + bad),
              std::string::npos)
        << bad;
  }
  // --width=64 pins the scalar kernel; the old alias is an unknown flag.
  EXPECT_EQ(run_satpg(args_prefix + "--force-scalar"), 2);
}

// Process exit must be clean while the shared pool's workers are still
// starting up: the pool and the telemetry singletons they touch are never
// destroyed, so exit-time static destruction cannot pull a recorder out
// from under a worker. Concurrent short runs make that window likely (a
// destroyed-singleton build crashes a few percent of them).
TEST(CliSmokeTest, ConcurrentShortRunsExitCleanly) {
  const std::string out = ::testing::TempDir() + "cli_concurrent_exit.txt";
  const std::string run = std::string("\"") + SATPG_CLI_PATH + "\" fsim \"" +
                          SATPG_SMOKE_CIRCUIT + "\" >/dev/null 2>&1 & ";
  std::string batch;
  for (int i = 0; i < 5; ++i)
    batch += run + "p" + std::to_string(i) + "=$!; ";
  for (int i = 0; i < 5; ++i)
    batch += "wait $p" + std::to_string(i) + " || fail=$((fail+1)); ";
  const std::string cmd = "fail=0; i=0; while [ $i -lt 40 ]; do " + batch +
                          "i=$((i+1)); done; echo $fail > \"" + out + "\"";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_EQ(slurp(out), "0\n") << "of 200 runs, this many exited non-zero";
}

// Malformed numeric telemetry flags are usage errors: exit 2 with a usage
// message, never a silent clamp to some default (README "Exit codes",
// DESIGN.md §11). Zero is out of range for all three — an interval of 0
// would spin, a stuck threshold of 0 would flag everything, a budget of 0
// is spelled by omitting the flag. --profile-interval-ms and
// --profile-max-samples are not satpg flags: they exit 2 as unknown flags.
TEST(CliSmokeTest, MalformedTelemetryFlagsExitUsage) {
  const std::string dir = ::testing::TempDir();
  const std::string args_prefix =
      std::string("atpg \"") + SATPG_SMOKE_CIRCUIT + "\" --budget=0.05 ";
  for (const char* bad :
       {"--mem-budget-mb=-3", "--mem-budget-mb=0", "--mem-budget-mb=abc",
        "--mem-budget-mb=", "--stuck-evals=0", "--stuck-evals=-1",
        "--stuck-evals=20x", "--heartbeat-interval-ms=0",
        "--heartbeat-interval-ms=fast", "--profile-interval-ms=0",
        "--profile-interval-ms=abc", "--profile-interval-ms=-5",
        "--profile-max-samples=0", "--profile-max-samples=junk"}) {
    const std::string err = dir + "cli_badflag.err";
    EXPECT_EQ(run_satpg(args_prefix + bad, "", err), 2) << bad;
    EXPECT_NE(slurp(err).find("usage: satpg"), std::string::npos) << bad;
  }
}

// The numeric run-shape flags of `satpg atpg` and `satpg fsim` are strict
// too: a typo must not zero every fault budget, wrap a negative value into
// a huge one (a seed included), fall back to all hardware threads or
// disarm a deadline or the wall-clock watchdog. A seed of 0 is valid. So
// is the --top of `satpg diff` and `satpg inspect`: a typo must not drop
// the per-fault table or wrap around to "show all".
TEST(CliSmokeTest, MalformedNumericFlagsExitUsage) {
  const std::string dir = ::testing::TempDir();
  const std::string atpg =
      std::string("atpg \"") + SATPG_SMOKE_CIRCUIT + "\" ";
  const std::string fsim =
      std::string("fsim \"") + SATPG_SMOKE_CIRCUIT + "\" ";
  const std::string golden = std::string(SATPG_GOLDEN_DIR) + "/dk16_";
  const std::string diff = "diff \"" + golden + "parent.v6.json\" \"" +
                           golden + "retimed.v6.json\" ";
  const std::string inspect = "inspect \"" + golden + "retimed.v6.json\" ";
  const std::vector<std::string> bad = {
      atpg + "--budget=abc",        atpg + "--budget=-1",
      atpg + "--budget=0",          atpg + "--budget=inf",
      atpg + "--threads=abc",       atpg + "--threads=-2",
      atpg + "--threads=0",         atpg + "--threads=99999999999",
      atpg + "--deadline-ms=-5",    atpg + "--deadline-ms=1s",
      atpg + "--seed=junk",         atpg + "--seed=-1",
      atpg + "--stuck-seconds=abc", atpg + "--stuck-seconds=0",
      fsim + "--seed=junk",         fsim + "--seed=-1",
      fsim + "--sequences=abc",     fsim + "--sequences=-4",
      fsim + "--length=0",          fsim + "--length=9999999999",
      fsim + "--threads=two",       fsim + "--threads=-1",
      diff + "--top=junk",          diff + "--top=-3",
      diff + "--top=0",             inspect + "--top=junk",
      inspect + "--top=-3"};
  for (const std::string& args : bad) {
    const std::string err = dir + "cli_badnum.err";
    EXPECT_EQ(run_satpg(args, "", err), 2) << args;
    const std::string text = slurp(err);
    const std::string flag = args.substr(args.rfind(' ') + 1);
    EXPECT_NE(text.find("error: bad value " + flag), std::string::npos)
        << args;
    EXPECT_NE(text.find("usage: satpg"), std::string::npos) << args;
  }
  EXPECT_EQ(run_satpg(atpg + "--budget=0.05 --threads=2 --deadline-ms=60000"),
            0);
  EXPECT_EQ(run_satpg(fsim + "--sequences=4 --length=8 --threads=1"), 0);
  EXPECT_EQ(run_satpg(fsim + "--sequences=4 --length=8 --seed=0"), 0);
  EXPECT_EQ(run_satpg(diff + "--top=3"), 0);
  EXPECT_EQ(run_satpg(inspect + "--top=3"), 0);
}

// --no-shared-learning drops CDCL's cross-worker cube cache. No other
// engine can run without its caches, so the flag there is a usage error
// (exit 2), not a report that claims an ablation that never ran. The check
// runs after every flag is parsed, so flag order does not matter; with
// --engine=cdcl either order runs the same ablation.
TEST(CliSmokeTest, NoSharedLearningRequiresCdcl) {
  const std::string dir = ::testing::TempDir();
  const std::string atpg =
      std::string("atpg \"") + SATPG_SMOKE_CIRCUIT + "\" --budget=0.05 ";
  for (const char* flags :
       {"--engine=learning --no-shared-learning",
        "--no-shared-learning --engine=learning", "--no-shared-learning",
        "--engine=forward --no-shared-learning"}) {
    const std::string err = dir + "cli_noshare.err";
    EXPECT_EQ(run_satpg(atpg + flags, "", err), 2) << flags;
    EXPECT_NE(slurp(err).find("--no-shared-learning requires --engine=cdcl"),
              std::string::npos)
        << flags;
  }
  const std::string first = dir + "cli_noshare_first.json";
  const std::string last = dir + "cli_noshare_last.json";
  EXPECT_EQ(run_satpg(atpg + "--no-shared-learning --engine=cdcl "
                             "--metrics-json=" + first),
            0);
  EXPECT_EQ(run_satpg(atpg + "--engine=cdcl --no-shared-learning "
                             "--metrics-json=" + last),
            0);
  const std::string report = slurp(first);
  EXPECT_NE(report.find("\"share_learning\": false"), std::string::npos);
  EXPECT_EQ(report, slurp(last));
}

// --capture-fault that names no collapsed fault is a usage error: a typo
// must not look like a capture that never fired. The index is parsed as a
// whole u64, so an overflowing one is unmatched too, not wrapped.
TEST(CliSmokeTest, UnmatchedCaptureFaultExitsUsage) {
  const std::string dir = ::testing::TempDir();
  const std::string atpg = std::string("atpg \"") + SATPG_SMOKE_CIRCUIT +
                           "\" --budget=0.05 --capture-json=" + dir +
                           "cli_nocapture.json ";
  for (const char* spec : {"nosuch", "99999999999999999999999"}) {
    std::remove((dir + "cli_nocapture.json").c_str());
    const std::string err = dir + "cli_capture_fault.err";
    EXPECT_EQ(run_satpg(atpg + "--capture-fault=" + spec, "", err), 2)
        << spec;
    const std::string text = slurp(err);
    EXPECT_NE(text.find("error: --capture-fault: no collapsed fault"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(spec), std::string::npos) << text;
    EXPECT_FALSE(std::ifstream(dir + "cli_nocapture.json").good()) << spec;
  }
  // Fault 0 is detected by fault simulation before any search, so the
  // capture cannot fire; the run says so by name and still exits 0.
  const std::string out = dir + "cli_capture_fault0.out";
  EXPECT_EQ(run_satpg(atpg + "--capture-fault=0", out), 0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("capture armed    : "), std::string::npos) << text;
  EXPECT_NE(text.find(" never searched (detected by fault simulation; "
                      "nothing written)"),
            std::string::npos)
      << text;
  EXPECT_FALSE(std::ifstream(dir + "cli_nocapture.json").good());
}

// Malformed circuit files through the CLI processes themselves: seeded
// truncations, byte substitutions and line duplications of the smoke
// circuit (the kinds BenchIoTest.MutatedCacheFilesFailCleanly feeds the
// parser) go through `satpg info`, `analyze` and `atpg`. Each run exits 0
// (the mutant still parses) or 1 (bad input file), never 2 and never on a
// signal (the shell reports those as 128 + signal number).
TEST(CliSmokeTest, MutatedBenchFilesExitCleanly) {
  const std::string text = slurp(SATPG_SMOKE_CIRCUIT);
  ASSERT_FALSE(text.empty());
  static const char kBytes[] = "()=,# \nAGNDFOTX01";
  std::mt19937_64 rng(0xc11);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::string path = ::testing::TempDir() + "cli_mutant.bench";
  int exits[2] = {0, 0};
  for (int k = 0; k < 12; ++k) {
    std::string mutant = text;
    if (k % 3 == 0) {
      mutant.resize(below(mutant.size()));
    } else if (k % 3 == 1) {
      mutant[below(mutant.size())] = kBytes[below(sizeof kBytes)];
    } else {
      const std::size_t at = mutant.rfind('\n', below(mutant.size()));
      const std::size_t begin = at == std::string::npos ? 0 : at + 1;
      const std::size_t end = mutant.find('\n', begin);
      mutant.insert(begin, mutant.substr(begin, end - begin) + "\n");
    }
    std::ofstream(path, std::ios::binary) << mutant;
    for (const char* cmd : {"info", "analyze", "atpg"}) {
      const std::string flags =
          std::string(cmd) == "atpg" ? " --budget=0.01 --threads=1" : "";
      const int rc = run_satpg(std::string(cmd) + " \"" + path + "\"" + flags);
      EXPECT_TRUE(rc == 0 || rc == 1) << cmd << " mutant " << k << " rc " << rc;
      if (rc == 0 || rc == 1) ++exits[rc];
    }
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(exits[0], 0);
  EXPECT_GT(exits[1], 0);
}

// `satpg retime --dffs=` takes a positive count: a non-number must not
// fall back to min-period retiming, and a negative one must not wrap to a
// huge target. Both, and zero, are usage errors.
TEST(CliSmokeTest, RetimeDffsFlagIsValidated) {
  const std::string dir = ::testing::TempDir();
  const std::string out = dir + "cli_retime_twin.bench";
  const std::string args_prefix =
      std::string("retime \"") + SATPG_SMOKE_CIRCUIT + "\" " + out + " ";
  for (const char* bad : {"--dffs=abc", "--dffs=-3", "--dffs=0"}) {
    const std::string err = dir + "cli_retime_badflag.err";
    EXPECT_EQ(run_satpg(args_prefix + bad, "", err), 2) << bad;
    const std::string text = slurp(err);
    EXPECT_NE(text.find(std::string("error: bad value ") + bad),
              std::string::npos)
        << bad;
    EXPECT_NE(text.find("usage: satpg"), std::string::npos) << bad;
  }
  EXPECT_EQ(run_satpg(args_prefix + "--dffs=6"), 0);
}

// Memory budget smoke (DESIGN.md §11): a deliberately tiny budget trips
// mid-search, parks the offenders, and requeues them with the limit
// lifted — so the final coverage and per-fault statuses are identical to
// the unbudgeted run, and the watchdog block says so. The report stays
// byte-identical across thread counts, and `satpg inspect --memory`
// renders the accounting block in both formats.
TEST(CliSmokeTest, MemBudgetDegradesGracefullyAndInspectReadsItBack) {
  const std::string dir = ::testing::TempDir();
  const std::string plain = dir + "cli_mem_plain.json";
  ASSERT_EQ(run_cli(2, plain, ""), 0);
  const std::string b1 = dir + "cli_mem_b1.json";
  const std::string b2 = dir + "cli_mem_b2.json";
  ASSERT_EQ(run_cli(1, b1, "", "--mem-budget-mb=0.05"), 0);
  ASSERT_EQ(run_cli(2, b2, "", "--mem-budget-mb=0.05"), 0);
  const std::string budgeted = slurp(b1);
  ASSERT_FALSE(budgeted.empty());
  EXPECT_EQ(budgeted, slurp(b2));
  EXPECT_NE(budgeted.find("\"memory\": {\"budget\": 52428"),
            std::string::npos);

  // Same coverage line with and without the budget: degradation must not
  // cost detections. (Compare the summary blocks; effort counters differ
  // because tripped attempts run twice.)
  const std::string plain_text = slurp(plain);
  const auto coverage_of = [](const std::string& text) {
    const std::size_t pos = text.find("\"fault_coverage\"");
    return text.substr(pos, text.find('\n', pos) - pos);
  };
  EXPECT_EQ(coverage_of(budgeted), coverage_of(plain_text));

  const std::string out = dir + "cli_mem_inspect.out";
  ASSERT_EQ(run_satpg("inspect " + b1 + " --memory", out), 0);
  const std::string txt = slurp(out);
  EXPECT_NE(txt.find("subsystem"), std::string::npos);
  EXPECT_NE(txt.find("hungriest faults"), std::string::npos);
  ASSERT_EQ(run_satpg("inspect " + b1 + " --memory --format=json", out), 0);
  const std::string mem_json = slurp(out);
  std::string err;
  EXPECT_TRUE(json_valid(mem_json, &err)) << err;
  EXPECT_NE(mem_json.find("\"schema\": \"satpg.inspect_memory.v1\""),
            std::string::npos);
  // An event log has no memory block: runtime failure, exit 1.
  const std::string ev = dir + "cli_mem_events.ndjson";
  ASSERT_EQ(run_cli(1, dir + "cli_mem_ev_m.json", "", "--events-json=" + ev),
            0);
  EXPECT_EQ(run_satpg("inspect " + ev + " --memory"), 1);
}

// Pins the CI runner's backend so the smoke runs behave the same on a
// developer machine with perf_event available; the byte-identity
// contracts under test hold for either backend.
struct FallbackBackendGuard {
  FallbackBackendGuard() { ::setenv("SATPG_PROFILE_BACKEND", "fallback", 1); }
  ~FallbackBackendGuard() { ::unsetenv("SATPG_PROFILE_BACKEND"); }
};

// The §12 contract: the profiler observes on the wall-clock plane only.
// Arming --profile-json must leave both deterministic artifacts
// (--metrics-json, --events-json) byte-identical, at any thread count,
// on the parent circuit and on its CLI-retimed twin.
TEST(CliSmokeTest, ProfilerDoesNotPerturbMetricsOrEvents) {
  FallbackBackendGuard backend;
  const std::string dir = ::testing::TempDir();
  const std::string twin = dir + "cli_prof_twin.bench";
  ASSERT_EQ(run_satpg(std::string("retime \"") + SATPG_SMOKE_CIRCUIT +
                      "\" " + twin),
            0);

  const std::string circuits[] = {SATPG_SMOKE_CIRCUIT, twin};
  for (int c = 0; c < 2; ++c) {
    const std::string tag = c == 0 ? "parent" : "twin";
    auto atpg_run = [&](const std::string& run_tag, unsigned threads,
                        bool profiled) {
      const std::string m = dir + "cli_prof_" + run_tag + ".json";
      const std::string e = dir + "cli_prof_" + run_tag + ".ndjson";
      std::string args = std::string("atpg \"") + circuits[c] +
                         "\" --budget=0.05 --threads=" +
                         std::to_string(threads) + " --metrics-json=" + m +
                         " --events-json=" + e;
      if (profiled)
        args += " --profile-json=" + dir + "cli_prof_" + run_tag + "_p.json";
      EXPECT_EQ(run_satpg(args), 0) << run_tag;
      return std::make_pair(slurp(m), slurp(e));
    };

    const auto off = atpg_run(tag + "_off", 1, false);
    ASSERT_FALSE(off.first.empty());
    ASSERT_FALSE(off.second.empty());
    for (unsigned threads : {1u, 2u, 8u}) {
      const auto on =
          atpg_run(tag + "_on" + std::to_string(threads), threads, true);
      EXPECT_EQ(off.first, on.first)
          << tag << " metrics perturbed at threads=" << threads;
      EXPECT_EQ(off.second, on.second)
          << tag << " events perturbed at threads=" << threads;
    }
    // The sidecar itself is well-formed and tagged.
    const std::string prof = slurp(dir + "cli_prof_" + tag + "_on1_p.json");
    ASSERT_FALSE(prof.empty());
    std::string err;
    EXPECT_TRUE(json_valid(prof, &err)) << err;
    EXPECT_NE(prof.find("\"schema\": \"satpg.profile.v2\""),
              std::string::npos);
    EXPECT_NE(prof.find("\"backend\": \"fallback\""), std::string::npos);
    EXPECT_NE(prof.find("\"phases\""), std::string::npos);
    EXPECT_NE(prof.find("\"build_info\""), std::string::npos);
  }
}

// `satpg inspect --profile` renders the ranked where-do-the-cycles-go
// table from a sidecar, in both formats; a report is not a profile
// (exit 1), --profile does not compose with --trend (exit 2), and the
// removed --diff mode is an unknown flag (exit 2).
TEST(CliSmokeTest, InspectProfileRendersSidecar) {
  FallbackBackendGuard backend;
  const std::string dir = ::testing::TempDir();
  const std::string m = dir + "cli_iprof_m.json";
  const std::string p = dir + "cli_iprof_p.json";
  ASSERT_EQ(run_cli(1, m, "", "--profile-json=" + p), 0);

  const std::string out = dir + "cli_iprof.out";
  ASSERT_EQ(run_satpg("inspect " + p + " --profile", out), 0);
  const std::string txt = slurp(out);
  EXPECT_NE(txt.find("phase"), std::string::npos);
  EXPECT_NE(txt.find("task"), std::string::npos);

  ASSERT_EQ(run_satpg("inspect " + p + " --profile --format=json", out), 0);
  const std::string pjson = slurp(out);
  std::string err;
  EXPECT_TRUE(json_valid(pjson, &err)) << err;
  EXPECT_NE(pjson.find("\"schema\": \"satpg.inspect_profile.v1\""),
            std::string::npos);

  EXPECT_EQ(run_satpg("inspect " + m + " --profile"), 1);
  EXPECT_EQ(run_satpg("inspect " + p + " --profile --trend"), 2);
  EXPECT_EQ(run_satpg("inspect --diff --profile " + p + " " + m), 2);
}

// Archive two runs plus their profile sidecars, then `inspect --trend`:
// one row per report with evals/s joined from the matching-configuration
// sidecar, byte-stable across invocations, in both formats.
TEST(CliSmokeTest, ArchiveTrendJoinsProfilesByteStably) {
  FallbackBackendGuard backend;
  const std::string dir = ::testing::TempDir();
  const std::string runs = dir + "cli_trend_runs";
  const std::string twin = dir + "cli_trend_twin.bench";
  ASSERT_EQ(run_satpg(std::string("retime \"") + SATPG_SMOKE_CIRCUIT +
                      "\" " + twin),
            0);

  const std::string circuits[] = {SATPG_SMOKE_CIRCUIT, twin};
  for (int c = 0; c < 2; ++c) {
    const std::string m = dir + "cli_trend_m" + std::to_string(c) + ".json";
    const std::string p = dir + "cli_trend_p" + std::to_string(c) + ".json";
    ASSERT_EQ(run_satpg(std::string("atpg \"") + circuits[c] +
                        "\" --budget=0.05 --threads=2 --metrics-json=" + m +
                        " --profile-json=" + p),
              0);
    ASSERT_EQ(run_satpg("archive " + m + " " + p + " --dir=" + runs), 0);
  }

  const std::string out1 = dir + "cli_trend_1.out";
  const std::string out2 = dir + "cli_trend_2.out";
  ASSERT_EQ(run_satpg("inspect --trend --dir=" + runs, out1), 0);
  ASSERT_EQ(run_satpg("inspect --trend --dir=" + runs, out2), 0);
  const std::string trend = slurp(out1);
  ASSERT_FALSE(trend.empty());
  EXPECT_EQ(trend, slurp(out2)) << "--trend must be byte-stable";
  EXPECT_NE(trend.find("evals/s"), std::string::npos);
  // Both archived runs have a matching-config sidecar, so no run joins
  // to "-" in the evals/s column... but cycles/eval is "-" under the
  // fallback backend (no cycle counter). Check via json, which is exact.
  const std::string outj = dir + "cli_trend_j.out";
  ASSERT_EQ(run_satpg("inspect --trend --dir=" + runs + " --format=json",
                      outj),
            0);
  const std::string tjson = slurp(outj);
  std::string err;
  EXPECT_TRUE(json_valid(tjson, &err)) << err;
  EXPECT_NE(tjson.find("\"schema\": \"satpg.inspect_trend.v1\""),
            std::string::npos);
  EXPECT_NE(tjson.find("\"evals_per_second\""), std::string::npos);
  EXPECT_EQ(tjson.find("\"profile\": null"), std::string::npos)
      << "every report row must join a sidecar";

  // An empty archive is a runtime failure, not a crash.
  EXPECT_EQ(run_satpg("inspect --trend --dir=" + dir + "cli_trend_none"), 1);
}

// `--help` anywhere prints usage to stdout and exits 0, for every
// subcommand (README "Exit codes").
TEST(CliSmokeTest, HelpExitsZeroForEverySubcommand) {
  const std::string dir = ::testing::TempDir();
  const std::string out = dir + "cli_help.out";
  for (const char* sub :
       {"", "info", "analyze", "atpg", "fsim", "retime", "scan", "faults",
        "archive", "diff", "replay", "inspect"}) {
    const std::string args =
        (*sub ? std::string(sub) + " --help" : std::string("--help"));
    ASSERT_EQ(run_satpg(args, out), 0) << "subcommand: " << args;
    EXPECT_NE(slurp(out).find("usage: satpg"), std::string::npos)
        << "subcommand: " << args;
  }
}

// `--version` anywhere prints the build provenance (compiler, build
// type, SIMD tiers, host CPU) to stdout and exits 0, for every
// subcommand — so a bug report can always name the binary exactly.
TEST(CliSmokeTest, VersionExitsZeroForEverySubcommand) {
  const std::string dir = ::testing::TempDir();
  const std::string out = dir + "cli_version.out";
  for (const char* sub :
       {"", "info", "analyze", "atpg", "fsim", "retime", "scan", "faults",
        "archive", "diff", "replay", "inspect"}) {
    const std::string args =
        (*sub ? std::string(sub) + " --version" : std::string("--version"));
    ASSERT_EQ(run_satpg(args, out), 0) << "subcommand: " << args;
    const std::string text = slurp(out);
    EXPECT_NE(text.find("satpg ("), std::string::npos) << args;
    EXPECT_NE(text.find("host cpu"), std::string::npos) << args;
    EXPECT_NE(text.find("simd"), std::string::npos) << args;
  }
}

}  // namespace
}  // namespace satpg
