// Unit tests for the `satpg inspect` analytics layer (harness/inspect):
// artifact detection (events NDJSON vs atpg_run report), hardest-fault
// ranking, provenance aggregation from both source kinds, per-fault
// timelines, the v6 --memory view (subsystem table,
// budget verdict, hungriest-fault ranking, pre-v6 rejection), the §12
// --profile view (ranked phase table, fallback-backend "-" columns,
// non-sidecar rejection), the --trend view (config-keyed profile join,
// last-sidecar-wins, error paths), and the error paths the CLI maps to
// exit code 1. All inputs are synthetic strings, so these tests double
// as the byte-stability contract: the expected substrings never depend
// on the machine.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/inspect.h"

namespace satpg {
namespace {

// A small but complete satpg.events.v1 log: two attempted faults; "a s-a-0"
// exports one cube that "b s-a-1" imports twice and hits once as a
// learned-failure.
const char kEventsLog[] =
    "{\"schema\": \"satpg.events.v1\", \"circuit\": \"c17\", \"engine\": "
    "\"cdcl\", \"seed\": 7, \"faults\": 5, \"attempted\": 2}\n"
    "{\"fault\": \"a s-a-0\", \"index\": 0, \"status\": \"aborted\", "
    "\"evals\": 900, \"backtracks\": 9, \"invalid_frac\": 0.25, "
    "\"events\": 2}\n"
    "{\"k\": \"window_grow\", \"at\": 10, \"a\": 2}\n"
    "{\"k\": \"cube_export\", \"at\": 20, \"cube\": \"01X\"}\n"
    "{\"fault\": \"b s-a-1\", \"index\": 3, \"status\": \"detected\", "
    "\"evals\": 400, \"backtracks\": 2, \"invalid_frac\": 0, "
    "\"events\": 3}\n"
    "{\"k\": \"cube_import\", \"at\": 5, \"a\": 1, \"cube\": \"01X\", "
    "\"src\": \"a s-a-0\"}\n"
    "{\"k\": \"cube_import\", \"at\": 30, \"a\": 1, \"cube\": \"01X\", "
    "\"src\": \"a s-a-0\"}\n"
    "{\"k\": \"learn_hit\", \"at\": 44, \"a\": 1, \"cube\": \"01X\", "
    "\"src\": \"a s-a-0\"}\n";

std::string report_text(const char* circuit, int evals_b) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"satpg.atpg_run.v6\",\n"
     << "  \"circuit\": {\"name\": \"" << circuit << "\"},\n"
     << "  \"engine\": {\"kind\": \"cdcl\", \"seed\": 7},\n"
     << "  \"summary\": {\"total_faults\": 5, \"fault_coverage\": 80,\n"
     << "    \"fault_efficiency\": 100, \"evals\": " << 900 + evals_b
     << ", \"cube_exports\": 1},\n"
     << "  \"fe_trace\": [[900, 50.0], [" << 900 + evals_b << ", 100.0]],\n"
     << "  \"per_fault\": [\n"
     << "    {\"fault\": \"a s-a-0\", \"status\": \"aborted\", "
        "\"attempted\": true, \"evals\": 900, \"backtracks\": 9, "
        "\"effort_invalid_frac\": 0.25, \"cube_exports\": 1, "
        "\"cube_sources\": []},\n"
     << "    {\"fault\": \"b s-a-1\", \"status\": \"detected\", "
        "\"attempted\": true, \"evals\": " << evals_b
     << ", \"backtracks\": 2, \"effort_invalid_frac\": 0, "
        "\"cube_exports\": 0, \"cube_sources\": [{\"from\": \"a s-a-0\", "
        "\"epoch\": 1, \"hits\": 3}]}\n"
     << "  ],\n"
     << "  \"cube_provenance\": {\"exports\": 1, \"import_hits\": 3, "
        "\"exporters\": [\n"
     << "    {\"fault\": \"a s-a-0\", \"cubes\": 1, \"beneficiaries\": 1, "
        "\"hits\": 3}]}\n}\n";
  return os.str();
}

std::string inspect_text(const std::string& src, const InspectOptions& opts) {
  std::ostringstream os;
  std::string err;
  EXPECT_TRUE(inspect_source(os, src, opts, &err)) << err;
  return os.str();
}

TEST(InspectTest, EventLogOverviewRanksAndAggregates) {
  const std::string out = inspect_text(kEventsLog, {});
  EXPECT_NE(out.find("event log satpg.events.v1"), std::string::npos);
  EXPECT_NE(out.find("faults: 5 total, 2 attempted"), std::string::npos);
  // Ranking: a s-a-0 (900 evals) above b s-a-1 (400).
  const std::size_t pos_a = out.find("a s-a-0");
  const std::size_t pos_b = out.find("b s-a-1");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  // Provenance derived from the events: 1 export, 3 hits (2 imports +
  // 1 learned-failure hit), all attributed to the exporter.
  EXPECT_NE(out.find("cube provenance: 1 exports, 3 import hits"),
            std::string::npos);
}

TEST(InspectTest, ReportOverviewUsesTheRollupBlock) {
  const std::string out = inspect_text(report_text("c17", 400), {});
  EXPECT_NE(out.find("report satpg.atpg_run.v6"), std::string::npos);
  EXPECT_NE(out.find("cube provenance: 1 exports, 3 import hits"),
            std::string::npos);
}

TEST(InspectTest, EventsAndReportAgreeOnTheProvenanceGraph) {
  // The acceptance property: both artifacts of the same run describe the
  // same exporter -> beneficiary graph.
  const std::string from_events = inspect_text(kEventsLog, {});
  const std::string from_report = inspect_text(report_text("c17", 400), {});
  const std::size_t pe = from_events.find("cube provenance:");
  const std::size_t pr = from_report.find("cube provenance:");
  ASSERT_NE(pe, std::string::npos) << from_events;
  ASSERT_NE(pr, std::string::npos) << from_report;
  EXPECT_EQ(from_events.substr(pe), from_report.substr(pr));
  EXPECT_NE(from_events.find("a s-a-0", pe), std::string::npos);
}

TEST(InspectTest, FaultTimelineByNameAndIndex) {
  InspectOptions by_name;
  by_name.fault = "b s-a-1";
  const std::string out = inspect_text(kEventsLog, by_name);
  EXPECT_NE(out.find("timeline (3 events"), std::string::npos);
  EXPECT_NE(out.find("cube_import"), std::string::npos);
  EXPECT_NE(out.find("src=a s-a-0 epoch=1"), std::string::npos);

  InspectOptions by_index;
  by_index.fault = "3";  // collapsed-fault index of b s-a-1
  EXPECT_EQ(out, inspect_text(kEventsLog, by_index));
}

TEST(InspectTest, UnknownFaultFailsWithoutOutput) {
  std::ostringstream os;
  InspectOptions opts;
  opts.fault = "no such fault";
  std::string err;
  EXPECT_FALSE(inspect_source(os, kEventsLog, opts, &err));
  EXPECT_TRUE(os.str().empty());
  EXPECT_NE(err.find("not found"), std::string::npos);
}

TEST(InspectTest, MalformedInputFails) {
  std::ostringstream os;
  std::string err;
  EXPECT_FALSE(inspect_source(os, "not json at all", {}, &err));
  EXPECT_FALSE(inspect_source(
      os, "{\"schema\": \"satpg.other.v1\", \"summary\": {}}", {}, &err));
  EXPECT_NE(err.find("not an event log"), std::string::npos);
  // An older report schema is refused, not read with fallbacks.
  std::string v5 = report_text("c17", 400);
  v5.replace(v5.find("atpg_run.v6"), 11, "atpg_run.v5");
  err.clear();
  EXPECT_FALSE(inspect_source(os, v5, {}, &err));
  EXPECT_NE(err.find("satpg.atpg_run.v5"), std::string::npos) << err;
  EXPECT_TRUE(os.str().empty()) << "error paths must write nothing";
}

TEST(InspectTest, JsonFormatIsValidAndStable) {
  InspectOptions opts;
  opts.json = true;
  const std::string a = inspect_text(kEventsLog, opts);
  EXPECT_NE(a.find("\"schema\": \"satpg.inspect.v1\""), std::string::npos);
  EXPECT_NE(a.find("\"kind\": \"events\""), std::string::npos);
  // Pure function of the input text.
  EXPECT_EQ(a, inspect_text(kEventsLog, opts));
}

// A minimal v6 report with the DESIGN.md §11 memory surface: two
// subsystems with activity, a tripped budget, per-fault peak_bytes.
std::string report_text_v6() {
  return
      "{\n  \"schema\": \"satpg.atpg_run.v6\",\n"
      "  \"circuit\": {\"name\": \"c17\"},\n"
      "  \"engine\": {\"kind\": \"cdcl\", \"seed\": 7},\n"
      "  \"watchdog\": {\"memory\": {\"budget\": 1000, \"tripped\": 1, "
      "\"requeued\": 1, \"verdict\": \"degraded\"}},\n"
      "  \"summary\": {\"total_faults\": 2, \"fault_coverage\": 100,\n"
      "    \"fault_efficiency\": 100, \"evals\": 1300, \"cube_exports\": 0},\n"
      "  \"per_fault\": [\n"
      "    {\"fault\": \"a s-a-0\", \"status\": \"detected\", "
      "\"attempted\": true, \"evals\": 900, \"peak_bytes\": 1500, "
      "\"cube_sources\": []},\n"
      "    {\"fault\": \"b s-a-1\", \"status\": \"detected\", "
      "\"attempted\": true, \"evals\": 400, \"peak_bytes\": 700, "
      "\"cube_sources\": []}\n"
      "  ],\n"
      "  \"memory\": {\"subsystems\": {\n"
      "    \"cdcl_clause_db\": {\"live\": 0, \"peak\": 1400, "
      "\"allocated\": 2000, \"allocs\": 4},\n"
      "    \"cnf_encoder\": {\"live\": 0, \"peak\": 100, "
      "\"allocated\": 200, \"allocs\": 2}},\n"
      "   \"total\": {\"live\": 0, \"peak\": 1500, \"allocated\": 2200}}\n"
      "}\n";
}

TEST(InspectMemoryTest, RendersSubsystemsBudgetAndHungriestFaults) {
  InspectOptions opts;
  opts.memory = true;
  const std::string out = inspect_text(report_text_v6(), opts);
  EXPECT_NE(out.find("cdcl_clause_db"), std::string::npos);
  EXPECT_NE(out.find("1400"), std::string::npos);
  EXPECT_NE(out.find("verdict: degraded"), std::string::npos);
  EXPECT_NE(out.find("hungriest faults"), std::string::npos);
  // Ranked by peak bytes: a s-a-0 (1500) above b s-a-1 (700).
  const std::size_t pos_a = out.find("a s-a-0");
  const std::size_t pos_b = out.find("b s-a-1");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);

  InspectOptions jopts = opts;
  jopts.json = true;
  const std::string json = inspect_text(report_text_v6(), jopts);
  EXPECT_NE(json.find("\"schema\": \"satpg.inspect_memory.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"budget\""), std::string::npos);
}

TEST(InspectMemoryTest, SourcesWithoutTheBlockAreRejected) {
  InspectOptions opts;
  opts.memory = true;
  std::ostringstream os;
  std::string err;
  // A report without its memory block parses, but has nothing to show.
  EXPECT_FALSE(inspect_source(os, report_text("c17", 400), opts, &err));
  EXPECT_NE(err.find("no memory block"), std::string::npos);
  // Event logs never carry one.
  err.clear();
  EXPECT_FALSE(inspect_source(os, kEventsLog, opts, &err));
  EXPECT_NE(err.find("no memory block"), std::string::npos);
  EXPECT_TRUE(os.str().empty()) << "error paths must write nothing";
}

// A minimal satpg.profile.v1 sidecar whose circuit/engine identity block
// matches report_text(circuit, ...) — so it joins in the trend view.
// `with_cycles` models the perf_event backend; without it, the fallback.
std::string profile_text(const char* circuit, double evals_per_second,
                         bool with_cycles = false) {
  std::ostringstream os;
  const char* cyc = with_cycles ? "4000000" : "0";
  os << "{\n  \"schema\": \"satpg.profile.v1\",\n"
     << "  \"tool\": \"atpg\",\n"
     << "  \"circuit\": {\"name\": \"" << circuit << "\"},\n"
     << "  \"engine\": {\"kind\": \"cdcl\", \"seed\": 7},\n"
     << "  \"backend\": \"" << (with_cycles ? "perf_event" : "fallback")
     << "\",\n"
     << "  \"wall_seconds\": 0.5,\n"
     << "  \"work\": {\"evals\": 1300, \"patterns\": 0},\n"
     << "  \"phases\": {\n"
     << "    \"cdcl.propagate\": {\"subsystem\": \"cdcl\", \"calls\": 10, "
        "\"task_clock_ns\": 9000000, \"cycles\": " << cyc
     << ", \"instructions\": " << (with_cycles ? "8000000" : "0") << "},\n"
     << "    \"fsim.good\": {\"subsystem\": \"fsim\", \"calls\": 4, "
        "\"task_clock_ns\": 1000000, \"cycles\": 0, \"instructions\": 0},\n"
     << "    \"podem.justify\": {\"subsystem\": \"podem\", \"calls\": 0, "
        "\"task_clock_ns\": 0, \"cycles\": 0, \"instructions\": 0}},\n"
     << "  \"total\": {\"calls\": 14, \"task_clock_ns\": 10000000, "
        "\"cycles\": " << cyc << "},\n"
     << "  \"derived\": {\"evals_per_second\": " << evals_per_second;
  if (with_cycles) os << ", \"cycles_per_eval\": 3076.92";
  os << "}\n}\n";
  return os.str();
}

TEST(InspectProfileTest, RendersRankedPhaseTable) {
  InspectOptions opts;
  opts.profile = true;
  const std::string out = inspect_text(profile_text("c17", 2600.0), opts);
  EXPECT_NE(out.find("backend: fallback"), std::string::npos);
  EXPECT_NE(out.find("1300 evals"), std::string::npos);
  // Ranked by task-clock: propagate (9 ms) above fsim.good (1 ms); the
  // zero-call podem.justify row is dropped entirely.
  const std::size_t pos_prop = out.find("cdcl.propagate");
  const std::size_t pos_good = out.find("fsim.good");
  ASSERT_NE(pos_prop, std::string::npos);
  ASSERT_NE(pos_good, std::string::npos);
  EXPECT_LT(pos_prop, pos_good);
  EXPECT_EQ(out.find("podem.justify"), std::string::npos);
  // Task-clock shares: 90.0% / 10.0% of the 10 ms total.
  EXPECT_NE(out.find("90.0"), std::string::npos);
  // Fallback backend: cycle-derived columns render "-", never 0.
  EXPECT_NE(out.find("-"), std::string::npos);
  EXPECT_NE(out.find("evals_per_second"), std::string::npos);

  // perf_event sidecar: cycles and IPC (8e6 instructions / 4e6 cycles).
  const std::string perf =
      inspect_text(profile_text("c17", 2600.0, true), opts);
  EXPECT_NE(perf.find("backend: perf_event"), std::string::npos);
  EXPECT_NE(perf.find("2.00"), std::string::npos) << "ipc column";
  EXPECT_NE(perf.find("cycles_per_eval"), std::string::npos);
}

TEST(InspectProfileTest, JsonFormatIsValidAndStable) {
  InspectOptions opts;
  opts.profile = true;
  opts.json = true;
  const std::string a = inspect_text(profile_text("c17", 2600.0), opts);
  EXPECT_NE(a.find("\"schema\": \"satpg.inspect_profile.v1\""),
            std::string::npos);
  EXPECT_NE(a.find("\"backend\": \"fallback\""), std::string::npos);
  EXPECT_NE(a.find("\"phase\": \"cdcl.propagate\""), std::string::npos);
  EXPECT_NE(a.find("\"evals_per_second\": 2600"), std::string::npos);
  EXPECT_EQ(a, inspect_text(profile_text("c17", 2600.0), opts));
}

TEST(InspectProfileTest, NonProfileSourcesAreRejected) {
  InspectOptions opts;
  opts.profile = true;
  std::ostringstream os;
  std::string err;
  EXPECT_FALSE(inspect_source(os, report_text("c17", 400), opts, &err));
  EXPECT_NE(err.find("not a profile sidecar"), std::string::npos);
  err.clear();
  EXPECT_FALSE(inspect_source(os, kEventsLog, opts, &err));
  EXPECT_TRUE(os.str().empty()) << "error paths must write nothing";
}

std::string trend_text(const std::vector<TrendEntry>& entries,
                       const InspectOptions& opts) {
  std::ostringstream os;
  std::string err;
  EXPECT_TRUE(inspect_trend(os, entries, opts, &err)) << err;
  return os.str();
}

TEST(InspectTrendTest, JoinsProfilesByConfigInAppendOrder) {
  // Run 1 (c17) has a matching sidecar; run 2 (c17.re) does not — its
  // row joins to "-". The sidecar's position in append order is
  // irrelevant: the join key is the circuit/engine configuration.
  const std::vector<TrendEntry> entries = {
      {"aaaa000000000001", report_text("c17", 400)},
      {"bbbb000000000002", report_text("c17.re", 700)},
      {"cccc000000000003", profile_text("c17", 2600.0)},
  };
  const std::string out = trend_text(entries, {});
  EXPECT_NE(out.find("2 archived runs, 1 profile sidecar"),
            std::string::npos);
  // Rows stay in append order, abbreviated to 12 hash chars.
  const std::size_t pos_1 = out.find("aaaa00000000");
  const std::size_t pos_2 = out.find("bbbb00000000");
  ASSERT_NE(pos_1, std::string::npos);
  ASSERT_NE(pos_2, std::string::npos);
  EXPECT_LT(pos_1, pos_2);
  EXPECT_NE(out.find("2600"), std::string::npos) << "joined evals/s";

  InspectOptions jopts;
  jopts.json = true;
  const std::string json = trend_text(entries, jopts);
  EXPECT_NE(json.find("\"schema\": \"satpg.inspect_trend.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"evals_per_second\": 2600"), std::string::npos);
  EXPECT_NE(json.find("\"profile\": null"), std::string::npos)
      << "the unmatched c17.re row must say so explicitly";
  // Fallback sidecar: no cycles_per_eval key, rather than a bogus 0.
  EXPECT_EQ(json.find("cycles_per_eval"), std::string::npos);
  EXPECT_EQ(json, trend_text(entries, jopts)) << "byte-stable";
}

TEST(InspectTrendTest, LastSidecarPerConfigWins) {
  // Re-profiling a configuration supersedes the older sidecar.
  const std::vector<TrendEntry> entries = {
      {"aaaa000000000001", profile_text("c17", 1111.0)},
      {"bbbb000000000002", report_text("c17", 400)},
      {"cccc000000000003", profile_text("c17", 2222.0)},
  };
  const std::string out = trend_text(entries, {});
  EXPECT_NE(out.find("2222"), std::string::npos);
  EXPECT_EQ(out.find("1111"), std::string::npos);
}

TEST(InspectTrendTest, ErrorPaths) {
  std::ostringstream os;
  std::string err;
  // A malformed archived document names the offending entry.
  EXPECT_FALSE(inspect_trend(
      os, {{"deadbeef00000000", "not json"}}, {}, &err));
  EXPECT_NE(err.find("deadbeef"), std::string::npos);
  // Profiles alone make no trend: there is nothing to put in a row.
  err.clear();
  EXPECT_FALSE(inspect_trend(
      os, {{"aaaa000000000001", profile_text("c17", 2600.0)}}, {}, &err));
  EXPECT_NE(err.find("no atpg_run reports"), std::string::npos);
  // So does an empty archive.
  err.clear();
  EXPECT_FALSE(inspect_trend(os, {}, {}, &err));
  EXPECT_TRUE(os.str().empty()) << "error paths must write nothing";
}

}  // namespace
}  // namespace satpg
