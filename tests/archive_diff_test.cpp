// Run archive + differ: content-hash identity, idempotent add, prefix
// lookup, stale-schema refusal, report parsing, the per-fault divergence
// table, FE% milestones, infinite ratios against a zero baseline,
// deterministic diff rendering, the bench_gate thresholds, and a
// malformed-report corpus built from the committed goldens.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/rng.h"
#include "base/strutil.h"
#include "harness/archive.h"
#include "harness/diff.h"

namespace satpg {
namespace {

struct FaultRow {
  std::string name, status;
  std::uint64_t evals;
  double frac;
};

// A miniature atpg_run.v6 report: every block the differ reads.
std::string make_report(const std::string& circuit, double coverage,
                        std::uint64_t evals, double frac,
                        const std::vector<FaultRow>& faults,
                        const std::string& fe_trace = "[]") {
  std::ostringstream os;
  os << "{\n  \"schema\": \"satpg.atpg_run.v6\",\n"
     << "  \"circuit\": {\"name\": \"" << circuit << "\", \"dffs\": 3},\n"
     << "  \"engine\": {\"kind\": \"hitec\", \"eval_limit\": 100,"
        " \"backtrack_limit\": 10, \"max_forward_frames\": 40,"
        " \"max_backward_frames\": 40, \"seed\": 1},\n"
     << "  \"attribution\": {\"oracle\": \"exact\", \"num_valid\": 5,"
        " \"density\": 0.625,"
        " \"bucket_order\": [\"valid\", \"invalid\", \"unknown\"]},\n"
     << "  \"summary\": {\"total_faults\": " << faults.size()
     << ", \"fault_coverage\": " << coverage
     << ", \"fault_efficiency\": " << coverage << ", \"evals\": " << evals
     << ", \"backtracks\": 3, \"justify_calls\": 4,"
        " \"justify_failures\": 1, \"effort_invalid_frac\": "
     << frac << "},\n"
     << "  \"fe_trace\": " << fe_trace << ",\n"
     << "  \"per_fault\": [";
  for (std::size_t i = 0; i < faults.size(); ++i)
    os << (i == 0 ? "\n" : ",\n") << "    {\"fault\": \"" << faults[i].name
       << "\", \"status\": \"" << faults[i].status
       << "\", \"attempted\": true, \"evals\": " << faults[i].evals
       << ", \"backtracks\": 1, \"justify_failures\": 0,"
          " \"effort_invalid_frac\": "
       << faults[i].frac << "}";
  os << "\n  ],\n"
     << "  \"cube_provenance\": {\"exports\": 2, \"import_hits\": 6,"
        " \"exporters\": []}\n}\n";
  return os.str();
}

// The two-fault report most tests use: g1's evals vary, g2 is fixed.
std::string make_report(const std::string& circuit, double coverage,
                        std::uint64_t evals, double frac,
                        std::uint64_t g1_evals) {
  return make_report(circuit, coverage, evals, frac,
                     {{"g1 s-a-0", "detected", g1_evals, 0.25},
                      {"g2 s-a-1", "detected", 7, 0.9}});
}

// The rendered line that starts with `label`, or "" when none does.
std::string line_of(const std::string& text, const std::string& label) {
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);)
    if (line.rfind(label, 0) == 0) return line;
  return "";
}

RunReport parsed(const std::string& text) {
  RunReport r;
  std::string err;
  EXPECT_TRUE(parse_run_report(text, &r, &err)) << err;
  return r;
}

std::string rendered(const RunReport& a, const RunReport& b,
                     const DiffOptions& opts = {}) {
  std::ostringstream os;
  write_run_diff(os, a, b, diff_runs(a, b, opts));
  return os.str();
}

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps two test processes running at once from sharing it.
    dir_ = ::testing::TempDir() + "archive_test_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ArchiveTest, AddIsIdempotentAndContentHashKeyed) {
  RunArchive archive(dir_);
  const std::string report = make_report("c1", 95.0, 100, 0.1, 5);

  const ArchiveEntry e1 = archive.add(report);
  const ArchiveEntry e2 = archive.add(report);
  EXPECT_EQ(e1.hash, e2.hash);
  EXPECT_EQ(e1.hash.size(), 16u);
  EXPECT_EQ(e1.schema, "satpg.atpg_run.v6");
  EXPECT_EQ(e1.circuit, "c1");
  EXPECT_EQ(e1.engine, "hitec");
  ASSERT_EQ(archive.list().size(), 1u) << "duplicate add must not re-index";
  EXPECT_EQ(archive.load(e1), report);

  // Different content, same config -> new hash, same config digest.
  const ArchiveEntry e3 = archive.add(make_report("c1", 97.0, 80, 0.2, 5));
  EXPECT_NE(e3.hash, e1.hash);
  EXPECT_EQ(e3.config_digest, e1.config_digest);
  EXPECT_EQ(archive.list().size(), 2u);

  // Different circuit -> different config digest.
  const ArchiveEntry e4 = archive.add(make_report("c2", 95.0, 100, 0.1, 5));
  EXPECT_NE(e4.config_digest, e1.config_digest);
}

TEST_F(ArchiveTest, FindResolvesUniquePrefixes) {
  RunArchive archive(dir_);
  const ArchiveEntry e1 = archive.add(make_report("c1", 95.0, 100, 0.1, 5));
  const ArchiveEntry e2 = archive.add(make_report("c2", 90.0, 200, 0.3, 9));

  EXPECT_FALSE(archive.find("abc").has_value()) << "short prefix rejected";
  const auto full = archive.find(e1.hash);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->hash, e1.hash);
  const auto prefix = archive.find(e2.hash.substr(0, 8));
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->hash, e2.hash);
  EXPECT_FALSE(archive.find("0123456789abcdef").has_value());
}

TEST_F(ArchiveTest, AddRejectsNonReportInput) {
  RunArchive archive(dir_);
  EXPECT_THROW(archive.add("not json"), std::runtime_error);
  EXPECT_THROW(archive.add("{\"schema\": \"satpg.metrics.v1\"}"),
               std::runtime_error);
  // Only the current report schema is archived: a stale report would make
  // every later `inspect --trend` over the directory fail.
  std::string v5 = make_report("c1", 95.0, 100, 0.1, 5);
  v5.replace(v5.find("atpg_run.v6"), 11, "atpg_run.v5");
  EXPECT_THROW(archive.add(v5), std::runtime_error);
  EXPECT_TRUE(archive.list().empty());
}

TEST_F(ArchiveTest, LoadReportSpecPrefersFilesThenHashes) {
  RunArchive archive(dir_);
  const std::string report = make_report("c1", 95.0, 100, 0.1, 5);
  const ArchiveEntry e = archive.add(report);
  EXPECT_EQ(load_report_spec(archive, e.hash.substr(0, 8)), report);

  const std::string path = dir_ + "/direct.json";
  {
    std::ofstream os(path);
    os << "file wins";
  }
  EXPECT_EQ(load_report_spec(archive, path), "file wins");
  EXPECT_THROW(load_report_spec(archive, "zzzz"), std::runtime_error);
}

TEST(RunReportTest, ParsesV2Fields) {
  RunReport r;
  std::string err;
  ASSERT_TRUE(
      parse_run_report(make_report("c1", 95.5, 123, 0.42, 5), &r, &err))
      << err;
  EXPECT_EQ(r.schema, "satpg.atpg_run.v6");
  EXPECT_EQ(r.circuit, "c1");
  EXPECT_EQ(r.engine, "hitec");
  EXPECT_EQ(r.seed, 1u);
  EXPECT_DOUBLE_EQ(r.fault_coverage, 95.5);
  EXPECT_EQ(r.evals, 123u);
  EXPECT_DOUBLE_EQ(r.effort_invalid_frac, 0.42);
  EXPECT_EQ(r.oracle_mode, "exact");
  EXPECT_DOUBLE_EQ(r.density, 0.625);
  ASSERT_EQ(r.per_fault.size(), 2u);
  EXPECT_EQ(r.per_fault[0].name, "g1 s-a-0");
  EXPECT_EQ(r.per_fault[0].evals, 5u);
  EXPECT_DOUBLE_EQ(r.per_fault[1].effort_invalid_frac, 0.9);
  EXPECT_EQ(r.per_fault[1].index, 1u);
  EXPECT_EQ(r.total_faults, 2u);
  EXPECT_EQ(r.prov_exports, 2u);
  EXPECT_EQ(r.prov_hits, 6u);

  // fe_trace points whose evals uint64_t cannot hold are dropped.
  ASSERT_TRUE(parse_run_report(
      make_report("c1", 95.5, 123, 0.42, {}, "[[-1, 10], [1e30, 20], [3, 30]]"),
      &r, &err))
      << err;
  ASSERT_EQ(r.fe_trace.size(), 1u);
  EXPECT_EQ(r.fe_trace[0].first, 3u);

  EXPECT_FALSE(parse_run_report("{}", &r, &err));
  EXPECT_FALSE(parse_run_report("[1, 2]", &r, &err));
  // Only the current schema is read: an older report is refused with a
  // one-line diagnostic naming both schemas, never half-parsed.
  std::string v5 = make_report("c1", 95.5, 123, 0.42, 5);
  v5.replace(v5.find("atpg_run.v6"), 11, "atpg_run.v5");
  EXPECT_FALSE(parse_run_report(v5, &r, &err));
  EXPECT_NE(err.find("\"satpg.atpg_run.v5\""), std::string::npos) << err;
  EXPECT_NE(err.find("satpg.atpg_run.v6"), std::string::npos) << err;
  EXPECT_EQ(err.find('\n'), std::string::npos) << err;
}

// Malformed-report corpus: seeded truncations and single-byte
// substitutions of the four committed goldens. Each reader entry point
// either accepts an input or refuses it with a message; none may crash.
// An accepted report must also diff and render against its golden, as
// `satpg diff` would.
TEST(RunReportTest, MutatedGoldensFailCleanly) {
  static const char* const kGoldens[] = {"dk16_parent", "dk16_retimed",
                                         "dk16_parent_cdcl",
                                         "dk16_retimed_cdcl"};
  // Bytes that break or bend the grammar; sizeof counts the NUL too.
  static const char kBytes[] = "{}[]\",:\\-.eE+0x \n";
  constexpr int kMutantsPerGolden = 50;
  Rng rng(0x600d);
  std::size_t inputs = 0, refused = 0;
  for (const char* name : kGoldens) {
    const std::string path =
        std::string(SATPG_GOLDEN_DIR) + "/" + name + ".v6.json";
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string golden_text = ss.str();
    const RunReport golden = parsed(golden_text);
    ASSERT_FALSE(golden.per_fault.empty()) << path;
    for (int k = 0; k < kMutantsPerGolden; ++k) {
      std::string text = golden_text;
      if (k % 2 == 0)
        text.resize(rng.next_below(text.size()));
      else
        text[rng.next_below(text.size())] =
            kBytes[rng.next_below(sizeof kBytes)];
      ++inputs;
      JsonValue doc;
      std::string err;
      if (!json_parse(text, &doc, &err)) {
        EXPECT_FALSE(err.empty()) << name << " mutant " << k;
        ++refused;
      }
      RunReport r;
      err.clear();
      if (!parse_run_report(text, &r, &err)) {
        EXPECT_FALSE(err.empty()) << name << " mutant " << k;
        continue;
      }
      EXPECT_FALSE(rendered(golden, r).empty()) << name << " mutant " << k;
    }
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(refused, 0u);
  EXPECT_LT(refused, inputs);
}

TEST(RunDiffTest, ComputesDeltasRegressionsAndScatter) {
  const RunReport a = parsed(make_report("c1", 95.0, 100, 0.1, 5));
  const RunReport b = parsed(make_report("c1", 93.0, 150, 0.4, 50));

  const RunDiff d = diff_runs(a, b);
  EXPECT_DOUBLE_EQ(d.coverage_delta, -2.0);
  EXPECT_DOUBLE_EQ(d.evals_ratio, 1.5);
  EXPECT_NEAR(d.invalid_frac_delta, 0.3, 1e-12);
  // g1's evals grew 5 -> 50; g2 unchanged, so it does not diverge.
  ASSERT_EQ(d.divergent.size(), 1u);
  EXPECT_EQ(d.divergent_total, 1u);
  EXPECT_EQ(d.divergent[0].name, "g1 s-a-0");
  EXPECT_EQ(d.divergent[0].evals_delta, 45);
  EXPECT_EQ(d.divergent[0].status_a, d.divergent[0].status_b);
  // Scatter: fault fracs 0.25 and 0.9 land in bins 2 and 9 of 10.
  ASSERT_EQ(d.scatter_a.size(), 10u);
  EXPECT_EQ(d.scatter_a[2], 1u);
  EXPECT_EQ(d.scatter_a[9], 1u);
  EXPECT_EQ(d.attempted_a, 2u);
  EXPECT_EQ(d.attempted_b, 2u);
}

TEST(RunDiffTest, RenderingIsByteStable) {
  const RunReport a = parsed(make_report("c1", 95.0, 100, 0.1, 5));
  const RunReport b = parsed(make_report("c1", 93.0, 150, 0.4, 50));
  const std::string out = rendered(a, b);
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(out, rendered(a, b));
  // Every section, in order: summary (with the cube rows), milestones,
  // the one divergence table, the scatter.
  std::size_t at = 0;
  for (const char* section :
       {"=== run diff: c1 (hitec) -> c1 (hitec) ===", "cube exports",
        "cube import hits", "fault-efficiency milestones",
        "per-fault divergence (1 of 1", "effort_invalid_frac scatter"}) {
    const std::size_t pos = out.find(section, at);
    ASSERT_NE(pos, std::string::npos) << section << "\n" << out;
    at = pos;
  }
}

// One divergence table: status changes first, then |evals delta|
// descending — shrinking faults included — then name; truncated to top.
TEST(RunDiffTest, DivergenceRanksStatusChangesThenEvalsMagnitude) {
  const RunReport a = parsed(make_report(
      "c17", 80.0, 1000, 0.1,
      {{"a s-a-0", "detected", 300, 0.1}, {"b s-a-1", "detected", 400, 0.2},
       {"c s-a-0", "aborted", 900, 0.5}, {"d s-a-1", "detected", 30, 0.0}}));
  const RunReport b = parsed(make_report(
      "c17.re", 90.0, 1000, 0.1,
      {{"a s-a-0", "detected", 300, 0.1}, {"b s-a-1", "detected", 700, 0.6},
       {"c s-a-0", "detected", 860, 0.4}, {"d s-a-1", "detected", 10, 0.0}}));

  const RunDiff d = diff_runs(a, b);
  EXPECT_EQ(d.divergent_total, 3u);
  ASSERT_EQ(d.divergent.size(), 3u);
  EXPECT_EQ(d.divergent[0].name, "c s-a-0");  // status change, -40
  EXPECT_EQ(d.divergent[0].evals_delta, -40);
  EXPECT_EQ(d.divergent[1].name, "b s-a-1");  // +300
  EXPECT_EQ(d.divergent[2].name, "d s-a-1");  // -20: shrank, still listed
  EXPECT_EQ(d.divergent[2].evals_delta, -20);

  const std::string out = rendered(a, b);
  EXPECT_NE(out.find("c s-a-0  aborted->detected"), std::string::npos)
      << out;
  EXPECT_NE(out.find("-40"), std::string::npos);
  EXPECT_NE(out.find("+300"), std::string::npos);
  EXPECT_EQ(out.find("a s-a-0"), std::string::npos) << "a is identical";
  EXPECT_EQ(out.find("identical"), std::string::npos);

  DiffOptions top2;
  top2.top = 2;
  const RunDiff t = diff_runs(a, b, top2);
  EXPECT_EQ(t.divergent.size(), 2u);
  EXPECT_EQ(t.divergent_total, 3u);
  EXPECT_NE(rendered(a, b, top2).find("per-fault divergence (2 of 3"),
            std::string::npos);
}

TEST(RunDiffTest, MilestonesReadOffFeTrace) {
  const std::vector<FaultRow> faults = {{"g1 s-a-0", "detected", 5, 0.0}};
  const RunReport a = parsed(make_report(
      "c1", 96.0, 900, 0.1, faults,
      "[[100, 30.0], [400, 80.0], [900, 96.0]]"));
  const RunReport b = parsed(
      make_report("c1", 90.0, 2000, 0.1, faults, "[[500, 50.0], [2000, 90.0]]"));
  const RunDiff d = diff_runs(a, b);
  ASSERT_EQ(d.milestones.size(), 5u);
  const std::int64_t want[5][3] = {{25, 100, 500},
                                   {50, 400, 500},
                                   {75, 400, 2000},
                                   {90, 900, 2000},
                                   {95, 900, -1}};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(d.milestones[i].fe_pct, static_cast<double>(want[i][0]));
    EXPECT_EQ(d.milestones[i].evals_a, want[i][1]) << i;
    EXPECT_EQ(d.milestones[i].evals_b, want[i][2]) << i;
  }
  // "-" marks a threshold the run never reached.
  const std::string out = rendered(a, b);
  EXPECT_EQ(split_ws(line_of(out, "  95")),
            (std::vector<std::string>{"95", "900", "-"}))
      << out;
}

// "identical" is decided before truncation: top = 1 still says so for
// identical runs, and top = 0 never hides a divergence behind it.
TEST(RunDiffTest, IdenticalRunsDiffClean) {
  const RunReport a = parsed(make_report("c1", 95.0, 100, 0.1, 5));
  DiffOptions top1;
  top1.top = 1;
  EXPECT_EQ(diff_runs(a, a, top1).divergent_total, 0u);
  EXPECT_NE(rendered(a, a, top1).find("per-fault trajectories identical"),
            std::string::npos);

  const RunReport b = parsed(make_report("c1", 95.0, 100, 0.1, 50));
  DiffOptions top0;
  top0.top = 0;
  const std::string out = rendered(a, b, top0);
  EXPECT_EQ(out.find("identical"), std::string::npos) << out;
  EXPECT_NE(out.find("per-fault divergence (0 of 1"), std::string::npos);
}

TEST(RunDiffTest, EventLogsAreRejected) {
  const std::string log =
      "{\"schema\": \"satpg.events.v1\", \"circuit\": \"c17\", "
      "\"engine\": \"cdcl\", \"seed\": 7, \"faults\": 5, \"attempted\": 1}\n"
      "{\"fault\": \"a s-a-0\", \"index\": 0, \"status\": \"aborted\", "
      "\"evals\": 900, \"backtracks\": 9, \"invalid_frac\": 0.25}\n";
  RunReport r;
  std::string err;
  EXPECT_FALSE(parse_run_report(log, &r, &err));
  EXPECT_FALSE(err.empty());
  // The header line alone is valid JSON, but not a report.
  EXPECT_FALSE(parse_run_report(log.substr(0, log.find('\n')), &r, &err));
  EXPECT_NE(err.find("satpg.events.v1"), std::string::npos) << err;
}

// A baseline with zero of something makes any growth an infinite ratio:
// rendered as "inf", never as a reassuring 0.000x.
TEST(RunDiffTest, ZeroBaselineRatiosRenderInf) {
  RunReport a = parsed(make_report("c1", 95.0, 0, 0.1, 5));
  RunReport b = parsed(make_report("c1", 95.0, 40, 0.1, 5));
  a.justify_failures = 0;
  b.justify_failures = 277;
  const RunDiff d = diff_runs(a, b);
  EXPECT_TRUE(std::isinf(d.evals_ratio));
  const std::string out = rendered(a, b);
  EXPECT_EQ(split_ws(line_of(out, "justify_failures")),
            (std::vector<std::string>{"justify_failures", "0", "277", "inf"}))
      << out;
  EXPECT_EQ(out.find("0.000x"), std::string::npos) << out;
  // 0 -> 0 is no change.
  EXPECT_DOUBLE_EQ(diff_runs(a, a).evals_ratio, 1.0);
}

TEST(GateTest, ThresholdsCatchCoverageDropAndEffortGrowth) {
  const RunReport base = parsed(make_report("c1", 95.0, 100, 0.1, 5));

  // Identical candidate passes.
  EXPECT_TRUE(evaluate_gate(base, base).pass);

  // Coverage drop beyond the threshold fails.
  RunReport cand = parsed(make_report("c1", 93.0, 100, 0.1, 5));
  GateResult g = evaluate_gate(base, cand);
  EXPECT_FALSE(g.pass);
  ASSERT_EQ(g.violations.size(), 1u);
  EXPECT_NE(g.violations[0].find("coverage"), std::string::npos);

  // Effort growth beyond the ratio fails; loosening the threshold passes.
  cand = parsed(make_report("c1", 95.0, 200, 0.1, 5));
  EXPECT_FALSE(evaluate_gate(base, cand).pass);
  GateOptions loose;
  loose.max_effort_ratio = 3.0;
  EXPECT_TRUE(evaluate_gate(base, cand, loose).pass);

  // Coverage gains never trip the gate.
  cand = parsed(make_report("c1", 99.0, 100, 0.1, 5));
  EXPECT_TRUE(evaluate_gate(base, cand).pass);

  // Any effort from a zero-eval baseline is infinite growth: it fails at
  // every finite threshold, and the violation says "inf".
  const RunReport idle = parsed(make_report("c1", 95.0, 0, 0.1, 5));
  GateOptions huge;
  huge.max_effort_ratio = 1e9;
  g = evaluate_gate(idle, base, huge);
  EXPECT_FALSE(g.pass);
  ASSERT_EQ(g.violations.size(), 1u);
  EXPECT_NE(g.violations[0].find("effort grew inf (0 -> 100 evals)"),
            std::string::npos)
      << g.violations[0];
  EXPECT_TRUE(evaluate_gate(idle, idle).pass);
}

}  // namespace
}  // namespace satpg
