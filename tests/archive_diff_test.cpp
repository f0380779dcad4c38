// Run archive + differ: content-hash identity, idempotent add, prefix
// lookup, report parsing, deterministic diff rendering, and the bench_gate
// thresholds.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "base/json.h"
#include "harness/archive.h"
#include "harness/diff.h"

namespace satpg {
namespace {

// A miniature atpg_run.v6 report: every block the differ reads.
std::string make_report(const std::string& circuit, double coverage,
                        std::uint64_t evals, double frac,
                        const std::string& fault_evals) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"satpg.atpg_run.v6\",\n"
     << "  \"circuit\": {\"name\": \"" << circuit << "\", \"dffs\": 3},\n"
     << "  \"engine\": {\"kind\": \"hitec\", \"eval_limit\": 100,"
        " \"backtrack_limit\": 10, \"max_forward_frames\": 40,"
        " \"max_backward_frames\": 40, \"seed\": 1},\n"
     << "  \"attribution\": {\"oracle\": \"exact\", \"num_valid\": 5,"
        " \"density\": 0.625,"
        " \"bucket_order\": [\"valid\", \"invalid\", \"unknown\"]},\n"
     << "  \"summary\": {\"total_faults\": 2, \"detected\": 2,"
        " \"fault_coverage\": "
     << coverage << ", \"fault_efficiency\": " << coverage
     << ", \"evals\": " << evals
     << ", \"backtracks\": 3, \"justify_calls\": 4,"
        " \"justify_failures\": 1, \"effort_invalid_frac\": "
     << frac << "},\n"
     << "  \"per_fault\": [\n"
     << "    {\"fault\": \"g1 s-a-0\", \"status\": \"detected\","
        " \"attempted\": true, \"evals\": "
     << fault_evals
     << ", \"backtracks\": 1, \"justify_failures\": 0,"
        " \"effort_invalid_frac\": 0.25},\n"
     << "    {\"fault\": \"g2 s-a-1\", \"status\": \"detected\","
        " \"attempted\": true, \"evals\": 7, \"backtracks\": 2,"
        " \"justify_failures\": 1, \"effort_invalid_frac\": 0.9}\n"
     << "  ]\n}\n";
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
  const std::string report = make_report("c1", 95.0, 100, 0.1, "5");

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
  const ArchiveEntry e3 = archive.add(make_report("c1", 97.0, 80, 0.2, "5"));
  EXPECT_NE(e3.hash, e1.hash);
  EXPECT_EQ(e3.config_digest, e1.config_digest);
  EXPECT_EQ(archive.list().size(), 2u);

  // Different circuit -> different config digest.
  const ArchiveEntry e4 = archive.add(make_report("c2", 95.0, 100, 0.1, "5"));
  EXPECT_NE(e4.config_digest, e1.config_digest);
}

TEST_F(ArchiveTest, FindResolvesUniquePrefixes) {
  RunArchive archive(dir_);
  const ArchiveEntry e1 = archive.add(make_report("c1", 95.0, 100, 0.1, "5"));
  const ArchiveEntry e2 = archive.add(make_report("c2", 90.0, 200, 0.3, "9"));

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
  EXPECT_THROW(archive.add_file(dir_ + "/no_such_file.json"),
               std::runtime_error);
}

TEST_F(ArchiveTest, LoadReportSpecPrefersFilesThenHashes) {
  RunArchive archive(dir_);
  const std::string report = make_report("c1", 95.0, 100, 0.1, "5");
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
      parse_run_report(make_report("c1", 95.5, 123, 0.42, "5"), &r, &err))
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

  EXPECT_FALSE(parse_run_report("{}", &r, &err));
  EXPECT_FALSE(parse_run_report("[1, 2]", &r, &err));
  // Only the current schema is read: an older report is refused with a
  // one-line diagnostic naming both schemas, never half-parsed.
  std::string v5 = make_report("c1", 95.5, 123, 0.42, "5");
  v5.replace(v5.find("atpg_run.v6"), 11, "atpg_run.v5");
  EXPECT_FALSE(parse_run_report(v5, &r, &err));
  EXPECT_NE(err.find("\"satpg.atpg_run.v5\""), std::string::npos) << err;
  EXPECT_NE(err.find("satpg.atpg_run.v6"), std::string::npos) << err;
  EXPECT_EQ(err.find('\n'), std::string::npos) << err;
}

TEST(RunDiffTest, ComputesDeltasRegressionsAndScatter) {
  RunReport a, b;
  std::string err;
  ASSERT_TRUE(
      parse_run_report(make_report("c1", 95.0, 100, 0.1, "5"), &a, &err));
  ASSERT_TRUE(
      parse_run_report(make_report("c1", 93.0, 150, 0.4, "50"), &b, &err));

  const RunDiff d = diff_runs(a, b);
  EXPECT_DOUBLE_EQ(d.coverage_delta, -2.0);
  EXPECT_DOUBLE_EQ(d.evals_ratio, 1.5);
  EXPECT_NEAR(d.invalid_frac_delta, 0.3, 1e-12);
  // g1's evals grew 5 -> 50; g2 unchanged.
  ASSERT_EQ(d.regressions.size(), 1u);
  EXPECT_EQ(d.regressions[0].name, "g1 s-a-0");
  EXPECT_EQ(d.regressions[0].evals_delta, 45);
  EXPECT_TRUE(d.status_changes.empty());
  // Scatter: fault fracs 0.25 and 0.9 land in bins 2 and 9 of 10.
  ASSERT_EQ(d.scatter_a.size(), 10u);
  EXPECT_EQ(d.scatter_a[2], 1u);
  EXPECT_EQ(d.scatter_a[9], 1u);
  EXPECT_EQ(d.attempted_a, 2u);
  EXPECT_EQ(d.attempted_b, 2u);
}

TEST(RunDiffTest, RenderingIsByteStable) {
  RunReport a, b;
  std::string err;
  ASSERT_TRUE(
      parse_run_report(make_report("c1", 95.0, 100, 0.1, "5"), &a, &err));
  ASSERT_TRUE(
      parse_run_report(make_report("c1", 93.0, 150, 0.4, "50"), &b, &err));
  const RunDiff d = diff_runs(a, b);
  std::ostringstream o1, o2;
  write_run_diff(o1, a, b, d);
  write_run_diff(o2, a, b, diff_runs(a, b));
  EXPECT_FALSE(o1.str().empty());
  EXPECT_EQ(o1.str(), o2.str());
  EXPECT_NE(o1.str().find("effort_invalid_frac scatter"), std::string::npos);
}

TEST(GateTest, ThresholdsCatchCoverageDropAndEffortGrowth) {
  RunReport base, cand;
  std::string err;
  ASSERT_TRUE(
      parse_run_report(make_report("c1", 95.0, 100, 0.1, "5"), &base, &err));

  // Identical candidate passes.
  EXPECT_TRUE(evaluate_gate(base, base).pass);

  // Coverage drop beyond the threshold fails.
  ASSERT_TRUE(
      parse_run_report(make_report("c1", 93.0, 100, 0.1, "5"), &cand, &err));
  GateResult g = evaluate_gate(base, cand);
  EXPECT_FALSE(g.pass);
  ASSERT_EQ(g.violations.size(), 1u);
  EXPECT_NE(g.violations[0].find("coverage"), std::string::npos);

  // Effort growth beyond the ratio fails; loosening the threshold passes.
  ASSERT_TRUE(
      parse_run_report(make_report("c1", 95.0, 200, 0.1, "5"), &cand, &err));
  EXPECT_FALSE(evaluate_gate(base, cand).pass);
  GateOptions loose;
  loose.max_effort_ratio = 3.0;
  EXPECT_TRUE(evaluate_gate(base, cand, loose).pass);

  // Coverage gains never trip the gate.
  ASSERT_TRUE(
      parse_run_report(make_report("c1", 99.0, 100, 0.1, "5"), &cand, &err));
  EXPECT_TRUE(evaluate_gate(base, cand).pass);
}

}  // namespace
}  // namespace satpg
