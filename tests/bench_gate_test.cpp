// Tier-2 regression-gate test: runs the real satpg CLI and bench_gate
// binaries against checked-in golden atpg_run.v6 reports (bench/golden/)
// for one cached MCNC circuit and its retimed twin, for both the default
// (hitec) engine and the cdcl engine.
//
// Contracts:
//   * a freshly generated report for the cached circuit gates cleanly
//     against its golden (the run is deterministic, so coverage and evals
//     cannot have moved unless the engine changed);
//   * same for the retimed twin, and for both cdcl goldens;
//   * gating the twin against the parent trips the effort threshold —
//     the Figure-3 blowup the gate exists to catch;
//   * on the retimed twin, cdcl with cross-fault cube sharing spends
//     strictly fewer conflicts than the same run with
//     --no-shared-learning (the headline benefit of the shared cache);
//   * the --mem gate passes a fresh run against its golden at the default
//     ratio and flags the same pair once the ratio is squeezed below 1;
//   * both cdcl runs flush exactly their goldens' "tfm.evals" total.
//
// Paths are injected by CMake: SATPG_CLI_PATH / BENCH_GATE_PATH are the
// built tools, SATPG_GOLDEN_DIR the committed reports, SATPG_SMOKE_CIRCUIT
// the cached netlist.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace satpg {
namespace {

// Flags must match tools/gen_golden.sh, which produced the goldens.
constexpr const char* kGoldenFlags = "--budget=0.2 --seed=7 --threads=2";

int run_cmd(const std::string& cmd) {
  const int rc = std::system((cmd + " > /dev/null 2>&1").c_str());
  return rc < 0 ? -1 : WEXITSTATUS(rc);
}

std::string sh_quote(const std::string& s) { return "\"" + s + "\""; }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Pull an unsigned counter ("key": N) out of a metrics report. The first
// occurrence is the run-summary value for summary counters; for per-fault
// counters like cube_blocks, json_counter_sum totals every record.
unsigned long long json_counter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing counter " << key;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + needle.size()));
}

unsigned long long json_counter_sum(const std::string& json,
                                    const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  unsigned long long total = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size()))
    total += std::stoull(json.substr(at + needle.size()));
  return total;
}

class BenchGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    golden_parent_ = std::string(SATPG_GOLDEN_DIR) + "/dk16_parent.v6.json";
    golden_twin_ = std::string(SATPG_GOLDEN_DIR) + "/dk16_retimed.v6.json";
    golden_parent_cdcl_ =
        std::string(SATPG_GOLDEN_DIR) + "/dk16_parent_cdcl.v6.json";
    golden_twin_cdcl_ =
        std::string(SATPG_GOLDEN_DIR) + "/dk16_retimed_cdcl.v6.json";
  }

  // Regenerate the twin netlist and a fresh report for `bench`.
  std::string fresh_report(const std::string& bench, const std::string& tag,
                           const std::string& extra_flags = "") {
    const std::string out = dir_ + "gate_" + tag + ".json";
    EXPECT_EQ(run_cmd(sh_quote(SATPG_CLI_PATH) + " atpg " + sh_quote(bench) +
                      " " + kGoldenFlags + " " + extra_flags +
                      " --metrics-json=" + out),
              0);
    return out;
  }

  // Retime the smoke circuit to the golden twin netlist; returns its path.
  std::string make_twin() {
    const std::string twin_bench = dir_ + "gate_twin.bench";
    EXPECT_EQ(run_cmd(sh_quote(SATPG_CLI_PATH) + " retime " +
                      sh_quote(SATPG_SMOKE_CIRCUIT) + " " +
                      sh_quote(twin_bench) + " --dffs=6"),
              0);
    return twin_bench;
  }

  std::string dir_, golden_parent_, golden_twin_;
  std::string golden_parent_cdcl_, golden_twin_cdcl_;
};

TEST_F(BenchGateTest, FreshParentReportGatesCleanlyAgainstGolden) {
  const std::string fresh = fresh_report(SATPG_SMOKE_CIRCUIT, "parent");
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " " + sh_quote(golden_parent_) +
                    " " + sh_quote(fresh)),
            0);
}

TEST_F(BenchGateTest, FreshTwinReportGatesCleanlyAgainstGolden) {
  const std::string fresh = fresh_report(make_twin(), "twin");
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " " + sh_quote(golden_twin_) +
                    " " + sh_quote(fresh)),
            0);
}

TEST_F(BenchGateTest, FreshCdclReportsGateCleanlyAgainstGoldens) {
  const std::string parent =
      fresh_report(SATPG_SMOKE_CIRCUIT, "parent_cdcl", "--engine=cdcl");
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " " +
                    sh_quote(golden_parent_cdcl_) + " " + sh_quote(parent)),
            0);
  const std::string twin =
      fresh_report(make_twin(), "twin_cdcl", "--engine=cdcl");
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " " +
                    sh_quote(golden_twin_cdcl_) + " " + sh_quote(twin)),
            0);
}

// The CDCL engine copies its lifting models from per-window templates;
// templates never flush into the "tfm.evals" registry counter and every
// copy does, so the registry total is exactly what a fresh model per lift
// gave when the goldens were recorded.
TEST_F(BenchGateTest, CdclRegistryEvalsMatchGoldens) {
  const std::string parent =
      fresh_report(SATPG_SMOKE_CIRCUIT, "parent_tfm", "--engine=cdcl");
  EXPECT_EQ(json_counter(read_file(parent), "tfm.evals"),
            json_counter(read_file(golden_parent_cdcl_), "tfm.evals"));
  const std::string twin =
      fresh_report(make_twin(), "twin_tfm", "--engine=cdcl");
  EXPECT_EQ(json_counter(read_file(twin), "tfm.evals"),
            json_counter(read_file(golden_twin_cdcl_), "tfm.evals"));
}

TEST_F(BenchGateTest, TwinAgainstParentTripsTheEffortThreshold) {
  // The retimed twin burns far more evals than its parent on the same
  // budget flags — the regression the gate must flag (exit 1).
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " " + sh_quote(golden_parent_) +
                    " " + sh_quote(golden_twin_)),
            1);
  // A sufficiently loose threshold lets the same pair pass, provided
  // coverage held up.
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " " + sh_quote(golden_parent_) +
                    " " + sh_quote(golden_twin_) +
                    " --max-effort-ratio=1e9 --max-coverage-drop=100"),
            0);
}

TEST_F(BenchGateTest, SharedLearningSpendsFewerConflictsOnTheTwin) {
  const std::string twin_bench = make_twin();
  const std::string shared = fresh_report(twin_bench, "twin_shared",
                                          "--engine=cdcl");
  const std::string solo = fresh_report(twin_bench, "twin_solo",
                                        "--engine=cdcl --no-shared-learning");
  const unsigned long long shared_conflicts =
      json_counter(read_file(shared), "conflicts");
  const unsigned long long solo_conflicts =
      json_counter(read_file(solo), "conflicts");
  EXPECT_LT(shared_conflicts, solo_conflicts)
      << "cube sharing should strictly reduce total conflicts on the "
         "retimed twin";
  EXPECT_GT(json_counter_sum(read_file(shared), "cube_blocks"), 0ull)
      << "the shared run never imported a proven cube — sharing was inert";
}

TEST_F(BenchGateTest, MemGatePassesCleanRunsAndCatchesGrowth) {
  const std::string fresh = fresh_report(SATPG_SMOKE_CIRCUIT, "parent_mem");
  // Deterministic accounting: a fresh run's peak bytes sit within the
  // default 1.25x of the golden's.
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " " + sh_quote(golden_parent_) +
                    " " + sh_quote(fresh) + " --mem"),
            0);
  // A ratio below 1.0 makes even byte-identical accounting a violation —
  // proves the check is wired, not vacuous.
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " " + sh_quote(golden_parent_) +
                    " " + sh_quote(fresh) + " --mem --max-mem-ratio=0.5"),
            1);
}

TEST_F(BenchGateTest, UsageErrorsExitTwo) {
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH)), 2);
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " " + sh_quote(golden_parent_) +
                    " /no/such/report.json"),
            2);
  // Thresholds are strict: not a finite decimal, a negative coverage drop
  // or a non-positive ratio is a usage error, never a silent 0.
  const std::string self = sh_quote(BENCH_GATE_PATH) + " " +
                           sh_quote(golden_parent_) + " " +
                           sh_quote(golden_parent_) + " ";
  for (const char* bad :
       {"--max-effort-ratio=abc", "--max-effort-ratio=0",
        "--max-effort-ratio=inf", "--max-coverage-drop=-1",
        "--max-coverage-drop=nan", "--max-coverage-drop=",
        "--mem --max-mem-ratio=-2", "--mem --max-mem-ratio=1.5x"})
    EXPECT_EQ(run_cmd(self + bad), 2) << bad;
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " --fsim " +
                    sh_quote(golden_parent_) + " --min-fsim-speedup=fast"),
            2);
  // The profile table moved to `satpg inspect --profile`.
  EXPECT_EQ(run_cmd(sh_quote(BENCH_GATE_PATH) + " --profile " +
                    sh_quote(golden_parent_)),
            2);
  // A golden gated against itself passes, also at a zero coverage drop.
  EXPECT_EQ(run_cmd(self + "--max-coverage-drop=0 --max-effort-ratio=1"), 0);
}

}  // namespace
}  // namespace satpg
