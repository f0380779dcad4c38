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
//   * every cdcl run flushes exactly its golden's "tfm.evals" total;
//   * every fresh report equals its golden field for field, apart from
//     the provenance (build_info, circuit.name), so a stale golden row
//     fails even where no threshold reads it. Besides the dk16 pair this
//     covers one long cdcl search (s510.jc.sd: about 70 k conflicts and
//     hundreds of restarts), so a solver change that shifts any decision
//     shows up here.
//
// Paths are injected by CMake: SATPG_CLI_PATH / BENCH_GATE_PATH are the
// built tools, SATPG_GOLDEN_DIR the committed reports, SATPG_SMOKE_CIRCUIT
// the cached netlist and SATPG_LONG_CDCL_CIRCUIT the long cdcl search's.
// Every file a test writes is prefixed with the test's name, so tests run
// in parallel (ctest -j) never share a file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/json.h"

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

// The report without its provenance: build_info names the toolchain on
// purpose and circuit.name echoes the path the circuit was read from.
JsonValue without_provenance(const JsonValue& report) {
  std::vector<std::pair<std::string, JsonValue>> members;
  for (const auto& [key, value] : report.members()) {
    if (key == "build_info") continue;
    if (key != "circuit") {
      members.emplace_back(key, value);
      continue;
    }
    std::vector<std::pair<std::string, JsonValue>> circuit;
    for (const auto& [ckey, cvalue] : value.members())
      if (ckey != "name") circuit.emplace_back(ckey, cvalue);
    members.emplace_back(key, JsonValue::make_object(std::move(circuit)));
  }
  return JsonValue::make_object(std::move(members));
}

// The first path at which two trees differ, "" when they are equal.
// Object members are compared in document order: reports are written in
// a fixed order.
std::string first_difference(const JsonValue& a, const JsonValue& b,
                             const std::string& path) {
  if (a.kind() != b.kind()) return path;
  switch (a.kind()) {
    case JsonValue::Kind::kNull:
      return "";
    case JsonValue::Kind::kBool:
      return a.boolean() == b.boolean() ? "" : path;
    case JsonValue::Kind::kNumber:
      return a.number() == b.number() ? "" : path;
    case JsonValue::Kind::kString:
      return a.string() == b.string() ? "" : path;
    case JsonValue::Kind::kArray:
      if (a.array().size() != b.array().size()) return path + " (length)";
      for (std::size_t i = 0; i < a.array().size(); ++i) {
        const std::string d = first_difference(
            a.array()[i], b.array()[i], path + "[" + std::to_string(i) + "]");
        if (!d.empty()) return d;
      }
      return "";
    case JsonValue::Kind::kObject:
      for (std::size_t i = 0;
           i < a.members().size() || i < b.members().size(); ++i) {
        if (i >= a.members().size() || i >= b.members().size() ||
            a.members()[i].first != b.members()[i].first)
          return path + " (member " + std::to_string(i) + ")";
        const std::string d =
            first_difference(a.members()[i].second, b.members()[i].second,
                             path + "." + a.members()[i].first);
        if (!d.empty()) return d;
      }
      return "";
  }
  return path;
}

class BenchGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_";
    golden_parent_ = std::string(SATPG_GOLDEN_DIR) + "/dk16_parent.v6.json";
    golden_twin_ = std::string(SATPG_GOLDEN_DIR) + "/dk16_retimed.v6.json";
    golden_parent_cdcl_ =
        std::string(SATPG_GOLDEN_DIR) + "/dk16_parent_cdcl.v6.json";
    golden_twin_cdcl_ =
        std::string(SATPG_GOLDEN_DIR) + "/dk16_retimed_cdcl.v6.json";
    golden_long_cdcl_ = std::string(SATPG_GOLDEN_DIR) + "/s510_cdcl.v6.json";
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
  std::string golden_parent_cdcl_, golden_twin_cdcl_, golden_long_cdcl_;
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
  const std::string long_search =
      fresh_report(SATPG_LONG_CDCL_CIRCUIT, "long_tfm", "--engine=cdcl");
  EXPECT_EQ(json_counter(read_file(long_search), "tfm.evals"),
            json_counter(read_file(golden_long_cdcl_), "tfm.evals"));
}

// bench_gate compares thresholds, so a golden row that no threshold reads
// could go stale unnoticed; this compares every field.
TEST_F(BenchGateTest, FreshReportsEqualGoldensOutsideProvenance) {
  const std::string twin_bench = make_twin();
  const struct {
    std::string bench, tag, flags, golden;
  } cases[] = {
      {SATPG_SMOKE_CIRCUIT, "eq_parent", "", golden_parent_},
      {twin_bench, "eq_twin", "", golden_twin_},
      {SATPG_SMOKE_CIRCUIT, "eq_parent_cdcl", "--engine=cdcl",
       golden_parent_cdcl_},
      {twin_bench, "eq_twin_cdcl", "--engine=cdcl", golden_twin_cdcl_},
      {SATPG_LONG_CDCL_CIRCUIT, "eq_long_cdcl", "--engine=cdcl",
       golden_long_cdcl_},
  };
  for (const auto& c : cases) {
    JsonValue fresh, golden;
    std::string err;
    ASSERT_TRUE(json_parse(read_file(fresh_report(c.bench, c.tag, c.flags)),
                           &fresh, &err))
        << c.tag << ": " << err;
    ASSERT_TRUE(json_parse(read_file(c.golden), &golden, &err))
        << c.golden << ": " << err;
    EXPECT_EQ(first_difference(without_provenance(fresh),
                               without_provenance(golden), "$"),
              "")
        << c.tag << " differs from " << c.golden;
  }
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
