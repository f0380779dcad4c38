// Tests for the fault-parallel ATPG driver: bit-identical results across
// thread counts (all three engines, original + retimed circuit), the
// SharedLearningCache epoch-visibility rule, deterministic total-budget
// abort, and the wall-clock deadline plumbing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/parallel.h"
#include "fsim/fsim.h"
#include "fsm/mcnc_suite.h"
#include "retime/retime.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

Netlist mcnc_circuit(const std::string& name, double scale) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == name) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, scale));
  return synthesize(fsm, {}).netlist;
}

ParallelAtpgOptions small_options(EngineKind kind, unsigned threads) {
  ParallelAtpgOptions popts;
  popts.run.engine.kind = kind;
  popts.run.engine.eval_limit = 150'000;
  popts.run.engine.backtrack_limit = 300;
  popts.run.random_sequences = 4;
  popts.run.random_length = 24;
  popts.num_threads = threads;
  return popts;
}

// Every observable field must match bit-for-bit — the determinism contract
// of DESIGN.md §4d covers statuses, tests, traces, and work accounting.
void expect_identical(const ParallelAtpgResult& a, const ParallelAtpgResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.detected_by, b.detected_by) << what;
  EXPECT_EQ(a.run.tests, b.run.tests) << what;
  EXPECT_EQ(a.run.total_faults, b.run.total_faults) << what;
  EXPECT_EQ(a.run.detected, b.run.detected) << what;
  EXPECT_EQ(a.run.redundant, b.run.redundant) << what;
  EXPECT_EQ(a.run.aborted, b.run.aborted) << what;
  EXPECT_EQ(a.run.evals, b.run.evals) << what;
  EXPECT_EQ(a.run.backtracks, b.run.backtracks) << what;
  EXPECT_EQ(a.run.fault_coverage, b.run.fault_coverage) << what;
  EXPECT_EQ(a.run.fault_efficiency, b.run.fault_efficiency) << what;
  EXPECT_EQ(a.run.verify_failures, b.run.verify_failures) << what;
  EXPECT_EQ(a.run.fe_trace, b.run.fe_trace) << what;
  EXPECT_EQ(a.run.states_traversed, b.run.states_traversed) << what;
  EXPECT_EQ(a.aborted_by_deadline, b.aborted_by_deadline) << what;
}

// --- thread-count invariance ------------------------------------------------

class ParallelDeterminism : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ParallelDeterminism, ThreadCountInvariantOnMcncPair) {
  const Netlist orig = mcnc_circuit("s820", 0.3);
  const Netlist twin =
      retime_to_dff_target(orig, orig.num_dffs() * 2, orig.name() + ".re")
          .netlist;
  for (const Netlist* nl : {&orig, &twin}) {
    const ParallelAtpgResult base =
        run_parallel_atpg(*nl, small_options(GetParam(), 1));
    // Sanity on the baseline itself before comparing against it.
    ASSERT_EQ(base.status.size(), base.detected_by.size());
    EXPECT_EQ(base.run.detected + base.run.redundant + base.run.aborted,
              base.run.total_faults);
    for (unsigned threads : {2u, 8u}) {
      const ParallelAtpgResult r =
          run_parallel_atpg(*nl, small_options(GetParam(), threads));
      expect_identical(base, r,
                       nl->name() + " threads=" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ParallelDeterminism,
                         ::testing::Values(EngineKind::kHitec,
                                           EngineKind::kForward,
                                           EngineKind::kLearning,
                                           EngineKind::kCdcl),
                         [](const auto& info) {
                           return std::string(engine_kind_name(info.param));
                         });

// Plain fault-order reference driver, kept here as the oracle for the
// round structure: one engine walks the collapsed faults in index order,
// and every detected sequence (X filled with 0) drops the faults it
// catches. No units, rounds, stats, oracle or telemetry.
struct ReferenceRun {
  std::vector<FaultStatus> status;  ///< strict, per collapsed fault
  std::vector<TestSequence> tests;
  std::uint64_t evals = 0;
};

ReferenceRun reference_atpg(const Netlist& nl, const AtpgRunOptions& opts) {
  std::vector<Fault> faults;
  for (const auto& cf : collapse_faults(nl))
    faults.push_back(cf.representative);
  ReferenceRun ref;
  ref.status.assign(faults.size(), FaultStatus::kAborted);
  std::vector<bool> open(faults.size(), true);
  // Simulate `seqs` against the open faults; keep every sequence that
  // detects something and close the faults it detects.
  const auto drop = [&](const std::vector<TestSequence>& seqs) {
    std::vector<Fault> remaining;
    std::vector<std::size_t> remap;
    for (std::size_t j = 0; j < faults.size(); ++j)
      if (open[j]) {
        remaining.push_back(faults[j]);
        remap.push_back(j);
      }
    const auto fr = run_fault_simulation(nl, remaining, seqs, opts.fsim);
    std::vector<bool> used(seqs.size(), false);
    for (std::size_t k = 0; k < remaining.size(); ++k) {
      if (fr.detected_at[k] < 0) continue;
      used[static_cast<std::size_t>(fr.detected_at[k])] = true;
      ref.status[remap[k]] = FaultStatus::kDetected;
      open[remap[k]] = false;
    }
    for (std::size_t s = 0; s < seqs.size(); ++s)
      if (used[s]) ref.tests.push_back(seqs[s]);
  };
  drop(make_random_sequences(nl, opts.random_sequences, opts.random_length,
                             opts.seed));
  AtpgEngine engine(nl, opts.engine);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!open[i]) continue;
    FaultAttempt attempt = engine.generate(faults[i]);
    if (attempt.status == FaultStatus::kDetected) {
      for (auto& vec : attempt.sequence)
        for (auto& v : vec)
          if (v == V3::kX) v = V3::kZero;
      drop({attempt.sequence});
    }
    ref.status[i] = attempt.status;
    open[i] = false;
  }
  ref.evals = engine.total_evals();
  return ref;
}

// The round-structured driver must agree with the plain fault-order loop
// on every fault's strict status, the test set, and the work metric.
TEST(ParallelAtpgTest, MatchesSerialDriverSummary) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  const ReferenceRun ref =
      reference_atpg(nl, small_options(EngineKind::kHitec, 1).run);
  for (unsigned threads : {1u, 4u}) {
    const auto pres =
        run_parallel_atpg(nl, small_options(EngineKind::kHitec, threads));
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_EQ(pres.status, ref.status) << what;
    EXPECT_EQ(pres.run.tests, ref.tests) << what;
    EXPECT_EQ(pres.run.evals, ref.evals) << what;
  }
}

// --- deterministic total-budget abort ----------------------------------------

TEST(ParallelAtpgTest, TotalEvalBudgetAbortIsThreadCountInvariant) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  auto run_with = [&](unsigned threads) {
    ParallelAtpgOptions popts = small_options(EngineKind::kHitec, threads);
    // No random warm-up and a tight budget so exhaustion fires mid-run.
    popts.run.random_sequences = 0;
    popts.run.total_eval_budget = 2'000;
    return run_parallel_atpg(nl, popts);
  };
  const auto base = run_with(1);
  // The budget must actually bite for this test to mean anything.
  ASSERT_GT(base.run.aborted, 0u);
  for (unsigned threads : {2u, 8u})
    expect_identical(base, run_with(threads),
                     "budget threads=" + std::to_string(threads));
}

// --- wall-clock deadline ------------------------------------------------------

TEST(ParallelAtpgTest, DeadlineAbortsGracefully) {
  const Netlist nl = mcnc_circuit("s820", 0.3);
  ParallelAtpgOptions popts = small_options(EngineKind::kHitec, 2);
  popts.run.random_sequences = 0;  // force everything into the det phase
  popts.deadline_ms = 1;           // fires essentially immediately
  const auto r = run_parallel_atpg(nl, popts);
  // Accounting stays consistent no matter where the deadline cut in, and
  // deadline-hit faults are aborted, never mislabelled.
  EXPECT_EQ(r.run.detected + r.run.redundant + r.run.aborted,
            r.run.total_faults);
  EXPECT_EQ(r.status.size(), r.detected_by.size());
  std::size_t strict_detected = 0;
  for (std::size_t i = 0; i < r.status.size(); ++i) {
    if (r.status[i] == FaultStatus::kDetected) {
      ++strict_detected;
      ASSERT_GE(r.detected_by[i], 0);
      ASSERT_LT(static_cast<std::size_t>(r.detected_by[i]),
                r.run.tests.size());
    }
  }
  EXPECT_LE(r.aborted_by_deadline + strict_detected, r.status.size());
}

TEST(ParallelAtpgTest, NoDeadlineMeansNoDeadlineAborts) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  const auto r = run_parallel_atpg(nl, small_options(EngineKind::kHitec, 2));
  EXPECT_EQ(r.aborted_by_deadline, 0u);
}

// --- shared learning cache ----------------------------------------------------

// Harvest real learning entries by running a kLearning engine, then check
// the epoch-visibility and first-writer-wins rules directly.
TEST(SharedLearningCacheTest, EpochVisibilityAndFirstWriterWins) {
  const Netlist nl = mcnc_circuit("dk16", 0.4);
  EngineOptions opts;
  opts.kind = EngineKind::kLearning;
  AtpgEngine engine(nl, opts);
  const auto collapsed = collapse_faults(nl);
  for (const auto& cf : collapsed) engine.generate(cf.representative);
  ASSERT_FALSE(engine.learned_ok().empty())
      << "learning engine produced no success cache entries";

  SharedLearningCache cache;
  // Published during round 2 -> epoch 3: invisible to rounds <= 2.
  cache.publish(/*round=*/2, /*unit=*/0, engine);
  EXPECT_EQ(cache.size(), engine.learned_ok().size() +
                              engine.learned_fail().size());
  const auto& [key, prefix] = *engine.learned_ok().begin();
  std::vector<std::vector<V3>> got;
  EXPECT_FALSE(cache.view_for_round(0).lookup_ok(key, &got));
  EXPECT_FALSE(cache.view_for_round(2).lookup_ok(key, &got));
  EXPECT_TRUE(cache.view_for_round(3).lookup_ok(key, &got));
  EXPECT_EQ(got, prefix);

  // Re-publishing from an earlier round wins (smaller epoch), making the
  // entry visible earlier; re-publishing from a later round is a no-op.
  cache.publish(/*round=*/0, /*unit=*/1, engine);
  EXPECT_TRUE(cache.view_for_round(1).lookup_ok(key, &got));
  cache.publish(/*round=*/7, /*unit=*/0, engine);
  EXPECT_TRUE(cache.view_for_round(1).lookup_ok(key, &got));
  EXPECT_EQ(got, prefix);

  if (!engine.learned_fail().empty()) {
    const StateKey fail_key = *engine.learned_fail().begin();
    std::string exporter;
    std::uint32_t epoch = 0;
    EXPECT_FALSE(
        cache.view_for_round(0).lookup_fail_info(fail_key, &exporter, &epoch));
    EXPECT_TRUE(
        cache.view_for_round(1).lookup_fail_info(fail_key, &exporter, &epoch));
    EXPECT_EQ(epoch, 1u);
  }
}

}  // namespace
}  // namespace satpg
