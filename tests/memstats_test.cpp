// Tests for the base/memstats byte-accounting layer (DESIGN.md §11): the
// MemTally fold semantics the parallel driver's merge barrier relies on,
// the disabled-mode no-op contract of both accounting planes, and the
// merge contract itself on a real MCNC circuit and its retimed twin —
// the folded memory block must be byte-identical at 1/2/8 threads, the
// per-fault attempt peaks must be consistent with the folded totals, and
// a deterministic memory budget must park-and-requeue its way to the
// exact coverage of the unbudgeted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "atpg/parallel.h"
#include "base/memstats.h"
#include "fsm/mcnc_suite.h"
#include "retime/retime.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

// --- tally / registry unit contracts ---------------------------------------

TEST(MemTallyTest, ChargeReleaseTracksLiveAndPeak) {
  MemTally t;
  t.charge(MemSubsystem::kCdclClauseDb, 100);
  t.charge(MemSubsystem::kCnfEncoder, 50);
  EXPECT_EQ(t.live, 150u);
  EXPECT_EQ(t.peak, 150u);
  t.release(MemSubsystem::kCnfEncoder, 50);
  t.charge(MemSubsystem::kCdclClauseDb, 20);
  EXPECT_EQ(t.live, 120u);
  EXPECT_EQ(t.peak, 150u) << "peak is the historical maximum";
  const auto& db = t.acct[static_cast<std::size_t>(MemSubsystem::kCdclClauseDb)];
  EXPECT_EQ(db.allocated, 120u);
  EXPECT_EQ(db.allocs, 2u);
  EXPECT_EQ(db.peak, 120u);
  EXPECT_EQ(t.total_allocated(), 170u);
  // Subsystem peaks need not coincide in time: the upper bound is their
  // sum, never less than the true cross-subsystem peak.
  EXPECT_EQ(t.peak_upper_bound(), 170u);
  EXPECT_GE(t.peak_upper_bound(), t.peak);
}

TEST(MemTallyTest, AddIsCommutative) {
  MemTally a, b;
  a.charge(MemSubsystem::kTfmFrames, 300);
  a.release(MemSubsystem::kTfmFrames, 300);
  b.charge(MemSubsystem::kTfmFrames, 100);
  b.charge(MemSubsystem::kDecisionRing, 40);

  MemTally ab = a, ba = b;
  ab.add(b);
  ba.add(a);
  std::ostringstream os_ab, os_ba;
  ab.write_json(os_ab);
  ba.write_json(os_ba);
  EXPECT_EQ(os_ab.str(), os_ba.str())
      << "fold must not depend on merge order";
  EXPECT_EQ(ab.total_allocated(), 440u);
  EXPECT_EQ(ab.peak, 300u);
}

TEST(MemTallyTest, JsonEmitsEverySubsystemSortedAndNoWall) {
  MemTally t;
  std::ostringstream os;
  t.write_json(os);
  const std::string json = os.str();
  // Zero-activity rows still appear: the block's shape is a schema
  // constant. Enum order is sorted-name order, so the text order is too.
  std::size_t prev = 0;
  for (std::size_t i = 0; i < kNumMemSubsystems; ++i) {
    const char* name = mem_subsystem_name(static_cast<MemSubsystem>(i));
    const std::size_t at = json.find(std::string("\"") + name + "\"");
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_GT(at, prev) << name << " out of sorted order";
    prev = at;
    EXPECT_EQ(std::string(name).find("wall"), std::string::npos);
  }
  EXPECT_NE(json.find("\"total\""), std::string::npos);
}

TEST(MemScopeTest, NullTallyIsANoOpAndResizeRestates) {
  // Must not crash.
  MemScope noop(nullptr, MemSubsystem::kFsimWideLanes, 1000);
  MemTally t;
  {
    MemScope s(&t, MemSubsystem::kFsimWideLanes, 100);
    EXPECT_EQ(t.live, 100u);
    s.resize(250);
    EXPECT_EQ(t.live, 250u);
    EXPECT_EQ(t.peak, 250u);
    s.resize(80);
    EXPECT_EQ(t.live, 80u);
  }
  EXPECT_EQ(t.live, 0u) << "scope releases its footprint on destruction";
  EXPECT_EQ(t.peak, 250u);
}

TEST(MemRegistryTest, DisabledChargesAreDropped) {
  MemStatsRegistry& reg = MemStatsRegistry::global();
  reg.reset();
  set_memstats_enabled(false);
  reg.charge(MemSubsystem::kBddOracle, 4096, 4096);
  EXPECT_EQ(reg.live_bytes(), 0u);
  EXPECT_EQ(reg.snapshot().total_allocated(), 0u);
}

TEST(MemRegistryTest, PeakIsMaxOfHintsAndLive) {
  MemStatsRegistry& reg = MemStatsRegistry::global();
  reg.reset();
  set_memstats_enabled(true);
  reg.charge(MemSubsystem::kFsimWideLanes, 100, 700);
  reg.release(MemSubsystem::kFsimWideLanes, 100);
  reg.charge(MemSubsystem::kFsimWideLanes, 300, 300);
  const MemTally snap = reg.snapshot();
  set_memstats_enabled(false);
  reg.reset();
  const auto& a =
      snap.acct[static_cast<std::size_t>(MemSubsystem::kFsimWideLanes)];
  EXPECT_EQ(a.live(), 300u);
  EXPECT_EQ(a.peak, 700u) << "explicit hint dominates live-at-snapshot";
  EXPECT_EQ(a.allocated, 400u);
}

// --- merge contract on a real circuit --------------------------------------

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

// Run with both accounting planes armed, leaving the global registry
// clean afterwards so suites stay order-independent.
ParallelAtpgResult armed_run(const Netlist& nl,
                             const ParallelAtpgOptions& popts) {
  MemStatsRegistry::global().reset();
  set_memstats_enabled(true);
  ParallelAtpgResult r = run_parallel_atpg(nl, popts);
  set_memstats_enabled(false);
  MemStatsRegistry::global().reset();
  return r;
}

std::string mem_json(const MemTally& t) {
  std::ostringstream os;
  t.write_json(os);
  return os.str();
}

// The tentpole contract: the folded memory block is a pure function of
// (netlist, faults, options) — byte-identical at any thread count, on
// the parent circuit and on its state-equivalent retimed twin, for a
// structural engine and for the cdcl engine.
TEST(MemstatsMergeTest, MemoryBlockThreadInvariantOnMcncPair) {
  const Netlist orig = mcnc_circuit("s820", 0.3);
  const Netlist twin =
      retime_to_dff_target(orig, orig.num_dffs() * 2, orig.name() + ".re")
          .netlist;
  for (const Netlist* nl : {&orig, &twin}) {
    for (EngineKind kind : {EngineKind::kHitec, EngineKind::kCdcl}) {
      const ParallelAtpgResult base =
          armed_run(*nl, small_options(kind, 1));
      const std::string base_json = mem_json(base.mem);
      EXPECT_GT(base.mem.total_allocated(), 0u)
          << nl->name() << " never charged a byte with accounting armed";
      for (unsigned threads : {2u, 8u}) {
        const ParallelAtpgResult r =
            armed_run(*nl, small_options(kind, threads));
        EXPECT_EQ(mem_json(r.mem), base_json)
            << nl->name() << " engine=" << engine_kind_name(kind)
            << " threads=" << threads;
      }
    }
  }
}

// Disabled mode is a true no-op: no tally attached, no registry charges,
// all-zero block, zero per-fault peaks.
TEST(MemstatsMergeTest, DisabledRunCarriesZeroBytes) {
  const Netlist nl = mcnc_circuit("s820", 0.3);
  set_memstats_enabled(false);
  MemStatsRegistry::global().reset();
  const ParallelAtpgResult r =
      run_parallel_atpg(nl, small_options(EngineKind::kCdcl, 2));
  EXPECT_EQ(r.mem.total_allocated(), 0u);
  EXPECT_EQ(r.mem.peak, 0u);
  for (const FaultSearchStats& s : r.fault_stats)
    EXPECT_EQ(s.peak_bytes, 0u);
}

// Per-fault attempt peaks must be consistent with the folded block: the
// fold takes the max over attempts, so no fault can report a peak above
// the block's, and the block's peak never exceeds the sum-of-subsystem
// upper bound it is reported under.
TEST(MemstatsMergeTest, PerFaultPeaksConsistentWithFold) {
  const Netlist nl = mcnc_circuit("s820", 0.3);
  const ParallelAtpgResult r =
      armed_run(nl, small_options(EngineKind::kCdcl, 2));
  std::uint64_t max_peak = 0;
  for (const FaultSearchStats& s : r.fault_stats) {
    EXPECT_LE(s.peak_bytes, r.mem.peak);
    max_peak = std::max(max_peak, s.peak_bytes);
  }
  EXPECT_GT(max_peak, 0u) << "cdcl attempts never charged the clause DB";
  EXPECT_LE(r.mem.peak, r.mem.peak_upper_bound());
  EXPECT_GE(r.mem.total_allocated(), max_peak);
}

// The budget contract: a budget tight enough to trip mid-search parks the
// offending faults and requeues them with the limit lifted, so statuses
// and coverage are bit-identical to the unbudgeted run — and the budgeted
// run itself stays thread-invariant.
TEST(MemstatsMergeTest, BudgetParksRequeuesAndPreservesCoverage) {
  const Netlist nl = mcnc_circuit("s820", 0.3);
  const ParallelAtpgResult free_run =
      armed_run(nl, small_options(EngineKind::kCdcl, 2));
  std::uint64_t max_peak = 0;
  for (const FaultSearchStats& s : free_run.fault_stats)
    max_peak = std::max(max_peak, s.peak_bytes);
  ASSERT_GT(max_peak, 0u);

  // Half the hungriest attempt's peak: guaranteed to trip at least once.
  ParallelAtpgOptions popts = small_options(EngineKind::kCdcl, 2);
  popts.mem_budget_bytes = max_peak / 2;
  const ParallelAtpgResult budgeted = armed_run(nl, popts);
  EXPECT_GT(budgeted.mem_tripped, 0u);
  EXPECT_GT(budgeted.mem_requeued, 0u);
  EXPECT_EQ(budgeted.mem_budget_bytes, popts.mem_budget_bytes);

  EXPECT_EQ(budgeted.status, free_run.status)
      << "degradation must not change any fault's outcome";
  EXPECT_EQ(budgeted.run.detected, free_run.run.detected);
  EXPECT_EQ(budgeted.run.fault_coverage, free_run.run.fault_coverage);
  EXPECT_EQ(budgeted.run.fault_efficiency, free_run.run.fault_efficiency);

  for (unsigned threads : {1u, 8u}) {
    ParallelAtpgOptions p2 = popts;
    p2.num_threads = threads;
    const ParallelAtpgResult r = armed_run(nl, p2);
    EXPECT_EQ(r.status, budgeted.status) << "threads=" << threads;
    EXPECT_EQ(r.mem_tripped, budgeted.mem_tripped) << "threads=" << threads;
    EXPECT_EQ(r.mem_requeued, budgeted.mem_requeued)
        << "threads=" << threads;
    EXPECT_EQ(mem_json(r.mem), mem_json(budgeted.mem))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace satpg
