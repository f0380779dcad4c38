// Differential tests for the wide (PPSFP) fault-simulation engine:
// per-tier kernel selftests, wide == baseline == serial cross-checks on
// hand, MCNC and cached circuits (plus retimed twins), pin faults against
// the serial reference, potential-detect semantics, first-detection
// tie-breaks, ragged sequence lengths, single-sequence calls on default
// options, PVW invariants, and metrics parity between engines. Every check
// runs for each SIMD tier the build + CPU can execute, always including the
// portable scalar kernel — the results contract is byte-identity across
// tiers, thread counts, and engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "atpg/engine.h"
#include "base/metrics.h"
#include "fsim/fsim.h"
#include "fsm/mcnc_suite.h"
#include "netlist/bench_io.h"
#include "retime/retime.h"
#include "sim/statekey.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

// Every tier the current build + CPU can execute (scalar always can).
std::vector<SimdTier> usable_tiers() {
  std::vector<SimdTier> tiers;
  for (const SimdTier t : {SimdTier::kScalar, SimdTier::kSse2,
                           SimdTier::kAvx2, SimdTier::kAvx512})
    if (fsim_wide_tier_usable(t)) tiers.push_back(t);
  return tiers;
}

// 1-bit toggle with reset: q' = rst ? 0 : !q ; out = q.
Netlist toggler() {
  Netlist nl("tog");
  const NodeId rst = nl.add_input("rst");
  const NodeId q = nl.add_dff("q", rst, FfInit::kUnknown);
  const NodeId nq = nl.add_gate(GateType::kNot, "nq", {q});
  const NodeId nrst = nl.add_gate(GateType::kNot, "nrst", {rst});
  const NodeId d = nl.add_gate(GateType::kAnd, "d", {nq, nrst});
  nl.set_fanin(q, 0, d);
  nl.add_output("o", q);
  return nl;
}

TestSequence seq_of(std::initializer_list<int> rst_bits) {
  TestSequence s;
  for (int b : rst_bits) s.push_back({b ? V3::kOne : V3::kZero});
  return s;
}

FsimResult run_wide(const Netlist& nl, const std::vector<Fault>& faults,
                    const std::vector<TestSequence>& seqs, SimdTier tier,
                    unsigned threads = 1) {
  FsimOptions opts;
  opts.num_threads = threads;
  opts.engine = FsimEngine::kWide;
  opts.simd = tier;
  return run_fault_simulation(nl, faults, seqs, opts);
}

FsimResult run_baseline(const Netlist& nl, const std::vector<Fault>& faults,
                        const std::vector<TestSequence>& seqs,
                        unsigned threads = 1) {
  FsimOptions opts;
  opts.num_threads = threads;
  opts.engine = FsimEngine::kBaseline64;
  return run_fault_simulation(nl, faults, seqs, opts);
}

void expect_same_result(const FsimResult& a, const FsimResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.detected_at, b.detected_at) << label;
  EXPECT_EQ(a.potential_at, b.potential_at) << label;
  EXPECT_EQ(a.good_states, b.good_states) << label;
  EXPECT_EQ(a.num_detected, b.num_detected) << label;
}

TEST(WideKernelTest, SelftestPassesOnEveryUsableTier) {
  for (const SimdTier tier : usable_tiers())
    EXPECT_TRUE(run_wide_kernel_selftest(tier)) << simd_tier_name(tier);
  EXPECT_TRUE(run_wide_kernel_selftest(SimdTier::kAuto));
}

TEST(WideKernelTest, TierResolutionRespectsLadder) {
  // kScalar is always usable and kAuto resolves to something usable.
  EXPECT_TRUE(fsim_wide_tier_usable(SimdTier::kScalar));
  EXPECT_TRUE(fsim_wide_tier_usable(SimdTier::kAuto));
  EXPECT_TRUE(fsim_wide_tier_usable(fsim_wide_resolve_tier(SimdTier::kAuto)));
}

TEST(WideFsimTest, MatchesSerialOnToggler) {
  const Netlist nl = toggler();
  const auto faults = enumerate_faults(nl);
  // 9 sequences: spans two lane groups; varied content per lane.
  std::vector<TestSequence> seqs;
  for (int k = 0; k < 9; ++k) {
    TestSequence s = seq_of({1, 0, 0, 0, 1, 0, 0});
    for (int c = 0; c < k % 4; ++c) s.push_back({V3::kZero});
    seqs.push_back(s);
  }
  for (const SimdTier tier : usable_tiers()) {
    const auto wide = run_wide(nl, faults, seqs, tier);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      int serial_at = -1;
      for (std::size_t s = 0; s < seqs.size() && serial_at < 0; ++s)
        if (simulate_fault_serial(nl, faults[i], seqs[s]) >= 0)
          serial_at = static_cast<int>(s);
      EXPECT_EQ(wide.detected_at[i], serial_at)
          << fault_name(nl, faults[i]) << " " << simd_tier_name(tier);
    }
  }
}

TEST(WideFsimTest, PotentialDetectionMatchesBaseline) {
  const Netlist nl = toggler();
  // rst s-a-0: faulty machine never initializes — potential detection
  // only (good output known, faulty output X).
  const Fault f{nl.find("rst"), -1, false};
  const std::vector<TestSequence> seqs{seq_of({1, 0, 0, 0}),
                                       seq_of({0, 0, 0, 0}),
                                       seq_of({1, 1, 0, 0})};
  const auto base = run_baseline(nl, {f}, seqs);
  EXPECT_EQ(base.detected_at[0], -1);
  EXPECT_EQ(base.potential_at[0], 0);
  for (const SimdTier tier : usable_tiers())
    expect_same_result(run_wide(nl, {f}, seqs, tier), base,
                       simd_tier_name(tier));
}

TEST(WideFsimTest, FirstDetectionTieBreaksByLowestSequence) {
  const Netlist nl = toggler();
  const Fault f{nl.find("d"), -1, false};
  // Sequences 1, 3, and 6 all detect; contract: report the lowest index
  // even though all lanes of the group see the detection simultaneously.
  const TestSequence hit = seq_of({1, 0, 0, 0});
  const TestSequence miss = seq_of({1, 1, 1, 1});
  const std::vector<TestSequence> seqs{miss, hit, miss, hit,
                                       miss, miss, hit, miss, hit};
  for (const SimdTier tier : usable_tiers()) {
    const auto r = run_wide(nl, {f}, seqs, tier);
    EXPECT_EQ(r.detected_at[0], 1) << simd_tier_name(tier);
  }
}

// Wide == baseline on synthesized MCNC machines and their retimed twins,
// for every usable tier and thread count. This is the engine acceptance
// contract: FsimResult byte-identical across {baseline64, wide} x
// {1,2,8 threads} x {scalar..widest}.
TEST(WideFsimTest, MatchesBaselineOnMcncPairs) {
  for (const char* name : {"dk16", "s820"}) {
    FsmGenSpec spec;
    for (const auto& s : mcnc_specs())
      if (s.name == name) spec = s;
    const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.4));
    SynthOptions so;
    so.encode = EncodeAlgo::kOutputDominant;
    const SynthResult res = synthesize(fsm, so);
    const Netlist& orig = res.netlist;
    const Netlist retimed =
        retime_to_dff_target(orig, orig.num_dffs() * 3, orig.name() + ".re")
            .netlist;

    for (const Netlist* nl : {&orig, &retimed}) {
      const auto collapsed = collapse_faults(*nl);
      std::vector<Fault> faults;
      for (const auto& cf : collapsed) faults.push_back(cf.representative);
      // 11 sequences: one full lane group plus a ragged partial group.
      const auto seqs = make_random_sequences(*nl, 11, 24, 11);

      const auto base = run_baseline(*nl, faults, seqs);
      for (const SimdTier tier : usable_tiers())
        for (const unsigned threads : {1u, 2u, 8u})
          expect_same_result(
              run_wide(*nl, faults, seqs, tier, threads), base,
              nl->name() + " " + simd_tier_name(tier) + " x" +
                  std::to_string(threads));
    }
  }
}

TEST(WideFsimTest, RaggedSequenceLengths) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const SynthResult res =
      synthesize(generate_control_fsm(scaled_spec(spec, 0.4)), {});
  const Netlist& nl = res.netlist;
  const auto collapsed = collapse_faults(nl);
  std::vector<Fault> faults;
  for (const auto& cf : collapsed) faults.push_back(cf.representative);

  // Lengths 1..13 across two lane groups: lanes die at different frames,
  // so the per-frame live mask and dead-lane X handling both matter.
  std::vector<TestSequence> seqs;
  for (int k = 1; k <= 13; ++k) {
    const auto one = make_random_sequences(nl, 1, static_cast<std::size_t>(k),
                                           static_cast<std::uint64_t>(k) * 3);
    seqs.push_back(one[0]);
  }
  const auto base = run_baseline(nl, faults, seqs);
  for (const SimdTier tier : usable_tiers())
    expect_same_result(run_wide(nl, faults, seqs, tier), base,
                       simd_tier_name(tier));
}

// The good-state census comes from slot 0 of the group's first batch, or
// from one fault-free run when no fault remains. Three ragged groups, run
// with no faults at all and with faults that group 0 detects in full (so
// groups 1 and 2 have none left), must record the 64-slot engine's states.
TEST(WideFsimTest, CensusWithoutRemainingFaultsMatchesBaseline) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const SynthResult res =
      synthesize(generate_control_fsm(scaled_spec(spec, 0.4)), {});
  const Netlist& nl = res.netlist;
  std::vector<Fault> all;
  for (const auto& cf : collapse_faults(nl)) all.push_back(cf.representative);

  // 20 sequences, three groups. Group 0's are short (2..4 vectors), the
  // later groups' are longer (6..20), and lengths vary inside each group.
  const auto lanes = static_cast<int>(PVW::kSubWords);
  std::vector<TestSequence> seqs;
  for (int k = 0; k < 20; ++k) {
    const auto len = static_cast<std::size_t>(
        k < lanes ? 2 + k % 3 : 6 + (k * 7) % 15);
    const auto seed = static_cast<std::uint64_t>(k) + 40;
    seqs.push_back(make_random_sequences(nl, 1, len, seed)[0]);
  }
  // The later groups enter states group 0 does not, so their census counts.
  const std::vector<TestSequence> first(seqs.begin(), seqs.begin() + lanes);
  ASSERT_GT(run_baseline(nl, {}, seqs).good_states.size(),
            run_baseline(nl, {}, first).good_states.size());

  const auto graded = run_baseline(nl, all, seqs);
  std::vector<Fault> group0;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (graded.detected_at[i] >= 0 && graded.detected_at[i] < lanes)
      group0.push_back(all[i]);
  ASSERT_FALSE(group0.empty());

  for (const auto& [label, faults] :
       {std::pair<std::string, std::vector<Fault>>{"no faults", {}},
        std::pair<std::string, std::vector<Fault>>{"group 0", group0}}) {
    const auto base = run_baseline(nl, faults, seqs);
    ASSERT_EQ(base.num_detected, faults.size()) << label;
    for (const SimdTier tier : usable_tiers())
      for (const unsigned threads : {1u, 2u})
        expect_same_result(run_wide(nl, faults, seqs, tier, threads), base,
                           label + " " + simd_tier_name(tier) + " x" +
                               std::to_string(threads));
  }
}

// Lowest sequence index the serial reference detects `f` on, or -1.
int serial_detected_at(const Netlist& nl, const Fault& f,
                       const std::vector<TestSequence>& seqs) {
  for (std::size_t s = 0; s < seqs.size(); ++s)
    if (simulate_fault_serial(nl, f, seqs[s]) >= 0) return static_cast<int>(s);
  return -1;
}

// Every engine, tier and thread count against the serial reference,
// which injects each fault alone on scalar V3 values. Both bit-parallel
// engines force a pin fault's slot on a fan-in copy, so a shared mistake
// there would pass an engine-vs-engine comparison but not this one.
// Returns the reference's detected_at per fault.
std::vector<int> expect_serial_detections(const Netlist& nl,
                              const std::vector<Fault>& faults,
                              const std::vector<TestSequence>& seqs) {
  // The reference costs far more than the engines; split it over a few
  // threads (the netlist's lazy compiled form is built before they read it).
  nl.compiled();
  std::vector<int> want(faults.size());
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w)
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < faults.size(); i += workers)
        want[i] = serial_detected_at(nl, faults[i], seqs);
    });
  for (std::thread& t : pool) t.join();
  for (const unsigned threads : {1u, 2u}) {
    const auto base = run_baseline(nl, faults, seqs, threads);
    std::vector<std::pair<std::string, FsimResult>> runs;
    runs.emplace_back("baseline64", base);
    for (const SimdTier tier : usable_tiers()) {
      runs.emplace_back(simd_tier_name(tier),
                        run_wide(nl, faults, seqs, tier, threads));
      expect_same_result(runs.back().second, base, runs.back().first);
    }
    for (const auto& [label, r] : runs)
      for (std::size_t i = 0; i < faults.size(); ++i)
        EXPECT_EQ(r.detected_at[i], want[i])
            << fault_name(nl, faults[i]) << " " << label << " x" << threads;
  }
  return want;
}

TEST(WideFsimTest, PinFaultsMatchSerialReference) {
  // (a) A cached benchmark circuit, every collapsed fault.
  const Netlist s510 = read_bench_file(std::string(SATPG_CACHE_DIR) +
                                       "/s510.jc.sd_s3_x30.bench");
  std::vector<Fault> s510_faults;
  for (const auto& cf : collapse_faults(s510))
    s510_faults.push_back(cf.representative);
  expect_serial_detections(s510, s510_faults,
                           make_random_sequences(s510, 16, 20, 3));

  // (a') The same faults under one sequence, the shape of ATPG's
  // verify-and-drop call. Default options run it on the wide engine as
  // one lane group.
  {
    const auto one = make_random_sequences(s510, 1, 64, 3);
    auto& reg = MetricsRegistry::global();
    const bool was_enabled = metrics_enabled();
    set_metrics_enabled(true);
    const std::uint64_t groups = reg.counter("fsim.wide.groups").total();
    const FsimResult def = run_fault_simulation(s510, s510_faults, one);
    EXPECT_EQ(reg.counter("fsim.wide.groups").total(), groups + 1)
        << "a single-sequence call must run the wide engine";
    set_metrics_enabled(was_enabled);
    expect_same_result(def, run_baseline(s510, s510_faults, one),
                       "one sequence, default options");
    const auto want = expect_serial_detections(s510, s510_faults, one);
    std::size_t pin_detected = 0, potential = 0;
    for (std::size_t i = 0; i < s510_faults.size(); ++i) {
      if (s510_faults[i].pin >= 0 && want[i] >= 0) ++pin_detected;
      if (def.potential_at[i] >= 0) ++potential;
    }
    EXPECT_GT(pin_detected, 0u);
    EXPECT_GT(potential, 0u);
  }

  // (b) Every uncollapsed fault of a hand-built circuit in one batch:
  // 3-input NAND/NOR/XOR/XNOR, a gate that reads one node on two pins,
  // a flip-flop D pin and the PO markers' pin faults.
  Netlist nl("pins");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId q = nl.add_dff("q", a, FfInit::kUnknown);
  const NodeId g1 = nl.add_gate(GateType::kNand, "g1", {a, b, q});
  const NodeId g2 = nl.add_gate(GateType::kNor, "g2", {b, c, q});
  const NodeId g3 = nl.add_gate(GateType::kXor, "g3", {g1, g2, c});
  const NodeId g4 = nl.add_gate(GateType::kXnor, "g4", {a, g3, q});
  const NodeId g5 = nl.add_gate(GateType::kAnd, "g5", {g3, g3});
  nl.set_fanin(q, 0, g2);
  nl.add_output("o1", g4);
  nl.add_output("o2", g5);
  const auto faults = enumerate_faults(nl);
  ASSERT_LE(faults.size(), 63u);  // one batch
  const auto want =
      expect_serial_detections(nl, faults, make_random_sequences(nl, 12, 8, 5));
  std::size_t pin_detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (faults[i].pin >= 0 && want[i] >= 0) ++pin_detected;
  EXPECT_GE(pin_detected, 20u);
}

// Semantic metrics (fsim.calls/sequences/vectors) are identical between
// engines; the full registry dump is byte-identical across wide tiers
// (engine internals included).
TEST(WideFsimTest, MetricsParityAcrossEnginesAndTiers) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "dk16") spec = s;
  const SynthResult res =
      synthesize(generate_control_fsm(scaled_spec(spec, 0.4)), {});
  const Netlist& nl = res.netlist;
  const auto collapsed = collapse_faults(nl);
  std::vector<Fault> faults;
  for (const auto& cf : collapsed) faults.push_back(cf.representative);
  const auto seqs = make_random_sequences(nl, 11, 24, 11);

  auto& reg = MetricsRegistry::global();
  const bool was_enabled = metrics_enabled();
  set_metrics_enabled(true);

  reg.reset();
  run_baseline(nl, faults, seqs);
  const std::uint64_t base_vectors = reg.counter("fsim.vectors").total();

  std::string first_wide_json;
  for (const SimdTier tier : usable_tiers()) {
    reg.reset();
    run_wide(nl, faults, seqs, tier);
    EXPECT_EQ(reg.counter("fsim.vectors").total(), base_vectors)
        << simd_tier_name(tier);
    const std::string json = reg.to_json();
    if (first_wide_json.empty())
      first_wide_json = json;
    else
      EXPECT_EQ(json, first_wide_json) << simd_tier_name(tier);
  }

  reg.reset();
  set_metrics_enabled(was_enabled);
}

}  // namespace
}  // namespace satpg
