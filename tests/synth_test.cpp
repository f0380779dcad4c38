// Tests for src/synth: cover algebra + espresso (exhaustively verified),
// state assignment, tech mapping, and full FSM -> netlist equivalence.
#include <gtest/gtest.h>

#include <set>

#include "base/rng.h"
#include "fsm/mcnc_suite.h"
#include "fsm/minimize.h"
#include "netlist/netlist.h"
#include "sim/simulator.h"
#include "synth/cover.h"
#include "synth/encode.h"
#include "synth/library.h"
#include "synth/scripts.h"
#include "synth/synthesize.h"
#include "synth/techmap.h"

namespace satpg {
namespace {

// ---------- cover algebra ----------

TEST(CoverTest, CofactorDropsConflicts) {
  const Cover cover{Cube::from_string("1-0"), Cube::from_string("0-1")};
  const auto cof = cover_cofactor(cover, Cube::from_string("1--"));
  ASSERT_EQ(cof.size(), 1u);
  EXPECT_EQ(cof[0].to_string(), "--0");
}

TEST(CoverTest, TautologyBasics) {
  EXPECT_TRUE(cover_tautology({Cube::from_string("---")}, 3));
  EXPECT_TRUE(cover_tautology(
      {Cube::from_string("1--"), Cube::from_string("0--")}, 3));
  EXPECT_FALSE(cover_tautology({Cube::from_string("1--")}, 3));
}

TEST(CoverTest, CubeContains) {
  EXPECT_TRUE(cube_contains(Cube::from_string("1--"),
                            Cube::from_string("1-0")));
  EXPECT_FALSE(cube_contains(Cube::from_string("1-0"),
                             Cube::from_string("1--")));
  EXPECT_TRUE(cube_contains(Cube::from_string("---"),
                            Cube::from_string("010")));
}

TEST(CoverTest, ContainsCubeSemantically) {
  // Cover {1--, 01-} contains cube 0 1 - but also -1- (split across cubes).
  const Cover cover{Cube::from_string("1--"), Cube::from_string("01-")};
  EXPECT_TRUE(cover_contains_cube(cover, Cube::from_string("01-"), 3));
  EXPECT_TRUE(cover_contains_cube(cover, Cube::from_string("-1-"), 3));
  EXPECT_FALSE(cover_contains_cube(cover, Cube::from_string("0--"), 3));
}

// Exhaustive semantic check of espresso_lite on random functions.
class EspressoProperty : public ::testing::TestWithParam<int> {};

TEST_P(EspressoProperty, MinimizedCoverIsEquivalent) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t nv = 6;
  // Random truth table with ON/DC/OFF classes.
  std::vector<int> klass(1u << nv);  // 0=off,1=on,2=dc
  for (auto& k : klass) k = rng.next_int(0, 5) < 2 ? 1 : (rng.next_bool() ? 0 : 2);
  Cover on, dc;
  for (std::size_t m = 0; m < klass.size(); ++m) {
    Cube c;
    c.value = BitVec::from_value(nv, m);
    c.care = BitVec(nv);
    c.care.set_all();
    if (klass[m] == 1) on.push_back(c);
    if (klass[m] == 2) dc.push_back(c);
  }
  for (int passes = 1; passes <= 2; ++passes) {
    EspressoOptions opts;
    opts.passes = passes;
    opts.seed = static_cast<std::uint64_t>(seed);
    const Cover result = espresso_lite(on, dc, nv, opts);
    // Equivalence: every ON minterm covered; no OFF minterm covered.
    for (std::size_t m = 0; m < klass.size(); ++m) {
      const BitVec bits = BitVec::from_value(nv, m);
      if (klass[m] == 1) {
        EXPECT_TRUE(cover_matches(result, bits)) << "ON minterm lost: " << m;
      }
      if (klass[m] == 0) {
        EXPECT_FALSE(cover_matches(result, bits))
            << "OFF minterm covered: " << m;
      }
    }
    // And it didn't grow.
    EXPECT_LE(result.size(), on.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspressoProperty, ::testing::Range(0, 12));

TEST(EspressoTest, UsesDontCaresToMerge) {
  // ON = {00, 11}, DC = {01, 10} over 2 vars -> single tautology cube.
  Cover on{Cube::from_string("00"), Cube::from_string("11")};
  Cover dc{Cube::from_string("01"), Cube::from_string("10")};
  const Cover r = espresso_lite(on, dc, 2, {});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].care.count(), 0u);
}

TEST(EspressoTest, EmptyOnGivesEmptyCover) {
  EXPECT_TRUE(espresso_lite({}, {}, 4, {}).empty());
}

// ---------- state assignment ----------

// FSM names are std::string, not const char*: gtest prints a parameter into
// the listed test name, and a pointer would make that name differ per run.
class EncoderProperty
    : public ::testing::TestWithParam<std::tuple<EncodeAlgo, std::string>> {};

TEST_P(EncoderProperty, CodesAreValid) {
  const auto [algo, fsm_name] = GetParam();
  const Fsm fsm = minimize_fsm(mcnc_fsm(fsm_name));
  const Encoding enc = assign_states(fsm, algo);
  // Distinct codes, correct width.
  std::set<std::string> seen;
  for (const auto& c : enc.code) {
    EXPECT_EQ(static_cast<int>(c.size()), enc.bits);
    EXPECT_TRUE(seen.insert(c.to_string()).second) << "duplicate code";
  }
  if (algo == EncodeAlgo::kOneHot) {
    EXPECT_EQ(enc.bits, fsm.num_states());
    for (const auto& c : enc.code) EXPECT_EQ(c.count(), 1u);
  } else {
    // Minimum-bit encoding, reset at all-zero.
    int b = 0;
    while ((1 << b) < fsm.num_states()) ++b;
    EXPECT_EQ(enc.bits, std::max(1, b));
    EXPECT_TRUE(
        enc.code[static_cast<std::size_t>(fsm.reset_state())].none());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgosByFsm, EncoderProperty,
    ::testing::Combine(::testing::Values(EncodeAlgo::kInputDominant,
                                         EncodeAlgo::kOutputDominant,
                                         EncodeAlgo::kCombined,
                                         EncodeAlgo::kOneHot,
                                         EncodeAlgo::kNatural),
                       ::testing::Values("dk16", "s820")),
    [](const auto& info) {
      return std::string(encode_algo_suffix(std::get<0>(info.param))).substr(1) +
             "_" + std::get<1>(info.param);
    });

TEST(EncoderTest, StateOfLooksUpCodes) {
  const Fsm fsm = minimize_fsm(mcnc_fsm("dk16"));
  const Encoding enc = assign_states(fsm, EncodeAlgo::kCombined);
  for (int s = 0; s < fsm.num_states(); ++s)
    EXPECT_EQ(enc.state_of(enc.code[static_cast<std::size_t>(s)]), s);
  EXPECT_EQ(enc.state_of(BitVec::from_value(
                static_cast<std::size_t>(enc.bits),
                (1ULL << enc.bits) - 1)),
            enc.state_of(BitVec(static_cast<std::size_t>(enc.bits), true)));
}

TEST(EncoderTest, AffinityIsSymmetric) {
  const Fsm fsm = minimize_fsm(mcnc_fsm("dk16"));
  for (EncodeAlgo algo : {EncodeAlgo::kInputDominant,
                          EncodeAlgo::kOutputDominant,
                          EncodeAlgo::kCombined}) {
    const auto w = state_affinity(fsm, algo);
    for (std::size_t i = 0; i < w.size(); ++i)
      for (std::size_t j = 0; j < w.size(); ++j)
        EXPECT_DOUBLE_EQ(w[i][j], w[j][i]);
  }
}

// ---------- tech map ----------

TEST(TechMapTest, DecomposesWideGates) {
  Netlist nl("wide");
  std::vector<NodeId> ins;
  for (int i = 0; i < 11; ++i)
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  const NodeId g = nl.add_gate(GateType::kAnd, "g", ins);
  nl.add_output("o", g);
  for (bool area : {false, true}) {
    Netlist c = nl.clone(area ? "area" : "delay");
    tech_map(c, {area});
    EXPECT_EQ(c.validate(), std::nullopt);
    for (std::size_t i = 0; i < c.num_nodes(); ++i) {
      const auto& n = c.node(static_cast<NodeId>(i));
      if (is_combinational(n.type)) {
        EXPECT_LE(n.fanins.size(), static_cast<std::size_t>(kMaxLibFanin));
      }
    }
  }
}

TEST(TechMapTest, BalancedBeatsChainOnDelay) {
  Netlist nl("wide");
  std::vector<NodeId> ins;
  for (int i = 0; i < 16; ++i)
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  nl.add_output("o", nl.add_gate(GateType::kAnd, "g", ins));
  Netlist balanced = nl.clone("b");
  Netlist chain = nl.clone("c");
  tech_map(balanced, {/*area_mode=*/false});
  tech_map(chain, {/*area_mode=*/true});
  EXPECT_LT(critical_path_delay(balanced), critical_path_delay(chain));
}

TEST(TechMapTest, ConstantPropagation) {
  Netlist nl("c");
  const NodeId a = nl.add_input("a");
  const NodeId zero = nl.add_const(false, "z");
  const NodeId g = nl.add_gate(GateType::kAnd, "g", {a, zero});
  const NodeId h = nl.add_gate(GateType::kOr, "h", {g, a});
  nl.add_output("o", h);
  tech_map(nl, {});
  // AND(a,0)=0; OR(0,a)=a; output driven by the input directly.
  EXPECT_EQ(nl.num_gates(), 0u);
  const auto& out = nl.node(nl.outputs()[0]);
  EXPECT_EQ(nl.node(out.fanins[0]).type, GateType::kInput);
}

TEST(TechMapTest, MergesInverterIntoNand) {
  Netlist nl("m");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::kAnd, "g", {a, b});
  const NodeId inv = nl.add_gate(GateType::kNot, "inv", {g});
  nl.add_output("o", inv);
  tech_map(nl, {});
  EXPECT_EQ(nl.num_gates(), 1u);
  bool found_nand = false;
  for (std::size_t i = 0; i < nl.num_nodes(); ++i)
    if (nl.node(static_cast<NodeId>(i)).type == GateType::kNand)
      found_nand = true;
  EXPECT_TRUE(found_nand);
}

TEST(TechMapTest, SharingReducesDuplicates) {
  Netlist nl("s");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g1 = nl.add_gate(GateType::kAnd, "g1", {a, b});
  const NodeId g2 = nl.add_gate(GateType::kAnd, "g2", {b, a});  // same fn
  nl.add_output("o1", g1);
  nl.add_output("o2", g2);
  tech_map(nl, {/*area_mode=*/true});
  EXPECT_EQ(nl.num_gates(), 1u);
}

// Random-netlist equivalence property: tech_map preserves function.
class TechMapEquiv : public ::testing::TestWithParam<int> {};

TEST_P(TechMapEquiv, PreservesSimulation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);
  // Random combinational DAG: 5 inputs, ~25 gates of arbitrary arity.
  Netlist nl("rand");
  std::vector<NodeId> pool;
  for (int i = 0; i < 5; ++i)
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  for (int g = 0; g < 25; ++g) {
    const GateType types[] = {GateType::kAnd,  GateType::kOr,
                              GateType::kNand, GateType::kNor,
                              GateType::kXor,  GateType::kNot};
    const GateType t = types[rng.next_int(0, 5)];
    std::size_t arity = t == GateType::kNot
                            ? 1
                            : (t == GateType::kXor
                                   ? 2
                                   : static_cast<std::size_t>(
                                         rng.next_int(2, 7)));
    std::vector<NodeId> fanins;
    for (std::size_t k = 0; k < arity; ++k)
      fanins.push_back(pool[static_cast<std::size_t>(
          rng.next_int(0, static_cast<int>(pool.size()) - 1))]);
    pool.push_back(nl.add_gate(t, "g" + std::to_string(g), fanins));
  }
  for (int o = 0; o < 4; ++o)
    nl.add_output("o" + std::to_string(o),
                  pool[pool.size() - 1 - static_cast<std::size_t>(o)]);

  Netlist mapped = nl.clone("mapped");
  tech_map(mapped, {GetParam() % 2 == 0});

  SeqSimulator s0(nl), s1(mapped);
  for (unsigned v = 0; v < 32; ++v) {
    std::vector<V3> in;
    for (int i = 0; i < 5; ++i)
      in.push_back((v >> i) & 1 ? V3::kOne : V3::kZero);
    EXPECT_EQ(s0.eval_outputs(in), s1.eval_outputs(in)) << "vector " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TechMapEquiv, ::testing::Range(0, 10));

// ---------- common-cube extraction ----------

TEST(ExtractTest, SharesRepeatedPairs) {
  Netlist nl("x");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId d = nl.add_input("d");
  nl.add_output("o1", nl.add_gate(GateType::kAnd, "g1", {a, b, c}));
  nl.add_output("o2", nl.add_gate(GateType::kAnd, "g2", {a, b, d}));
  const int extractions = extract_common_cubes(nl);
  EXPECT_GE(extractions, 1);
  EXPECT_EQ(nl.validate(), std::nullopt);
}

// ---------- full synthesis equivalence ----------

// For every suite FSM x encoder x script: reset the netlist with one rst=1
// cycle, then lock-step against the symbolic machine on random inputs.
class SynthEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, EncodeAlgo, ScriptKind>> {};

TEST_P(SynthEquivalence, NetlistMatchesFsm) {
  const auto [name, algo, script] = GetParam();
  // Scaled-down machines keep the full flow but make the test fast.
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == name) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.5));

  SynthOptions opts;
  opts.encode = algo;
  opts.script = script;
  const SynthResult res = synthesize(fsm, opts);
  ASSERT_EQ(res.netlist.validate(), std::nullopt);

  const Fsm& m = res.minimized;
  SeqSimulator sim(res.netlist);
  const std::size_t ni = static_cast<std::size_t>(m.num_inputs());
  ASSERT_EQ(res.netlist.num_inputs(), ni + 1);  // + rst

  Rng rng(42);
  // Reset cycle.
  {
    std::vector<V3> in(ni + 1, V3::kZero);
    in[ni] = V3::kOne;  // rst is the last-added input
    sim.step(in);
  }
  // The netlist state must now equal the reset state's code.
  int state = m.reset_state();
  for (int b = 0; b < res.encoding.bits; ++b)
    EXPECT_EQ(sim.state()[static_cast<std::size_t>(b)],
              res.encoding.code[static_cast<std::size_t>(state)].get(
                  static_cast<std::size_t>(b))
                  ? V3::kOne
                  : V3::kZero)
        << "reset code bit " << b;

  for (int t = 0; t < 300; ++t) {
    BitVec bits(ni);
    std::vector<V3> in(ni + 1, V3::kZero);
    for (std::size_t i = 0; i < ni; ++i) {
      const bool v = rng.next_bool();
      bits.set(i, v);
      in[i] = v ? V3::kOne : V3::kZero;
    }
    const auto spec_step = m.step(state, bits);
    ASSERT_TRUE(spec_step.specified);
    const auto out = sim.step(in);
    for (int o = 0; o < m.num_outputs(); ++o) {
      if (spec_step.outputs[static_cast<std::size_t>(o)] == V3::kX) continue;
      EXPECT_EQ(out[static_cast<std::size_t>(o)],
                spec_step.outputs[static_cast<std::size_t>(o)])
          << "cycle " << t << " output " << o;
    }
    state = spec_step.next_state;
    // State code also tracks.
    for (int b = 0; b < res.encoding.bits; ++b)
      EXPECT_EQ(sim.state()[static_cast<std::size_t>(b)],
                res.encoding.code[static_cast<std::size_t>(state)].get(
                    static_cast<std::size_t>(b))
                    ? V3::kOne
                    : V3::kZero)
          << "cycle " << t << " state bit " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlowMatrix, SynthEquivalence,
    ::testing::Combine(::testing::Values("dk16", "pma", "s820"),
                       ::testing::Values(EncodeAlgo::kInputDominant,
                                         EncodeAlgo::kOutputDominant,
                                         EncodeAlgo::kCombined,
                                         EncodeAlgo::kOneHot),
                       ::testing::Values(ScriptKind::kRugged,
                                         ScriptKind::kDelay)),
    [](const auto& info) {
      std::string s = std::get<0>(info.param) +
                      encode_algo_suffix(std::get<1>(info.param)) +
                      script_suffix(std::get<2>(info.param));
      for (char& c : s)
        if (c == '.') c = '_';
      return s;
    });

TEST(SynthTest, NamesFollowPaperConvention) {
  const Fsm fsm = generate_control_fsm(scaled_spec(mcnc_specs()[0], 0.3));
  SynthOptions opts;
  opts.encode = EncodeAlgo::kInputDominant;
  opts.script = ScriptKind::kDelay;
  const auto res = synthesize(fsm, opts);
  EXPECT_EQ(res.name, "dk16.ji.sd");
  EXPECT_EQ(res.netlist.name(), "dk16.ji.sd");
}

TEST(SynthTest, MappedGatesAreLibraryCells) {
  const Fsm fsm = generate_control_fsm(scaled_spec(mcnc_specs()[1], 0.5));
  const auto res = synthesize(fsm, {});
  for (std::size_t i = 0; i < res.netlist.num_nodes(); ++i) {
    const auto& n = res.netlist.node(static_cast<NodeId>(i));
    if (!is_combinational(n.type)) continue;
    EXPECT_LE(n.fanins.size(), static_cast<std::size_t>(kMaxLibFanin));
    EXPECT_GT(n.delay, 0.0) << n.name;
  }
  EXPECT_GT(critical_path_delay(res.netlist), 0.0);
}

TEST(SynthTest, ScriptsTradeAreaForDelay) {
  // Across the suite the rugged script should win on area and the delay
  // script on critical path (allow ties on tiny machines).
  const Fsm fsm = generate_control_fsm(scaled_spec(mcnc_specs()[2], 0.4));
  SynthOptions a;
  a.script = ScriptKind::kRugged;
  SynthOptions d;
  d.script = ScriptKind::kDelay;
  const auto ra = synthesize(fsm, a);
  const auto rd = synthesize(fsm, d);
  EXPECT_LE(ra.netlist.total_area(), rd.netlist.total_area() * 1.1);
  EXPECT_LE(critical_path_delay(rd.netlist),
            critical_path_delay(ra.netlist) * 1.1);
}

}  // namespace
}  // namespace satpg
