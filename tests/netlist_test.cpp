// Unit tests for src/netlist: construction, invariants, topological order,
// .bench round-tripping, and a malformed-.bench corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/bench_io.h"
#include "netlist/netlist.h"

namespace satpg {
namespace {

// A tiny 2-bit counter-ish machine used across tests:
//   d0 = XOR(q0, en); d1 = XOR(q1, AND(q0, en)); out = AND(q0, q1)
Netlist make_counter() {
  Netlist nl("counter2");
  const NodeId en = nl.add_input("en");
  // Temporary drivers replaced below (DFFs need a driver at creation, so
  // build q flops on `en` first, then retarget through set_fanin).
  const NodeId q0 = nl.add_dff("q0", en, FfInit::kZero);
  const NodeId q1 = nl.add_dff("q1", en, FfInit::kZero);
  const NodeId d0 = nl.add_gate(GateType::kXor, "d0", {q0, en});
  const NodeId a = nl.add_gate(GateType::kAnd, "carry", {q0, en});
  const NodeId d1 = nl.add_gate(GateType::kXor, "d1", {q1, a});
  nl.set_fanin(q0, 0, d0);
  nl.set_fanin(q1, 0, d1);
  const NodeId both = nl.add_gate(GateType::kAnd, "both", {q0, q1});
  nl.add_output("out", both);
  return nl;
}

TEST(NetlistTest, CounterIsValid) {
  const Netlist nl = make_counter();
  EXPECT_EQ(nl.validate(), std::nullopt);
  EXPECT_EQ(nl.num_inputs(), 1u);
  EXPECT_EQ(nl.num_outputs(), 1u);
  EXPECT_EQ(nl.num_dffs(), 2u);
  EXPECT_EQ(nl.num_gates(), 4u);
}

TEST(NetlistTest, FindByName) {
  const Netlist nl = make_counter();
  EXPECT_NE(nl.find("carry"), kNoNode);
  EXPECT_EQ(nl.find("nonexistent"), kNoNode);
  EXPECT_EQ(nl.node(nl.find("carry")).type, GateType::kAnd);
}

TEST(NetlistTest, TopoOrderRespectsDependencies) {
  const Netlist nl = make_counter();
  const auto& topo = nl.topo_order();
  std::vector<int> pos(nl.num_nodes(), -1);
  for (std::size_t i = 0; i < topo.size(); ++i)
    pos[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);
  for (NodeId id : topo) {
    const auto& n = nl.node(id);
    if (!is_combinational(n.type)) continue;
    for (NodeId f : n.fanins)
      EXPECT_LT(pos[static_cast<std::size_t>(f)],
                pos[static_cast<std::size_t>(id)])
          << "node " << n.name;
  }
  EXPECT_EQ(topo.size(), nl.num_nodes());
}

TEST(NetlistTest, FanoutsAreInverseOfFanins) {
  const Netlist nl = make_counter();
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    for (NodeId f : nl.node(static_cast<NodeId>(i)).fanins) {
      const auto lst = nl.fanouts(f);
      EXPECT_NE(std::find(lst.begin(), lst.end(), static_cast<NodeId>(i)),
                lst.end());
    }
  }
}

// Checks every array of nl.compiled() against a recomputation straight from
// the nodes' fan-in lists.
void expect_compiled_matches(const Netlist& nl) {
  const CompiledNetlist& c = nl.compiled();
  const std::size_t n = nl.num_nodes();
  ASSERT_EQ(c.type.size(), n);
  ASSERT_EQ(c.topo_pos.size(), n);
  ASSERT_EQ(c.level.size(), n);
  EXPECT_EQ(&nl.topo_order(), &c.topo);

  // Positions invert the order, which lists every live node once.
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = nl.node(static_cast<NodeId>(i));
    EXPECT_EQ(c.type[i], node.type);
    if (node.dead) {
      EXPECT_EQ(c.topo_pos[i], -1);
      EXPECT_TRUE(c.fanins(static_cast<NodeId>(i)).empty());
      continue;
    }
    ++live;
    ASSERT_GE(c.topo_pos[i], 0);
    EXPECT_EQ(c.topo[static_cast<std::size_t>(c.topo_pos[i])],
              static_cast<NodeId>(i));
  }
  EXPECT_EQ(c.topo.size(), live);

  // Fan-ins in pin order; fan-outs their inverse in ascending sink id, one
  // entry per reading pin.
  std::vector<std::vector<NodeId>> fanouts(n);
  std::size_t max_fanins = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& fanins = nl.node(static_cast<NodeId>(i)).fanins;
    const auto got = c.fanins(static_cast<NodeId>(i));
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), fanins);
    max_fanins = std::max(max_fanins, fanins.size());
    for (NodeId f : fanins)
      fanouts[static_cast<std::size_t>(f)].push_back(static_cast<NodeId>(i));
  }
  EXPECT_EQ(c.max_fanins, max_fanins);
  for (std::size_t i = 0; i < n; ++i) {
    const auto got = nl.fanouts(static_cast<NodeId>(i));
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), fanouts[i])
        << "fanouts of node " << i;
  }

  // Levels by memoized recursion over combinational fan-ins, independent of
  // the order; then the per-level bucket offsets and the evaluation list.
  std::vector<int> level(n, -1);
  auto level_of = [&](auto&& self, NodeId id) -> int {
    auto& l = level[static_cast<std::size_t>(id)];
    if (l >= 0) return l;
    const Node& node = nl.node(id);
    l = 0;
    if (is_combinational(node.type) || node.type == GateType::kOutput)
      for (NodeId f : node.fanins) l = std::max(l, self(self, f) + 1);
    return l;
  };
  std::vector<std::uint32_t> per_level;
  for (NodeId id : c.topo) {
    const int l = level_of(level_of, id);
    EXPECT_EQ(c.level[static_cast<std::size_t>(id)],
              static_cast<std::uint32_t>(l));
    if (per_level.size() <= static_cast<std::size_t>(l))
      per_level.resize(static_cast<std::size_t>(l) + 1, 0);
    ++per_level[static_cast<std::size_t>(l)];
  }
  if (per_level.empty()) per_level.push_back(0);
  ASSERT_EQ(c.num_levels(), per_level.size());
  EXPECT_EQ(c.level_start.front(), 0u);
  for (std::size_t l = 0; l < per_level.size(); ++l)
    EXPECT_EQ(c.level_start[l + 1] - c.level_start[l], per_level[l]);

  std::vector<NodeId> eval;
  for (NodeId id : c.topo)
    if (is_combinational(nl.node(id).type) ||
        nl.node(id).type == GateType::kOutput)
      eval.push_back(id);
  EXPECT_EQ(c.eval, eval);
}

TEST(NetlistTest, CompiledFormMatchesRandomNetlists) {
  const GateType kinds[] = {GateType::kBuf, GateType::kNot, GateType::kAnd,
                            GateType::kNand, GateType::kOr, GateType::kNor,
                            GateType::kXor, GateType::kXnor};
  std::mt19937 rng(17);
  // Names are "<index><kind>"; appending rather than prepending the kind
  // keeps GCC 12's -Wrestrict false positive on string operator+ quiet.
  for (int trial = 0; trial < 25; ++trial) {
    Netlist nl(std::to_string(trial) + "rand");
    std::vector<NodeId> pool;
    for (int i = 0; i < 3; ++i)
      pool.push_back(nl.add_input(std::to_string(i) + "i"));
    std::vector<NodeId> ffs;
    for (int i = 0; i < 3; ++i)
      ffs.push_back(nl.add_dff(std::to_string(i) + "q", pool[0],
                               FfInit::kUnknown));
    pool.insert(pool.end(), ffs.begin(), ffs.end());
    pool.push_back(nl.add_const(trial % 2 == 0, "k"));
    for (int g = 0; g < 30; ++g) {
      const GateType t = kinds[rng() % std::size(kinds)];
      const std::size_t arity =
          t == GateType::kBuf || t == GateType::kNot ? 1 : 2 + rng() % 3;
      std::vector<NodeId> fanins;
      for (std::size_t k = 0; k < arity; ++k)  // repeats are allowed
        fanins.push_back(pool[rng() % pool.size()]);
      pool.push_back(nl.add_gate(t, std::to_string(g) + "g", fanins));
    }
    for (NodeId q : ffs) nl.set_fanin(q, 0, pool[rng() % pool.size()]);
    for (int o = 0; o < 2; ++o)
      nl.add_output(std::to_string(o) + "o", pool[rng() % pool.size()]);
    ASSERT_EQ(nl.validate(), std::nullopt);
    expect_compiled_matches(nl);
  }
}

TEST(NetlistTest, CompiledFormIsRebuiltAfterEachMutator) {
  Netlist nl = make_counter();
  expect_compiled_matches(nl);
  const NodeId en = nl.find("en"), q0 = nl.find("q0"), q1 = nl.find("q1");

  const NodeId extra = nl.add_gate(GateType::kOr, "extra", {q1, en, q1});
  expect_compiled_matches(nl);
  EXPECT_EQ(nl.compiled().max_fanins, 3u);

  nl.set_fanin(nl.find("both"), 1, extra);
  expect_compiled_matches(nl);

  nl.replace_uses(q1, q0);
  expect_compiled_matches(nl);
  EXPECT_TRUE(nl.fanouts(q1).empty());

  Node& carry = nl.node_mut(nl.find("carry"));
  carry.type = GateType::kNand;
  carry.fanins.push_back(extra);
  expect_compiled_matches(nl);
  EXPECT_EQ(nl.compiled().type[static_cast<std::size_t>(nl.find("carry"))],
            GateType::kNand);

  nl.kill_node(nl.find("d1"));
  nl.kill_node(q1);
  expect_compiled_matches(nl);
  nl.compact();
  expect_compiled_matches(nl);
  EXPECT_EQ(nl.validate(), std::nullopt);
}

TEST(NetlistTest, KillAndCompact) {
  Netlist nl("t");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId g = nl.add_gate(GateType::kAnd, "g", {a, b});
  nl.add_output("o", g);
  const NodeId dead = nl.add_gate(GateType::kOr, "dead", {a, b});
  (void)dead;
  nl.kill_node(dead);
  nl.compact();
  EXPECT_EQ(nl.validate(), std::nullopt);
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.find("dead"), kNoNode);
  EXPECT_NE(nl.find("g"), kNoNode);
}

TEST(NetlistTest, ValidateCatchesCombinationalCycle) {
  Netlist nl("cyc");
  const NodeId a = nl.add_input("a");
  const NodeId g1 = nl.add_gate(GateType::kAnd, "g1", {a, a});
  const NodeId g2 = nl.add_gate(GateType::kOr, "g2", {g1, a});
  nl.set_fanin(g1, 1, g2);  // g1 <-> g2 cycle
  nl.add_output("o", g2);
  const auto err = nl.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("cycle"), std::string::npos);
}

TEST(NetlistTest, DffBreaksCycle) {
  // A feedback loop through a DFF is legal.
  Netlist nl("loop");
  const NodeId a = nl.add_input("a");
  const NodeId q = nl.add_dff("q", a, FfInit::kZero);
  const NodeId g = nl.add_gate(GateType::kXor, "g", {q, a});
  nl.set_fanin(q, 0, g);
  nl.add_output("o", g);
  EXPECT_EQ(nl.validate(), std::nullopt);
}

TEST(NetlistTest, CloneIsDeepAndIndependent) {
  Netlist nl = make_counter();
  Netlist c = nl.clone("copy");
  c.kill_node(c.find("both"));
  EXPECT_NE(nl.find("both"), kNoNode);
  EXPECT_EQ(c.name(), "copy");
}

TEST(NetlistTest, TotalAreaCountsGatesAndFfs) {
  const Netlist nl = make_counter();
  // 4 gates at area 1 + 2 DFFs at area 4.
  EXPECT_DOUBLE_EQ(nl.total_area(), 12.0);
}

TEST(BenchIoTest, ParseSimpleCircuit) {
  const std::string text = R"(
# comment
INPUT(G0)
INPUT(G1)
OUTPUT(G5)

G3 = DFF(G5)
G4 = NAND(G0, G3)
G5 = AND(G4, G1)
)";
  const Netlist nl = read_bench_string(text, "mini");
  EXPECT_EQ(nl.validate(), std::nullopt);
  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_outputs(), 1u);
  EXPECT_EQ(nl.num_dffs(), 1u);
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.node(nl.find("G4")).type, GateType::kNand);
}

TEST(BenchIoTest, ForwardReferencesResolve) {
  const std::string text = R"(
INPUT(a)
OUTPUT(y)
y = NOT(m)
m = AND(a, q)
q = DFF(m)
)";
  const Netlist nl = read_bench_string(text, "fwd");
  EXPECT_EQ(nl.validate(), std::nullopt);
  EXPECT_EQ(nl.num_dffs(), 1u);
}

TEST(BenchIoTest, RoundTripPreservesStructure) {
  const Netlist a = make_counter();
  const std::string text = write_bench_string(a);
  const Netlist b = read_bench_string(text, "counter2");
  EXPECT_EQ(b.validate(), std::nullopt);
  EXPECT_EQ(a.num_inputs(), b.num_inputs());
  EXPECT_EQ(a.num_outputs(), b.num_outputs());
  EXPECT_EQ(a.num_dffs(), b.num_dffs());
  EXPECT_EQ(a.num_gates(), b.num_gates());
  // Second round trip is textually stable.
  EXPECT_EQ(write_bench_string(b), text);
}

TEST(BenchIoTest, RejectsMalformedInput) {
  EXPECT_THROW(read_bench_string("G1 = AND(a", "x"), std::runtime_error);
  EXPECT_THROW(read_bench_string("G1 = FROB(a, b)\n", "x"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("OUTPUT(nosuch)\n", "x"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nG1 = AND(a, missing)\n", "x"),
               std::runtime_error);
  // Wrong gate arity, repeated declarations and a PO marker name clash are
  // parse errors too, not aborts.
  EXPECT_THROW(read_bench_string("INPUT(a)\nz = AND(a)\n", "x"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nz = NOT(a, a)\n", "x"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nINPUT(a)\nOUTPUT(a)\n", "x"),
               std::runtime_error);
  EXPECT_THROW(read_bench_string(
                   "INPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = NOT(a)\n", "x"),
               std::runtime_error);
  EXPECT_THROW(
      read_bench_string(
          "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz_po = BUF(a)\n", "x"),
      std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT(a)\nz = AND()\n", "x"),
               std::runtime_error);
}

// The placeholder that feeds flip-flops while the reader resolves their D
// inputs must not collide with a declared signal.
TEST(BenchIoTest, AcceptsSignalNamedLikeTheDffPlaceholder) {
  const Netlist nl = read_bench_string(
      "INPUT(__bench_dummy)\nOUTPUT(z)\nq = DFF(z)\n"
      "z = AND(q, __bench_dummy)\n",
      "x");
  EXPECT_EQ(nl.validate(), std::nullopt);
  EXPECT_EQ(nl.num_dffs(), 1u);
  EXPECT_NE(nl.find("__bench_dummy"), kNoNode);
}

// The message carries the line number and the argument that does not
// resolve, not merely the first one.
TEST(BenchIoTest, UnresolvedFaninNamesTheMissingSignal) {
  try {
    read_bench_string("INPUT(a)\n\nz = AND(a, q)\n", "x");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'q'"), std::string::npos) << msg;
  }
}

TEST(BenchIoTest, RejectsRedefinedSignal) {
  const std::string text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
y = OR(a, b)
)";
  EXPECT_THROW(read_bench_string(text, "x"), std::runtime_error);
}

// Malformed-.bench corpus: seeded truncations, byte substitutions and
// line duplications of committed cache files. Each mutant either parses
// into a netlist that passes validate() or throws std::runtime_error —
// never another exception, an abort or a signal. The CLI maps that
// exception to its documented exit code 1 (bad input file; 2 stays
// reserved for usage errors), so this is the regression guard for
// `satpg info`/`analyze`/`atpg` on a corrupt circuit file.
TEST(BenchIoTest, MutatedCacheFilesFailCleanly) {
  static const char* const kFiles[] = {
      "dk16.ji.sd_s3_x30", "dk16.ji.sd.re_s3_x30", "pma.jo.sd.re_s3_x30",
      "s510.jc.sd_s3_x30"};
  // Bytes that bend the .bench grammar; sizeof counts the NUL too.
  static const char kBytes[] = "()=,# \nAGNDFOTX01";
  constexpr int kMutantsPerFile = 60;
  std::mt19937_64 rng(0xbe7c);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  int parsed = 0, refused = 0;
  for (const char* name : kFiles) {
    std::ifstream is(std::string(SATPG_CACHE_DIR) + "/" + name + ".bench");
    ASSERT_TRUE(is) << name;
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    ASSERT_NO_THROW(read_bench_string(text, name)) << name;
    for (int k = 0; k < kMutantsPerFile; ++k) {
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
      try {
        const Netlist nl = read_bench_string(mutant, name);
        EXPECT_EQ(nl.validate(), std::nullopt) << name << " mutant " << k;
        ++parsed;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()), "") << name << " mutant " << k;
        ++refused;
      }
    }
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace satpg
