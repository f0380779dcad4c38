// Tests for src/fsm: cubes, KISS2 I/O, completeness/determinism checks,
// minimization, and the generated MCNC-substitute suite properties.
#include <gtest/gtest.h>

#include "fsm/fsm.h"
#include "fsm/kiss_io.h"
#include "fsm/mcnc_suite.h"
#include "fsm/minimize.h"

namespace satpg {

// gtest prints a parameter into the listed test name. Print the spec's name
// rather than its raw bytes, which hold a heap pointer that differs per run.
void PrintTo(const FsmGenSpec& spec, std::ostream* os) { *os << spec.name; }

namespace {

TEST(CubeTest, FromToString) {
  const Cube c = Cube::from_string("1-0");
  EXPECT_EQ(c.to_string(), "1-0");
  EXPECT_TRUE(c.care.get(2));
  EXPECT_FALSE(c.care.get(1));
  EXPECT_TRUE(c.care.get(0));
  EXPECT_TRUE(c.value.get(2));
  EXPECT_FALSE(c.value.get(0));
}

TEST(CubeTest, Matches) {
  const Cube c = Cube::from_string("1-0");
  EXPECT_TRUE(c.matches(BitVec::from_string("110")));
  EXPECT_TRUE(c.matches(BitVec::from_string("100")));
  EXPECT_FALSE(c.matches(BitVec::from_string("101")));
  EXPECT_FALSE(c.matches(BitVec::from_string("010")));
}

TEST(CubeTest, Intersects) {
  EXPECT_TRUE(Cube::from_string("1-").intersects(Cube::from_string("-0")));
  EXPECT_FALSE(Cube::from_string("1-").intersects(Cube::from_string("0-")));
  EXPECT_TRUE(
      Cube::from_string("--").intersects(Cube::from_string("01")));
}

TEST(TautologyTest, FullCoverDetected) {
  EXPECT_TRUE(cubes_cover_everything(
      {Cube::from_string("1-"), Cube::from_string("0-")}, 2));
  EXPECT_TRUE(cubes_cover_everything({Cube::from_string("--")}, 2));
  EXPECT_TRUE(cubes_cover_everything(
      {Cube::from_string("11"), Cube::from_string("10"),
       Cube::from_string("0-")},
      2));
}

TEST(TautologyTest, GapsDetected) {
  EXPECT_FALSE(cubes_cover_everything({Cube::from_string("1-")}, 2));
  EXPECT_FALSE(cubes_cover_everything(
      {Cube::from_string("11"), Cube::from_string("00")}, 2));
  EXPECT_FALSE(cubes_cover_everything({}, 2));
}

Fsm toggler() {
  // Two states; input bit toggles, output mirrors state.
  Fsm f("toggler", 1, 1);
  f.add_state("A");
  f.add_state("B");
  f.set_reset_state(0);
  f.add_transition({Cube::from_string("1"), 0, 1, Cube::from_string("0")});
  f.add_transition({Cube::from_string("0"), 0, 0, Cube::from_string("0")});
  f.add_transition({Cube::from_string("1"), 1, 0, Cube::from_string("1")});
  f.add_transition({Cube::from_string("0"), 1, 1, Cube::from_string("1")});
  return f;
}

TEST(FsmTest, StepFollowsTransitions) {
  const Fsm f = toggler();
  auto r = f.step(0, BitVec::from_string("1"));
  EXPECT_TRUE(r.specified);
  EXPECT_EQ(r.next_state, 1);
  EXPECT_EQ(r.outputs[0], V3::kZero);
  r = f.step(1, BitVec::from_string("0"));
  EXPECT_EQ(r.next_state, 1);
  EXPECT_EQ(r.outputs[0], V3::kOne);
}

TEST(FsmTest, UnspecifiedStepReturnsX) {
  Fsm f("partial", 1, 1);
  f.add_state("A");
  f.add_transition({Cube::from_string("1"), 0, 0, Cube::from_string("1")});
  const auto r = f.step(0, BitVec::from_string("0"));
  EXPECT_FALSE(r.specified);
  EXPECT_EQ(r.outputs[0], V3::kX);
}

TEST(FsmTest, CompletenessAndDeterminism) {
  const Fsm f = toggler();
  EXPECT_TRUE(f.check_complete());
  EXPECT_TRUE(f.check_deterministic());

  Fsm g("bad", 1, 1);
  g.add_state("A");
  g.add_transition({Cube::from_string("1"), 0, 0, Cube::from_string("1")});
  EXPECT_FALSE(g.check_complete());
  g.add_transition({Cube::from_string("-"), 0, 0, Cube::from_string("0")});
  EXPECT_TRUE(g.check_complete());
  EXPECT_FALSE(g.check_deterministic());  // overlapping cubes disagree
}

TEST(FsmTest, ReachableStates) {
  Fsm f("r", 1, 1);
  f.add_state("A");
  f.add_state("B");
  f.add_state("island");
  f.add_transition({Cube::from_string("-"), 0, 1, Cube::from_string("0")});
  f.add_transition({Cube::from_string("-"), 1, 0, Cube::from_string("0")});
  f.add_transition({Cube::from_string("-"), 2, 0, Cube::from_string("0")});
  const auto reach = f.reachable_states();
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
}

TEST(KissIoTest, RoundTrip) {
  const Fsm f = toggler();
  const std::string text = write_kiss_string(f);
  const Fsm g = read_kiss_string(text, "toggler");
  EXPECT_EQ(g.num_inputs(), 1);
  EXPECT_EQ(g.num_outputs(), 1);
  EXPECT_EQ(g.num_states(), 2);
  EXPECT_EQ(g.transitions().size(), 4u);
  EXPECT_EQ(g.state_name(g.reset_state()), "A");
  EXPECT_EQ(write_kiss_string(g), text);
}

TEST(KissIoTest, ParsesDirectives) {
  const std::string text = R"(
.i 2
.o 1
.s 2
.r idle
-1 idle run 1
-0 idle idle 0
-- run idle 0
.e
)";
  const Fsm f = read_kiss_string(text, "t");
  EXPECT_EQ(f.num_states(), 2);
  EXPECT_EQ(f.state_name(f.reset_state()), "idle");
}

TEST(KissIoTest, RejectsBadInput) {
  EXPECT_THROW(read_kiss_string(".i 2\n", "x"), std::runtime_error);
  EXPECT_THROW(read_kiss_string(".i 2\n.o 1\n01 a b\n", "x"),
               std::runtime_error);
  EXPECT_THROW(read_kiss_string(".i 2\n.o 1\n.s 5\n-- a a 1\n", "x"),
               std::runtime_error);
}

TEST(MinimizeTest, CollapsesEquivalentPair) {
  // B and C behave identically.
  Fsm f("dup", 1, 1);
  f.add_state("A");
  f.add_state("B");
  f.add_state("C");
  f.add_transition({Cube::from_string("1"), 0, 1, Cube::from_string("0")});
  f.add_transition({Cube::from_string("0"), 0, 2, Cube::from_string("0")});
  f.add_transition({Cube::from_string("-"), 1, 0, Cube::from_string("1")});
  f.add_transition({Cube::from_string("-"), 2, 0, Cube::from_string("1")});
  EXPECT_EQ(fsm_num_equivalence_classes(f), 2);
  const Fsm m = minimize_fsm(f);
  EXPECT_EQ(m.num_states(), 2);
  EXPECT_TRUE(m.check_deterministic());
}

TEST(MinimizeTest, DistinguishesByOutput) {
  Fsm f("d", 1, 1);
  f.add_state("A");
  f.add_state("B");
  f.add_transition({Cube::from_string("-"), 0, 0, Cube::from_string("0")});
  f.add_transition({Cube::from_string("-"), 1, 1, Cube::from_string("1")});
  EXPECT_EQ(fsm_num_equivalence_classes(f), 2);
}

TEST(MinimizeTest, DistinguishesBySuccessor) {
  // Same outputs everywhere; A and B differ only via successor chains.
  Fsm f("d2", 1, 1);
  f.add_state("A");
  f.add_state("B");
  f.add_state("Sink0");
  f.add_state("Sink1");
  f.add_transition({Cube::from_string("-"), 0, 2, Cube::from_string("0")});
  f.add_transition({Cube::from_string("-"), 1, 3, Cube::from_string("0")});
  f.add_transition({Cube::from_string("-"), 2, 2, Cube::from_string("0")});
  f.add_transition({Cube::from_string("-"), 3, 3, Cube::from_string("1")});
  const auto cls = fsm_equivalence_classes(f);
  EXPECT_NE(cls[0], cls[1]);
}

TEST(MinimizeTest, DropsUnreachable) {
  Fsm f("u", 1, 1);
  f.add_state("A");
  f.add_state("ghost");
  f.add_transition({Cube::from_string("-"), 0, 0, Cube::from_string("0")});
  f.add_transition({Cube::from_string("-"), 1, 1, Cube::from_string("1")});
  const Fsm m = minimize_fsm(f);
  EXPECT_EQ(m.num_states(), 1);
}

// Property tests over the whole generated suite.
class McncSuiteTest : public ::testing::TestWithParam<FsmGenSpec> {};

TEST_P(McncSuiteTest, MeetsAllGuarantees) {
  const FsmGenSpec spec = GetParam();
  const Fsm f = generate_control_fsm(spec);
  EXPECT_EQ(f.num_states(), spec.padded_states);
  EXPECT_EQ(f.num_inputs(), spec.num_inputs);
  EXPECT_EQ(f.num_outputs(), spec.num_outputs);
  EXPECT_TRUE(f.check_complete());
  EXPECT_TRUE(f.check_deterministic());
  EXPECT_EQ(fsm_num_equivalence_classes(f), spec.minimal_states);
  const auto reach = f.reachable_states();
  for (int s = 0; s < f.num_states(); ++s) EXPECT_TRUE(reach[s]);
  // Minimization yields exactly the class count.
  const Fsm m = minimize_fsm(f);
  EXPECT_EQ(m.num_states(), spec.minimal_states);
}

TEST_P(McncSuiteTest, GenerationIsDeterministic) {
  const FsmGenSpec spec = GetParam();
  const Fsm a = generate_control_fsm(spec);
  const Fsm b = generate_control_fsm(spec);
  EXPECT_EQ(write_kiss_string(a), write_kiss_string(b));
}

INSTANTIATE_TEST_SUITE_P(PaperSuite, McncSuiteTest,
                         ::testing::ValuesIn(mcnc_specs()),
                         [](const auto& info) { return info.param.name; });

TEST(McncSuiteTest2, ByNameMatchesTable1Dimensions) {
  struct Row {
    const char* name;
    int pi, po, states;
  };
  // Paper Table 1 (raw KISS file dimensions).
  const Row table1[] = {{"dk16", 3, 3, 27},   {"pma", 7, 8, 27},
                        {"s510", 20, 7, 47},  {"s820", 18, 19, 25},
                        {"s832", 18, 19, 25}, {"scf", 27, 54, 121}};
  for (const auto& row : table1) {
    const Fsm f = mcnc_fsm(row.name);
    EXPECT_EQ(f.num_inputs(), row.pi) << row.name;
    EXPECT_EQ(f.num_outputs(), row.po) << row.name;
    EXPECT_EQ(f.num_states(), row.states) << row.name;
  }
}

TEST(McncSuiteTest2, ScaledSpecShrinks) {
  const auto spec = mcnc_specs()[5];  // scf
  const auto small = scaled_spec(spec, 0.25);
  EXPECT_LT(small.minimal_states, spec.minimal_states);
  EXPECT_GE(small.minimal_states, 2);
  EXPECT_LE(small.padded_states, spec.padded_states);
  EXPECT_GE(small.padded_states, small.minimal_states);
}

}  // namespace
}  // namespace satpg
