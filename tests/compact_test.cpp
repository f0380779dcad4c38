// Tests for static test-set compaction.
#include <gtest/gtest.h>

#include "atpg/compact.h"
#include "atpg/parallel.h"
#include "fsm/mcnc_suite.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

Netlist small_machine() {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == "s820") spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, 0.35));
  return synthesize(fsm, {}).netlist;
}

TEST(CompactTest, PreservesCoverage) {
  const Netlist nl = small_machine();
  ParallelAtpgOptions opts;
  opts.run.engine.eval_limit = 200'000;
  opts.run.engine.backtrack_limit = 300;
  opts.run.random_sequences = 16;  // deliberately redundant test set
  const auto run = run_parallel_atpg(nl, opts).run;
  ASSERT_GT(run.tests.size(), 1u);

  const auto c = compact_tests(nl, run.tests);
  EXPECT_EQ(c.before, run.tests.size());
  EXPECT_LE(c.after, c.before);
  EXPECT_GE(c.detected_after, c.detected_before);
}

TEST(CompactTest, DropsUselessSequences) {
  const Netlist nl = small_machine();
  ParallelAtpgOptions opts;
  opts.run.engine.eval_limit = 200'000;
  opts.run.engine.backtrack_limit = 300;
  const auto run = run_parallel_atpg(nl, opts).run;
  // Duplicate the whole test set; compaction must fall back to (at most)
  // the original size.
  std::vector<TestSequence> doubled = run.tests;
  doubled.insert(doubled.end(), run.tests.begin(), run.tests.end());
  const auto c = compact_tests(nl, doubled);
  EXPECT_LE(c.after, run.tests.size());
  EXPECT_EQ(c.detected_after, c.detected_before);
}

TEST(CompactTest, EmptySetIsNoop) {
  const Netlist nl = small_machine();
  const auto c = compact_tests(nl, {});
  EXPECT_EQ(c.before, 0u);
  EXPECT_EQ(c.after, 0u);
  EXPECT_EQ(c.detected_before, 0u);
}

}  // namespace
}  // namespace satpg
