// Unit and integration tests for the kCdcl engine stack (DESIGN.md §9):
// Tseitin gate encodings checked truth-table-exhaustively against V3
// semantics, unit-propagation / watch-list invariants, 1UIP learning on
// hand-built conflict graphs (the solver's analyze() is minimization-free,
// so the learned clause is predictable literal-for-literal), the
// charge_cdcl budget conversion (satellite of the budget-counting fix),
// thread-count byte-identity of full CDCL runs on an MCNC circuit and its
// retimed twin (the digest includes per-fault cube provenance), the
// cube-provenance round-trip (every recorded source names a fault that
// really exported cubes), and the budget-abort capture/replay regression:
// a CDCL attempt cut by the eval budget must replay bit-for-bit. The arena
// solver is checked against a vector-clause reference on seeded random
// CNFs (3-CNF and half-binary mixes) and on the Tseitin CNF of a cached
// circuit, and a copied solver + encoder pair against a fresh encode.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/capture.h"
#include "fault/fault.h"
#include "atpg/cdcl/cnf.h"
#include "atpg/cdcl/solver.h"
#include "atpg/parallel.h"
#include "atpg/podem.h"
#include "base/memstats.h"
#include "base/rng.h"
#include "fsm/mcnc_suite.h"
#include "netlist/bench_io.h"
#include "netlist/netlist.h"
#include "retime/retime.h"
#include "sim/simulator.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

// --- Tseitin gate encodings --------------------------------------------------

// One gate feeding one output; every input assignment is pushed through the
// CNF as assumptions and the model value of the gate's variable must equal
// the two-valued gate function computed by src/sim on the same netlist.
void check_gate_truth_table(GateType t, int arity) {
  Netlist nl("tt");
  std::vector<NodeId> ins;
  for (int i = 0; i < arity; ++i)
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  const NodeId g = nl.add_gate(t, "g", ins);
  nl.add_output("o", g);

  CdclSolver solver;
  TimeFrameCnf cnf(nl, std::nullopt, 1, &solver);
  SeqSimulator sim(nl);
  for (int m = 0; m < (1 << arity); ++m) {
    std::vector<CnfLit> assume;
    std::vector<V3> pi(static_cast<std::size_t>(arity));
    for (int i = 0; i < arity; ++i) {
      const bool one = ((m >> i) & 1) != 0;
      pi[static_cast<std::size_t>(i)] = one ? V3::kOne : V3::kZero;
      assume.push_back(mk_lit(cnf.good(0, ins[static_cast<std::size_t>(i)]),
                              /*neg=*/!one));
    }
    sim.eval_outputs(pi);
    ASSERT_EQ(solver.solve_under(assume), SolveStatus::kSat)
        << "gate " << static_cast<int>(t) << " minterm " << m;
    const bool want = sim.value(g) == V3::kOne;
    EXPECT_EQ(solver.model_value(cnf.good(0, g)), want)
        << "gate " << static_cast<int>(t) << " minterm " << m;
    EXPECT_TRUE(solver.check_watch_invariants());
  }
}

TEST(TseitinTest, AllPrimitiveGatesMatchSimulatorTruthTables) {
  check_gate_truth_table(GateType::kBuf, 1);
  check_gate_truth_table(GateType::kNot, 1);
  for (const GateType t : {GateType::kAnd, GateType::kNand, GateType::kOr,
                           GateType::kNor, GateType::kXor, GateType::kXnor}) {
    check_gate_truth_table(t, 2);
    check_gate_truth_table(t, 3);  // wide + chained encodings
  }
}

// A stuck-at fault on the only observation path must make the detection
// objective UNSAT exactly when no input assignment distinguishes the rails.
TEST(TseitinTest, DetectionObjectiveMatchesExcitability) {
  // y = OR(a, AND(b, NOT b)): the AND output s-a-0 is unexcitable, s-a-1
  // is detectable (set a=0).
  Netlist nl("exc");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId nb = nl.add_gate(GateType::kNot, "nb", {b});
  const NodeId g = nl.add_gate(GateType::kAnd, "g", {b, nb});
  const NodeId y = nl.add_gate(GateType::kOr, "y", {a, g});
  nl.add_output("o", y);

  {
    CdclSolver s;
    TimeFrameCnf cnf(nl, Fault{g, -1, false}, 1, &s);
    if (cnf.add_detect_objective(/*include_boundary=*/true)) {
      EXPECT_EQ(s.solve(), SolveStatus::kUnsat);
    }
  }
  {
    CdclSolver s;
    TimeFrameCnf cnf(nl, Fault{g, -1, true}, 1, &s);
    ASSERT_TRUE(cnf.add_detect_objective(/*include_boundary=*/true));
    EXPECT_EQ(s.solve(), SolveStatus::kSat);
    EXPECT_FALSE(s.model_value(cnf.good(0, a)));  // a=0 exposes the fault
  }
}

// --- unit propagation & watch lists ------------------------------------------

TEST(CdclSolverTest, UnitChainPropagatesWithoutDecisions) {
  CdclSolver s;
  for (int i = 0; i < 6; ++i) s.new_var();
  // x0; x0->x1; x1->x2; ... a pure implication chain.
  s.add_clause({mk_lit(0)});
  for (int i = 0; i + 1 < 6; ++i)
    s.add_clause({mk_lit(i, true), mk_lit(i + 1)});
  ASSERT_EQ(s.solve(), SolveStatus::kSat);
  EXPECT_EQ(s.stats().decisions, 0u);
  EXPECT_EQ(s.stats().conflicts, 0u);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(s.model_value(i));
  EXPECT_TRUE(s.check_watch_invariants());
}

TEST(CdclSolverTest, WatchInvariantsSurviveConflictsAndRestarts) {
  // Pigeonhole PHP(4,3): 4 pigeons, 3 holes — UNSAT after real search with
  // learning, restarts and many watch migrations.
  CdclSolver s;
  const auto var = [](int p, int h) { return p * 3 + h; };
  for (int i = 0; i < 12; ++i) s.new_var();
  for (int p = 0; p < 4; ++p)
    s.add_clause({mk_lit(var(p, 0)), mk_lit(var(p, 1)), mk_lit(var(p, 2))});
  for (int h = 0; h < 3; ++h)
    for (int p1 = 0; p1 < 4; ++p1)
      for (int p2 = p1 + 1; p2 < 4; ++p2)
        s.add_clause({mk_lit(var(p1, h), true), mk_lit(var(p2, h), true)});
  EXPECT_EQ(s.solve(), SolveStatus::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().learned, 0u);
  EXPECT_TRUE(s.check_watch_invariants());
}

// --- 1UIP on hand-built conflict graphs --------------------------------------

// Assumptions act as the solver's decisions in order, so the implication
// graph of the first conflict is fully scripted and the minimization-free
// 1UIP clause is predictable exactly.
TEST(CdclSolverTest, FirstUipIsTheDecisionWhenItDominates) {
  // Assume x0@1: x0 -> x1, x0 -> x2, and (¬x1 ∨ ¬x2) conflicts. Resolving
  // back reaches the decision itself: learnt = {¬x0}.
  CdclSolver s;
  for (int i = 0; i < 3; ++i) s.new_var();
  s.add_clause({mk_lit(0, true), mk_lit(1)});
  s.add_clause({mk_lit(0, true), mk_lit(2)});
  s.add_clause({mk_lit(1, true), mk_lit(2, true)});
  EXPECT_EQ(s.solve_under({mk_lit(0)}), SolveStatus::kUnsat);
  ASSERT_EQ(s.last_learned_clause().size(), 1u);
  EXPECT_EQ(s.last_learned_clause()[0], mk_lit(0, true));
}

TEST(CdclSolverTest, FirstUipCutsAtTheDominatorWithLowerLevelContext) {
  // Level 1 (assume x0): x0 -> x2.          [reason ¬x0 ∨ x2]
  // Level 2 (assume x1): x1 -> x3,          [¬x1 ∨ x3]
  //                      x2∧x3 -> x4,       [¬x2 ∨ ¬x3 ∨ x4]
  //                      x3∧x4 -> x5,       [¬x3 ∨ ¬x4 ∨ x5]
  //                      (¬x4 ∨ ¬x5) conflicts.
  // x3 dominates the conflict at level 2 (the 1UIP); x2 rides along from
  // level 1. Textbook asserting clause: {¬x3, ¬x2}, asserting literal
  // first, backjump to level 1.
  CdclSolver s;
  for (int i = 0; i < 6; ++i) s.new_var();
  s.add_clause({mk_lit(0, true), mk_lit(2)});
  s.add_clause({mk_lit(1, true), mk_lit(3)});
  s.add_clause({mk_lit(2, true), mk_lit(3, true), mk_lit(4)});
  s.add_clause({mk_lit(3, true), mk_lit(4, true), mk_lit(5)});
  s.add_clause({mk_lit(4, true), mk_lit(5, true)});
  EXPECT_EQ(s.solve_under({mk_lit(0), mk_lit(1)}), SolveStatus::kUnsat);
  const std::vector<CnfLit> want{mk_lit(3, true), mk_lit(2, true)};
  EXPECT_EQ(s.last_learned_clause(), want);
}

Netlist mcnc_circuit(const std::string& name, double scale);

// --- differential: the arena solver against a vector-clause reference -------

// The solver with one std::vector per clause, a per-variable assignment and
// the linear decision scan — the layout the arena replaced, kept here as the
// reference the arena solver must match step for step. No budget, ring or
// event sink: the search itself is what is compared.
class RefSolver {
 public:
  int new_var() {
    const int v = num_vars();
    assign_.push_back(-1);
    level_.push_back(0);
    reason_.push_back(-1);
    activity_.push_back(0.0);
    phase_.push_back(0);
    model_.push_back(0);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    return v;
  }
  int num_vars() const { return static_cast<int>(assign_.size()); }

  void add_clause(std::vector<CnfLit> lits) {
    if (!ok_) return;
    std::sort(lits.begin(), lits.end());
    std::vector<CnfLit> out;
    for (const CnfLit l : lits) {
      if (!out.empty() && out.back() == l) continue;
      if (!out.empty() && out.back() == lit_not(l)) return;
      const std::int8_t v = value_of(l);
      if (v == 1 && level_[idx(lit_var(l))] == 0) return;
      if (v == 0 && level_[idx(lit_var(l))] == 0) continue;
      out.push_back(l);
    }
    if (out.empty()) {
      ok_ = false;
      return;
    }
    if (out.size() == 1) {
      if (value_of(out[0]) == 0) {
        ok_ = false;
        return;
      }
      if (value_of(out[0]) == -1) enqueue(out[0], -1);
      return;
    }
    Clause c;
    c.lits = std::move(out);
    clauses_.push_back(std::move(c));
    attach(static_cast<int>(clauses_.size()) - 1);
  }

  SolveStatus solve_under(const std::vector<CnfLit>& assumptions) {
    const auto finish = [&](SolveStatus st) {
      cancel_until(0);
      return st;
    };
    if (!ok_) return finish(SolveStatus::kUnsat);
    if (propagate() >= 0) {
      ok_ = false;
      return finish(SolveStatus::kUnsat);
    }
    std::uint64_t since_restart = 0;
    std::uint64_t restart_limit = luby(stats_.restarts + 1) * 64;
    std::vector<CnfLit> learnt;
    for (;;) {
      const int confl = propagate();
      if (confl >= 0) {
        ++stats_.conflicts;
        if (decision_level() == 0) {
          ok_ = false;
          return finish(SolveStatus::kUnsat);
        }
        int bt_level = 0;
        analyze(confl, &learnt, &bt_level);
        last_learned_ = learnt;
        cancel_until(bt_level);
        ++since_restart;
        if (learnt.size() == 1) {
          enqueue(learnt[0], -1);
        } else {
          Clause c;
          c.lits = learnt;
          c.learned = true;
          std::vector<int> lvls;
          for (const CnfLit l : learnt) lvls.push_back(level_[idx(lit_var(l))]);
          std::sort(lvls.begin(), lvls.end());
          c.lbd = static_cast<std::uint32_t>(
              std::unique(lvls.begin(), lvls.end()) - lvls.begin());
          clauses_.push_back(std::move(c));
          const int ci = static_cast<int>(clauses_.size()) - 1;
          attach(ci);
          ++live_learned_;
          ++stats_.learned;
          enqueue(learnt[0], ci);
        }
        var_inc_ *= (1.0 / 0.95);
        if (live_learned_ >= reduce_limit_) reduce_db();
        continue;
      }
      if (since_restart >= restart_limit) {
        ++stats_.restarts;
        since_restart = 0;
        restart_limit = luby(stats_.restarts + 1) * 64;
        cancel_until(0);
        continue;
      }
      if (static_cast<std::size_t>(decision_level()) < assumptions.size()) {
        const CnfLit a = assumptions[idx(decision_level())];
        if (value_of(a) == 0) return finish(SolveStatus::kUnsat);
        trail_lim_.push_back(trail_.size());
        if (value_of(a) == -1) enqueue(a, -1);
        continue;
      }
      int v = -1;
      for (int u = 0; u < num_vars(); ++u) {
        if (assign_[idx(u)] >= 0) continue;
        if (v < 0 || activity_[idx(u)] > activity_[idx(v)]) v = u;
      }
      if (v < 0) {
        for (int u = 0; u < num_vars(); ++u)
          model_[idx(u)] = assign_[idx(u)] > 0 ? 1 : 0;
        return finish(SolveStatus::kSat);
      }
      ++stats_.decisions;
      trail_lim_.push_back(trail_.size());
      enqueue(mk_lit(v, phase_[idx(v)] == 0), -1);
    }
  }

  bool model_value(int var) const { return model_[idx(var)] != 0; }
  const SolverStats& stats() const { return stats_; }
  const std::vector<CnfLit>& last_learned_clause() const {
    return last_learned_;
  }

 private:
  struct Clause {
    std::vector<CnfLit> lits;
    std::uint32_t lbd = 0;
    bool learned = false;
    bool deleted = false;
  };
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }
  static std::uint64_t luby(std::uint64_t i) {
    std::uint64_t k = 1;
    while ((1ULL << k) - 1 < i) ++k;
    while ((1ULL << k) - 1 != i) {
      i -= (1ULL << (k - 1)) - 1;
      k = 1;
      while ((1ULL << k) - 1 < i) ++k;
    }
    return 1ULL << (k - 1);
  }
  std::int8_t value_of(CnfLit l) const {
    const std::int8_t v = assign_[idx(lit_var(l))];
    if (v < 0) return -1;
    return lit_sign(l) ? static_cast<std::int8_t>(1 - v) : v;
  }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  void attach(int ci) {
    const Clause& c = clauses_[idx(ci)];
    watches_[idx(c.lits[0])].push_back(ci);
    watches_[idx(c.lits[1])].push_back(ci);
  }
  void enqueue(CnfLit l, int reason) {
    const int v = lit_var(l);
    assign_[idx(v)] = lit_sign(l) ? 0 : 1;
    level_[idx(v)] = decision_level();
    reason_[idx(v)] = reason;
    trail_.push_back(l);
    if (reason >= 0) ++stats_.propagations;
  }
  int propagate() {
    while (qhead_ < trail_.size()) {
      const CnfLit p = trail_[qhead_++];
      std::vector<int>& ws = watches_[idx(lit_not(p))];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < ws.size(); ++i) {
        const int ci = ws[i];
        Clause& c = clauses_[idx(ci)];
        if (c.deleted) continue;
        const CnfLit false_lit = lit_not(p);
        if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
        if (value_of(c.lits[0]) == 1) {
          ws[keep++] = ci;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < c.lits.size(); ++k) {
          if (value_of(c.lits[k]) != 0) {
            std::swap(c.lits[1], c.lits[k]);
            watches_[idx(c.lits[1])].push_back(ci);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        ws[keep++] = ci;
        if (value_of(c.lits[0]) == 0) {
          for (++i; i < ws.size(); ++i) ws[keep++] = ws[i];
          ws.resize(keep);
          qhead_ = trail_.size();
          return ci;
        }
        enqueue(c.lits[0], ci);
      }
      ws.resize(keep);
    }
    return -1;
  }
  void bump_var(int v) {
    activity_[idx(v)] += var_inc_;
    if (activity_[idx(v)] > 1e100) {
      for (double& a : activity_) a *= 1e-100;
      var_inc_ *= 1e-100;
      ++rescales;
    }
  }
  void analyze(int confl, std::vector<CnfLit>* learnt, int* bt_level) {
    learnt->clear();
    learnt->push_back(0);
    int counter = 0;
    CnfLit p = -1;
    std::size_t i = trail_.size();
    int ci = confl;
    do {
      for (const CnfLit q : clauses_[idx(ci)].lits) {
        if (p >= 0 && q == lit_not(p)) continue;
        const int v = lit_var(q);
        if (seen_[idx(v)] || level_[idx(v)] == 0) continue;
        seen_[idx(v)] = 1;
        bump_var(v);
        if (level_[idx(v)] >= decision_level())
          ++counter;
        else
          learnt->push_back(q);
      }
      while (!seen_[idx(lit_var(trail_[i - 1]))]) --i;
      p = lit_not(trail_[i - 1]);
      --i;
      seen_[idx(lit_var(p))] = 0;
      ci = reason_[idx(lit_var(p))];
      --counter;
    } while (counter > 0);
    (*learnt)[0] = p;
    for (std::size_t k = 1; k < learnt->size(); ++k)
      seen_[idx(lit_var((*learnt)[k]))] = 0;
    if (learnt->size() == 1) {
      *bt_level = 0;
    } else {
      std::size_t max_i = 1;
      for (std::size_t k = 2; k < learnt->size(); ++k)
        if (level_[idx(lit_var((*learnt)[k]))] >
            level_[idx(lit_var((*learnt)[max_i]))])
          max_i = k;
      std::swap((*learnt)[1], (*learnt)[max_i]);
      *bt_level = level_[idx(lit_var((*learnt)[1]))];
    }
  }
  void cancel_until(int lvl) {
    if (decision_level() <= lvl) return;
    const std::size_t bound = trail_lim_[idx(lvl)];
    for (std::size_t i = trail_.size(); i-- > bound;) {
      const int v = lit_var(trail_[i]);
      phase_[idx(v)] = assign_[idx(v)] > 0 ? 1 : 0;
      assign_[idx(v)] = -1;
      reason_[idx(v)] = -1;
    }
    trail_.resize(bound);
    trail_lim_.resize(idx(lvl));
    qhead_ = trail_.size();
  }
  bool locked(int ci) const {
    const Clause& c = clauses_[idx(ci)];
    const int v = lit_var(c.lits[0]);
    return assign_[idx(v)] >= 0 && reason_[idx(v)] == ci &&
           value_of(c.lits[0]) == 1;
  }
  void reduce_db() {
    std::vector<int> cand;
    for (std::size_t ci = 0; ci < clauses_.size(); ++ci) {
      const Clause& c = clauses_[ci];
      if (!c.learned || c.deleted || c.lits.size() <= 2 || c.lbd <= 2)
        continue;
      if (locked(static_cast<int>(ci))) continue;
      cand.push_back(static_cast<int>(ci));
    }
    std::sort(cand.begin(), cand.end(), [&](int a, int b) {
      const std::uint32_t la = clauses_[idx(a)].lbd;
      const std::uint32_t lb = clauses_[idx(b)].lbd;
      if (la != lb) return la > lb;
      return a < b;
    });
    const std::size_t kill = cand.size() / 2;
    for (std::size_t i = 0; i < kill; ++i) {
      Clause& c = clauses_[idx(cand[i])];
      c.deleted = true;
      std::vector<CnfLit>().swap(c.lits);
      --live_learned_;
      ++stats_.deleted;
    }
    for (auto& w : watches_) w.clear();
    for (std::size_t ci = 0; ci < clauses_.size(); ++ci)
      if (!clauses_[ci].deleted) attach(static_cast<int>(ci));
    reduce_limit_ += 500;
  }

  bool ok_ = true;
  std::vector<Clause> clauses_;
  std::vector<std::vector<int>> watches_;
  std::vector<std::int8_t> assign_;
  std::vector<int> level_;
  std::vector<int> reason_;
  std::vector<CnfLit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<std::uint8_t> phase_;
  std::vector<std::uint8_t> model_;
  std::vector<std::uint8_t> seen_;
  std::vector<CnfLit> last_learned_;
  std::size_t reduce_limit_ = 2000;
  std::size_t live_learned_ = 0;
  SolverStats stats_;

 public:
  int rescales = 0;  ///< activity rescales so far (coverage check)
};

void expect_same_stats(const SolverStats& a, const SolverStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.decisions, b.decisions) << where;
  EXPECT_EQ(a.propagations, b.propagations) << where;
  EXPECT_EQ(a.conflicts, b.conflicts) << where;
  EXPECT_EQ(a.restarts, b.restarts) << where;
  EXPECT_EQ(a.learned, b.learned) << where;
  EXPECT_EQ(a.deleted, b.deleted) << where;
}

// The two solvers after the same solve: same answer (stored in *st), same
// search, same model; the arena solver's watch invariants hold.
void expect_same_solve(CdclSolver& s, RefSolver& r,
                       const std::vector<CnfLit>& assume,
                       const std::string& where, SolveStatus* st) {
  *st = s.solve_under(assume);
  ASSERT_EQ(*st, r.solve_under(assume)) << where;
  expect_same_stats(s.stats(), r.stats(), where);
  EXPECT_EQ(s.last_learned_clause(), r.last_learned_clause()) << where;
  if (*st == SolveStatus::kSat) {
    for (int v = 0; v < s.num_vars(); ++v)
      ASSERT_EQ(s.model_value(v), r.model_value(v)) << where << " var " << v;
  }
  ASSERT_TRUE(s.check_watch_invariants()) << where;
}

struct DifferentialTotals {
  std::uint64_t deleted = 0;
  int rescales = 0;
};

// One seeded random instance fed identically to both solvers: an initial
// formula of `initial` clauses (3-literal, or 2 or 3 literals with equal
// odds when `half_binary`), then rounds of solves with and without
// assumptions, with fresh clauses of 2-4 literals added between solves.
void run_random_differential(std::uint64_t seed, int initial,
                             bool half_binary, DifferentialTotals* totals) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL);
  const int n = 200;
  CdclSolver s;
  RefSolver r;
  for (int v = 0; v < n; ++v) {
    ASSERT_EQ(s.new_var(), v);
    ASSERT_EQ(r.new_var(), v);
  }
  const auto random_clause = [&](std::size_t width) {
    std::vector<CnfLit> c;
    for (std::size_t k = 0; k < width; ++k)
      c.push_back(mk_lit(static_cast<int>(rng.next_below(n)),
                         rng.next_below(2) != 0));
    return c;
  };
  const auto add = [&](const std::vector<CnfLit>& c) {
    s.add_clause(c.data(), c.size());
    r.add_clause(c);
  };
  for (int i = 0; i < initial; ++i)
    add(random_clause(half_binary ? 2 + rng.next_below(2) : 3));
  for (int round = 0; round < 6; ++round) {
    std::vector<CnfLit> assume;
    if (round % 2 == 1) {
      for (std::size_t k = 0; k < 3; ++k)
        assume.push_back(mk_lit(static_cast<int>(rng.next_below(n)),
                                rng.next_below(2) != 0));
    }
    SolveStatus st = SolveStatus::kAborted;
    expect_same_solve(
        s, r, assume,
        "seed " + std::to_string(seed) + " round " + std::to_string(round),
        &st);
    if (::testing::Test::HasFatalFailure()) return;
    for (int i = 0; i < 4; ++i) add(random_clause(2 + rng.next_below(3)));
  }
  totals->deleted += s.stats().deleted;
  totals->rescales += r.rescales;
}

// Seeded random CNFs near the satisfiability threshold. The 3-CNFs are
// large enough that the learned DB passes kReduceBase (so the arena is
// compacted with reasons live) and the activity increment passes 1e100
// (so the rescale runs). The half-binary mixes drive the implicit binary
// clauses: binary implications and conflicts, learned binary clauses, and
// watch lists that outgrow their pool slice while propagating.
TEST(CdclSolverTest, ArenaSolverMatchesVectorClauseReference) {
  DifferentialTotals totals;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_random_differential(seed, 852, /*half_binary=*/false, &totals);
    if (HasFatalFailure()) return;
  }
  for (std::uint64_t seed = 5; seed <= 8; ++seed) {
    run_random_differential(seed, 480, /*half_binary=*/true, &totals);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(totals.deleted, 0u) << "no instance reached reduce_db";
  EXPECT_GT(totals.rescales, 0) << "no instance rescaled its activities";
}

// The Tseitin CNF of a cached circuit (the retimed s510 twin behind most of
// cdcl_pairs), unrolled over twelve frames with free frame-0 state, fed to
// both solvers as one clause stream: mostly binary gate clauses, as in the
// engine's encodings. Each round asks for a random last-frame state and a
// random mid-window output value, as justification does, and blocks the
// first two frames' inputs of every trace found, so long clauses arrive
// between solves.
TEST(CdclSolverTest, CircuitCnfMatchesVectorClauseReference) {
  const Netlist nl = read_bench_file(std::string(SATPG_CACHE_DIR) +
                                     "/s510.jc.sd.re_s3_x30.bench");
  constexpr int kFrames = 12;
  CdclSolver s;
  RefSolver r;
  const auto new_var = [&] {
    const int v = s.new_var();
    EXPECT_EQ(r.new_var(), v);
    return v;
  };
  const auto add = [&](std::vector<CnfLit> c) {
    s.add_clause(c.data(), c.size());
    r.add_clause(std::move(c));
  };
  const auto equiv = [&](CnfLit y, CnfLit x) {
    add({lit_not(y), x});
    add({y, lit_not(x)});
  };
  const std::size_t nodes = nl.num_nodes();
  std::vector<int> var(kFrames * nodes);
  for (int& v : var) v = new_var();
  const auto at = [&](int frame, NodeId id) {
    return mk_lit(var[static_cast<std::size_t>(frame) * nodes +
                      static_cast<std::size_t>(id)]);
  };
  for (int f = 0; f < kFrames; ++f) {
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto id = static_cast<NodeId>(i);
      const Node& node = nl.node(id);
      const CnfLit y = at(f, id);
      std::vector<CnfLit> ins;
      for (const NodeId in : node.fanins) ins.push_back(at(f, in));
      switch (node.type) {
        case GateType::kInput:
          break;
        case GateType::kDff:
          if (f > 0) equiv(y, at(f - 1, node.fanins[0]));
          break;
        case GateType::kConst0:
          add({lit_not(y)});
          break;
        case GateType::kConst1:
          add({y});
          break;
        case GateType::kBuf:
        case GateType::kOutput:
          equiv(y, ins[0]);
          break;
        case GateType::kNot:
          equiv(y, lit_not(ins[0]));
          break;
        case GateType::kAnd:
        case GateType::kNand:
        case GateType::kOr:
        case GateType::kNor: {
          // AND form: out -> every in, all ins -> out (OR by De Morgan).
          const bool is_or = node.type == GateType::kOr ||
                             node.type == GateType::kNor;
          const bool inv = node.type == GateType::kNand ||
                           node.type == GateType::kNor;
          const CnfLit out = (inv != is_or) ? lit_not(y) : y;
          std::vector<CnfLit> big{out};
          for (CnfLit x : ins) {
            if (is_or) x = lit_not(x);
            add({lit_not(out), x});
            big.push_back(lit_not(x));
          }
          add(big);
          break;
        }
        case GateType::kXor:
        case GateType::kXnor: {
          CnfLit acc = ins[0];
          for (std::size_t k = 1; k < ins.size(); ++k) {
            const CnfLit d = mk_lit(new_var());
            const CnfLit a = acc, b = ins[k];
            add({lit_not(d), a, b});
            add({lit_not(d), lit_not(a), lit_not(b)});
            add({d, lit_not(a), b});
            add({d, a, lit_not(b)});
            acc = d;
          }
          equiv(y, node.type == GateType::kXnor ? lit_not(acc) : acc);
          break;
        }
      }
    }
  }

  Rng rng(0xc1c);
  int sat = 0, unsat = 0;
  for (int round = 0; round < 64; ++round) {
    std::vector<CnfLit> assume;
    for (const NodeId ff : nl.dffs())
      assume.push_back(at(kFrames - 1, ff) ^
                       static_cast<CnfLit>(rng.next_below(2)));
    for (const NodeId o : nl.outputs())
      assume.push_back(at(kFrames / 2, o) ^
                       static_cast<CnfLit>(rng.next_below(2)));
    SolveStatus st = SolveStatus::kAborted;
    expect_same_solve(s, r, assume, "round " + std::to_string(round), &st);
    if (HasFatalFailure()) return;
    if (st != SolveStatus::kSat) {
      ++unsat;
      continue;
    }
    // Block the frame-0 state of the trace found.
    ++sat;
    std::vector<CnfLit> blk;
    for (int f = 0; f < 2; ++f)
      for (const NodeId pi : nl.inputs())
        blk.push_back(at(f, pi) ^
                      (s.model_value(lit_var(at(f, pi))) ? 1 : 0));
    add(blk);
  }
  EXPECT_GT(s.stats().conflicts, 500u);
  EXPECT_GT(s.stats().restarts, 0u);
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
}

// --- copy of an encoded solver == fresh encode --------------------------------

// A solver + CNF pair copied from a template before any budget is attached
// must behave exactly like a fresh encode: same search, same model, and the
// same bytes moved into the tally when the budget attaches.
TEST(CdclSolverTest, CopiedEncodingSolvesLikeAFreshOne) {
  const Netlist nl = mcnc_circuit("dk16", 0.35);
  const auto faults = enumerate_faults(nl);
  ASSERT_FALSE(faults.empty());
  int sat_solves = 0;
  for (std::size_t k = 0; k < 6; ++k) {
    const Fault fault = faults[(k * 97) % faults.size()];
    for (const int frames : {1, 3}) {
      const std::string where =
          "fault " + std::to_string(k) + " frames " + std::to_string(frames);
      CdclSolver tmpl_solver;
      const TimeFrameCnf tmpl(nl, fault, frames, &tmpl_solver);

      // [0] a fresh encode, [1] a copy of the template.
      std::array<CdclSolver, 2> solvers{CdclSolver(), tmpl_solver};
      TimeFrameCnf fresh(nl, fault, frames, &solvers[0]);
      TimeFrameCnf copy(tmpl, &solvers[1]);
      ASSERT_EQ(copy.footprint_bytes(), fresh.footprint_bytes());
      ASSERT_EQ(solvers[1].num_vars(), solvers[0].num_vars());

      std::array<MemTally, 2> mem;
      std::array<PodemBudget, 2> budget;
      for (std::size_t r = 0; r < 2; ++r) {
        budget[r].max_evals = 200'000;
        budget[r].max_backtracks = 2'000;
        budget[r].mem = &mem[r];
        solvers[r].set_budget(&budget[r]);
      }
      const bool has_objective = fresh.add_detect_objective(false);
      ASSERT_EQ(copy.add_detect_objective(false), has_objective);
      if (!has_objective) continue;
      // Enumerate a few models, blocking each state, so the copies also see
      // clauses added between solves.
      for (int round = 0; round < 3; ++round) {
        const SolveStatus st = solvers[0].solve();
        ASSERT_EQ(solvers[1].solve(), st) << where;
        expect_same_stats(solvers[1].stats(), solvers[0].stats(), where);
        EXPECT_EQ(budget[1].evals, budget[0].evals) << where;
        EXPECT_EQ(mem[1].live, mem[0].live) << where;
        EXPECT_EQ(mem[1].peak, mem[0].peak) << where;
        if (st != SolveStatus::kSat) break;
        ++sat_solves;
        for (int v = 0; v < solvers[0].num_vars(); ++v)
          ASSERT_EQ(solvers[1].model_value(v), solvers[0].model_value(v))
              << where;
        std::vector<CnfLit> blk;
        for (std::size_t i = 0; i < nl.num_dffs(); ++i)
          blk.push_back(mk_lit(fresh.state_var(i),
                               solvers[0].model_value(fresh.state_var(i))));
        if (blk.empty()) break;
        for (CdclSolver& s : solvers) s.add_clause(blk.data(), blk.size());
      }
      for (CdclSolver& s : solvers) EXPECT_TRUE(s.check_watch_invariants());
      // The template is untouched by its copies' searches.
      EXPECT_EQ(tmpl_solver.stats().conflicts, 0u);
    }
  }
  EXPECT_GT(sat_solves, 10);
}

// --- the budget conversion (satellite: budget-counting consistency) ----------

TEST(CdclBudgetTest, ChargeCdclIsTheOneDocumentedConversion) {
  PodemBudget b;
  b.max_evals = 1000;
  b.max_backtracks = 100;
  b.charge_cdcl(3, 17);
  EXPECT_EQ(b.evals, 17u + 3u * PodemBudget::kCdclConflictEvals);
  EXPECT_EQ(b.backtracks, 3u);
  b.charge_cdcl(0, 5);  // propagation-only flush charges no backtracks
  EXPECT_EQ(b.evals, 22u + 3u * PodemBudget::kCdclConflictEvals);
  EXPECT_EQ(b.backtracks, 3u);
  static_assert(PodemBudget::kCdclConflictEvals == 8,
                "the documented conversion rate (podem.h) changed — update "
                "DESIGN.md §9 and the report consumers together");
}

TEST(CdclBudgetTest, SolverChargesThroughTheBudgetAndAborts) {
  // A solver with an attached budget must spend evals/backtracks through
  // charge_cdcl and honor exhaustion with kAborted.
  CdclSolver s;
  const auto var = [](int p, int h) { return p * 3 + h; };
  for (int i = 0; i < 12; ++i) s.new_var();
  for (int p = 0; p < 4; ++p)
    s.add_clause({mk_lit(var(p, 0)), mk_lit(var(p, 1)), mk_lit(var(p, 2))});
  for (int h = 0; h < 3; ++h)
    for (int p1 = 0; p1 < 4; ++p1)
      for (int p2 = p1 + 1; p2 < 4; ++p2)
        s.add_clause({mk_lit(var(p1, h), true), mk_lit(var(p2, h), true)});
  PodemBudget b;
  b.max_evals = 20;  // a handful of conflicts' worth
  b.max_backtracks = 1000;
  s.set_budget(&b);
  EXPECT_EQ(s.solve(), SolveStatus::kAborted);
  EXPECT_GE(b.evals, b.max_evals);
  EXPECT_EQ(b.backtracks, s.stats().conflicts);
}

// --- thread-count byte-identity on MCNC + retimed twin -----------------------

Netlist mcnc_circuit(const std::string& name, double scale) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == name) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, scale));
  return synthesize(fsm, {}).netlist;
}

ParallelAtpgOptions cdcl_options(unsigned threads, bool share) {
  ParallelAtpgOptions popts;
  popts.run.engine.kind = EngineKind::kCdcl;
  popts.run.engine.share_learning = share;
  popts.run.engine.eval_limit = 60'000;
  popts.run.engine.backtrack_limit = 200;
  popts.run.random_sequences = 2;
  popts.run.random_length = 16;
  popts.num_threads = threads;
  return popts;
}

// Everything the deterministic contract covers, in one string: statuses,
// detectors, tests, and the per-fault counter block (the metrics registry
// is process-global and deliberately excluded — report bytes are compared
// end-to-end by the CLI determinism CI leg instead).
std::string run_digest(const Netlist& nl, const ParallelAtpgResult& r) {
  std::ostringstream os;
  os << r.run.detected << '/' << r.run.redundant << '/' << r.run.aborted
     << '/' << r.run.evals << '/' << r.run.backtracks << '/'
     << r.run.conflicts << '/' << r.run.propagations << '/'
     << r.run.restarts << '/' << r.run.learned_clauses << '/'
     << r.run.cube_exports << '\n';
  for (const auto& seq : r.run.tests) {
    for (const auto& vec : seq) {
      for (const V3 v : vec)
        os << (v == V3::kX ? 'x' : v == V3::kOne ? '1' : '0');
      os << '|';
    }
    os << '\n';
  }
  for (std::size_t i = 0; i < r.status.size(); ++i) {
    const FaultSearchStats& s = r.fault_stats[i];
    os << static_cast<int>(r.status[i]) << ',' << r.detected_by[i] << ','
       << int{r.attempted[i]} << ',' << s.evals << ',' << s.backtracks << ','
       << s.conflicts << ',' << s.propagations << ',' << s.restarts << ','
       << s.learned_clauses << ',' << s.cube_blocks << ',' << s.cube_exports;
    for (const CubeSource& src : r.cube_sources[i])
      os << ',' << src.exporter << ':' << src.epoch << ':' << src.hits;
    os << '\n';
  }
  (void)nl;
  return os.str();
}

TEST(CdclDeterminismTest, ThreadCountsAgreeOnParentAndRetimedTwin) {
  const Netlist parent = mcnc_circuit("dk16", 0.35);
  const RetimeResult rt = retime_to_dff_target(
      parent, 2 * parent.num_dffs(), parent.name() + ".re");
  for (const Netlist* nl : {&parent, &rt.netlist}) {
    const auto r1 = run_parallel_atpg(*nl, cdcl_options(1, true));
    const auto r2 = run_parallel_atpg(*nl, cdcl_options(2, true));
    const auto r8 = run_parallel_atpg(*nl, cdcl_options(8, true));
    const std::string d1 = run_digest(*nl, r1);
    EXPECT_EQ(d1, run_digest(*nl, r2)) << nl->name();
    EXPECT_EQ(d1, run_digest(*nl, r8)) << nl->name();
    EXPECT_GT(r1.run.detected, 0u) << nl->name();
  }
}

// --- cube provenance round-trip ----------------------------------------------

// Every cube source a fault records must close the provenance graph:
// a named exporter is an attempted collapsed fault whose committed stats
// show cube_exports > 0 (kCdcl bumps the counter at export time and the
// merge keeps the attempt, so the attribution can never dangle). Empty
// names are unit-local origins and carry no attribution.
TEST(CdclProvenanceTest, CubeSourcesNameRealExporters) {
  const Netlist parent = mcnc_circuit("dk16", 0.35);
  const RetimeResult rt = retime_to_dff_target(
      parent, 2 * parent.num_dffs(), parent.name() + ".re");
  std::size_t attributed = 0;
  for (const Netlist* nl : {&parent, &rt.netlist}) {
    const auto res = run_parallel_atpg(*nl, cdcl_options(2, true));
    const auto collapsed = collapse_faults(*nl);
    std::map<std::string, std::size_t> by_name;
    for (std::size_t i = 0; i < collapsed.size(); ++i)
      by_name.emplace(fault_name(*nl, collapsed[i].representative), i);
    ASSERT_EQ(res.cube_sources.size(), collapsed.size()) << nl->name();
    for (const auto& sources : res.cube_sources) {
      for (const CubeSource& src : sources) {
        EXPECT_GT(src.hits, 0u);
        if (src.exporter.empty()) continue;
        ++attributed;
        const auto it = by_name.find(src.exporter);
        ASSERT_NE(it, by_name.end()) << nl->name() << ": " << src.exporter;
        EXPECT_TRUE(res.attempted[it->second]) << src.exporter;
        EXPECT_GT(res.fault_stats[it->second].cube_exports, 0u)
            << nl->name() << ": " << src.exporter;
      }
    }
  }
  EXPECT_GT(attributed, 0u) << "no cross-fault cube reuse at this budget";
}

// --- budget-abort capture replays bit-for-bit (satellite regression) ---------

TEST(CdclReplayTest, BudgetAbortedAttemptReplaysExactly) {
  const Netlist nl = mcnc_circuit("dk16", 0.35);

  // Starve the engine so deterministic attempts die on the eval budget,
  // with sharing off (the per-fault replay contract: generate() is then a
  // pure function of netlist + fault + options).
  ParallelAtpgOptions popts = cdcl_options(2, /*share=*/false);
  popts.run.engine.eval_limit = 600;
  popts.run.engine.backtrack_limit = 20;
  popts.run.random_sequences = 0;
  const auto probe = run_parallel_atpg(nl, popts);

  const auto collapsed = collapse_faults(nl);
  std::ptrdiff_t target = -1;
  for (std::size_t i = 0; i < probe.status.size(); ++i)
    if (probe.attempted[i] && probe.status[i] == FaultStatus::kAborted &&
        probe.fault_stats[i].budget_exhausted) {
      target = static_cast<std::ptrdiff_t>(i);
      break;
    }
  ASSERT_GE(target, 0) << "no budget-aborted CDCL attempt at this budget";

  popts.capture.armed = true;
  popts.capture.fault =
      fault_name(nl, collapsed[static_cast<std::size_t>(target)].representative);
  const auto captured = run_parallel_atpg(nl, popts);
  ASSERT_TRUE(captured.capture.has_value());
  EXPECT_EQ(captured.capture->status, "aborted");

  const ReplayResult replay = replay_capture(nl, *captured.capture);
  EXPECT_TRUE(replay.ok) << replay.message;
  EXPECT_EQ(replay.mismatch_index, -1);
  EXPECT_EQ(replay.status, captured.capture->status);
  EXPECT_EQ(replay.replayed_events, captured.capture->ring_total);
}

}  // namespace
}  // namespace satpg
