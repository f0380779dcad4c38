#include "atpg/cdcl/solver.h"

#include <algorithm>
#include <utility>

#include "atpg/capture.h"
#include "atpg/podem.h"
#include "base/check.h"
#include "base/memstats.h"
#include "base/profiler.h"

namespace satpg {

namespace {

// Logical per-variable footprint, a fixed constant so the byte stream
// charged for variable allocation is identical on every build and does not
// follow the solver's layout. It is the footprint the charge was defined
// on: an assignment byte, level and reason (2 x 4), activity (8), phase,
// model and analyze flags (3 x 1), the VarTag (8) and two 24-byte
// watch-list headers.
constexpr std::uint64_t kVarBytes = 76;

// Luby sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t k = 1;
  while ((1ULL << k) - 1 < i) ++k;
  while ((1ULL << k) - 1 != i) {
    i -= (1ULL << (k - 1)) - 1;
    k = 1;
    while ((1ULL << k) - 1 < i) ++k;
  }
  return 1ULL << (k - 1);
}

}  // namespace

CdclSolver::~CdclSolver() { release_mem(accounted_bytes_); }

void CdclSolver::set_budget(PodemBudget* budget) {
  if (budget_ == budget) return;
  // Move the accounted backlog between tallies so attach order never
  // changes what any one tally sees live.
  if (budget_ != nullptr && budget_->mem != nullptr)
    budget_->mem->release(MemSubsystem::kCdclClauseDb, accounted_bytes_);
  budget_ = budget;
  if (budget_ != nullptr && budget_->mem != nullptr)
    budget_->mem->charge(MemSubsystem::kCdclClauseDb, accounted_bytes_);
}

void CdclSolver::charge_mem(std::uint64_t bytes) {
  accounted_bytes_ += bytes;
  if (budget_ != nullptr && budget_->mem != nullptr)
    budget_->mem->charge(MemSubsystem::kCdclClauseDb, bytes);
}

void CdclSolver::release_mem(std::uint64_t bytes) {
  SATPG_DCHECK(bytes <= accounted_bytes_);
  accounted_bytes_ -= bytes;
  if (budget_ != nullptr && budget_->mem != nullptr)
    budget_->mem->release(MemSubsystem::kCdclClauseDb, bytes);
}

int CdclSolver::new_var(VarTag tag) {
  const int v = num_vars();
  charge_mem(kVarBytes);
  val_.push_back(-1);
  val_.push_back(-1);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  phase_.push_back(0);
  tags_.push_back(tag);
  model_.push_back(0);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  return v;
}

void CdclSolver::attach(int cr) {
  const CnfLit* c = clause_lits(cr);
  SATPG_DCHECK(clause_size(cr) >= 2);
  watches_[static_cast<std::size_t>(c[0])].push_back(cr);
  watches_[static_cast<std::size_t>(c[1])].push_back(cr);
}

int CdclSolver::push_clause(const CnfLit* lits, std::size_t n, bool learned,
                            std::uint32_t lbd) {
  SATPG_DCHECK(n >= 2);
  SATPG_CHECK(arena_.size() + kHeaderWords + n <= 0x7fffffffu);
  const int cr = static_cast<int>(arena_.size());
  arena_.push_back(static_cast<CnfLit>(n));
  arena_.push_back(static_cast<CnfLit>(lbd << 2 | (learned ? 1u : 0u)));
  arena_.insert(arena_.end(), lits, lits + n);
  charge_mem(clause_bytes(n));
  attach(cr);
  return cr;
}

void CdclSolver::add_clause(const CnfLit* lits, std::size_t n) {
  if (!ok_) return;
  SATPG_DCHECK(decision_level() == 0);
  // Level-0 simplification: drop duplicate and falsified literals, skip
  // satisfied and tautological clauses. Sort first so duplicates and l/¬l
  // pairs are adjacent (also canonicalizes storage order). The kept
  // literals are compacted to the front of the scratch buffer.
  scratch_.assign(lits, lits + n);
  std::sort(scratch_.begin(), scratch_.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const CnfLit l = scratch_[i];
    SATPG_DCHECK(lit_var(l) >= 0 && lit_var(l) < num_vars());
    if (kept != 0 && scratch_[kept - 1] == l) continue;
    if (kept != 0 && scratch_[kept - 1] == lit_not(l)) return;  // tautology
    const LBool v = value_of(l);
    if (v == 1 && level_[static_cast<std::size_t>(lit_var(l))] == 0)
      return;  // satisfied at level 0
    if (v == 0 && level_[static_cast<std::size_t>(lit_var(l))] == 0)
      continue;  // falsified at level 0
    scratch_[kept++] = l;
  }
  if (kept == 0) {
    ok_ = false;
    return;
  }
  if (kept == 1) {
    if (value_of(scratch_[0]) == 0) {
      ok_ = false;
      return;
    }
    if (value_of(scratch_[0]) == -1) enqueue(scratch_[0], kNoReason);
    return;
  }
  push_clause(scratch_.data(), kept, /*learned=*/false, 0);
}

void CdclSolver::enqueue(CnfLit l, int reason) {
  const int v = lit_var(l);
  SATPG_DCHECK(value_of(l) < 0);
  val_[static_cast<std::size_t>(l)] = 1;
  val_[static_cast<std::size_t>(lit_not(l))] = 0;
  level_[static_cast<std::size_t>(v)] = decision_level();
  reason_[static_cast<std::size_t>(v)] = reason;
  trail_.push_back(l);
  if (reason != kNoReason) {
    ++stats_.propagations;
    ++props_uncharged_;
  }
}

int CdclSolver::propagate() {
  PhaseSpan prof_span(ProfPhase::kCdclPropagate);
  // Neither the arena nor the value array grows during propagation, so
  // their base pointers are loaded once.
  CnfLit* const arena = arena_.data();
  const LBool* const val = val_.data();
  while (qhead_ < trail_.size()) {
    const CnfLit p = trail_[qhead_++];  // p is now true
    const CnfLit false_lit = lit_not(p);
    std::vector<int>& ws = watches_[static_cast<std::size_t>(false_lit)];
    int* const begin = ws.data();
    int* const end = begin + ws.size();
    int* keep = begin;
    for (int* w = begin; w != end; ++w) {
      const int cr = *w;
      CnfLit* const c = arena + cr + kHeaderWords;
      // Put the false watch at c[1].
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      SATPG_DCHECK(c[1] == false_lit);
      if (val[c[0]] == 1) {
        *keep++ = cr;  // satisfied; keep watching
        continue;
      }
      // Migrate the watch to the first non-false literal, if any. The new
      // watch list is never this one (its literal is not false).
      CnfLit* const stop = c + arena[cr];
      CnfLit* k = c + 2;
      while (k != stop && val[*k] == 0) ++k;
      if (k != stop) {
        std::swap(c[1], *k);
        watches_[static_cast<std::size_t>(c[1])].push_back(cr);
        continue;
      }
      *keep++ = cr;  // unit or conflicting: watch stays
      if (val[c[0]] == 0) {
        // Conflict: restore the remaining watchers and report.
        keep = std::copy(w + 1, end, keep);
        ws.resize(static_cast<std::size_t>(keep - begin));
        qhead_ = trail_.size();
        return cr;
      }
      enqueue(c[0], cr);
    }
    ws.resize(static_cast<std::size_t>(keep - begin));
  }
  return kNoReason;
}

void CdclSolver::bump_var(int v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
}

void CdclSolver::decay_var_inc() { var_inc_ *= (1.0 / 0.95); }

void CdclSolver::analyze(int confl, std::vector<CnfLit>* learnt,
                         int* bt_level) {
  PhaseSpan prof_span(ProfPhase::kCdclAnalyze);
  // Standard first-UIP resolution walk over the implication graph, with no
  // clause minimization afterwards: the result is exactly the asserting
  // clause the textbook construction yields, which the hand-built conflict
  // graphs in cdcl_test.cpp verify literal-for-literal.
  learnt->clear();
  learnt->push_back(0);  // slot for the asserting literal
  int counter = 0;
  CnfLit p = -1;
  std::size_t idx = trail_.size();
  int cr = confl;
  do {
    const CnfLit* const c = clause_lits(cr);
    const std::size_t size = clause_size(cr);
    for (std::size_t k = 0; k < size; ++k) {
      const CnfLit q = c[k];
      // Skip the implied literal of a reason clause (p is its negation —
      // the false form headed for the learnt clause).
      if (p >= 0 && q == lit_not(p)) continue;
      const int v = lit_var(q);
      if (seen_[static_cast<std::size_t>(v)] ||
          level_[static_cast<std::size_t>(v)] == 0)
        continue;
      seen_[static_cast<std::size_t>(v)] = 1;
      bump_var(v);
      if (level_[static_cast<std::size_t>(v)] >= decision_level())
        ++counter;
      else
        learnt->push_back(q);
    }
    while (!seen_[static_cast<std::size_t>(lit_var(trail_[idx - 1]))]) --idx;
    p = lit_not(trail_[idx - 1]);
    --idx;
    seen_[static_cast<std::size_t>(lit_var(p))] = 0;
    cr = reason_[static_cast<std::size_t>(lit_var(p))];
    --counter;
  } while (counter > 0);
  (*learnt)[0] = p;
  for (std::size_t i = 1; i < learnt->size(); ++i)
    seen_[static_cast<std::size_t>(lit_var((*learnt)[i]))] = 0;

  if (learnt->size() == 1) {
    *bt_level = 0;
  } else {
    // Second-highest level, its literal moved to slot 1 (the other watch).
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt->size(); ++i)
      if (level_[static_cast<std::size_t>(lit_var((*learnt)[i]))] >
          level_[static_cast<std::size_t>(lit_var((*learnt)[max_i]))])
        max_i = i;
    std::swap((*learnt)[1], (*learnt)[max_i]);
    *bt_level = level_[static_cast<std::size_t>(lit_var((*learnt)[1]))];
  }
}

void CdclSolver::cancel_until(int lvl) {
  if (decision_level() <= lvl) return;
  const std::size_t bound = trail_lim_[static_cast<std::size_t>(lvl)];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const CnfLit l = trail_[i];
    const int v = lit_var(l);
    phase_[static_cast<std::size_t>(v)] = lit_sign(l) ? 0 : 1;
    val_[static_cast<std::size_t>(l)] = -1;
    val_[static_cast<std::size_t>(lit_not(l))] = -1;
    reason_[static_cast<std::size_t>(v)] = kNoReason;
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<std::size_t>(lvl));
  qhead_ = trail_.size();
}

bool CdclSolver::locked(int cr) const {
  const CnfLit l0 = clause_lits(cr)[0];
  return reason_[static_cast<std::size_t>(lit_var(l0))] == cr &&
         value_of(l0) == 1;
}

void CdclSolver::rebuild_watches() {
  for (auto& w : watches_) w.clear();
  for (int cr = 0; static_cast<std::size_t>(cr) < arena_.size();
       cr = next_clause(cr))
    attach(cr);
}

void CdclSolver::compact_arena() {
  // Slide the surviving clauses down in order, recording each move; reason
  // clauses are locked, so they all survive, and offset order stays
  // creation order.
  std::vector<std::pair<int, int>> moves;  // (old, new), old ascending
  std::size_t to = 0;
  for (int cr = 0; static_cast<std::size_t>(cr) < arena_.size();) {
    const int next = next_clause(cr);
    if (!clause_deleted(cr)) {
      const auto from = static_cast<std::size_t>(cr);
      if (to != from)
        std::copy(arena_.begin() + static_cast<std::ptrdiff_t>(from),
                  arena_.begin() + next,
                  arena_.begin() + static_cast<std::ptrdiff_t>(to));
      moves.push_back({cr, static_cast<int>(to)});
      to += static_cast<std::size_t>(next) - from;
    }
    cr = next;
  }
  arena_.resize(to);
  for (const CnfLit l : trail_) {
    int& r = reason_[static_cast<std::size_t>(lit_var(l))];
    if (r == kNoReason) continue;
    const auto it = std::lower_bound(
        moves.begin(), moves.end(), std::make_pair(r, 0));
    SATPG_DCHECK(it != moves.end() && it->first == r);
    r = it->second;
  }
  rebuild_watches();
}

void CdclSolver::reduce_db() {
  PhaseSpan prof_span(ProfPhase::kCdclReduceDb);
  // Candidates: learned, not binary, not a reason, LBD above the
  // keep-forever threshold. Order by (LBD, age): older clauses of equal
  // quality die first — a total order independent of anything but the
  // clause stream (offset order is creation order).
  std::vector<int> cand;
  for (int cr = 0; static_cast<std::size_t>(cr) < arena_.size();
       cr = next_clause(cr)) {
    if (!clause_learned(cr) || clause_size(cr) <= 2 || clause_lbd(cr) <= 2)
      continue;
    if (locked(cr)) continue;
    cand.push_back(cr);
  }
  std::sort(cand.begin(), cand.end(), [&](int a, int b) {
    const std::uint32_t la = clause_lbd(a);
    const std::uint32_t lb = clause_lbd(b);
    if (la != lb) return la > lb;  // worst (highest LBD) first
    return a < b;                  // then oldest first
  });
  const std::size_t kill = cand.size() / 2;
  std::uint64_t reclaimed = 0;
  for (std::size_t i = 0; i < kill; ++i)
    reclaimed += clause_bytes(clause_size(cand[i]));
  if (events_ != nullptr) {
    // Snapshot the live learned-clause LBD distribution before the kill —
    // the flight recorder's view of clause-quality at reduction time.
    SearchEvent e;
    e.kind = SearchEventKind::kDbReduce;
    e.at = budget_ != nullptr ? budget_->evals : 0;
    e.a = static_cast<std::int32_t>(kill);
    e.b = static_cast<std::int32_t>(live_learned_ - kill);
    e.bytes = reclaimed;
    for (int cr = 0; static_cast<std::size_t>(cr) < arena_.size();
         cr = next_clause(cr)) {
      if (!clause_learned(cr)) continue;
      const std::uint32_t lbd = clause_lbd(cr);
      ++e.lbd[lbd < kLbdHistBuckets ? lbd : kLbdHistBuckets - 1];
    }
    events_->push_back(std::move(e));
  }
  for (std::size_t i = 0; i < kill; ++i) {
    arena_[static_cast<std::size_t>(cand[i]) + 1] |= 2;  // deleted
    --live_learned_;
    ++stats_.deleted;
  }
  release_mem(reclaimed);
  compact_arena();
  // Under memory pressure (budgeted run within a quarter of its limit),
  // hold the reduction threshold at the base instead of letting the DB
  // grow by another step — graceful degradation before the hard trip.
  if (budget_ != nullptr && budget_->mem_pressure())
    reduce_limit_ = kReduceBase;
  else
    reduce_limit_ += kReduceStep;
}

int CdclSolver::pick_branch_var() const {
  // VSIDS-lite: maximum activity, ties broken by LOWEST variable index.
  // A linear scan keeps the order trivially deterministic, and it beats a
  // heap here: these solvers propagate about a hundred literals per
  // decision, and a heap pays for every one of them (DESIGN.md §9).
  // Activities are never negative, so -1 stands for "no candidate yet".
  const LBool* const val = val_.data();
  const double* const act = activity_.data();
  int best = -1;
  double best_act = -1.0;
  for (int v = 0; v < num_vars(); ++v) {
    if (val[static_cast<std::size_t>(mk_lit(v))] >= 0) continue;
    if (act[static_cast<std::size_t>(v)] > best_act) {
      best = v;
      best_act = act[static_cast<std::size_t>(v)];
    }
  }
  return best;
}

void CdclSolver::publish_progress() {
  if (budget_ == nullptr || budget_->progress == nullptr) return;
  SearchProgress& p = *budget_->progress;
  p.evals.store(budget_->evals, std::memory_order_relaxed);
  p.backtracks.store(budget_->backtracks, std::memory_order_relaxed);
  p.implications.store(budget_->decisions, std::memory_order_relaxed);
  // Native solver counters, so a stuck CDCL search shows its real dynamics
  // in heartbeats instead of only the budget-converted currency.
  p.conflicts.store(stats_.conflicts, std::memory_order_relaxed);
  p.propagations.store(stats_.propagations, std::memory_order_relaxed);
  p.restarts.store(stats_.restarts, std::memory_order_relaxed);
}

void CdclSolver::charge_conflict(bool* out_abort) {
  *out_abort = false;
  if (budget_ == nullptr) return;
  budget_->charge_cdcl(1, props_uncharged_);
  props_uncharged_ = 0;
  publish_progress();
  // Exactly one external-abort poll per conflict keeps the check count a
  // pure function of the search path (the replay contract). The memory
  // trip joins it here: the tally's peak is itself path-pure, so a
  // budgeted abort lands at the same conflict on every run.
  if (budget_->aborted_externally() || budget_->exhausted_backtracks() ||
      budget_->exhausted_evals() || budget_->mem_exceeded())
    *out_abort = true;
}

SolveStatus CdclSolver::solve_under(const std::vector<CnfLit>& assumptions) {
  const auto finish = [&](SolveStatus st) {
    if (budget_ != nullptr && props_uncharged_ != 0) {
      budget_->charge_cdcl(0, props_uncharged_);
      props_uncharged_ = 0;
      publish_progress();
    }
    cancel_until(0);
    return st;
  };
  if (!ok_) return finish(SolveStatus::kUnsat);
  if (propagate() != kNoReason) {
    ok_ = false;
    return finish(SolveStatus::kUnsat);
  }

  std::uint64_t conflicts_since_restart = 0;
  std::uint64_t restart_limit = luby(stats_.restarts + 1) * kRestartUnit;

  for (;;) {
    const int confl = propagate();
    if (confl != kNoReason) {
      ++stats_.conflicts;
      bool aborted = false;
      charge_conflict(&aborted);
      if (aborted) return finish(SolveStatus::kAborted);
      if (decision_level() == 0) {
        ok_ = false;
        return finish(SolveStatus::kUnsat);
      }
      int bt_level = 0;
      analyze(confl, &last_learned_, &bt_level);
      const std::vector<CnfLit>& learnt = last_learned_;
      if (ring_ != nullptr)
        ring_->push({DecisionEventKind::kBacktrack, 0, decision_level(),
                     -1, stats_.conflicts});
      cancel_until(bt_level);
      ++conflicts_since_restart;
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        // LBD = number of distinct decision levels among the literals.
        lbd_levels_.clear();
        for (const CnfLit l : learnt)
          lbd_levels_.push_back(level_[static_cast<std::size_t>(lit_var(l))]);
        std::sort(lbd_levels_.begin(), lbd_levels_.end());
        const auto lbd = static_cast<std::uint32_t>(
            std::unique(lbd_levels_.begin(), lbd_levels_.end()) -
            lbd_levels_.begin());
        const int cr =
            push_clause(learnt.data(), learnt.size(), /*learned=*/true, lbd);
        ++live_learned_;
        ++stats_.learned;
        enqueue(learnt[0], cr);
      }
      decay_var_inc();
      if (live_learned_ >= reduce_limit_) reduce_db();
      continue;
    }

    if (conflicts_since_restart >= restart_limit) {
      ++stats_.restarts;
      if (events_ != nullptr) {
        SearchEvent e;
        e.kind = SearchEventKind::kRestart;
        e.at = budget_ != nullptr ? budget_->evals : 0;
        e.a = static_cast<std::int32_t>(stats_.restarts);
        events_->push_back(std::move(e));
      }
      conflicts_since_restart = 0;
      restart_limit = luby(stats_.restarts + 1) * kRestartUnit;
      cancel_until(0);
      continue;
    }

    // Assumptions act as the first decisions, re-asserted after every
    // backjump below them.
    if (static_cast<std::size_t>(decision_level()) < assumptions.size()) {
      const CnfLit a = assumptions[static_cast<std::size_t>(decision_level())];
      if (value_of(a) == 0) return finish(SolveStatus::kUnsat);
      trail_lim_.push_back(trail_.size());
      if (value_of(a) == -1) enqueue(a, kNoReason);
      continue;
    }

    const int v = pick_branch_var();
    if (v < 0) {
      for (int u = 0; u < num_vars(); ++u)
        model_[static_cast<std::size_t>(u)] = value_of(mk_lit(u)) > 0 ? 1 : 0;
      return finish(SolveStatus::kSat);
    }
    ++stats_.decisions;
    if (budget_ != nullptr) {
      ++budget_->decisions;
      publish_progress();
    }
    const CnfLit l = mk_lit(v, phase_[static_cast<std::size_t>(v)] == 0);
    if (ring_ != nullptr)
      ring_->push({DecisionEventKind::kDecision,
                   static_cast<std::uint8_t>(lit_sign(l) ? 0 : 1),
                   tags_[static_cast<std::size_t>(v)].frame,
                   tags_[static_cast<std::size_t>(v)].node,
                   static_cast<std::uint64_t>(v)});
    trail_lim_.push_back(trail_.size());
    enqueue(l, kNoReason);
  }
}

bool CdclSolver::check_watch_invariants() const {
  // Clause headers in arena order, and watch entries per clause.
  std::vector<int> heads;
  for (int cr = 0; static_cast<std::size_t>(cr) < arena_.size();
       cr = next_clause(cr)) {
    if (clause_size(cr) < 2 || clause_deleted(cr)) return false;
    heads.push_back(cr);
  }
  const auto index_of = [&](int cr) -> std::ptrdiff_t {
    const auto it = std::lower_bound(heads.begin(), heads.end(), cr);
    if (it == heads.end() || *it != cr) return -1;
    return it - heads.begin();
  };
  std::vector<int> entries(heads.size(), 0);
  for (std::size_t l = 0; l < watches_.size(); ++l) {
    for (const int cr : watches_[l]) {
      const std::ptrdiff_t at = index_of(cr);
      if (at < 0) return false;
      const CnfLit* c = clause_lits(cr);
      if (c[0] != static_cast<CnfLit>(l) && c[1] != static_cast<CnfLit>(l))
        return false;  // watched on a non-watch literal
      ++entries[static_cast<std::size_t>(at)];
    }
  }
  for (const int n : entries)
    if (n != 2) return false;
  for (const CnfLit l : trail_) {
    const int r = reason_[static_cast<std::size_t>(lit_var(l))];
    if (r != kNoReason && (index_of(r) < 0 || clause_lits(r)[0] != l))
      return false;
  }
  return true;
}

}  // namespace satpg
