#include "atpg/cdcl/solver.h"

#include <algorithm>
#include <bit>
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
  val_.push_back(kUndef);
  val_.push_back(kUndef);
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

void CdclSolver::push_watch(CnfLit l, int entry) {
  WatchSlice& ws = watches_[static_cast<std::size_t>(l)];
  if (ws.len == ws.cap) {
    const std::uint32_t cap = ws.cap == 0 ? kMinWatchCap : 2 * ws.cap;
    // A full pool sheds its abandoned slots rather than reallocating with
    // them.
    if (watch_pool_.size() + cap > watch_pool_.capacity()) compact_watches(cap);
    if (ws.cap != 0 && ws.off + ws.cap == watch_pool_.size()) {
      watch_pool_.resize(watch_pool_.size() + (cap - ws.cap));  // ends it
    } else {
      const std::size_t off = watch_pool_.size();
      SATPG_CHECK(off + cap <= 0xffffffffu);
      watch_pool_.resize(off + cap);
      std::copy_n(watch_pool_.begin() + ws.off, ws.len,
                  watch_pool_.begin() + static_cast<std::ptrdiff_t>(off));
      ws.off = static_cast<std::uint32_t>(off);
    }
    ws.cap = cap;
  }
  watch_pool_[ws.off + ws.len++] = entry;
}

void CdclSolver::compact_watches(std::size_t extra) {
  std::size_t live = extra;
  for (const WatchSlice& ws : watches_) live += ws.cap;
  std::vector<int> pool;
  pool.reserve(2 * live);
  for (WatchSlice& ws : watches_) {
    const std::size_t off = pool.size();
    pool.insert(pool.end(), watch_pool_.begin() + ws.off,
                watch_pool_.begin() + ws.off + ws.len);
    pool.resize(off + ws.cap);
    ws.off = static_cast<std::uint32_t>(off);
  }
  watch_pool_.swap(pool);
}

void CdclSolver::attach(int cr) {
  const CnfLit* c = clause_lits(cr);
  SATPG_DCHECK(clause_size(cr) >= 2);
  if (clause_size(cr) == 2) {
    push_watch(c[0], ~c[1]);
    push_watch(c[1], ~c[0]);
  } else {
    push_watch(c[0], cr);
    push_watch(c[1], cr);
  }
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
    if (v == kTrue && level_[static_cast<std::size_t>(lit_var(l))] == 0)
      return;  // satisfied at level 0
    if (v == kFalse && level_[static_cast<std::size_t>(lit_var(l))] == 0)
      continue;  // falsified at level 0
    scratch_[kept++] = l;
  }
  if (kept == 0) {
    ok_ = false;
    return;
  }
  if (kept == 1) {
    if (value_of(scratch_[0]) == kFalse) {
      ok_ = false;
      return;
    }
    if (value_of(scratch_[0]) == kUndef) enqueue(scratch_[0], kNoReason);
    return;
  }
  push_clause(scratch_.data(), kept, /*learned=*/false, 0);
}

void CdclSolver::enqueue(CnfLit l, int reason) {
  const int v = lit_var(l);
  SATPG_DCHECK(value_of(l) == kUndef);
  val_[static_cast<std::size_t>(l)] = kTrue;
  val_[static_cast<std::size_t>(lit_not(l))] = kFalse;
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
  // their base pointers are loaded once. A migration can grow or compact
  // the watch pool, so the scanned list is re-based after each one.
  CnfLit* const arena = arena_.data();
  const LBool* const val = val_.data();
  while (qhead_ < trail_.size()) {
    const CnfLit p = trail_[qhead_++];  // p is now true
    const CnfLit false_lit = lit_not(p);
    WatchSlice& ws = watches_[static_cast<std::size_t>(false_lit)];
    int* list = watch_pool_.data() + ws.off;
    const std::uint32_t n = ws.len;
    std::uint32_t keep = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const int w = list[i];
      if (w < 0) {
        // Binary clause (other ∨ false_lit): it never migrates.
        const CnfLit other = ~w;
        list[keep++] = w;
        const LBool v = val[other];
        if (v == kTrue) continue;
        if (v == kUndef) {
          enqueue(other, binary_reason(false_lit));
          continue;
        }
        binary_conflict_[0] = other;
        binary_conflict_[1] = false_lit;
        keep = static_cast<std::uint32_t>(
            std::copy(list + i + 1, list + n, list + keep) - list);
        ws.len = keep;
        qhead_ = trail_.size();
        return kBinaryConflict;
      }
      // Long clause: put the false watch at c[1], the other one at c[0].
      CnfLit* const c = arena + w + kHeaderWords;
      SATPG_DCHECK(c[0] == false_lit || c[1] == false_lit);
      const CnfLit other = c[0] ^ c[1] ^ false_lit;
      c[0] = other;
      c[1] = false_lit;
      if (val[other] == kTrue) {
        list[keep++] = w;  // satisfied; keep watching
        continue;
      }
      // Migrate the watch to the first non-false literal, if any. The new
      // watch list is never this one (its literal is not false).
      CnfLit* const stop = c + arena[w];
      CnfLit* k = c + 2;
      while (k != stop && val[*k] == kFalse) ++k;
      if (k != stop) {
        c[1] = *k;
        *k = false_lit;
        push_watch(c[1], w);
        list = watch_pool_.data() + ws.off;
        continue;
      }
      list[keep++] = w;  // unit or conflicting: watch stays
      if (val[other] == kFalse) {
        // Conflict: restore the remaining watchers and report.
        keep = static_cast<std::uint32_t>(
            std::copy(list + i + 1, list + n, list + keep) - list);
        ws.len = keep;
        qhead_ = trail_.size();
        return w;
      }
      enqueue(other, w);
    }
    ws.len = keep;
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
  CnfLit pair[2] = {0, 0};  // a binary reason as a clause: {implied, other}
  do {
    const CnfLit* c = binary_conflict_;
    std::size_t size = 2;
    if (cr >= 0) {
      c = clause_lits(cr);
      size = clause_size(cr);
    } else if (cr != kBinaryConflict) {
      pair[0] = lit_not(p);
      pair[1] = binary_reason_lit(cr);
      c = pair;
    }
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
    val_[static_cast<std::size_t>(l)] = kUndef;
    val_[static_cast<std::size_t>(lit_not(l))] = kUndef;
    reason_[static_cast<std::size_t>(v)] = kNoReason;
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<std::size_t>(lvl));
  qhead_ = trail_.size();
}

bool CdclSolver::locked(int cr) const {
  const CnfLit l0 = clause_lits(cr)[0];
  return reason_[static_cast<std::size_t>(lit_var(l0))] == cr &&
         value_of(l0) == kTrue;
}

void CdclSolver::rebuild_watches() {
  for (WatchSlice& ws : watches_) ws.len = 0;
  for (int cr = 0; static_cast<std::size_t>(cr) < arena_.size();
       cr = next_clause(cr))
    attach(cr);
}

void CdclSolver::compact_arena() {
  // Slide the surviving clauses down in order, recording each move; reason
  // clauses are locked, so they all survive, and offset order stays
  // creation order. Binary reasons name a literal, not an offset.
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
    if (r < 0) continue;
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
  // Activities are never negative, and non-negative doubles order like
  // their bit patterns, so an unassigned variable's key is its activity's
  // bits + 1 and an assigned one's is 0. Pass 1 takes the maximum key with
  // no data-dependent branch; pass 2 returns the first variable holding it.
  const LBool* const val = val_.data();
  const double* const act = activity_.data();
  const auto key = [&](std::size_t v) -> std::uint64_t {
    const std::uint64_t unassigned = val[2 * v] == kUndef ? ~0ULL : 0ULL;
    return (std::bit_cast<std::uint64_t>(act[v]) + 1) & unassigned;
  };
  const std::size_t n = activity_.size();
  std::uint64_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
  std::size_t v = 0;
  for (; v + 4 <= n; v += 4) {
    m0 = std::max(m0, key(v));
    m1 = std::max(m1, key(v + 1));
    m2 = std::max(m2, key(v + 2));
    m3 = std::max(m3, key(v + 3));
  }
  for (; v < n; ++v) m0 = std::max(m0, key(v));
  const std::uint64_t best = std::max(std::max(m0, m1), std::max(m2, m3));
  if (best == 0) return -1;
  v = 0;
  while (key(v) != best) ++v;
  return static_cast<int>(v);
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
        enqueue(learnt[0],
                learnt.size() == 2 ? binary_reason(learnt[1]) : cr);
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
      if (value_of(a) == kFalse) return finish(SolveStatus::kUnsat);
      trail_lim_.push_back(trail_.size());
      if (value_of(a) == kUndef) enqueue(a, kNoReason);
      continue;
    }

    const int v = pick_branch_var();
    if (v < 0) {
      for (int u = 0; u < num_vars(); ++u)
        model_[static_cast<std::size_t>(u)] =
            value_of(mk_lit(u)) == kTrue ? 1 : 0;
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
  // Long-clause headers in arena order, and binary clauses as the sorted
  // (literal, other) pairs their two watch entries must reproduce.
  std::vector<int> heads;
  std::vector<std::pair<CnfLit, CnfLit>> binaries;
  for (int cr = 0; static_cast<std::size_t>(cr) < arena_.size();
       cr = next_clause(cr)) {
    if (clause_size(cr) < 2 || clause_deleted(cr)) return false;
    const CnfLit* c = clause_lits(cr);
    if (clause_size(cr) == 2) {
      binaries.push_back({c[0], c[1]});
      binaries.push_back({c[1], c[0]});
    } else {
      heads.push_back(cr);
    }
  }
  std::sort(binaries.begin(), binaries.end());
  const auto index_of = [&](int cr) -> std::ptrdiff_t {
    const auto it = std::lower_bound(heads.begin(), heads.end(), cr);
    if (it == heads.end() || *it != cr) return -1;
    return it - heads.begin();
  };
  const auto has_binary = [&](CnfLit a, CnfLit b) {
    return std::binary_search(binaries.begin(), binaries.end(),
                              std::make_pair(a, b));
  };
  // Slices lie inside the pool and do not overlap.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> slices;  // off, cap
  for (const WatchSlice& ws : watches_) {
    if (ws.len > ws.cap ||
        static_cast<std::size_t>(ws.off) + ws.cap > watch_pool_.size())
      return false;
    if (ws.cap != 0) slices.push_back({ws.off, ws.cap});
  }
  std::sort(slices.begin(), slices.end());
  for (std::size_t i = 1; i < slices.size(); ++i)
    if (slices[i - 1].first + slices[i - 1].second > slices[i].first)
      return false;
  std::vector<int> entries(heads.size(), 0);
  std::vector<std::pair<CnfLit, CnfLit>> binary_entries;
  for (std::size_t l = 0; l < watches_.size(); ++l) {
    const WatchSlice& ws = watches_[l];
    for (std::uint32_t i = 0; i < ws.len; ++i) {
      const int w = watch_pool_[ws.off + i];
      if (w < 0) {
        binary_entries.push_back({static_cast<CnfLit>(l), ~w});
        continue;
      }
      const std::ptrdiff_t at = index_of(w);
      if (at < 0) return false;
      const CnfLit* c = clause_lits(w);
      if (c[0] != static_cast<CnfLit>(l) && c[1] != static_cast<CnfLit>(l))
        return false;  // watched on a non-watch literal
      ++entries[static_cast<std::size_t>(at)];
    }
  }
  for (const int n : entries)
    if (n != 2) return false;
  std::sort(binary_entries.begin(), binary_entries.end());
  if (binary_entries != binaries) return false;
  for (const CnfLit l : trail_) {
    const int r = reason_[static_cast<std::size_t>(lit_var(l))];
    if (r == kNoReason) continue;
    if (r >= 0) {
      if (index_of(r) < 0 || clause_lits(r)[0] != l) return false;
    } else {
      const CnfLit other = binary_reason_lit(r);
      if (other < 0 || static_cast<std::size_t>(other) >= val_.size() ||
          !has_binary(l, other) || value_of(other) != kFalse)
        return false;
    }
  }
  return true;
}

}  // namespace satpg
