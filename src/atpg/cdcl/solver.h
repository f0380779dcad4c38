// Embedded CDCL SAT solver for the kCdcl ATPG engine.
//
// A deliberately small, fully deterministic solver: two-literal watched
// clauses, VSIDS-lite variable activities with a fixed decay and a
// lowest-index tie-break, phase saving (initial phase false), first-UIP
// conflict analysis WITHOUT clause minimization (so hand-built conflict
// graphs in tests predict the learned clause exactly), Luby restarts with
// a fixed unit of 64 conflicts, and LBD-ordered learned-clause reduction
// on a fixed arithmetic schedule with a clause-age tie-break. There is
// no randomization anywhere: for a given clause stream the search is a
// pure function, which is what the byte-identity contract of DESIGN.md §4d
// and capture/replay (atpg/capture.h) require.
//
// Layout: every clause lives in one flat arena — a two-word header (size,
// then LBD and flags) followed by its literals inline. Clauses are appended
// in creation order and reduction compacts the arena in place without
// reordering, so offset order is creation order. Watch lists are slices of
// one flat pool: a long clause's entry holds its arena offset, a binary
// clause's entry holds the complement (~) of its other literal, so a binary
// visit reads one value and never the arena, and a literal implied by a
// binary clause keeps that other literal as its reason. Values are kept per
// literal, so a literal's value is one load. Clause intake sorts and
// simplifies in a reused scratch buffer. A solver is copyable: a copy taken
// before set_budget() solves exactly as a fresh solver fed the same clause
// stream would (DESIGN.md §9).
//
// Budget integration: when a PodemBudget is attached the solver charges
// its work through PodemBudget::charge_cdcl — THE one conversion from
// (conflicts, propagations) to the study's common evals/backtracks
// currency — and polls aborted_externally() exactly once per conflict, so
// the abort-check count stays a pure function of the search path and
// wall-clock cuts replay bit-for-bit.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "base/events.h"

namespace satpg {

struct PodemBudget;  // atpg/podem.h
class DecisionRing;  // atpg/capture.h

/// CNF literal: variable v (0-based) encoded as 2v (positive) / 2v+1
/// (negated) — the usual packed representation.
using CnfLit = std::int32_t;

inline CnfLit mk_lit(int var, bool neg = false) {
  return static_cast<CnfLit>((var << 1) | (neg ? 1 : 0));
}
inline int lit_var(CnfLit l) { return l >> 1; }
inline bool lit_sign(CnfLit l) { return (l & 1) != 0; }  ///< true = negated
inline CnfLit lit_not(CnfLit l) { return l ^ 1; }

enum class SolveStatus { kSat, kUnsat, kAborted };

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;  ///< implied assignments enqueued by BCP
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;       ///< clauses produced by 1UIP analysis
  std::uint64_t deleted = 0;       ///< learned clauses removed by reduction
};

/// What circuit line a CNF variable encodes (decision-ring labelling).
/// Tseitin auxiliaries carry {-1, -1}.
struct VarTag {
  std::int32_t frame = -1;
  std::int32_t node = -1;
};

class CdclSolver {
 public:
  CdclSolver() = default;
  /// Copies the formula, the level-0 trail and the accounted-byte backlog.
  /// Copy only a solver with no budget attached: the copy then owns its
  /// backlog, which its own set_budget() moves into a tally.
  CdclSolver(const CdclSolver&) = default;
  CdclSolver& operator=(const CdclSolver&) = delete;
  /// Releases every accounted byte back to the attached budget's MemTally
  /// (the tally outlives the solver; attempt-end live bytes return to 0).
  ~CdclSolver();

  /// Allocate a fresh variable; returns its index.
  int new_var(VarTag tag = {});
  int num_vars() const { return static_cast<int>(level_.size()); }

  /// Add a clause over existing variables. May be called before the first
  /// solve() or between solve() calls (incremental blocking clauses). An
  /// empty clause (after level-0 simplification) makes the formula
  /// permanently unsatisfiable. The literals are copied; `lits` may be
  /// reused by the caller.
  void add_clause(const CnfLit* lits, std::size_t n);
  void add_clause(std::initializer_list<CnfLit> lits) {
    add_clause(lits.begin(), lits.size());
  }

  /// Solve the current formula. kAborted only when a budget is attached
  /// and it ran out (or its external abort fired). The trail is unwound to
  /// level 0 before returning; after kSat the model survives in
  /// model_value().
  SolveStatus solve() { return solve_under({}); }

  /// Solve with `assumptions` asserted as the first decisions, in order.
  /// kUnsat means unsatisfiable UNDER the assumptions.
  SolveStatus solve_under(const std::vector<CnfLit>& assumptions);

  /// Model value of `var` after kSat.
  bool model_value(int var) const { return model_[static_cast<std::size_t>(var)] != 0; }

  bool ok() const { return ok_; }  ///< false once level-0 UNSAT is known

  const SolverStats& stats() const { return stats_; }

  /// Attach the fault's cumulative budget (may be nullptr to detach). The
  /// budget must outlive every solve() call — and the solver itself, which
  /// returns its accounted bytes to the budget's MemTally on destruction.
  /// Attach order is irrelevant for byte accounting: the already-accounted
  /// backlog moves between tallies here.
  void set_budget(PodemBudget* budget);

  /// Record decisions/conflicts into `ring` (observation only).
  void set_ring(DecisionRing* ring) { ring_ = ring; }

  /// Record restart/db-reduce flight-recorder events into `sink` (may be
  /// nullptr). The solver only appends; event `at` stamps come from the
  /// attached budget's eval counter, so the stream stays wall-clock free.
  void set_event_sink(SearchEventList* sink) { events_ = sink; }

  // ---- test inspection ------------------------------------------------------

  /// The most recent 1UIP clause, asserting literal first (empty before
  /// the first conflict).
  const std::vector<CnfLit>& last_learned_clause() const {
    return last_learned_;
  }

  /// Watch-list invariant: every long clause in the arena is watched on
  /// exactly its first two literals, and each long entry names a clause
  /// header that really watches that literal; every binary clause {a, b}
  /// has exactly one entry in each of its two lists, naming the other
  /// literal; every assigned variable's reason is either a long clause
  /// whose first literal is the variable's true literal or a binary clause
  /// whose other literal is false; and the watch lists are disjoint slices
  /// of the pool.
  bool check_watch_invariants() const;

 private:
  // A distinct type, not a character type, so stores to val_ cannot alias
  // the other arrays and the compiler keeps their loads in registers.
  enum LBool : std::int8_t { kUndef = -1, kFalse = 0, kTrue = 1 };
  LBool value_of(CnfLit l) const { return val_[static_cast<std::size_t>(l)]; }

  // Clause arena. A clause reference is the offset of its header in
  // arena_: word 0 holds the literal count, word 1 (lbd << 2 | deleted << 1
  // | learned), and the literals follow inline.
  static constexpr std::size_t kHeaderWords = 2;
  // Reasons: an arena offset (long clause), kNoReason, or binary_reason()
  // of the other literal of a binary clause (<= -2).
  static constexpr int kNoReason = -1;
  static int binary_reason(CnfLit other) { return -2 - other; }
  static CnfLit binary_reason_lit(int reason) { return -2 - reason; }
  /// propagate()'s answer for a falsified binary clause; the clause itself
  /// is in binary_conflict_, other literal first.
  static constexpr int kBinaryConflict = -0x7fffffff - 1;
  std::size_t clause_size(int cr) const {
    return static_cast<std::size_t>(arena_[static_cast<std::size_t>(cr)]);
  }
  std::uint32_t clause_flags(int cr) const {
    return static_cast<std::uint32_t>(
        arena_[static_cast<std::size_t>(cr) + 1]);
  }
  std::uint32_t clause_lbd(int cr) const { return clause_flags(cr) >> 2; }
  bool clause_learned(int cr) const { return (clause_flags(cr) & 1u) != 0; }
  bool clause_deleted(int cr) const { return (clause_flags(cr) & 2u) != 0; }
  CnfLit* clause_lits(int cr) {
    return arena_.data() + static_cast<std::size_t>(cr) + kHeaderWords;
  }
  const CnfLit* clause_lits(int cr) const {
    return arena_.data() + static_cast<std::size_t>(cr) + kHeaderWords;
  }
  int next_clause(int cr) const {
    return cr + static_cast<int>(kHeaderWords + clause_size(cr));
  }
  /// Appends a clause of >= 2 literals, charges it and attaches its
  /// watches; returns its reference.
  int push_clause(const CnfLit* lits, std::size_t n, bool learned,
                  std::uint32_t lbd);

  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  void enqueue(CnfLit l, int reason);
  /// Returns the conflicting clause, kBinaryConflict, or kNoReason.
  int propagate();
  void attach(int cr);
  void push_watch(CnfLit l, int entry);
  /// Repacks the watch slices, each with its capacity and in literal order,
  /// at the front of a fresh pool with room for twice their capacities plus
  /// `extra`.
  void compact_watches(std::size_t extra);
  void analyze(int confl, std::vector<CnfLit>* learnt, int* bt_level);
  void cancel_until(int level);
  void bump_var(int v);
  void decay_var_inc();
  void reduce_db();
  /// Drops deleted clauses, sliding the rest down in order; remaps the
  /// reasons of assigned variables and rebuilds the watch lists.
  void compact_arena();
  void rebuild_watches();
  bool locked(int cr) const;
  int pick_branch_var() const;  ///< -1 when all assigned
  void charge_conflict(bool* out_abort);
  void publish_progress();

  // Deterministic clause-DB byte accounting (base/memstats, subsystem
  // cdcl_clause_db). Logical footprint only — a fixed per-clause header
  // charge plus the literals and the two watch entries — so the charge
  // stream is a pure function of the clause stream, never of allocator
  // behaviour or of the clause store's layout (DESIGN.md §11).
  static constexpr std::uint64_t kClauseHeaderBytes = 32;
  static std::uint64_t clause_bytes(std::size_t size) {
    return kClauseHeaderBytes + size * sizeof(CnfLit) + 2 * sizeof(int);
  }
  void charge_mem(std::uint64_t bytes);
  void release_mem(std::uint64_t bytes);

  bool ok_ = true;
  std::vector<CnfLit> arena_;
  // Watch lists: literal l's entries are watch_pool_[off, off + len) of its
  // slice {off, len, cap}. A full slice moves to the pool's end at twice
  // the capacity (in place when it already ends the pool), abandoning its
  // old slots; when the pool itself is full, compact_watches() drops the
  // abandoned slots instead of reallocating with them.
  struct WatchSlice {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };
  static constexpr std::uint32_t kMinWatchCap = 4;
  std::vector<int> watch_pool_;
  std::vector<WatchSlice> watches_;  ///< per literal
  CnfLit binary_conflict_[2] = {0, 0};
  std::vector<LBool> val_;   ///< per literal
  std::vector<int> level_;   ///< per var
  std::vector<int> reason_;  ///< per var (see kNoReason)
  std::vector<CnfLit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<std::uint8_t> phase_;  ///< saved phase (initially false)
  std::vector<VarTag> tags_;
  std::vector<std::uint8_t> model_;
  std::vector<std::uint8_t> seen_;  ///< analyze() scratch
  std::vector<CnfLit> last_learned_;
  std::vector<CnfLit> scratch_;  ///< add_clause() intake
  std::vector<int> lbd_levels_;  ///< LBD scratch

  // Deterministic schedules (see DESIGN.md §9): restarts follow
  // luby(i) * kRestartUnit conflicts; the learned DB is reduced whenever
  // the live learned count reaches the limit, which then grows by a fixed
  // step.
  static constexpr std::uint64_t kRestartUnit = 64;
  static constexpr std::size_t kReduceBase = 2000;
  static constexpr std::size_t kReduceStep = 500;
  std::size_t reduce_limit_ = kReduceBase;
  std::size_t live_learned_ = 0;

  std::uint64_t props_uncharged_ = 0;
  std::uint64_t accounted_bytes_ = 0;  ///< live bytes charged to the tally
  PodemBudget* budget_ = nullptr;
  DecisionRing* ring_ = nullptr;
  SearchEventList* events_ = nullptr;

  SolverStats stats_;
};

}  // namespace satpg
