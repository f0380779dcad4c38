// SAT-based sequential ATPG engine (EngineKind::kCdcl).
//
// The fourth engine of the study: the same iterative-array search the
// structural engines run — forward window growth for propagation,
// recursive backward state justification, sound single-frame redundancy —
// but every per-window and per-justification-level query is answered by
// the embedded CDCL solver over a Tseitin encoding (cdcl/cnf.h) instead
// of PODEM branch-and-bound.
//
// Conflict learning crosses faults through state cubes, not raw clauses:
// when a predecessor query for a frame-0 state cube completes UNSAT with
// only proven-unreachable cubes blocked, that cube provably intersects no
// reachable state and is canonicalized to a StateKey, recorded in the
// engine's learned-failure cache, and published through the
// SharedLearningCache like kLearning's entries. Every later attempt (any
// fault, any worker) imports the visible proven cubes as blocking clauses
// on its frame-0 state variables. Raw learned clauses are NOT exported —
// they are conditional on the query's objective, so publishing them would
// let one fault's window constraint masquerade as a reachability fact;
// the cube form is exactly the sound, engine-independent residue
// (DESIGN.md §9 has the unreachability induction; the property suite
// checks every exported cube against the exact-BDD oracle).
//
// CdclAtpg keeps only the solver steps of an attempt: encode, solve, lift
// and block. It is a friend of AtpgEngine and runs on that engine's attempt
// skeleton (budget, justify entry and exit with both cache tiers, candidate
// verify, redundancy and abort events), caches, stats and hooks, so the
// parallel driver, capture/replay, watchdog and attribution observability
// treat every engine alike.
#pragma once

#include <optional>

#include "atpg/engine.h"
#include "atpg/cdcl/cnf.h"
#include "atpg/cdcl/solver.h"
#include "atpg/tfm.h"

namespace satpg {

class CdclAtpg {
 public:
  explicit CdclAtpg(AtpgEngine& engine) : e_(engine) {}

  FaultAttempt generate(const Fault& fault);

 private:
  using JustifyOutcome = AtpgEngine::JustifyOutcome;

  JustifyOutcome justify(const std::vector<std::pair<NodeId, V3>>& cube,
                         int depth, StateSet& on_path, PodemBudget& budget);
  /// Block in `cnf` every entry of blocking_ from `*blocked` on.
  void catch_up(TimeFrameCnf& cnf, std::size_t* blocked,
                const PodemBudget& budget);
  void harvest(const CdclSolver& solver);
  bool cube_excludes_initial(const StateKey& key) const;

  AtpgEngine& e_;
  /// One visible proven-unreachable cube plus its provenance tag: the
  /// fault that proved it and the epoch it was published in (0 =
  /// unit-local, not yet published).
  struct Block {
    StateKey key;
    std::string exporter;
    std::uint32_t epoch = 0;
  };
  /// Proven-unreachable frame-0 cubes visible to this attempt: the sorted
  /// import of (shared view ∪ local failure cache) at attempt start, plus
  /// every cube proven during the attempt, in proof order. Every solver of
  /// the attempt blocks all of them; each successful block records a
  /// provenance hit against the cube's exporter.
  std::vector<Block> blocking_;

  /// The fault-free one-frame encoding every justify() query starts from:
  /// built on the attempt's first query, then copied per query, which is
  /// exactly the solver and CNF a fresh encode would build (DESIGN.md §9).
  struct JustifyEncoding {
    explicit JustifyEncoding(const Netlist& nl)
        : cnf(nl, std::nullopt, 1, &solver) {}
    CdclSolver solver;
    TimeFrameCnf cnf;
  };
  std::optional<JustifyEncoding> justify_template_;
  /// Template of justify()'s fault-free one-frame lifting model.
  std::optional<TimeFrameModel> justify_tfm_;
};

}  // namespace satpg
