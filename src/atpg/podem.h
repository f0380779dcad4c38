// PODEM search over the dual-rail time-frame model.
//
// Decision variables are primary inputs (any frame) and — when state
// decisions are enabled — the frame-0 flip-flop values (pseudo primary
// inputs). Objectives are met by backtracing through X-valued lines with
// SCOAP guidance, branch-and-bound with value flipping on backtrack.
//
// Three goals cover the engines' needs:
//   kDetect        — some PO carries D/D' (a test exists within the window)
//   kDetectOrStore — D/D' at a PO or at a last-frame FF D input (used by
//                    the sound single-frame redundancy check: a fault that
//                    can never be excited-and-stored from ANY state/input
//                    is sequentially redundant)
//   kJustify       — given (FF, value) targets, make frame-0 next-state
//                    lines produce them (used frame-by-frame by backward
//                    state justification)
//
// search() runs to the first solution; resume() continues the same search
// for the next distinct solution (HITEC-style state-cube re-selection when
// a justification attempt fails).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "atpg/scoap.h"
#include "atpg/tfm.h"
#include "base/memstats.h"

namespace satpg {

enum class PodemGoal { kDetect, kDetectOrStore, kJustify };
enum class PodemStatus { kSuccess, kExhausted, kAborted };

class DecisionRing;  // atpg/capture.h

/// What a fault search is doing right now, for live display.
enum class SearchPhase : std::uint32_t {
  kIdle = 0,
  kWindow,      ///< forward-window detection search
  kJustify,     ///< backward state justification
  kRedundancy,  ///< single-frame complete redundancy proof
};

const char* search_phase_name(SearchPhase p);

/// Live progress cell for one in-flight fault search, sampled by the run
/// monitor (base/monitor.h) from another thread. Strictly observational:
/// the search writes relaxed stores at coarse checkpoints (one per
/// decision/backtrack, plus phase boundaries) and never reads it back, so
/// attaching a cell cannot perturb any deterministic result. `fault_tag`
/// is 1 + the driver's collapsed-fault index while a search is in flight,
/// 0 when the slot is idle.
struct alignas(64) SearchProgress {
  std::atomic<std::uint64_t> fault_tag{0};
  std::atomic<std::uint32_t> phase{0};  ///< SearchPhase
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> backtracks{0};
  std::atomic<std::uint64_t> implications{0};
  std::atomic<std::uint64_t> invalid_evals{0};  ///< attribution-so-far
  std::atomic<std::uint64_t> start_us{0};  ///< run-relative attempt start
  // Native CDCL counters (zero for structural engines) — the budget
  // conversion hides solver dynamics, so a stuck --engine=cdcl search is
  // opaque without these.
  std::atomic<std::uint64_t> conflicts{0};
  std::atomic<std::uint64_t> propagations{0};
  std::atomic<std::uint64_t> restarts{0};

  void begin_fault(std::uint64_t tag, std::uint64_t now_us) {
    evals.store(0, std::memory_order_relaxed);
    backtracks.store(0, std::memory_order_relaxed);
    implications.store(0, std::memory_order_relaxed);
    invalid_evals.store(0, std::memory_order_relaxed);
    conflicts.store(0, std::memory_order_relaxed);
    propagations.store(0, std::memory_order_relaxed);
    restarts.store(0, std::memory_order_relaxed);
    phase.store(0, std::memory_order_relaxed);
    start_us.store(now_us, std::memory_order_relaxed);
    fault_tag.store(tag, std::memory_order_relaxed);
  }
  void end_fault() { fault_tag.store(0, std::memory_order_relaxed); }
};

struct PodemBudget {
  std::uint64_t max_backtracks = 1000;
  std::uint64_t max_evals = 2'000'000;
  // Consumed counters (shared across ALL phases of one fault — window
  // growth, every justification level, and the redundancy check). `evals`
  // is fed live by each phase's TimeFrameModel via attach_eval_counter(),
  // so no phase can restart the count.
  std::uint64_t backtracks = 0;
  std::uint64_t evals = 0;
  /// Decision assignments applied (initial picks and backtrack flips) —
  /// each triggers one forward-implication pass over the model.
  std::uint64_t decisions = 0;
  /// Cooperative cancellation (wall-clock deadline): when set and true, the
  /// search returns kAborted at the next decision-loop check.
  const std::atomic<bool>* abort = nullptr;
  /// Optional live-progress cell (monitor sampling) — written, never read.
  SearchProgress* progress = nullptr;
  /// Optional decision-event recorder (atpg/capture.h) for deterministic
  /// capture/replay. Owned by the engine's caller.
  DecisionRing* ring = nullptr;
  /// Abort-check bookkeeping for replay: `abort_checks` counts
  /// aborted_externally() calls, `first_abort_check` records the 1-based
  /// check index at which the wall-clock abort was first observed (0 =
  /// never). A replay sets `abort_at_check` to that index to force the
  /// abort at the exact same decision-loop check, making even wall-clock
  /// cuts bit-reproducible (the check count, unlike elapsed time, is a
  /// pure function of the search path).
  std::uint64_t abort_checks = 0;
  std::uint64_t first_abort_check = 0;
  std::uint64_t abort_at_check = 0;
  /// Byte accounting for this fault (base/memstats): every phase charges
  /// its allocation-heavy structures here (TFM frames, CNF encoder, CDCL
  /// clause DB, decision ring). nullptr = accounting off — the pointer
  /// test is the entire disabled-mode cost.
  MemTally* mem = nullptr;
  /// Deterministic memory budget in accounted bytes (0 = unlimited). The
  /// trip condition compares the attempt's PEAK accounted bytes — a
  /// monotone pure function of the search path — at the same
  /// decision-loop/conflict checkpoints the eval budget uses, so a
  /// budgeted run degrades identically at any thread count.
  std::uint64_t mem_limit = 0;
  /// Bytes charged first and held for the whole attempt (the capture
  /// ring). They count in the tally's peak but not against mem_limit, so
  /// arming a capture never changes a budgeted search.
  std::uint64_t mem_held = 0;

  /// THE conversion from CDCL work to the budget's common currency — every
  /// engine kind draws on the same eval_limit/backtrack_limit pair, so the
  /// exchange rate lives here, once, instead of per-call-site (DESIGN.md
  /// §9). Each BCP propagation is one eval (one implied line value — the
  /// same granularity as a structural node evaluation), and each conflict
  /// is one backtrack plus kCdclConflictEvals evals (conflict analysis
  /// re-walks the implication graph it cancels). Nothing else may scale
  /// CDCL counters into evals/backtracks.
  static constexpr std::uint64_t kCdclConflictEvals = 8;
  void charge_cdcl(std::uint64_t conflicts, std::uint64_t propagations) {
    const std::uint64_t add = propagations + conflicts * kCdclConflictEvals;
    SATPG_DCHECK(evals + add >= evals);  // additive, never resets or wraps
    evals += add;
    backtracks += conflicts;
  }

  bool exhausted_backtracks() const { return backtracks >= max_backtracks; }
  bool exhausted_evals() const { return evals >= max_evals; }
  bool mem_exceeded() const {
    return mem_limit != 0 && mem != nullptr &&
           mem->peak - mem_held >= mem_limit;
  }
  /// Early-warning threshold (3/4 of the limit): the CDCL engine responds
  /// by tightening its clause-DB reduction schedule before the hard trip.
  bool mem_pressure() const {
    return mem_limit != 0 && mem != nullptr &&
           mem->peak - mem_held >= mem_limit - mem_limit / 4;
  }
  bool aborted_externally() {
    ++abort_checks;
    if (abort_at_check != 0 && abort_checks >= abort_at_check) return true;
    if (abort == nullptr || !abort->load(std::memory_order_relaxed))
      return false;
    if (first_abort_check == 0) first_abort_check = abort_checks;
    return true;
  }
};

class Podem {
 public:
  /// `just_targets`: for kJustify, required good values on the D inputs of
  /// these flip-flops at frame 0.
  Podem(TimeFrameModel& tfm, const Scoap& scoap, bool allow_state_decisions,
        PodemGoal goal,
        std::vector<std::pair<NodeId, V3>> just_targets = {});

  PodemStatus search(PodemBudget& budget);
  /// After kSuccess: backtrack once and keep searching (next solution).
  PodemStatus resume(PodemBudget& budget);

  /// Assigned decision values after kSuccess.
  V3 pi_value(int frame, NodeId pi) const {
    return tfm_.decision_value(frame, pi);
  }
  V3 state_value(NodeId ff) const { return tfm_.decision_value(0, ff); }

  /// Undo every decision this solver made (restores the TFM).
  void reset();

 private:
  struct Decision {
    int frame;
    NodeId node;
    V3 value;
    bool flipped;
    std::size_t mark;
  };
  struct Objective {
    int frame;
    NodeId node;
    V3 value;
  };

  bool goal_met() const;
  bool failed() const;
  std::optional<Objective> pick_objective() const;
  std::optional<Objective> backtrace(Objective obj) const;
  /// Returns false when the decision stack is exhausted.
  bool backtrack(PodemBudget& budget);
  PodemStatus run(PodemBudget& budget);

  TimeFrameModel& tfm_;
  const Scoap& scoap_;
  bool allow_state_;
  PodemGoal goal_;
  std::vector<std::pair<NodeId, V3>> just_targets_;
  std::vector<Decision> stack_;
  std::size_t base_mark_;
};

}  // namespace satpg
