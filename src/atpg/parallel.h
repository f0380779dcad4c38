// The ATPG driver: fault-parallel, with deterministic scheduling. It is the
// only per-circuit driver; every experiment, tool and example calls
// run_parallel_atpg, and num_threads = 1 runs the same rounds in the caller.
//
// The driver partitions the collapsed fault list into fixed-size work
// units and runs one fresh AtpgEngine per unit on the shared thread pool,
// in rounds:
//
//   round:   snapshot the undetected faults (fault-index order) and cut
//            them into units of kUnitSize faults, at most kUnitsPerRound
//            units — constants that do NOT depend on the thread count, so
//            the work breakdown is identical for any num_threads;
//   workers: each unit generates tests for its faults independently and
//            writes into its own result slot (speculation: a fault another
//            unit detects this round is still attempted — its work is
//            counted, its outcome discarded at merge);
//   barrier: unit results merge on the orchestrating thread in unit order
//            (within a unit, fault order). Each detected sequence is fault
//            simulated against the still-undetected faults — reusing the
//            parallel fsim — and drops apply immediately in merge order.
//
// Because partitioning precedes the parallel section, every slot has one
// writer, and merging is a fixed serial order, results are bit-identical
// for every thread count. DESIGN.md §4d states the full contract.
//
// kLearning engines share justification outcomes through a sharded,
// mutex-striped SharedLearningCache with an epoch visibility rule: entries
// published while round R runs carry epoch R+1 and are invisible until
// round R+1 — so learning crosses workers without letting OS scheduling
// reorder who-learned-what-first into the results.
//
// Robustness plumbing:
//   * total_eval_budget is enforced at fault granularity against the
//     committed (merged) eval count — deterministic; remaining faults
//     abort gracefully;
//   * deadline_ms arms a wall-clock deadline that flips an atomic abort
//     flag; every PODEM search polls it and unwinds. Deadline outcomes
//     are inherently timing-dependent: use it for bounded wall-clock,
//     never in determinism tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "atpg/capture.h"
#include "atpg/engine.h"
#include "base/monitor.h"

namespace satpg {

/// Cross-worker justification-outcome cache (kLearning and kCdcl).
///
/// Publish rule: a unit completing during round R publishes its engine's
/// local caches with epoch R+1 and its unit index as tie-break; an
/// existing entry is replaced only by one with a strictly smaller
/// (epoch, unit) pair. Readers of round R accept only entries with
/// epoch <= R. Consequences: visible entries are immutable (any publish
/// racing a reader carries a larger epoch), and the final cache content is
/// independent of worker scheduling — so every engine sees a deterministic
/// cache regardless of thread count.
class SharedLearningCache {
 public:
  explicit SharedLearningCache(std::size_t num_shards = 16);

  /// LearningShare implementation with the read epoch baked in; hand one
  /// to each engine of round `round` via view_for_round().
  class View final : public LearningShare {
   public:
    View(const SharedLearningCache* cache, std::uint32_t read_epoch)
        : cache_(cache), read_epoch_(read_epoch) {}
    bool lookup_ok(const StateKey& key,
                   std::vector<std::vector<V3>>* prefix) const override;
    /// Visible failure entry plus its provenance tag (exporter fault
    /// name + publish epoch).
    bool lookup_fail_info(const StateKey& key, std::string* exporter,
                          std::uint32_t* epoch) const override;
    /// Visible failure cubes with provenance, sorted by packed-key text
    /// (the kCdcl engine's blocking-clause import).
    std::vector<FailCubeInfo> fail_cube_infos() const override;

   private:
    const SharedLearningCache* cache_;
    std::uint32_t read_epoch_;
  };

  View view_for_round(std::uint32_t round) const { return View(this, round); }

  /// Publish `engine`'s local learning caches: called by the worker that
  /// ran unit `unit` of round `round`, as soon as the unit completes.
  void publish(std::uint32_t round, std::uint32_t unit,
               const AtpgEngine& engine);

  /// Entries currently stored (any epoch). For stats/tests.
  std::size_t size() const;

  /// Logical footprint of every stored entry (keys, prefixes, provenance
  /// tags, fixed per-entry overhead). Deterministic at round barriers: the
  /// committed cache content never depends on scheduling, and cross-round
  /// replacement cannot happen (epochs only grow), so the orchestrator can
  /// charge round-over-round growth under base/memstats subsystem
  /// shared_cubes without breaking thread invariance.
  std::uint64_t logical_bytes() const;

 private:
  struct Entry {
    std::vector<std::vector<V3>> prefix;  ///< meaningful when ok
    std::uint32_t epoch = 0;              ///< first round that may read it
    std::uint32_t unit = 0;               ///< publisher (tie-break)
    bool ok = false;
    /// Provenance (fail entries): name of the fault whose attempt proved
    /// the cube. First-writer-wins keeps it stable once published.
    std::string exporter;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<StateKey, Entry, StateKeyHash> map;
  };

  const Shard& shard_for(const StateKey& key) const {
    return shards_[key.hash() % shards_.size()];
  }
  Shard& shard_for(const StateKey& key) {
    return shards_[key.hash() % shards_.size()];
  }

  std::vector<Shard> shards_;
};

/// Stuck-search watchdog (DESIGN.md §7). The eval threshold is a
/// DETERMINISTIC run parameter: whether a fault trips depends only on
/// (netlist, fault, options), never on wall clock or thread count, so
/// enabling the watchdog keeps metrics/report JSON thread-invariant. The
/// seconds threshold is wall-clock and therefore heartbeat-only: it can
/// flag a slot as stuck in the live stream but never touches any
/// deterministic artifact.
struct WatchdogOptions {
  /// Flag a fault whose attempt spends >= this many node evaluations
  /// (0 = watchdog off).
  std::uint64_t stuck_evals = 0;
  /// Heartbeat-only: mark an in-flight slot "stuck" after this much wall
  /// time on one fault (0 = off). Never affects results.
  double stuck_seconds = 0.0;
  /// Defer-and-requeue: cap each fault's FIRST attempt at stuck_evals;
  /// faults that trip are parked (still undetected) until every other
  /// fault settles, then requeued with the full original budget. A
  /// requeued attempt starts a fresh engine + budget, so for kHitec /
  /// kForward it is bit-identical to the attempt the fault would have had
  /// without deferral — the final statuses match the no-watchdog run, only
  /// the order in which hard faults consume the run's tail changes.
  bool defer = false;

  bool enabled() const { return stuck_evals > 0; }
};

/// Per-fault decision-stream capture (atpg/capture.h). Writing the capture
/// file is a side artifact; arming never changes search results.
struct CaptureOptions {
  bool armed = false;   ///< record rings and keep the first triggered capture
  /// Capture this specific fault unconditionally: a fault_name() string or
  /// an all-digits collapsed-fault index. Empty = only capture on watchdog
  /// trip or deadline abort.
  std::string fault;
  std::size_t ring_capacity = DecisionRing::kDefaultCapacity;
};

/// Resolve a CaptureOptions::fault spec against `collapsed`
/// (collapse_faults(nl)): an all-digits collapsed-fault index, else a
/// fault_name(). Returns -1 when the spec is empty or matches nothing, so
/// a caller can refuse a typo before the run instead of arming a capture
/// that never fires.
std::ptrdiff_t resolve_capture_fault(
    const Netlist& nl, const std::vector<CollapsedFault>& collapsed,
    const std::string& spec);

struct ParallelAtpgOptions {
  AtpgRunOptions run;
  /// Record per-fault flight-recorder events (base/events.h) into
  /// ParallelAtpgResult::fault_events. Event content is wall-clock free
  /// and merged in the same deterministic order as fault_stats, so the
  /// serialized stream is byte-identical at any thread count.
  bool record_events = false;
  /// Worker threads for the deterministic phase: 1 = in-caller serial
  /// execution, 0 = one per hardware thread. Results are bit-identical
  /// for every value.
  unsigned num_threads = 0;
  /// Wall-clock deadline for the whole run in milliseconds (0 = none).
  /// When it fires, in-flight searches unwind and every remaining fault
  /// aborts. Timing-dependent by nature — results under a deadline are
  /// NOT reproducible across machines or runs.
  std::uint64_t deadline_ms = 0;
  /// Live heartbeat/progress sampling. Observer-only: any setting leaves
  /// every deterministic artifact byte-identical.
  RunMonitorOptions monitor;
  WatchdogOptions watchdog;
  CaptureOptions capture;
  /// Deterministic memory budget in accounted bytes per fault attempt
  /// (0 = none). An attempt whose PEAK accounted bytes reach the limit
  /// aborts (mem_capped); the driver parks such faults — exactly like the
  /// watchdog's defer path, and independent of it — and requeues them with
  /// the budget lifted once everything else settles, so final coverage is
  /// bit-identical to the unbudgeted run. Setting a budget arms byte
  /// accounting even when memstats are otherwise off.
  std::uint64_t mem_budget_bytes = 0;
};

struct ParallelAtpgResult {
  /// Run summary (tables print from this).
  AtpgRunResult run;
  /// Per collapsed fault: final strict status (no potential-detection
  /// credit — that credit is applied only inside run's summary numbers).
  std::vector<FaultStatus> status;
  /// Per collapsed fault: index into run.tests of the sequence that first
  /// detected it, or -1. Lets tests replay every detection independently.
  std::vector<int> detected_by;
  /// Per collapsed fault: 1 when a deterministic-phase engine actually ran
  /// on it (speculative attempts whose outcome was discarded still count —
  /// the work happened), 0 for faults settled by the random phase or
  /// skipped by budget/deadline.
  std::vector<std::uint8_t> attempted;
  /// Per collapsed fault: search-effort breakdown of its (unique) attempt.
  /// Meaningful where attempted[i] == 1. All integer fields bit-identical
  /// at any thread count; wall_seconds is not.
  std::vector<FaultSearchStats> fault_stats;
  /// Per collapsed fault: flight-recorder events of the committed attempt
  /// (empty unless ParallelAtpgOptions::record_events). Byte-identical at
  /// any thread count (event content is wall-clock free).
  std::vector<SearchEventList> fault_events;
  /// Per collapsed fault: cube-sharing provenance of the committed attempt
  /// — which (exporter fault, epoch) sources its cube_blocks / learn hits
  /// drew on. Always recorded; deterministic.
  std::vector<std::vector<CubeSource>> cube_sources;
  /// Heartbeat samples the monitor took (0 when unmonitored). Wall-clock
  /// dependent — stderr summary only, never in reports.
  std::uint64_t heartbeat_samples = 0;
  /// Faults aborted because the wall-clock deadline fired.
  std::size_t aborted_by_deadline = 0;
  /// Faults the watchdog flagged (first attempt spent >= stuck_evals),
  /// fault-index order. Deterministic: same content at any thread count;
  /// empty when the watchdog is off.
  struct StuckFault {
    std::size_t fault_index = 0;
    std::uint64_t evals = 0;   ///< evals of the tripping attempt
    bool deferred = false;     ///< parked and requeued (defer mode)
  };
  std::vector<StuckFault> stuck_faults;
  /// Faults that were parked by defer mode and later re-attempted with the
  /// full budget.
  std::size_t deferred_requeued = 0;
  /// Folded byte accounting (base/memstats): attempt tallies added at the
  /// merge barrier in unit/fault order, plus the global registry snapshot
  /// (fsim wide lanes, BDD oracle, shared cubes) taken at run end.
  /// Byte-identical at any thread count; all-zero when never armed.
  MemTally mem;
  /// The memory budget this run enforced (bytes; 0 = none).
  std::uint64_t mem_budget_bytes = 0;
  /// Committed attempts that tripped the memory budget (deterministic).
  std::size_t mem_tripped = 0;
  /// Faults parked by the budget and re-attempted with the budget lifted.
  std::size_t mem_requeued = 0;
  /// First triggered capture (requested fault, watchdog trip, or deadline
  /// abort), in deterministic (round, unit, fault) order — except deadline
  /// captures, which are inherently timing-dependent.
  std::optional<SearchCapture> capture;
};

ParallelAtpgResult run_parallel_atpg(const Netlist& nl,
                                     const ParallelAtpgOptions& opts);

}  // namespace satpg
