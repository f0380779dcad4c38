// Structural sequential ATPG engines, plus the options and summary of the
// per-circuit driver (run_parallel_atpg, atpg/parallel.h).
//
// Three engines reproduce the paper's three tools as algorithm families
// (DESIGN.md §2 documents the substitution):
//
//   kHitec    — iterative-array PODEM with free frame-0 state (pseudo
//               primary inputs), forward window growth for propagation and
//               recursive backward state justification. The justification
//               search over concrete state cubes is precisely the part that
//               drowns when the density of encoding collapses.
//   kForward  — forward-time only: the window starts from the all-X
//               power-up state (no pseudo-PI decisions); tests must
//               self-initialize through the reset line. Attest stand-in.
//   kLearning — kHitec plus dynamic state learning: justification outcomes
//               (success prefixes and budget-failures) are cached across
//               faults, the distinguishing feature of SEST.
//
// A fourth engine, kCdcl (atpg/cdcl/), answers the same window/justify/
// redundancy queries with an embedded CDCL SAT solver over a Tseitin
// encoding of the time-frame array, sharing proven-unreachable state cubes
// across faults and workers through the same learning-cache plumbing.
//
// Redundancy identification is sound: a fault is labelled redundant only
// when a complete single-frame search over ALL (state, input) assignments
// proves the effect can never be excited and reach a PO or any flip-flop.
// Everything else undetected is aborted (counts against fault efficiency,
// exactly as in the paper's tables).
//
// Every generated sequence is verified by the fault simulator from the
// all-X power-up state before a fault is declared detected (justification
// runs on the good machine; verification closes that soundness gap).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/reach.h"
#include "atpg/podem.h"
#include "base/events.h"
#include "atpg/scoap.h"
#include "fault/fault.h"
#include "fsim/fsim.h"
#include "netlist/netlist.h"
#include "sim/statekey.h"

namespace satpg {

enum class EngineKind { kHitec, kForward, kLearning, kCdcl };

const char* engine_kind_name(EngineKind k);

struct EngineOptions {
  EngineKind kind = EngineKind::kHitec;
  int max_forward_frames = 10;   ///< propagation window growth limit
  int max_backward_frames = 24;  ///< justification depth limit
  std::uint64_t backtrack_limit = 4000;    ///< per fault, all phases
  std::uint64_t eval_limit = 4'000'000;    ///< per fault, node evaluations
  int verify_reject_limit = 25;  ///< candidate re-derivations per fault
  /// kCdcl only: keep/publish proven-unreachable state cubes across faults
  /// (and, under the parallel driver, across workers). When off, the
  /// engine clears its caches at the start of every generate() so each
  /// attempt is a pure function of (netlist, fault, options) — the mode
  /// `satpg replay` uses, and the baseline for the sharing ablation.
  bool share_learning = true;
};

enum class FaultStatus { kDetected, kRedundant, kAborted };

/// Justification effort split by whether the requested present-state cube
/// intersects the reachable set (analysis/reach's StateValidityOracle).
/// Arrays are indexed by static_cast<size_t>(StateValidity): [0] valid,
/// [1] invalid, [2] unknown. All zeros when no oracle is attached (the
/// kForward engine never justifies, so it stays all-zero too). Every field
/// is deterministic and thread-count invariant — the oracle is immutable
/// and its queries are pure, so classification can never depend on
/// scheduling.
struct EffortAttribution {
  std::array<std::uint64_t, 3> justify_calls{};
  std::array<std::uint64_t, 3> justify_failures{};
  /// Node evaluations spent inside this level's PODEM search for cubes of
  /// each class (nested justification levels attribute to their own cube).
  std::array<std::uint64_t, 3> justify_evals{};
  std::array<std::uint64_t, 3> justify_backtracks{};

  void add(const EffortAttribution& o) {
    for (std::size_t b = 0; b < 3; ++b) {
      justify_calls[b] += o.justify_calls[b];
      justify_failures[b] += o.justify_failures[b];
      justify_evals[b] += o.justify_evals[b];
      justify_backtracks[b] += o.justify_backtracks[b];
    }
  }
  /// Fraction of `total_evals` spent justifying provably-invalid cubes —
  /// the per-fault / per-run `effort_invalid_frac` observable.
  double invalid_frac(std::uint64_t total_evals) const {
    if (total_evals == 0) return 0.0;
    return static_cast<double>(
               justify_evals[static_cast<std::size_t>(
                   StateValidity::kInvalid)]) /
           static_cast<double>(total_evals);
  }
};

/// Per-fault search-effort breakdown (the substrate for the paper's
/// effort-vs-density analysis). Every integer field is a deterministic
/// function of (netlist, fault, options) — independent of thread count and
/// scheduling — and may appear in metrics reports. `wall_seconds` is the
/// lone wall-clock field and must never enter the metrics JSON
/// (DESIGN.md §5).
struct FaultSearchStats {
  std::uint64_t evals = 0;          ///< node evaluations, all phases
  std::uint64_t backtracks = 0;     ///< PODEM backtracks, all phases
  std::uint64_t implications = 0;   ///< decision assignments propagated
  std::uint64_t window_growths = 0; ///< forward frames beyond the first
  std::uint64_t justify_calls = 0;  ///< backward justification recursions
  std::uint64_t justify_failures = 0;  ///< state cubes that failed
  std::uint64_t max_justify_depth = 0; ///< deepest frame reached backward
  std::uint64_t learn_hits = 0;     ///< learning-cache hits (local+shared)
  std::uint64_t learn_misses = 0;   ///< lookups that found nothing
  std::uint64_t learn_inserts = 0;  ///< new entries learned
  std::uint64_t verify_rejects = 0; ///< candidates the fsim refused
  // CDCL-engine counters (all zero for the structural engines). They are
  // raw solver work, NOT budget currency — the one conversion into
  // evals/backtracks is PodemBudget::charge_cdcl.
  std::uint64_t conflicts = 0;        ///< CDCL conflicts, all solvers
  std::uint64_t propagations = 0;     ///< BCP assignments, all solvers
  std::uint64_t restarts = 0;         ///< solver restarts
  std::uint64_t learned_clauses = 0;  ///< clauses learned (pre-reduction)
  std::uint64_t cube_blocks = 0;      ///< blocking clauses imported
  std::uint64_t cube_exports = 0;     ///< unreachable cubes proven+exported
  /// Peak simultaneous accounted bytes of this attempt (base/memstats;
  /// zero when no tally was attached). Logical bytes are a pure function
  /// of the search path, so the field is report-safe.
  std::uint64_t peak_bytes = 0;
  bool budget_exhausted = false;    ///< ran out of evals or backtracks
  double wall_seconds = 0.0;        ///< wall clock; trace/debug only
  /// Justification effort split by state-cube validity (all zeros when the
  /// driver attached no oracle).
  EffortAttribution attribution;
};

struct FaultAttempt {
  FaultStatus status = FaultStatus::kAborted;
  TestSequence sequence;  ///< meaningful when detected
  FaultSearchStats stats; ///< effort spent on this fault
  /// The attempt stopped because the engine's soft eval cap (watchdog
  /// defer mode) ran out — NOT the fault's real eval_limit. The driver
  /// requeues such faults for a full-budget retry.
  bool soft_capped = false;
  /// The attempt tripped the deterministic memory budget
  /// (--mem-budget-mb). The driver parks such faults and requeues them
  /// with the budget lifted, mirroring the soft-cap defer path.
  bool mem_capped = false;
  /// Byte accounting of this attempt (base/memstats): per-subsystem
  /// charges the search made, folded by the driver at its merge barrier in
  /// unit/fault order. All-zero when accounting was not armed.
  MemTally mem;
  /// 1-based decision-loop check index at which the wall-clock abort was
  /// first observed (0 = never). Recorded into search captures so replay
  /// can re-cut the search at the identical point (atpg/capture.h).
  std::uint64_t first_abort_check = 0;
  /// Flight-recorder events of this attempt, in emission order (empty
  /// unless set_record_events(true)). Deterministic: event content is
  /// wall-clock free (base/events.h).
  SearchEventList events;
  /// Cube-sharing provenance: which (exporter, epoch) sources this attempt
  /// benefited from, sorted by (exporter, epoch). Always recorded (cheap);
  /// empty for engines that never hit a shared/learned cube.
  std::vector<CubeSource> cube_sources;
};

/// Read-only view of justification outcomes learned by OTHER engines.
/// The parallel driver hands one to each per-unit engine so kLearning
/// shares state knowledge across workers; the view's visibility rule
/// (which entries a reader may see) is the implementer's contract — the
/// engine just consults it after its local caches miss.
class LearningShare {
 public:
  virtual ~LearningShare() = default;
  /// Known success: fills `prefix` (oldest vector first) and returns true.
  virtual bool lookup_ok(const StateKey& key,
                         std::vector<std::vector<V3>>* prefix) const = 0;

  /// A failure cube with its provenance tag: the fault that proved it and
  /// the epoch it became visible in (SharedLearningCache rounds).
  struct FailCubeInfo {
    StateKey key;
    std::string exporter;
    std::uint32_t epoch = 0;
  };
  /// Known complete-search failure for this cube, with its provenance
  /// (exporter/epoch untouched on miss).
  virtual bool lookup_fail_info(const StateKey& key, std::string* exporter,
                                std::uint32_t* epoch) const = 0;
  /// Every visible failure cube with its provenance, sorted by
  /// StateKey::to_string(). The kCdcl engine imports these as blocking
  /// clauses at attempt start.
  virtual std::vector<FailCubeInfo> fail_cube_infos() const = 0;
};

class CdclAtpg;  // atpg/cdcl/cdcl.h

/// Per-circuit deterministic test generator.
class AtpgEngine {
 public:
  AtpgEngine(const Netlist& nl, const EngineOptions& opts);

  FaultAttempt generate(const Fault& fault);

  /// Cumulative work across all generate() calls.
  std::uint64_t total_evals() const { return total_evals_; }
  std::uint64_t total_backtracks() const { return total_backtracks_; }

  /// Consult `share` (may be nullptr) when the local learning caches miss:
  /// kLearning reads its justification outcomes, kCdcl also imports its
  /// failure cubes as blocking clauses. Ignored by kHitec and kForward,
  /// and by a kCdcl engine whose share_learning is off.
  void set_shared_learning(const LearningShare* share) {
    shared_ = opts_.kind == EngineKind::kCdcl && !opts_.share_learning
                  ? nullptr
                  : share;
  }

  /// Cooperative cancellation: when `*abort` becomes true every in-flight
  /// search returns kAborted at its next decision-loop check. The flag must
  /// outlive the engine. Pass nullptr to detach.
  void set_abort_flag(const std::atomic<bool>* abort) { abort_ = abort; }

  /// Cap the NEXT generate() calls at min(cap, eval_limit) node
  /// evaluations (0 = no cap). Used by the watchdog's defer mode for
  /// deterministic first attempts; because the full-budget retry starts a
  /// fresh PodemBudget, it is bit-identical to an uncapped first attempt.
  void set_soft_eval_cap(std::uint64_t cap) { soft_eval_cap_ = cap; }

  /// Publish live search progress into `cell` (sampled by the run monitor
  /// from another thread). Observation only: the search never reads the
  /// cell, so results are unchanged. Pass nullptr to detach.
  void set_search_progress(SearchProgress* cell) { progress_ = cell; }

  /// Record decision events of each generate() into `ring`
  /// (atpg/capture.h); the ring is reset at the start of every attempt.
  /// Observation only. Pass nullptr to detach.
  void set_decision_ring(DecisionRing* ring) { ring_ = ring; }

  /// Arm per-attempt byte accounting (base/memstats) and/or a
  /// deterministic memory budget. When `armed`, every generate() charges
  /// its allocation-heavy structures into FaultAttempt::mem and reports
  /// the attempt peak in FaultSearchStats::peak_bytes. `limit_bytes` > 0
  /// additionally trips the search (status kAborted, mem_capped set) once
  /// the attempt's peak accounted bytes reach the limit — checked at the
  /// same deterministic decision-loop/conflict points as the eval budget.
  /// Setting a limit implies accounting is armed.
  void set_mem_accounting(bool armed, std::uint64_t limit_bytes) {
    mem_armed_ = armed || limit_bytes != 0;
    mem_limit_ = limit_bytes;
  }

  /// Replay of wall-clock-aborted captures: force the external abort to be
  /// observed at the `check`-th decision-loop check (1-based; 0 = off).
  /// The check count is a pure function of the search path, so cutting at
  /// the recorded index reproduces the aborted attempt bit-for-bit.
  void set_abort_at_check(std::uint64_t check) { abort_at_check_ = check; }

  /// Record flight-recorder events (base/events.h) of each generate() into
  /// FaultAttempt::events. Off by default; when off the only cost on the
  /// search path is one branch on a plain bool.
  void set_record_events(bool on) { record_events_ = on; }

  /// Attribute justification effort by cube validity. The oracle must
  /// outlive the engine; it is never mutated (classifications memoize
  /// per-engine). Pass nullptr to detach — attribution buckets then stay
  /// all-zero. Attaching or detaching the oracle NEVER changes the search
  /// itself: classification is observation only.
  void set_validity_oracle(const StateValidityOracle* oracle) {
    validity_ = (oracle != nullptr && oracle->enabled()) ? oracle : nullptr;
  }

  /// Local learning caches (entries this engine learned itself, plus any it
  /// copied down from the shared view). The parallel driver harvests these
  /// after a work unit completes to publish them.
  const std::unordered_map<StateKey, std::vector<std::vector<V3>>,
                           StateKeyHash>&
  learned_ok() const {
    return learned_ok_;
  }
  const StateSet& learned_fail() const { return learned_fail_; }

  /// Provenance tag of a known failure cube: the fault whose attempt
  /// proved it and — for cubes copied down from the shared view — the
  /// epoch it became visible in (0 = proven locally, not yet published).
  struct CubeOrigin {
    std::string exporter;
    std::uint32_t epoch = 0;
  };
  /// key -> origin for every failure cube this engine knows. The driver's
  /// publish reads the exporter tag; first-writer-wins in the shared cache
  /// keeps original attribution stable when copies are republished.
  const std::unordered_map<StateKey, CubeOrigin, StateKeyHash>&
  cube_origins() const {
    return cube_origins_;
  }

  /// Distinct fully/partially specified state cubes the justification
  /// search visited (Table 6's "#states traversed" uses the good-machine
  /// trajectory of the final tests; this is the search-side counterpart).
  std::size_t justification_cubes_visited() const {
    return cubes_visited_.size();
  }

  /// Candidate tests rejected by in-engine faulty-machine verification.
  std::size_t verify_rejects() const { return verify_rejects_; }

 private:
  // The SAT-based engine keeps only its solver steps (solve, lift, block);
  // the attempt skeleton below, the caches, stats and hooks are shared, and
  // generate() delegates to it for kCdcl.
  friend class CdclAtpg;

  /// One justification level's answer. kProvenInvalid (the cube provably
  /// intersects no reachable state) comes only from kCdcl. The status
  /// values are the kJustifyLeave event's outcome codes.
  struct JustifyOutcome {
    enum class Status { kFailed, kJustified, kProvenInvalid };
    Status status = Status::kFailed;
    std::vector<std::vector<V3>> prefix;  ///< oldest vector first
    bool justified() const { return status == Status::kJustified; }
  };
  /// Where the engines' justification levels differ (reports pin both;
  /// the third difference, the podem.justify span, stays in justify()).
  struct JustifyMode {
    bool caches;  ///< consult and fill the learning caches, count misses
    JustifyOutcome::Status cached_fail;  ///< answer of a cached failure
  };
  /// One open justification level: the cube's key and attribution bucket,
  /// and the budget snapshot its search spend is measured from.
  struct JustifyLevel {
    StateKey key;
    int depth = 0;
    std::size_t bucket = 0;
    std::uint64_t evals0 = 0;
    std::uint64_t backtracks0 = 0;
    void mark(const PodemBudget& budget) {
      evals0 = budget.evals;
      backtracks0 = budget.backtracks;
    }
  };

  JustifyOutcome justify(const std::vector<std::pair<NodeId, V3>>& cube,
                         int depth, StateSet& on_path, PodemBudget& budget);

  // ---- one fault attempt, shared by every engine ----
  /// Reset the per-attempt state and return the fault's one budget, with
  /// the capture ring charged into the tally (outside the memory limit).
  PodemBudget begin_attempt(const Fault& fault);
  /// Count and record window growth past the first frame, then publish
  /// the window phase.
  void enter_window(int frames, const PodemBudget& budget);
  enum class Verdict { kDetected, kRejected, kGiveUp };
  /// Verify `prefix` ++ `window`, every X filled with 0, on the faulty
  /// machine from power-up. kDetected stores the sequence in `attempt`;
  /// kGiveUp means the rejection reached verify_reject_limit.
  Verdict verify_candidate(const Fault& fault,
                           std::vector<std::vector<V3>> prefix,
                           const std::vector<std::vector<V3>>& window,
                           FaultAttempt* attempt);
  void begin_redundancy(const PodemBudget& budget);
  void end_redundancy(bool redundant, const PodemBudget& budget,
                      FaultAttempt* attempt);
  /// Totals, stats, cap flags, the abort events and the flush.
  void end_attempt(const PodemBudget& budget, FaultAttempt* attempt);

  // ---- one justification level, shared by every engine ----
  /// Open a level for `cube` (an empty cube is justified at once, with no
  /// level): stats, enter event, attribution, the depth and loop checks,
  /// then (mode.caches) the local and shared cache lookups. Returns true
  /// when that settled the level: `*out` holds the answer and the leave
  /// event is out. Otherwise the key is on `on_path` and the caller marks
  /// the level, searches, then calls end_justify.
  bool begin_justify(JustifyLevel* lvl,
                     const std::vector<std::pair<NodeId, V3>>& cube,
                     int depth, StateSet& on_path, const PodemBudget& budget,
                     const JustifyMode& mode, JustifyOutcome* out);
  /// Attribute the spend since lvl.mark() to the level's bucket.
  void commit_spend(const JustifyLevel& lvl, const PodemBudget& budget);
  /// Close a searched level: take it off `on_path`, cache a justified
  /// prefix (mode.caches), count a failure, and when `learn_fail` record
  /// the cube as a known failure with its kCubeExport event.
  void end_justify(const JustifyLevel& lvl, const JustifyOutcome& out,
                   StateSet& on_path, const JustifyMode& mode,
                   bool learn_fail, const PodemBudget& budget);
  void justify_leave(const JustifyLevel& lvl, JustifyOutcome::Status st,
                     const PodemBudget& budget);

  void publish_phase(SearchPhase p) {
    if (progress_ != nullptr)
      progress_->phase.store(static_cast<std::uint32_t>(p),
                             std::memory_order_relaxed);
  }
  /// The current fault's settled one-frame model, which justification and
  /// the redundancy check copy per use: built on first use in a generate()
  /// and dropped at the start of the next. A copy counts its evals exactly
  /// as a fresh model would.
  const TimeFrameModel& justify_template();
  /// Packed key of a state cube ('-' digits are X). O(cube size) via the
  /// precomputed DFF index map.
  StateKey cube_key(const std::vector<std::pair<NodeId, V3>>& cube) const;
  /// Oracle verdict for `key`, memoized per engine (pure queries — the
  /// memo only affects speed, never answers). Returns kUnknown with no
  /// bucket accounting use when no oracle is attached.
  StateValidity classify_cube(const StateKey& key);
  /// Count one provenance hit against (exporter, epoch) for the current
  /// attempt (epoch 0 = unit-local cube).
  void count_cube_source(const std::string& exporter, std::uint32_t epoch) {
    ++attempt_sources_[{exporter, epoch}];
  }

  const Netlist& nl_;
  EngineOptions opts_;
  Scoap scoap_;
  std::vector<int> dff_index_;  ///< NodeId -> position in nl.dffs(), or -1
  std::optional<Fault> current_fault_;  ///< fault modelled by justification
  /// Template of current_fault_'s one-frame model (justify_template()).
  std::optional<TimeFrameModel> justify_template_;
  const LearningShare* shared_ = nullptr;
  const std::atomic<bool>* abort_ = nullptr;
  std::uint64_t soft_eval_cap_ = 0;
  std::uint64_t abort_at_check_ = 0;
  bool mem_armed_ = false;
  std::uint64_t mem_limit_ = 0;
  MemTally attempt_mem_;  ///< in-flight tally of the current generate()
  std::chrono::steady_clock::time_point attempt_t0_;
  int attempt_rejects_ = 0;  ///< verify rejections of the current attempt
  SearchProgress* progress_ = nullptr;
  DecisionRing* ring_ = nullptr;
  const StateValidityOracle* validity_ = nullptr;
  std::unordered_map<StateKey, StateValidity, StateKeyHash> validity_memo_;
  std::uint64_t total_evals_ = 0;
  std::uint64_t total_backtracks_ = 0;
  FaultSearchStats stats_;  ///< in-flight stats of the current generate()
  bool record_events_ = false;
  SearchEventList events_buf_;  ///< in-flight events of the current attempt
  std::string fault_name_;      ///< current fault, for provenance tags
  /// (exporter, epoch) -> hits for the current attempt; ordered map so the
  /// flushed cube_sources vector is deterministically sorted.
  std::map<std::pair<std::string, std::uint32_t>, std::uint64_t>
      attempt_sources_;
  /// Known failure-cube origins (see cube_origins()).
  std::unordered_map<StateKey, CubeOrigin, StateKeyHash> cube_origins_;

  // Learning caches (kLearning only): cube -> known prefix / known failure.
  std::unordered_map<StateKey, std::vector<std::vector<V3>>, StateKeyHash>
      learned_ok_;
  StateSet learned_fail_;
  StateSet cubes_visited_;
  std::size_t verify_rejects_ = 0;
};

// ---- driver options and summary (run_parallel_atpg) ------------------------

struct AtpgRunOptions {
  EngineOptions engine;
  int random_sequences = 8;    ///< random-phase warm-up sequences
  int random_length = 40;
  std::uint64_t seed = 1;
  /// Total deterministic-phase evaluation budget (the "CPU time" the run is
  /// allowed; 0 = unlimited). Faults not reached before exhaustion abort.
  std::uint64_t total_eval_budget = 0;
  /// Credit potential detections (good output known, faulty X) toward
  /// coverage — the PROOFS-era convention, needed chiefly for reset-line
  /// faults whose faulty machine never initializes. Ablation can turn this
  /// off for strict-detection numbers.
  bool count_potential_detections = true;
  /// Fault-simulation knobs (random phase, per-test fault dropping, final
  /// replay). Defaults to one worker per hardware thread; results are
  /// bit-identical for every thread count.
  FsimOptions fsim;
  /// Build a StateValidityOracle for the circuit and attribute every
  /// justification call/failure/eval/backtrack to a valid/invalid/unknown
  /// bucket (AtpgRunResult::attribution, effort_invalid_frac). Observation
  /// only — never changes search results. Off skips the oracle build and
  /// leaves every bucket zero.
  bool attribute_effort = true;
};

struct AtpgRunResult {
  std::vector<TestSequence> tests;
  // Weighted by equivalence-class sizes (uncollapsed universe).
  double fault_coverage = 0.0;    ///< percent detected
  double fault_efficiency = 0.0;  ///< percent detected-or-redundant
  std::size_t total_faults = 0;   ///< uncollapsed count
  std::size_t detected = 0, redundant = 0, aborted = 0;  ///< weighted
  std::uint64_t evals = 0;         ///< deterministic work metric
  std::uint64_t backtracks = 0;
  // Aggregated FaultSearchStats over the deterministic phase, merged in the
  // same deterministic order as evals/backtracks (unit order, fault order;
  // speculative work counts). Bit-identical at any thread count.
  std::uint64_t implications = 0;
  std::uint64_t window_growths = 0;
  std::uint64_t justify_calls = 0;
  std::uint64_t justify_failures = 0;
  std::uint64_t learn_hits = 0;
  std::uint64_t learn_misses = 0;
  std::uint64_t learn_inserts = 0;
  /// CDCL-engine aggregates (zero for the structural engines), merged in
  /// the same deterministic order as the counters above.
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t cube_exports = 0;
  /// Justification-effort buckets summed over attempted faults, merged in
  /// the same deterministic order as the counters above.
  EffortAttribution attribution;
  /// attribution.justify_evals[invalid] / evals — the run-level share of
  /// the deterministic work metric burned justifying provably-unreachable
  /// state cubes (the paper's "drowning in invalid states", Figure 3).
  double effort_invalid_frac = 0.0;
  /// How cube validity was decided for this run (disabled when
  /// attribute_effort was off).
  ValidityOracleInfo oracle;
  double wall_seconds = 0.0;
  /// Distinct good-machine states entered while applying the final test
  /// set (the paper's "#states traversed", Tables 6/8).
  StateSet states_traversed;
  std::size_t verify_failures = 0;  ///< generated tests the fsim rejected
  /// (cumulative evals, fault efficiency %) after each deterministic-phase
  /// fault — the series behind the paper's Figure 3. Strict statuses
  /// (potential-detection credit is applied only in the final numbers).
  std::vector<std::pair<std::uint64_t, double>> fe_trace;
};

/// Random test sequences in the shape the study's circuits expect: the
/// first vector asserts the reset line (when present), later vectors pulse
/// it rarely. Used by the driver's random phase and by experiments.
std::vector<TestSequence> make_random_sequences(const Netlist& nl, int count,
                                                int length,
                                                std::uint64_t seed);

}  // namespace satpg
