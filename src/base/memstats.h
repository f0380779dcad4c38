// Deterministic per-subsystem byte accounting — the space-axis twin of
// base/metrics.
//
// Two accounting planes share one subsystem taxonomy:
//
//   * MemTally — a plain, non-atomic tally owned by exactly one fault
//     attempt (or one single-threaded phase). Engines charge/release into
//     it through PodemBudget; the parallel driver folds attempt tallies at
//     its merge barrier in unit/fault order, so every aggregate is a pure
//     function of (netlist, faults, options) — byte-identical at any
//     --threads value. The disabled mode is a null pointer: no tally
//     attached, no accounting, no branches beyond one pointer test.
//   * MemStatsRegistry — a process-wide registry for subsystems whose
//     ownership is not attempt-scoped (fsim lanes, the BDD reachability
//     oracle, the shared learning cache). Charge sites are cold (per
//     simulation call, per publish, once per oracle build) so plain
//     atomics suffice; determinism is kept by construction: every charge
//     passes an explicit deterministic `peak_hint` instead of deriving a
//     peak from racy live bytes, and grow-only subsystems report
//     peak == live-at-snapshot. Mutations are dropped while the global
//     enable flag is off (same discipline as metrics_enabled()).
//
// The two planes touch DISJOINT subsystems — attempt tallies own the
// search-side structures (clause DB, CNF encoder, TFM frames, decision
// rings), the registry owns the shared ones — so a report merges them
// without double counting.
//
// Everything here is logical bytes (element counts x element sizes), not
// malloc bytes: logical sizes are pure functions of the inputs, allocator
// slack is not. Process-level truth (VmHWM) is wall-clock-shaped and lives
// in heartbeats/trace only (DESIGN.md §11).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace satpg {

namespace detail {
extern std::atomic<bool> g_memstats_enabled;
}

/// Global on/off switch for the registry plane; charges are dropped while
/// off. Attempt tallies are armed separately (by attaching a tally).
inline bool memstats_enabled() {
  return detail::g_memstats_enabled.load(std::memory_order_relaxed);
}
void set_memstats_enabled(bool on);

/// Allocation-heavy subsystems under byte accounting. Enumerator order IS
/// sorted JSON-name order; keep both in sync (memstats.cpp has the name
/// table). Names never contain the substring "wall" — reports embedding
/// them must stay wall-clock free.
enum class MemSubsystem : unsigned {
  kBddOracle = 0,   ///< reachability oracle state sets (analysis/reach)
  kCdclClauseDb,    ///< CDCL clauses + watch lists (atpg/cdcl/solver)
  kCnfEncoder,      ///< time-frame Tseitin encoder maps (atpg/cdcl/cnf)
  kDecisionRing,    ///< capture ring buffers (atpg/capture)
  kFsimWideLanes,   ///< wide-engine lane buffers + group images (fsim_wide)
  kSharedCubes,     ///< cross-worker learned-cube cache (atpg/parallel)
  kTfmFrames,       ///< structural time-frame models (atpg/tfm)
  kCount
};
inline constexpr std::size_t kNumMemSubsystems =
    static_cast<std::size_t>(MemSubsystem::kCount);

const char* mem_subsystem_name(MemSubsystem s);

/// Plain per-owner tally. Non-atomic: exactly one thread mutates it at a
/// time (one attempt, or the orchestrator between rounds). All fields are
/// integers and order-independent under add(), so folding tallies in the
/// driver's deterministic merge order yields thread-count-invariant
/// aggregates.
struct MemTally {
  struct Account {
    std::uint64_t allocated = 0;  ///< cumulative bytes charged
    std::uint64_t freed = 0;      ///< cumulative bytes released
    std::uint64_t allocs = 0;     ///< charge events
    std::uint64_t peak = 0;       ///< max simultaneous bytes observed
    std::uint64_t live() const { return allocated - freed; }
  };

  std::array<Account, kNumMemSubsystems> acct{};
  std::uint64_t live = 0;  ///< current bytes across all subsystems
  std::uint64_t peak = 0;  ///< max simultaneous bytes across subsystems

  void charge(MemSubsystem s, std::uint64_t bytes) {
    Account& a = acct[static_cast<std::size_t>(s)];
    a.allocated += bytes;
    ++a.allocs;
    if (a.live() > a.peak) a.peak = a.live();
    live += bytes;
    if (live > peak) peak = live;
  }
  void release(MemSubsystem s, std::uint64_t bytes) {
    Account& a = acct[static_cast<std::size_t>(s)];
    a.freed += bytes;
    live -= bytes;
  }

  /// Deterministic fold: sums for the monotone fields, max for the peaks.
  /// Commutative and associative, so any merge order gives the same bytes;
  /// the driver still folds in unit/fault order by convention.
  void add(const MemTally& o) {
    for (std::size_t i = 0; i < kNumMemSubsystems; ++i) {
      acct[i].allocated += o.acct[i].allocated;
      acct[i].freed += o.acct[i].freed;
      acct[i].allocs += o.acct[i].allocs;
      if (o.acct[i].peak > acct[i].peak) acct[i].peak = o.acct[i].peak;
    }
    live += o.live;
    if (o.peak > peak) peak = o.peak;
  }

  std::uint64_t total_allocated() const {
    std::uint64_t t = 0;
    for (const Account& a : acct) t += a.allocated;
    return t;
  }
  /// Sum of per-subsystem peaks: a deterministic upper bound on the
  /// simultaneous footprint (subsystem peaks need not coincide in time).
  std::uint64_t peak_upper_bound() const {
    std::uint64_t t = 0;
    for (const Account& a : acct) t += a.peak;
    return t;
  }

  /// Deterministic dump: subsystem names in sorted order, integers only.
  /// Rows with zero activity are still emitted so the block's shape is a
  /// constant of the schema, not of the run.
  void write_json(std::ostream& os, int indent = 0) const;
};

/// RAII ownership tag over a MemTally: charges `bytes` on construction,
/// releases them on destruction. A null tally or zero bytes makes the
/// whole object a no-op — the disabled-mode fast path.
class MemScope {
 public:
  MemScope() = default;
  MemScope(MemTally* tally, MemSubsystem sub, std::uint64_t bytes)
      : tally_(tally), sub_(sub), bytes_(bytes) {
    if (tally_ != nullptr && bytes_ != 0) tally_->charge(sub_, bytes_);
  }
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;
  ~MemScope() {
    if (tally_ != nullptr && bytes_ != 0) tally_->release(sub_, bytes_);
  }

  /// Re-state the owned footprint (e.g. after a container grew).
  void resize(std::uint64_t new_bytes) {
    if (tally_ == nullptr) return;
    if (new_bytes > bytes_) tally_->charge(sub_, new_bytes - bytes_);
    if (new_bytes < bytes_) tally_->release(sub_, bytes_ - new_bytes);
    bytes_ = new_bytes;
  }
  std::uint64_t bytes() const { return bytes_; }

 private:
  MemTally* tally_ = nullptr;
  MemSubsystem sub_ = MemSubsystem::kCount;
  std::uint64_t bytes_ = 0;
};

/// Process-wide accounting for subsystems whose lifetime is not
/// attempt-scoped. Cold-path atomics; see header comment for the
/// determinism-by-construction rules.
class MemStatsRegistry {
 public:
  /// Charge `bytes`; `peak_hint` (default: `bytes`) is the deterministic
  /// candidate folded into the subsystem peak — callers pass the footprint
  /// of THIS ownership scope, never a value derived from concurrent live
  /// bytes. No-op while memstats are disabled.
  void charge(MemSubsystem s, std::uint64_t bytes,
              std::uint64_t peak_hint = 0);
  void release(MemSubsystem s, std::uint64_t bytes);

  /// Plain copy for report assembly. Subsystem peaks are
  /// max(recorded hints, live-at-snapshot) so grow-only subsystems report
  /// peak == live without ever racing on a live-derived maximum.
  MemTally snapshot() const;

  /// Current accounted bytes across all subsystems. Racy under concurrent
  /// charges — heartbeat/trace display only, never reports.
  std::uint64_t live_bytes() const;

  /// Zero every account (between runs that must report independently).
  void reset();

  static MemStatsRegistry& global();

 private:
  struct Account {
    std::atomic<std::uint64_t> allocated{0};
    std::atomic<std::uint64_t> freed{0};
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> peak{0};
  };
  std::array<Account, kNumMemSubsystems> acct_;
};

/// RAII ownership tag over the global registry: charges on construction
/// (peak_hint = the same bytes — the footprint of this scope), releases on
/// destruction. Zero bytes makes it a no-op; callers gate any footprint
/// computation on memstats_enabled() and pass 0 when off.
class MemRegistryScope {
 public:
  MemRegistryScope(MemSubsystem sub, std::uint64_t bytes)
      : sub_(sub), bytes_(bytes) {
    if (bytes_ != 0) MemStatsRegistry::global().charge(sub_, bytes_, bytes_);
  }
  MemRegistryScope(const MemRegistryScope&) = delete;
  MemRegistryScope& operator=(const MemRegistryScope&) = delete;
  ~MemRegistryScope() {
    if (bytes_ != 0) MemStatsRegistry::global().release(sub_, bytes_);
  }

 private:
  MemSubsystem sub_;
  std::uint64_t bytes_;
};

/// Process peak resident set (VmHWM from /proc/self/status) in kilobytes;
/// 0 where unavailable. Wall-clock-shaped by nature: heartbeats and trace
/// only, never a deterministic report (DESIGN.md §11).
std::uint64_t process_peak_rss_kb();

}  // namespace satpg
