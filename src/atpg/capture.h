// Deterministic per-fault search capture and replay.
//
// A DecisionRing records the last-K PODEM decision events (objective
// picked, decision assigned, backtrack flip, learning-cache hit) of one
// fault attempt together with the ABSOLUTE event count, so the kept window
// always covers the absolute indices [total - kept, total). When a search
// looks pathological — the watchdog trips, the wall-clock deadline fires
// mid-attempt, or the user asked for a specific fault — the driver dumps
// the ring plus everything needed to re-run the attempt as a
// `satpg.search_capture.v1` JSON file.
//
// replay_capture() rebuilds the exact same attempt: a fresh AtpgEngine
// with the captured EngineOptions and soft eval cap, a fresh ring of the
// same capacity. When the original attempt was cut short by the
// nondeterministic wall-clock abort (`wall_aborted`), the capture also
// records `abort_check` — the decision-loop check index at which the
// abort was first observed, a pure function of the search path — and the
// replay engine forces the abort at that exact check, so even a
// wall-clock cut replays bit-for-bit. Attempts that ended
// deterministically (detected, redundant, budget-exhausted) replay with
// no forcing and must reproduce the same stream on their own. For kHitec/kForward, generate() is a pure function of
// (netlist, fault, options), so the streams must match exactly; kLearning
// consults caches warmed by other faults, which a single-fault replay
// cannot reconstruct — replay still runs but a divergence there is
// expected, and tooling warns (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "netlist/netlist.h"

namespace satpg {

enum class DecisionEventKind : std::uint8_t {
  kObjective = 0,  ///< objective chosen by pick_objective()
  kDecision = 1,   ///< decision assigned (initial pick after backtrace)
  kBacktrack = 2,  ///< backtrack flip applied (node re-assigned !value)
  kLearnHit = 3,   ///< learning-cache hit consumed (kLearning only)
};

const char* decision_event_code(DecisionEventKind k);  // "O"/"D"/"B"/"L"

struct DecisionEvent {
  DecisionEventKind kind = DecisionEventKind::kObjective;
  std::uint8_t value = 0;   ///< V3 as 0/1 (learn hits: ok flag)
  std::int32_t frame = 0;   ///< time frame (learn hits: recursion depth)
  std::int32_t node = -1;   ///< NodeId, -1 when not applicable
  std::uint64_t aux = 0;    ///< kind-specific (learn hits: cube key hash)

  bool operator==(const DecisionEvent&) const = default;
};

/// Fixed-capacity last-K recorder with an absolute event counter. Written
/// from exactly one search thread; never shared. Not a concurrency
/// primitive — the monitor reads SearchProgress cells, never the ring.
class DecisionRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit DecisionRing(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    buf_.resize(capacity_);
  }

  /// Clear recorded events and the absolute counter.
  void reset() { total_ = 0; }

  /// Record `e`, overwriting the oldest event once the ring is full.
  void push(const DecisionEvent& e) {
    buf_[static_cast<std::size_t>(total_ % capacity_)] = e;
    ++total_;
  }

  std::size_t capacity() const { return capacity_; }
  /// Absolute number of events pushed since reset().
  std::uint64_t total() const { return total_; }
  /// Kept events, oldest first: absolute indices [total - size, total).
  std::vector<DecisionEvent> window() const;

 private:
  std::size_t capacity_;
  std::vector<DecisionEvent> buf_;
  std::uint64_t total_ = 0;
};

/// Everything needed to re-run one fault attempt and compare decision
/// streams. Serialized as `satpg.search_capture.v1`.
struct SearchCapture {
  std::string schema = "satpg.search_capture.v1";
  std::string circuit;       ///< netlist name
  std::string circuit_path;  ///< source file, when the CLI knows it
  EngineOptions options;
  std::uint64_t seed = 0;          ///< run seed (context only)
  std::uint64_t soft_eval_cap = 0; ///< watchdog cap in force, 0 = none
  std::string config_digest;       ///< fnv1a64 over the replay inputs
  std::string fault;               ///< fault_name(nl, f)
  std::size_t fault_index = 0;     ///< index into collapse_faults(nl)
  std::string reason;              ///< "requested" | "watchdog" | "deadline"
  std::string status;              ///< "detected" | "redundant" | "aborted"
  bool wall_aborted = false;       ///< cut by the wall-clock abort flag
  std::uint64_t abort_check = 0;   ///< 1-based check index of the cut, 0=none
  std::uint64_t evals = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t implications = 0;
  std::size_t ring_capacity = DecisionRing::kDefaultCapacity;
  std::uint64_t ring_total = 0;    ///< absolute events in the capture run
  std::vector<DecisionEvent> events;  ///< the kept window, oldest first
};

/// Digest of the fields replay depends on; recomputed by replay_capture()
/// as a cheap guard against hand-edited captures.
std::string capture_config_digest(const SearchCapture& cap);

/// Build a capture from a finished attempt's ring + metadata. `wall_aborted`
/// is true when the attempt was cut by the wall-clock abort flag (replay
/// then forces the abort at the recorded `abort_check` to reproduce it).
SearchCapture make_capture(const Netlist& nl, const Fault& fault,
                           std::size_t fault_index,
                           const EngineOptions& options,
                           std::uint64_t soft_eval_cap,
                           const std::string& reason, bool wall_aborted,
                           const FaultAttempt& attempt,
                           const DecisionRing& ring);

bool write_capture_json(const std::string& path, const SearchCapture& cap);

/// Parse a capture file. Returns false with a one-line *error on syntax or
/// schema problems.
bool parse_capture_json(const std::string& path, SearchCapture* out,
                        std::string* error);

struct ReplayResult {
  bool ok = false;           ///< streams matched over the whole window
  std::string message;       ///< human-readable verdict / first divergence
  std::uint64_t replayed_events = 0;  ///< absolute event count on replay
  std::int64_t mismatch_index = -1;   ///< absolute index, -1 when ok
  std::string status;        ///< replayed attempt status
  std::vector<DecisionEvent> events;  ///< replayed window (for --dump)
};

/// Re-run the captured attempt on `nl` and compare decision streams.
ReplayResult replay_capture(const Netlist& nl, const SearchCapture& cap);

}  // namespace satpg
