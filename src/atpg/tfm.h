// Dual-rail time-frame model: the iterative-array circuit expansion that
// every structural sequential ATPG in this study is built on.
//
// Values are pairs (good, faulty) of three-valued logic — the classic
// 5-valued D-calculus {0,1,X,D,D'} plus the partially-known combinations.
// The target fault (when present) is injected on the faulty rail in every
// frame: stuck-at faults are permanent.
//
// The model holds a window of frames [0, num_frames). Frame 0's flip-flop
// values are *pseudo primary inputs* — free variables a HITEC-style engine
// decides on and later justifies. Assignments are made only on decision
// variables (a PI at any frame, or a frame-0 FF), with a trail for O(1)
// backtracking.
//
// Implication is forward event propagation over the netlist's compiled form
// (Netlist::compiled(): CSR fan-in/fan-out arrays, fixed-width fan-in rows,
// gate types and levels), which every model of one netlist shares and no
// copy duplicates. Each node has a combinational level: PIs, FFs and
// constants are 0, a gate is one more than its deepest fan-in. Every frame
// keeps its dirty nodes in per-level buckets, and propagate() sweeps the
// frames in order and each frame's levels upward. Only level 0 switches on
// the node type. A gate above it folds both rails from the set of values
// on its fan-ins: an AND/OR-family gate, BUF/NOT or PO marker with at most
// four fan-ins reads its fixed four-slot row (spare slots repeat fan-in 0)
// with four unconditional loads, and the fault's host, XOR/XNOR and wider
// gates take a pass over the CSR fan-ins that also tracks parity and the
// faulted pin. The sweep is one loop over locals: evaluation, the trail
// write and the queueing are written out in it, and a changed node's
// fan-outs resolve in one pass — a gate sink is queued at its level in the
// same frame, a FF sink directly into the next frame at level 0. A changed
// node thus dirties only higher levels of its own frame and the FFs it
// feeds in the next frame, so every node is evaluated after its fan-ins
// have settled and at most once per propagate.
//
// Eval-count contract (the study's deterministic work metric, and the
// currency of every eval budget): an assign() evaluates exactly the
// decision itself, every (frame, node) with a same-frame fan-in whose value
// changed, and every FF at frame t whose D driver changed at frame t-1. A
// fresh model evaluates every live node once per frame. The sweep order
// does not enter the count, the values or the D-set.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/value.h"

namespace satpg {

/// Dual-rail value.
struct V5 {
  V3 g = V3::kX;  ///< good machine
  V3 f = V3::kX;  ///< faulty machine
  bool operator==(const V5&) const = default;

  bool is_d() const {  // D or D': both known, different
    return g != V3::kX && f != V3::kX && g != f;
  }
  bool any_x() const { return g == V3::kX || f == V3::kX; }
};

class TimeFrameModel {
 public:
  /// `fault` absent models the fault-free machine (used by justification).
  TimeFrameModel(const Netlist& nl, std::optional<Fault> fault,
                 int num_frames);
  /// Tag for a template: a model built once and then only copied. A
  /// template never flushes into the "tfm.evals" registry counter; each
  /// copy carries the template's evals() and flushes them on destruction,
  /// so a copy counts exactly as a fresh model would.
  struct Template {};
  TimeFrameModel(Template, const Netlist& nl, std::optional<Fault> fault,
                 int num_frames);
  /// A copy is never a template, whatever it was copied from.
  TimeFrameModel(const TimeFrameModel&) = default;
  TimeFrameModel& operator=(const TimeFrameModel&) = delete;
  /// Flushes this model's eval count into the "tfm.evals" registry counter
  /// (one bulk add per model, never per evaluation), unless it is a
  /// template.
  ~TimeFrameModel();

  const Netlist& netlist() const { return nl_; }
  int num_frames() const { return num_frames_; }

  V5 value(int frame, NodeId node) const {
    return values_[flat(frame, node)];
  }

  /// Assign a decision variable: a PI at any frame or a FF at frame 0.
  /// Both rails take `v` (stem faults on the variable keep the faulty rail
  /// pinned). Returns the trail mark to undo to.
  std::size_t assign(int frame, NodeId node, V3 v);

  /// Undo assignments/propagations back to `mark`.
  void undo_to(std::size_t mark);
  std::size_t trail_mark() const { return trail_.size(); }

  bool is_decision_var(int frame, NodeId node) const;
  /// Current decision value (X when unassigned).
  V3 decision_value(int frame, NodeId node) const;

  /// Total node evaluations performed — the study's deterministic work
  /// metric ("CPU seconds" proxy).
  std::uint64_t evals() const { return evals_; }

  /// Logical footprint of the window's dense arrays (element counts x
  /// element sizes, fixed at construction) — the deterministic byte charge
  /// a search phase records against base/memstats: the value and decision
  /// planes, the topological index, one live-node list and the dirty flags.
  /// The compiled netlist and the level buckets are not charged, as the
  /// dirty-queue heaps they replaced were not.
  std::uint64_t footprint_bytes() const {
    return values_.size() * sizeof(V5) + decisions_.size() * sizeof(V3) +
           c_.topo_pos.size() * sizeof(int) +
           c_.topo.size() * sizeof(NodeId) +
           in_queue_.size() * sizeof(Queued);
  }

  /// Mirror every evaluation into an external counter as well (e.g. the
  /// fault-cumulative PodemBudget::evals, which outlives any one model).
  /// Pass nullptr to detach. The counter must outlive the attachment.
  void attach_eval_counter(std::uint64_t* counter) {
    external_evals_ = counter;
  }

  /// Fault-effect presence: any D/D' on a PO marker within the window.
  bool detected_at_po() const;
  /// Any D/D' on a D-input of the last frame's flip-flops (effect would
  /// cross into the next frame).
  bool d_reaches_boundary() const;

  /// Conservative X-path check: can the fault effect still reach a PO in
  /// the window, or the window boundary (when `allow_boundary`)? Also true
  /// while the fault is not yet excited but still excitable.
  bool effect_still_possible(bool allow_boundary) const;

  /// Current (frame, node) pairs carrying D/D' — maintained incrementally
  /// so the PODEM inner loop never rescans the window.
  const std::set<std::pair<int, NodeId>>& d_set() const { return d_set_; }

  const std::optional<Fault>& fault() const { return fault_; }

 private:
  /// A dirty-queue flag: one byte per entry, and not a character type, so
  /// the sweep's stores to it cannot alias the arrays it reads.
  enum class Queued : std::uint8_t { kNo, kYes };

  std::size_t flat(int frame, NodeId node) const {
    return static_cast<std::size_t>(frame) * n_ +
           static_cast<std::size_t>(node);
  }
  /// Queue (frame, node) at its level (assign() and the initial settle;
  /// propagate() queues inline).
  void mark_dirty(int frame, NodeId node);
  void propagate();

  const Netlist& nl_;
  const CompiledNetlist& c_;  ///< nl_.compiled(), shared by every model
  std::size_t n_;             ///< nl_.num_nodes(): the stride of a frame
  std::optional<Fault> fault_;
  int num_frames_;
  std::vector<V5> values_;
  std::vector<V3> decisions_;  ///< per flat index; X = unassigned

  // The fault, unpacked for the evaluation loop.
  NodeId fault_node_ = kNoNode;
  int fault_pin_ = -1;  ///< -1: stem fault
  V3 stuck_ = V3::kZero;

  // Dirty queue. Each frame owns one bucket slot per live node,
  // partitioned by level as c_.level_start says, a fill count per level,
  // and the range [lo_, hi_] of levels that may be non-empty.
  std::vector<NodeId> bucket_;
  std::vector<std::uint32_t> fill_;  ///< frame * num_levels + level
  std::vector<std::uint32_t> lo_, hi_;
  std::vector<Queued> in_queue_;  ///< per flat index

  struct TrailEntry {
    std::uint32_t idx;  ///< flat index; the constructor checks it fits
    V5 old_value;
    bool decision;
  };
  static_assert(sizeof(TrailEntry) == 8);
  std::vector<TrailEntry> trail_;

  std::set<std::pair<int, NodeId>> d_set_;

  // effect_still_possible()'s walk, reused across calls: a per flat index
  // mark (all zero between calls, sized on first use), the DFS stack and
  // the flat indices the walk marked, which it clears again. Scratch only:
  // none of it is charged to footprint_bytes().
  mutable std::vector<char> reach_seen_;
  mutable std::vector<std::pair<int, NodeId>> reach_stack_;
  mutable std::vector<std::size_t> reach_marked_;

  std::uint64_t evals_ = 0;
  std::uint64_t* external_evals_ = nullptr;

  /// Set only by the Template constructor; copying yields an unset flag.
  struct TemplateFlag {
    bool set = false;
    TemplateFlag() = default;
    TemplateFlag(const TemplateFlag&) {}
    TemplateFlag& operator=(const TemplateFlag&) = delete;
  };
  TemplateFlag template_;
};

}  // namespace satpg
