#include "atpg/podem.h"

#include <algorithm>

#include "atpg/capture.h"
#include "base/metrics.h"
#include "base/profiler.h"

namespace satpg {

const char* search_phase_name(SearchPhase p) {
  switch (p) {
    case SearchPhase::kIdle:
      return "idle";
    case SearchPhase::kWindow:
      return "window";
    case SearchPhase::kJustify:
      return "justify";
    case SearchPhase::kRedundancy:
      return "redundancy";
  }
  return "idle";
}

namespace {

inline std::uint8_t v3_bit(V3 v) { return v == V3::kOne ? 1 : 0; }

inline void ring_push(PodemBudget& budget, DecisionEventKind kind, int frame,
                      NodeId node, V3 value, std::uint64_t aux) {
  if (budget.ring == nullptr) return;
  budget.ring->push({kind, v3_bit(value), static_cast<std::int32_t>(frame),
                     static_cast<std::int32_t>(node), aux});
}

inline void publish_progress(PodemBudget& budget) {
  if (budget.progress == nullptr) return;
  budget.progress->evals.store(budget.evals, std::memory_order_relaxed);
  budget.progress->backtracks.store(budget.backtracks,
                                    std::memory_order_relaxed);
  budget.progress->implications.store(budget.decisions,
                                      std::memory_order_relaxed);
}

}  // namespace

Podem::Podem(TimeFrameModel& tfm, const Scoap& scoap,
             bool allow_state_decisions, PodemGoal goal,
             std::vector<std::pair<NodeId, V3>> just_targets)
    : tfm_(tfm),
      scoap_(scoap),
      allow_state_(allow_state_decisions),
      goal_(goal),
      just_targets_(std::move(just_targets)),
      base_mark_(tfm.trail_mark()) {}

void Podem::reset() {
  stack_.clear();
  tfm_.undo_to(base_mark_);
}

bool Podem::goal_met() const {
  switch (goal_) {
    case PodemGoal::kDetect:
      return tfm_.detected_at_po();
    case PodemGoal::kDetectOrStore:
      return tfm_.detected_at_po() || tfm_.d_reaches_boundary();
    case PodemGoal::kJustify: {
      // The justified state has to hold in the faulty machine as well (the
      // fault is active while the initialization prefix runs): the good
      // rail must equal the target and the faulty rail must not contradict
      // it (an X faulty rail is allowed through — final fault-simulation
      // verification arbitrates those).
      const Netlist& nl = tfm_.netlist();
      for (const auto& [ff, want] : just_targets_) {
        const NodeId d = nl.node(ff).fanins[0];
        const V5 v = tfm_.value(0, d);
        if (v.g != want) return false;
        if (v.f != V3::kX && v.f != want) return false;
      }
      return true;
    }
  }
  return false;
}

bool Podem::failed() const {
  switch (goal_) {
    case PodemGoal::kDetect:
      return !tfm_.effect_still_possible(/*allow_boundary=*/false);
    case PodemGoal::kDetectOrStore:
      return !tfm_.effect_still_possible(/*allow_boundary=*/true);
    case PodemGoal::kJustify: {
      const Netlist& nl = tfm_.netlist();
      for (const auto& [ff, want] : just_targets_) {
        const V5 have = tfm_.value(0, nl.node(ff).fanins[0]);
        if (have.g != V3::kX && have.g != want) return true;
        if (have.f != V3::kX && have.f != want) return true;
      }
      return false;
    }
  }
  return false;
}

std::optional<Podem::Objective> Podem::pick_objective() const {
  const Netlist& nl = tfm_.netlist();

  if (goal_ == PodemGoal::kJustify) {
    for (const auto& [ff, want] : just_targets_) {
      const NodeId d = nl.node(ff).fanins[0];
      if (tfm_.value(0, d).g == V3::kX) return Objective{0, d, want};
    }
    // Good rails are all set; a faulty-rail mismatch surfaces through
    // failed(), an X faulty rail through more input assignments — drive an
    // arbitrary unassigned support input... handled by returning nullopt
    // and letting the search backtrack (the faulty rail is a function of
    // the same decision variables; X there means some good-rail X remains
    // upstream, which later objectives bind).
    return std::nullopt;
  }

  const auto& fault = tfm_.fault();
  SATPG_CHECK(fault.has_value());
  const V3 stuck = fault->stuck1 ? V3::kOne : V3::kZero;
  const V3 excite = v3_not(stuck);

  // Is the fault excited anywhere (any D in the model)?
  const bool have_d = !tfm_.d_set().empty();

  if (!have_d) {
    // Excitation: drive the faulted line to the non-stuck value.
    const NodeId line =
        fault->pin >= 0
            ? nl.node(fault->node)
                  .fanins[static_cast<std::size_t>(fault->pin)]
            : fault->node;
    for (int t = 0; t < tfm_.num_frames(); ++t)
      if (tfm_.value(t, line).g == V3::kX) return Objective{t, line, excite};
    // Line already excited somewhere but the fault effect is masked at the
    // host gate (pin faults): unblock the host gate's other inputs.
    if (fault->pin >= 0) {
      const auto& host = nl.node(fault->node);
      const V3 noncontrol =
          (host.type == GateType::kAnd || host.type == GateType::kNand)
              ? V3::kOne
              : (host.type == GateType::kOr || host.type == GateType::kNor)
                    ? V3::kZero
                    : V3::kZero;
      for (int t = 0; t < tfm_.num_frames(); ++t) {
        if (tfm_.value(t, line).g != excite) continue;
        for (std::size_t k = 0; k < host.fanins.size(); ++k) {
          if (static_cast<int>(k) == fault->pin) continue;
          const NodeId other = host.fanins[k];
          if (tfm_.value(t, other).g == V3::kX)
            return Objective{t, other, noncontrol};
        }
      }
    }
    return std::nullopt;
  }

  // D-frontier: gate with an X-ish output and a D on some input — found by
  // walking the fanouts of the incrementally-maintained D set. Prefer the
  // latest frame and the structurally deepest gate (closest to outputs).
  std::optional<Objective> best;
  int best_frame = -1, best_pos = -1;
  const auto& pos = nl.compiled().topo_pos;

  for (const auto& [t, d_node] : tfm_.d_set()) {
    for (NodeId id : nl.fanouts(d_node)) {
      const auto& n = nl.node(id);
      if (!is_combinational(n.type)) continue;
      const V5 out = tfm_.value(t, id);
      if (!out.any_x()) continue;
      // Pick an X side-input and its non-controlling value.
      V3 noncontrol;
      switch (n.type) {
        case GateType::kAnd:
        case GateType::kNand:
          noncontrol = V3::kOne;
          break;
        case GateType::kOr:
        case GateType::kNor:
          noncontrol = V3::kZero;
          break;
        default:
          noncontrol = V3::kZero;  // XOR-family: any value propagates
      }
      for (NodeId fi : n.fanins) {
        if (tfm_.value(t, fi).g != V3::kX) continue;
        if (t > best_frame ||
            (t == best_frame && pos[static_cast<std::size_t>(id)] > best_pos)) {
          best = Objective{t, fi, noncontrol};
          best_frame = t;
          best_pos = pos[static_cast<std::size_t>(id)];
        }
        break;
      }
    }
  }
  return best;
}

std::optional<Podem::Objective> Podem::backtrace(Objective obj) const {
  PhaseSpan prof_span(ProfPhase::kPodemBacktrace);
  const Netlist& nl = tfm_.netlist();
  int frame = obj.frame;
  NodeId node = obj.node;
  V3 v = obj.value;
  for (std::size_t guard = 0;
       guard < nl.num_nodes() * static_cast<std::size_t>(tfm_.num_frames()) +
                   16;
       ++guard) {
    const auto& n = nl.node(node);
    switch (n.type) {
      case GateType::kInput:
        return Objective{frame, node, v};
      case GateType::kDff:
        if (frame == 0)
          return allow_state_ ? std::optional<Objective>({0, node, v})
                              : std::nullopt;
        node = n.fanins[0];
        --frame;
        break;
      case GateType::kOutput:
      case GateType::kBuf:
        node = n.fanins[0];
        break;
      case GateType::kNot:
        node = n.fanins[0];
        v = v3_not(v);
        break;
      case GateType::kConst0:
      case GateType::kConst1:
        return std::nullopt;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool inverted =
            n.type == GateType::kNand || n.type == GateType::kNor;
        const bool and_like =
            n.type == GateType::kAnd || n.type == GateType::kNand;
        const V3 veff = inverted ? v3_not(v) : v;
        // and_like: veff==1 needs ALL inputs 1 (pick hardest X input);
        // veff==0 needs ONE input 0 (pick easiest X input). OR dual.
        const bool need_all = and_like ? (veff == V3::kOne)
                                       : (veff == V3::kZero);
        const V3 child_v = and_like ? (need_all ? V3::kOne : V3::kZero)
                                    : (need_all ? V3::kZero : V3::kOne);
        NodeId choice = kNoNode;
        double best_cost = 0.0;
        for (NodeId fi : n.fanins) {
          if (tfm_.value(frame, fi).g != V3::kX) continue;
          const double cost =
              child_v == V3::kOne
                  ? scoap_.cc1[static_cast<std::size_t>(fi)]
                  : scoap_.cc0[static_cast<std::size_t>(fi)];
          const bool better = choice == kNoNode ||
                              (need_all ? cost > best_cost
                                        : cost < best_cost);
          if (better) {
            choice = fi;
            best_cost = cost;
          }
        }
        if (choice == kNoNode) return std::nullopt;
        node = choice;
        v = child_v;
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Choose an X input; the value needed depends on the other inputs'
        // current parity (X siblings treated as 0 — heuristic, corrected by
        // later decisions or backtracking).
        NodeId choice = kNoNode;
        V3 parity = n.type == GateType::kXnor ? V3::kOne : V3::kZero;
        for (NodeId fi : n.fanins) {
          const V3 val = tfm_.value(frame, fi).g;
          if (val == V3::kX && choice == kNoNode) {
            choice = fi;
          } else if (val == V3::kOne) {
            parity = v3_not(parity);
          }
        }
        if (choice == kNoNode) return std::nullopt;
        node = choice;
        v = (parity == v) ? V3::kZero : V3::kOne;
        break;
      }
    }
  }
  return std::nullopt;  // structural anomaly guard
}

bool Podem::backtrack(PodemBudget& budget) {
  ++budget.backtracks;
  if (metrics_enabled()) {
    static MetricsRegistry::Counter& c =
        MetricsRegistry::global().counter("podem.backtracks");
    c.add();
  }
  while (!stack_.empty()) {
    Decision& top = stack_.back();
    tfm_.undo_to(top.mark);
    if (!top.flipped) {
      top.flipped = true;
      top.value = v3_not(top.value);
      top.mark = tfm_.assign(top.frame, top.node, top.value);
      ++budget.decisions;
      ring_push(budget, DecisionEventKind::kBacktrack, top.frame, top.node,
                top.value, stack_.size());
      return true;
    }
    stack_.pop_back();
  }
  return false;
}

PodemStatus Podem::run(PodemBudget& budget) {
  for (;;) {
    publish_progress(budget);
    if (budget.exhausted_evals() || budget.exhausted_backtracks() ||
        budget.mem_exceeded() || budget.aborted_externally())
      return PodemStatus::kAborted;
    if (goal_met()) return PodemStatus::kSuccess;
    std::optional<Objective> obj;
    if (!failed()) obj = pick_objective();
    if (obj) {
      ring_push(budget, DecisionEventKind::kObjective, obj->frame, obj->node,
                obj->value, 0);
      const auto dec = backtrace(*obj);
      if (dec) {
        const std::size_t mark = tfm_.assign(dec->frame, dec->node,
                                             dec->value);
        stack_.push_back({dec->frame, dec->node, dec->value, false, mark});
        ++budget.decisions;
        ring_push(budget, DecisionEventKind::kDecision, dec->frame, dec->node,
                  dec->value, stack_.size());
        if (metrics_enabled()) {
          static MetricsRegistry::Counter& c =
              MetricsRegistry::global().counter("podem.decisions");
          c.add();
        }
        continue;
      }
    }
    if (!backtrack(budget)) return PodemStatus::kExhausted;
  }
}

PodemStatus Podem::search(PodemBudget& budget) { return run(budget); }

PodemStatus Podem::resume(PodemBudget& budget) {
  if (!backtrack(budget)) return PodemStatus::kExhausted;
  return run(budget);
}

}  // namespace satpg
