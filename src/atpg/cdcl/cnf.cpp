#include "atpg/cdcl/cnf.h"

#include "base/check.h"
#include "base/profiler.h"

namespace satpg {

CnfLit TimeFrameCnf::const_lit(bool value) {
  if (true_var_ < 0) {
    true_var_ = solver_->new_var();
    solver_->add_clause({mk_lit(true_var_)});
  }
  return mk_lit(true_var_, !value);
}

void TimeFrameCnf::encode_equiv(CnfLit y, CnfLit x) {
  solver_->add_clause({lit_not(y), x});
  solver_->add_clause({y, lit_not(x)});
}

int TimeFrameCnf::add_xor(CnfLit a, CnfLit b) {
  const int d = solver_->new_var();
  const CnfLit dl = mk_lit(d);
  solver_->add_clause({lit_not(dl), a, b});
  solver_->add_clause({lit_not(dl), lit_not(a), lit_not(b)});
  solver_->add_clause({dl, lit_not(a), b});
  solver_->add_clause({dl, a, lit_not(b)});
  return d;
}

void TimeFrameCnf::encode_gate(GateType t, CnfLit y,
                               const std::vector<CnfLit>& ins) {
  std::vector<CnfLit>& big = wide_;
  switch (t) {
    case GateType::kBuf:
    case GateType::kOutput:
      encode_equiv(y, ins[0]);
      return;
    case GateType::kNot:
      encode_equiv(y, lit_not(ins[0]));
      return;
    case GateType::kAnd:
    case GateType::kNand: {
      const CnfLit out = t == GateType::kNand ? lit_not(y) : y;
      big.assign(1, out);
      for (const CnfLit x : ins) {
        solver_->add_clause({lit_not(out), x});
        big.push_back(lit_not(x));
      }
      solver_->add_clause(big.data(), big.size());
      return;
    }
    case GateType::kOr:
    case GateType::kNor: {
      const CnfLit out = t == GateType::kNor ? lit_not(y) : y;
      big.assign(1, lit_not(out));
      for (const CnfLit x : ins) {
        solver_->add_clause({out, lit_not(x)});
        big.push_back(x);
      }
      solver_->add_clause(big.data(), big.size());
      return;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      // Chain through auxiliaries, then tie y (or its negation) to the
      // final parity.
      CnfLit acc = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i)
        acc = mk_lit(add_xor(acc, ins[i]));
      encode_equiv(y, t == GateType::kXnor ? lit_not(acc) : acc);
      return;
    }
    default:
      SATPG_CHECK_MSG(false, "unencodable gate type");
  }
}

CnfLit TimeFrameCnf::rail_fanin(int frame, NodeId id, std::size_t slot,
                                bool faulty_rail) {
  if (faulty_rail && fault_.has_value() && fault_->node == id &&
      fault_->pin == static_cast<int>(slot))
    return const_lit(fault_->stuck1);
  const NodeId src = nl_.node(id).fanins[slot];
  const int var = faulty_rail ? faulty_[flat(frame, src)]
                              : good_[flat(frame, src)];
  return mk_lit(var);
}

void TimeFrameCnf::encode_rail(int frame, NodeId id, bool faulty_rail) {
  const Node& n = nl_.node(id);
  const int var =
      faulty_rail ? faulty_[flat(frame, id)] : good_[flat(frame, id)];
  const CnfLit y = mk_lit(var);

  // Stem fault: the faulty output is the stuck constant in every frame,
  // regardless of gate function.
  if (faulty_rail && fault_.has_value() && fault_->node == id &&
      fault_->pin < 0) {
    solver_->add_clause({mk_lit(var, !fault_->stuck1)});
    return;
  }

  switch (n.type) {
    case GateType::kInput:
      return;  // free
    case GateType::kConst0:
      solver_->add_clause({lit_not(y)});
      return;
    case GateType::kConst1:
      solver_->add_clause({y});
      return;
    case GateType::kDff:
      // Frame 0 is a free pseudo primary input; later frames latch the
      // previous frame's D value.
      if (frame > 0)
        encode_equiv(y, rail_fanin(frame - 1, id, 0, faulty_rail));
      return;
    default: {
      ins_.clear();
      for (std::size_t s = 0; s < n.fanins.size(); ++s)
        ins_.push_back(rail_fanin(frame, id, s, faulty_rail));
      encode_gate(n.type, y, ins_);
      return;
    }
  }
}

TimeFrameCnf::TimeFrameCnf(const TimeFrameCnf& other, CdclSolver* solver)
    : TimeFrameCnf(other) {
  solver_ = solver;
}

TimeFrameCnf::TimeFrameCnf(const Netlist& nl, std::optional<Fault> fault,
                           int frames, CdclSolver* solver)
    : nl_(nl), fault_(std::move(fault)), frames_(frames), solver_(solver) {
  PhaseSpan span(ProfPhase::kCdclEncode);
  SATPG_CHECK(frames_ >= 1);
  const std::size_t total =
      static_cast<std::size_t>(frames_) * nl_.num_nodes();
  good_.assign(total, -1);
  faulty_.assign(total, -1);

  // Good rail: one variable per (frame, live node), frame-major then
  // node-id order.
  for (int f = 0; f < frames_; ++f)
    for (NodeId id = 0; id < static_cast<NodeId>(nl_.num_nodes()); ++id) {
      if (nl_.node(id).dead) continue;
      good_[flat(f, id)] = solver_->new_var({f, id});
    }

  // Faulty rail: variables only inside the sequential fanout cone; frame-0
  // flip-flops in the cone share the good variable (common power-up)
  // unless the fault pins the flip-flop's own output.
  if (fault_.has_value()) {
    const BitVec& cone = nl_.fanout_cones()[
        static_cast<std::size_t>(fault_->node)];
    in_cone_.assign(nl_.num_nodes(), 0);
    for (NodeId id = 0; id < static_cast<NodeId>(nl_.num_nodes()); ++id)
      if (!nl_.node(id).dead && cone.get(static_cast<std::size_t>(id)))
        in_cone_[static_cast<std::size_t>(id)] = 1;
    const bool stem_on_fault_node = fault_->pin < 0;
    for (int f = 0; f < frames_; ++f)
      for (NodeId id = 0; id < static_cast<NodeId>(nl_.num_nodes()); ++id) {
        if (nl_.node(id).dead) continue;
        if (!in_cone_[static_cast<std::size_t>(id)]) {
          faulty_[flat(f, id)] = good_[flat(f, id)];
          continue;
        }
        const bool common_powerup =
            f == 0 && nl_.node(id).type == GateType::kDff &&
            !(stem_on_fault_node && fault_->node == id);
        faulty_[flat(f, id)] = common_powerup ? good_[flat(f, id)]
                                              : solver_->new_var({f, id});
      }
  } else {
    faulty_ = good_;
  }

  // Clauses, same deterministic order as allocation.
  for (int f = 0; f < frames_; ++f)
    for (NodeId id = 0; id < static_cast<NodeId>(nl_.num_nodes()); ++id) {
      if (nl_.node(id).dead) continue;
      encode_rail(f, id, /*faulty_rail=*/false);
      if (fault_.has_value() && in_cone_[static_cast<std::size_t>(id)] &&
          faulty_[flat(f, id)] != good_[flat(f, id)])
        encode_rail(f, id, /*faulty_rail=*/true);
    }
}

bool TimeFrameCnf::add_detect_objective(bool include_boundary) {
  SATPG_CHECK(fault_.has_value());
  std::vector<CnfLit> any;
  for (int f = 0; f < frames_; ++f)
    for (const NodeId po : nl_.outputs()) {
      const int g = good_[flat(f, po)];
      const int fv = faulty_[flat(f, po)];
      if (fv != g) any.push_back(mk_lit(add_xor(mk_lit(g), mk_lit(fv))));
    }
  if (include_boundary) {
    const int f = frames_ - 1;
    for (const NodeId dff : nl_.dffs()) {
      // A pin fault on the flip-flop's own D input diverges what gets
      // LATCHED, not the D line itself: the stored faulty value is the
      // stuck constant, so the difference condition is "good D line holds
      // the opposite of the stuck value".
      if (fault_->node == dff && fault_->pin == 0) {
        const NodeId d = nl_.node(dff).fanins[0];
        any.push_back(mk_lit(good_[flat(f, d)], fault_->stuck1));
        continue;
      }
      const NodeId d = nl_.node(dff).fanins[0];
      const int g = good_[flat(f, d)];
      const int fv = faulty_[flat(f, d)];
      if (fv != g) any.push_back(mk_lit(add_xor(mk_lit(g), mk_lit(fv))));
    }
  }
  if (any.empty()) return false;
  solver_->add_clause(any.data(), any.size());
  return true;
}

void TimeFrameCnf::add_justify_target(NodeId ff, bool value) {
  SATPG_DCHECK(nl_.node(ff).type == GateType::kDff);
  const NodeId d = nl_.node(ff).fanins[0];
  solver_->add_clause({mk_lit(good_[flat(frames_ - 1, d)], !value)});
}

bool TimeFrameCnf::block_state_cube(const StateKey& cube) {
  SATPG_DCHECK(cube.size() == nl_.num_dffs());
  std::vector<CnfLit>& clause = wide_;
  clause.clear();
  for (std::size_t i = 0; i < cube.size(); ++i) {
    const V3 v = cube.get(i);
    if (v == V3::kX) continue;
    clause.push_back(mk_lit(state_var(i), v == V3::kOne));
  }
  if (clause.empty()) return false;
  solver_->add_clause(clause.data(), clause.size());
  return true;
}

}  // namespace satpg
