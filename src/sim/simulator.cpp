#include "sim/simulator.h"

namespace satpg {

V3 eval_gate_v3(GateType t, std::span<const NodeId> fanins,
                const std::vector<V3>& values) {
  auto in = [&](std::size_t i) {
    return values[static_cast<std::size_t>(fanins[i])];
  };
  switch (t) {
    case GateType::kConst0:
      return V3::kZero;
    case GateType::kConst1:
      return V3::kOne;
    case GateType::kBuf:
    case GateType::kOutput:
      return in(0);  // PO marker pass-through
    case GateType::kNot:
      return v3_not(in(0));
    case GateType::kAnd:
    case GateType::kNand: {
      V3 v = in(0);
      for (std::size_t i = 1; i < fanins.size(); ++i) v = v3_and(v, in(i));
      return t == GateType::kAnd ? v : v3_not(v);
    }
    case GateType::kOr:
    case GateType::kNor: {
      V3 v = in(0);
      for (std::size_t i = 1; i < fanins.size(); ++i) v = v3_or(v, in(i));
      return t == GateType::kOr ? v : v3_not(v);
    }
    case GateType::kXor:
    case GateType::kXnor: {
      V3 v = in(0);
      for (std::size_t i = 1; i < fanins.size(); ++i) v = v3_xor(v, in(i));
      return t == GateType::kXor ? v : v3_not(v);
    }
    default:
      SATPG_CHECK_MSG(false, "eval_gate_v3: not a combinational gate");
  }
  return V3::kX;
}

V3 eval_gate_v3_packed(GateType t, const V3* vals, std::size_t n) {
  switch (t) {
    case GateType::kConst0:
      return V3::kZero;
    case GateType::kConst1:
      return V3::kOne;
    case GateType::kBuf:
    case GateType::kDff:
    case GateType::kOutput:
      return vals[0];  // D / PO marker pass-through
    case GateType::kNot:
      return v3_not(vals[0]);
    case GateType::kAnd:
    case GateType::kNand: {
      V3 v = vals[0];
      for (std::size_t i = 1; i < n; ++i) v = v3_and(v, vals[i]);
      return t == GateType::kAnd ? v : v3_not(v);
    }
    case GateType::kOr:
    case GateType::kNor: {
      V3 v = vals[0];
      for (std::size_t i = 1; i < n; ++i) v = v3_or(v, vals[i]);
      return t == GateType::kOr ? v : v3_not(v);
    }
    case GateType::kXor:
    case GateType::kXnor: {
      V3 v = vals[0];
      for (std::size_t i = 1; i < n; ++i) v = v3_xor(v, vals[i]);
      return t == GateType::kXor ? v : v3_not(v);
    }
    default:
      SATPG_CHECK_MSG(false, "eval_gate_v3_packed: unexpected gate");
  }
  return V3::kX;
}

PV eval_gate_pv_packed(GateType t, const PV* vals, std::size_t n) {
  switch (t) {
    case GateType::kConst0:
      return PV::all(V3::kZero);
    case GateType::kConst1:
      return PV::all(V3::kOne);
    case GateType::kBuf:
    case GateType::kDff:
    case GateType::kOutput:
      return vals[0];
    case GateType::kNot:
      return pv_not(vals[0]);
    case GateType::kAnd:
    case GateType::kNand: {
      PV v = vals[0];
      for (std::size_t i = 1; i < n; ++i) v = pv_and(v, vals[i]);
      return t == GateType::kAnd ? v : pv_not(v);
    }
    case GateType::kOr:
    case GateType::kNor: {
      PV v = vals[0];
      for (std::size_t i = 1; i < n; ++i) v = pv_or(v, vals[i]);
      return t == GateType::kOr ? v : pv_not(v);
    }
    case GateType::kXor:
    case GateType::kXnor: {
      PV v = vals[0];
      for (std::size_t i = 1; i < n; ++i) v = pv_xor(v, vals[i]);
      return t == GateType::kXor ? v : pv_not(v);
    }
    default:
      SATPG_CHECK_MSG(false, "eval_gate_pv_packed: unexpected gate");
  }
  return PV{};
}

SeqSimulator::SeqSimulator(const Netlist& nl)
    : nl_(nl),
      state_(nl.num_dffs(), V3::kX),
      values_(nl.num_nodes(), V3::kX) {
  nl.compiled();  // pre-build the cache so step() never mutates it
  reset_to_init();
}

void SeqSimulator::reset_to_init() {
  const auto& dffs = nl_.dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    switch (nl_.node(dffs[i]).init) {
      case FfInit::kZero:
        state_[i] = V3::kZero;
        break;
      case FfInit::kOne:
        state_[i] = V3::kOne;
        break;
      case FfInit::kUnknown:
        state_[i] = V3::kX;
        break;
    }
  }
}

void SeqSimulator::set_state(const std::vector<V3>& state) {
  SATPG_CHECK(state.size() == state_.size());
  state_ = state;
}

std::string SeqSimulator::state_string() const {
  std::string s;
  s.reserve(state_.size());
  for (std::size_t i = state_.size(); i-- > 0;) s.push_back(v3_char(state_[i]));
  return s;
}

void SeqSimulator::evaluate(const std::vector<V3>& pi) {
  SATPG_CHECK(pi.size() == nl_.num_inputs());
  const auto& inputs = nl_.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    values_[static_cast<std::size_t>(inputs[i])] = pi[i];
  const auto& dffs = nl_.dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i)
    values_[static_cast<std::size_t>(dffs[i])] = state_[i];
  const CompiledNetlist& c = nl_.compiled();
  for (NodeId id : c.eval) {
    const auto u = static_cast<std::size_t>(id);
    values_[u] = eval_gate_v3(c.type[u], c.fanins(id), values_);
  }
}

std::vector<V3> SeqSimulator::eval_outputs(const std::vector<V3>& pi) {
  evaluate(pi);
  std::vector<V3> out;
  out.reserve(nl_.num_outputs());
  for (NodeId id : nl_.outputs())
    out.push_back(values_[static_cast<std::size_t>(id)]);
  return out;
}

std::vector<V3> SeqSimulator::next_state() const {
  std::vector<V3> ns;
  ns.reserve(nl_.num_dffs());
  for (NodeId id : nl_.dffs())
    ns.push_back(values_[static_cast<std::size_t>(nl_.node(id).fanins[0])]);
  return ns;
}

std::vector<V3> SeqSimulator::step(const std::vector<V3>& pi) {
  auto out = eval_outputs(pi);
  state_ = next_state();
  return out;
}

std::vector<std::vector<V3>> simulate_sequence(
    const Netlist& nl, const std::vector<std::vector<V3>>& inputs) {
  SeqSimulator sim(nl);
  std::vector<std::vector<V3>> out;
  out.reserve(inputs.size());
  for (const auto& pi : inputs) out.push_back(sim.step(pi));
  return out;
}

}  // namespace satpg
