#include "sim/simulator.h"

namespace satpg {

SeqSimulator::SeqSimulator(const Netlist& nl, std::optional<Fault> fault)
    : nl_(nl),
      fault_(fault),
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
  sweep(V3Algebra{}, nl_.compiled(), fault_, values_);
}

std::vector<V3> SeqSimulator::eval_outputs(const std::vector<V3>& pi) {
  evaluate(pi);
  std::vector<V3> out;
  out.reserve(nl_.num_outputs());
  for (NodeId id : nl_.outputs())
    out.push_back(values_[static_cast<std::size_t>(id)]);
  return out;
}

V3 SeqSimulator::next_state_bit(std::size_t i) const {
  const NodeId ff = nl_.dffs()[i];
  if (fault_ && fault_->node == ff && fault_->pin == 0)
    return fault_->stuck1 ? V3::kOne : V3::kZero;  // D-pin fault
  return values_[static_cast<std::size_t>(nl_.node(ff).fanins[0])];
}

std::vector<V3> SeqSimulator::next_state() const {
  std::vector<V3> ns(nl_.num_dffs());
  for (std::size_t i = 0; i < ns.size(); ++i) ns[i] = next_state_bit(i);
  return ns;
}

std::vector<V3> SeqSimulator::step(const std::vector<V3>& pi) {
  auto out = eval_outputs(pi);
  for (std::size_t i = 0; i < state_.size(); ++i) state_[i] = next_state_bit(i);
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
