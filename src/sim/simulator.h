// Three-valued levelized sequential logic simulation, and the one gate fold
// and stuck-at overlay behind every reference evaluator.
//
// Circuits in this study are small (tens of FFs, hundreds of gates), so the
// good-machine simulator performs a full levelized sweep per cycle rather
// than event scheduling — simpler, branch-predictable, and fast enough that
// the ATPG engines, not simulation, dominate experiment time. The parallel
// fault simulator (src/fsim) adds the bit-parallel machinery where
// throughput actually matters.
//
// fold_gate is the only gate truth table outside the production kernels
// (the time-frame model, the wide fault-simulation kernels and the CNF
// encoder): SeqSimulator, the serial fault simulator, the 64-slot
// reference's batches, retiming's initial values and the BDD node
// functions (analysis/bddcircuit) all evaluate through it, each over its
// own value algebra. sweep is the only single-stuck-at overlay: SeqSimulator
// runs it over V3 values and build_node_functions over BDDs.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/value.h"

namespace satpg {

/// The three-valued algebra for fold_gate. An algebra supplies a Value
/// type and constant/not_/and_/or_/xor_; the 64-slot fault simulator
/// (fsim.cpp) and analysis/bddcircuit define theirs beside their callers.
struct V3Algebra {
  using Value = V3;
  V3 constant(bool one) const { return one ? V3::kOne : V3::kZero; }
  V3 not_(V3 a) const { return v3_not(a); }
  V3 and_(V3 a, V3 b) const { return v3_and(a, b); }
  V3 or_(V3 a, V3 b) const { return v3_or(a, b); }
  V3 xor_(V3 a, V3 b) const { return v3_xor(a, b); }
};

/// A combinational gate (or a PO marker, which passes its fan-in through)
/// of type `t` over its `n` fan-in values, read in pin order as in(0..n).
/// AND/OR/XOR families are a left fold in pin order with the inversion
/// last, which fixes the operation order of the BDD algebra too.
template <class Alg, class In>
typename Alg::Value fold_gate(const Alg& alg, GateType t, std::size_t n,
                              In in) {
  using Value = typename Alg::Value;
  const auto fold = [&](auto op) {
    Value v = in(0);
    for (std::size_t k = 1; k < n; ++k) v = op(v, in(k));
    return v;
  };
  const auto and_ = [&](Value a, Value b) { return alg.and_(a, b); };
  const auto or_ = [&](Value a, Value b) { return alg.or_(a, b); };
  const auto xor_ = [&](Value a, Value b) { return alg.xor_(a, b); };
  switch (t) {
    case GateType::kConst0:
      return alg.constant(false);
    case GateType::kConst1:
      return alg.constant(true);
    case GateType::kBuf:
    case GateType::kOutput:
      return in(0);
    case GateType::kNot:
      return alg.not_(in(0));
    case GateType::kAnd:
      return fold(and_);
    case GateType::kNand:
      return alg.not_(fold(and_));
    case GateType::kOr:
      return fold(or_);
    case GateType::kNor:
      return alg.not_(fold(or_));
    case GateType::kXor:
      return fold(xor_);
    case GateType::kXnor:
      return alg.not_(fold(xor_));
    default:
      SATPG_CHECK_MSG(false, "fold_gate: not a combinational gate");
  }
  return alg.constant(false);
}

/// One combinational sweep with `fault`, if any, overlaid: the single
/// stuck-at model written once. The caller has loaded `val`'s PI and FF
/// entries. A PI or FF stem fault pins that source; then every gate and PO
/// marker of c.eval is folded in topological order, a pin fault forced on
/// the faulted node's fan-in (a PO marker's pin-0 fault included) and a
/// gate or constant stem fault forced on the result. A DFF D-pin fault is
/// the caller's to force when it clocks.
template <class Alg>
void sweep(const Alg& alg, const CompiledNetlist& c,
           const std::optional<Fault>& fault,
           std::vector<typename Alg::Value>& val) {
  using Value = typename Alg::Value;
  const std::size_t site =
      fault ? static_cast<std::size_t>(fault->node) : val.size();
  const Value stuck = alg.constant(fault && fault->stuck1);
  if (fault && fault->pin < 0 &&
      (c.type[site] == GateType::kInput || c.type[site] == GateType::kDff))
    val[site] = stuck;
  for (NodeId id : c.eval) {
    const auto u = static_cast<std::size_t>(id);
    const auto fanins = c.fanins(id);
    const auto pin = [&](std::size_t k) {
      return val[static_cast<std::size_t>(fanins[k])];
    };
    if (u != site) {
      val[u] = fold_gate(alg, c.type[u], fanins.size(), pin);
      continue;
    }
    Value v = fold_gate(alg, c.type[u], fanins.size(), [&](std::size_t k) {
      return static_cast<int>(k) == fault->pin ? stuck : pin(k);
    });
    if (fault->pin < 0 && c.type[u] != GateType::kOutput) v = stuck;
    val[u] = v;
  }
}

/// Sequential three-valued simulator with explicit state, of the good
/// machine or, given a fault, of the faulty one.
///
/// Usage:
///   SeqSimulator sim(nl);
///   sim.reset_to_init();                 // FF init values (often all-X)
///   auto pos = sim.step(pi_values);      // one clock cycle
///
/// step() evaluates the combinational logic from the current state and the
/// given PI values, returns PO values, and advances FF state to the D
/// values (edge-triggered semantics: all FFs clock simultaneously).
class SeqSimulator {
 public:
  explicit SeqSimulator(const Netlist& nl,
                        std::optional<Fault> fault = std::nullopt);

  /// Load FF state from each DFF's FfInit field.
  void reset_to_init();

  /// Set the state explicitly; `state[i]` corresponds to nl.dffs()[i].
  void set_state(const std::vector<V3>& state);
  const std::vector<V3>& state() const { return state_; }

  /// Fully-specified state as a bit string (CHECKs no X bits), LSB = dff[0].
  std::string state_string() const;

  /// Apply one input vector (pi[i] corresponds to nl.inputs()[i]); returns
  /// PO values in nl.outputs() order and clocks the flip-flops.
  std::vector<V3> step(const std::vector<V3>& pi);

  /// Like step() but does not clock the FFs (pure combinational evaluate).
  std::vector<V3> eval_outputs(const std::vector<V3>& pi);

  /// Value of an arbitrary node after the most recent evaluation.
  V3 value(NodeId id) const { return values_[static_cast<std::size_t>(id)]; }
  /// Every node's value after the most recent evaluation.
  const std::vector<V3>& values() const { return values_; }

  /// Next-state values from the most recent evaluation: each DFF's D
  /// input, or the stuck value of a D-pin fault.
  std::vector<V3> next_state() const;

  const Netlist& netlist() const { return nl_; }

 private:
  void evaluate(const std::vector<V3>& pi);
  V3 next_state_bit(std::size_t i) const;

  const Netlist& nl_;
  std::optional<Fault> fault_;
  std::vector<V3> state_;   // per DFF, indexed as nl.dffs()
  std::vector<V3> values_;  // per node, after evaluate()
};

/// Convenience: simulate an input sequence from the initial state and return
/// the PO response matrix (one row per cycle).
std::vector<std::vector<V3>> simulate_sequence(
    const Netlist& nl, const std::vector<std::vector<V3>>& inputs);

}  // namespace satpg
