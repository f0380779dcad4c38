// Three-valued levelized sequential logic simulation.
//
// Circuits in this study are small (tens of FFs, hundreds of gates), so the
// good-machine simulator performs a full levelized sweep per cycle rather
// than event scheduling — simpler, branch-predictable, and fast enough that
// the ATPG engines, not simulation, dominate experiment time. The parallel
// fault simulator (src/fsim) adds the bit-parallel machinery where
// throughput actually matters.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "sim/value.h"

namespace satpg {

/// Evaluate one combinational gate (or pass a PO marker's fanin through)
/// over V3 fanin values.
V3 eval_gate_v3(GateType t, std::span<const NodeId> fanins,
                const std::vector<V3>& values);

/// Evaluate over already-gathered fanin values (`vals[0..n)` in pin
/// order). Lets callers that stage fanins in a scratch buffer — the fault
/// simulator's cone-restricted batches and forced-pin re-evaluation —
/// avoid a netlist-sized value array per evaluation.
V3 eval_gate_v3_packed(GateType t, const V3* vals, std::size_t n);
PV eval_gate_pv_packed(GateType t, const PV* vals, std::size_t n);

/// Sequential three-valued simulator with explicit state.
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
  explicit SeqSimulator(const Netlist& nl);

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

  /// Next-state (D input) values from the most recent evaluation.
  std::vector<V3> next_state() const;

  const Netlist& netlist() const { return nl_; }

 private:
  void evaluate(const std::vector<V3>& pi);

  const Netlist& nl_;
  std::vector<V3> state_;   // per DFF, indexed as nl.dffs()
  std::vector<V3> values_;  // per node, after evaluate()
};

/// Convenience: simulate an input sequence from the initial state and return
/// the PO response matrix (one row per cycle).
std::vector<std::vector<V3>> simulate_sequence(
    const Netlist& nl, const std::vector<std::vector<V3>>& inputs);

}  // namespace satpg
