// Tseitin encoding of the iterative time-frame array to CNF.
//
// Mirrors atpg/tfm.h's dual-rail model in clause form: `frames` copies of
// the netlist, a good-rail variable per (frame, live node), and a faulty-
// rail variable only for nodes inside the fault's sequential fanout cone
// (everything else aliases its good variable — the same cone-scoping the
// fault simulator uses). Flip-flop variables at frame t are constrained
// equal to their D input at frame t-1; frame-0 flip-flops are free (pseudo
// primary inputs) and shared between the rails (common power-up). Stuck-at
// faults pin the faulty stem variable with unit clauses in every frame;
// pin faults substitute the stuck constant for the affected fanin slot of
// the faulty gate clause.
//
// Variable allocation order is fixed (rail-major, then frame-major, then
// node-id), so for a given (netlist, fault, frames) the CNF is always the
// same formula — the determinism of the kCdcl engine starts here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/cdcl/solver.h"
#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/statekey.h"

namespace satpg {

class TimeFrameCnf {
 public:
  /// Encodes into `solver` (which must be empty). `fault` absent models
  /// the fault-free machine — single rail, used by state justification.
  TimeFrameCnf(const Netlist& nl, std::optional<Fault> fault, int frames,
               CdclSolver* solver);
  /// The encoder of `other`, bound to `solver` — which must be a copy of
  /// `other`'s solver, so the pair is exactly what a fresh encode into an
  /// empty solver would build.
  TimeFrameCnf(const TimeFrameCnf& other, CdclSolver* solver);
  TimeFrameCnf& operator=(const TimeFrameCnf&) = delete;

  const Netlist& netlist() const { return nl_; }
  int num_frames() const { return frames_; }

  /// Good-rail variable of (frame, node).
  int good(int frame, NodeId node) const {
    return good_[flat(frame, node)];
  }
  /// Faulty-rail variable (== good() outside the fault cone).
  int faulty(int frame, NodeId node) const {
    return faulty_[flat(frame, node)];
  }
  /// Frame-0 value of nl.dffs()[i] — the state the engine must justify.
  int state_var(std::size_t i) const { return good(0, nl_.dffs()[i]); }

  /// Detection objective: at least one PO in the window carries a
  /// good/faulty difference; with `include_boundary`, a difference on a
  /// last-frame flip-flop D input also counts (the kDetectOrStore goal of
  /// the sound single-frame redundancy check). Returns false — and adds
  /// nothing — when no observation point can ever differ, which itself
  /// proves no test exists within this window.
  bool add_detect_objective(bool include_boundary);

  /// Justification target: the D input of flip-flop `ff` must compute
  /// `value` on the good rail at the LAST frame (unit clause).
  void add_justify_target(NodeId ff, bool value);

  /// Forbid the frame-0 state from lying inside `cube` (digit i =
  /// nl.dffs()[i], X digits unconstrained). No-op on the all-X cube.
  /// Returns true when a clause was added.
  bool block_state_cube(const StateKey& cube);

  /// Logical footprint of the encoder's variable maps (element counts x
  /// element sizes, fixed at construction) — the deterministic byte charge
  /// recorded under base/memstats subsystem cnf_encoder. Clause storage is
  /// the solver's and is accounted there.
  std::uint64_t footprint_bytes() const {
    return good_.size() * sizeof(int) + faulty_.size() * sizeof(int) +
           in_cone_.size() * sizeof(char);
  }

 private:
  TimeFrameCnf(const TimeFrameCnf&) = default;
  std::size_t flat(int frame, NodeId node) const {
    return static_cast<std::size_t>(frame) * nl_.num_nodes() +
           static_cast<std::size_t>(node);
  }
  CnfLit const_lit(bool value);
  /// Fresh variable d with d <-> (a XOR b).
  int add_xor(CnfLit a, CnfLit b);
  void encode_equiv(CnfLit y, CnfLit x);
  void encode_gate(GateType t, CnfLit y, const std::vector<CnfLit>& ins);
  void encode_rail(int frame, NodeId id, bool faulty_rail);
  CnfLit rail_fanin(int frame, NodeId id, std::size_t slot, bool faulty_rail);

  const Netlist& nl_;
  std::optional<Fault> fault_;
  int frames_;
  CdclSolver* solver_;
  std::vector<int> good_;
  std::vector<int> faulty_;
  std::vector<char> in_cone_;  ///< per NodeId; empty when fault-free
  int true_var_ = -1;          ///< lazily pinned constant
  std::vector<CnfLit> ins_;    ///< encode_rail() fan-in scratch
  std::vector<CnfLit> wide_;   ///< wide-clause scratch
};

}  // namespace satpg
