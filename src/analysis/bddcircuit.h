// Shared BDD encoding of a sequential netlist over (present-state, input)
// variables, and the one reachability fixpoint — the substrate for
// reachability (reach.h), the SRF classifier (srf.h), and the sequential
// equivalence checker (seqec.h).
//
// Variable order: present-state bit i at 2i, next-state bit i at 2i+1,
// primary inputs after.
//
// Node functions are built by src/sim's gate fold and stuck-at overlay
// (fold_gate, sweep) over a BDD value algebra, the same code the serial
// fault simulator runs over three-valued values; state_bits forces a D-pin
// fault as the simulator's clock does.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "fault/fault.h"
#include "netlist/netlist.h"

namespace satpg {

struct BddVarMap {
  unsigned num_ffs = 0;
  unsigned num_pis = 0;
  // Strided layout: present-state bit i at ps_base + i*stride, next-state
  // at ps + 1. The default (base 0, stride 2) is the single-machine
  // interleaving; the product-machine analyses place a second machine at
  // base 2 with stride 4.
  unsigned ps_base = 0;
  unsigned stride = 2;
  unsigned in_base = 0;  ///< set by single() or the caller
  unsigned num_vars = 0;

  static BddVarMap single(unsigned ffs, unsigned pis) {
    BddVarMap vm;
    vm.num_ffs = ffs;
    vm.num_pis = pis;
    vm.in_base = 2 * ffs;
    vm.num_vars = 2 * ffs + pis;
    return vm;
  }

  unsigned ps(unsigned i) const { return ps_base + i * stride; }
  unsigned ns(unsigned i) const { return ps(i) + 1; }
  unsigned in(unsigned j) const { return in_base + j; }
  std::vector<unsigned> inputs() const {
    std::vector<unsigned> v;
    for (unsigned j = 0; j < num_pis; ++j) v.push_back(in(j));
    return v;
  }
  unsigned total() const { return num_vars; }
};

/// Build every node's function over (ps, in) variables. When `fault` is
/// given, the returned functions are those of the *faulty* machine (the
/// stuck line is overlaid as src/sim's sweep overlays it, a D-pin fault
/// excepted, which state_bits pins; present-state variables still
/// represent the faulty machine's register contents).
std::vector<BddRef> build_node_functions(
    const Netlist& nl, BddMgr& mgr, const BddVarMap& vm,
    const std::optional<Fault>& fault = std::nullopt);

/// Node `id`'s own function with no fault forcing it: its input or
/// present-state variable in `vm`, or its gate over the fan-in functions
/// `fn` (as build_node_functions returns them).
BddRef node_function(const Netlist& nl, BddMgr& mgr, const BddVarMap& vm,
                     const std::vector<BddRef>& fn, NodeId id);

/// One flip-flop as a conjunct of the transition relation: ns ≡ next.
struct StateBit {
  unsigned ps;   ///< present-state variable
  unsigned ns;   ///< next-state variable (renamed onto ps after an image)
  BddRef next;   ///< next-state function over (ps, in) variables
};

/// The machine's flip-flops in nl.dffs() order, next states read from the
/// node functions `fn`. A D-pin fault (pin 0 of a DFF) pins that
/// flip-flop's next state, which build_node_functions cannot express.
std::vector<StateBit> state_bits(const Netlist& nl, BddMgr& mgr,
                                 const BddVarMap& vm,
                                 const std::vector<BddRef>& fn,
                                 const std::optional<Fault>& fault =
                                     std::nullopt);

/// Conjunction of the DFF init-value literals (kUnknown bits free).
BddRef init_cube(const Netlist& nl, BddMgr& mgr, const BddVarMap& vm);

/// Variable of the primary input named `name`, or none when `name` is
/// empty or names no primary input.
std::optional<unsigned> reset_var(const Netlist& nl, const BddVarMap& vm,
                                  const std::string& name);

/// Reachable-state fixpoint of the machine whose transition relation is
/// the conjunction of `bits` over the input variables `inputs`.
/// Initialization follows the study's convention: with a `reset` variable, the
/// initial set is the rst=1 image fixpoint from the universal set;
/// otherwise `init`. `iterations`, when non-null, accumulates one step per
/// image taken.
///
/// The relation is never built whole. An image conjoins the set with the
/// bits in the order given, and quantifies each present-state or input
/// variable right after the last conjunct whose support holds it
/// (variables in no support go first); the reached fixpoint images only
/// the newly reached frontier.
BddRef compute_reached_set(BddMgr& mgr, const std::vector<StateBit>& bits,
                           const std::vector<unsigned>& inputs,
                           std::optional<unsigned> reset, BddRef init,
                           int* iterations = nullptr);

}  // namespace satpg
