#include "analysis/srf.h"

#include "analysis/bddcircuit.h"
#include "bdd/bdd.h"

namespace satpg {

SrfClass classify_srf(const Netlist& nl, const Fault& fault,
                      const SrfOptions& opts) {
  // Product machine: good machine at variable base 0, faulty machine at
  // base 2 (stride 4 each), shared inputs after.
  const unsigned ffs = static_cast<unsigned>(nl.num_dffs());
  BddVarMap vm_g;
  vm_g.num_ffs = ffs;
  vm_g.num_pis = static_cast<unsigned>(nl.num_inputs());
  vm_g.stride = 4;
  vm_g.in_base = 4 * ffs;
  vm_g.num_vars = vm_g.in_base + vm_g.num_pis;
  BddVarMap vm_f = vm_g;
  vm_f.ps_base = 2;

  BddMgr mgr(vm_g.total(), opts.bdd_node_limit);
  const auto good = build_node_functions(nl, mgr, vm_g);
  const auto faulty = build_node_functions(nl, mgr, vm_f, fault);
  // Good bits, then faulty bits: interleaving them per flip-flop yields the
  // same sets about twice as slowly.
  auto bits = state_bits(nl, mgr, vm_g, good);
  for (const StateBit& b : state_bits(nl, mgr, vm_f, faulty, fault))
    bits.push_back(b);
  // Synchronized initialization: rst=1 image fixpoint from the universal
  // product set; or the FF init cubes without a reset line.
  const BddRef init =
      mgr.bdd_and(init_cube(nl, mgr, vm_g), init_cube(nl, mgr, vm_f));
  const BddRef reached =
      compute_reached_set(mgr, bits, vm_g.inputs(),
                          reset_var(nl, vm_g, opts.reset_input), init);

  // Excitation in the faulty machine: the faulted line would compute the
  // non-stuck value (as a function of the faulty machine's state).
  const NodeId line =
      fault.pin >= 0
          ? nl.node(fault.node).fanins[static_cast<std::size_t>(fault.pin)]
          : fault.node;
  // The line's *driver function* in the faulty machine's state space,
  // without the fault forcing (what the line would carry). A pin fault
  // forces only its gate's copy of the line, so faulty[line] is unforced;
  // a stem fault forces the line itself, whose fan-ins lie upstream of it
  // and are unforced.
  const BddRef would =
      fault.pin >= 0 ? faulty[static_cast<std::size_t>(line)]
                     : node_function(nl, mgr, vm_f, faulty, line);
  const BddRef excite = fault.stuck1 ? mgr.bdd_not(would) : would;
  if (mgr.bdd_and(reached, excite) == mgr.zero())
    return SrfClass::kInvalidSrf;

  // Observability: a PO pair differs on some reachable product state.
  BddRef diff = mgr.zero();
  for (NodeId po : nl.outputs())
    diff = mgr.bdd_or(diff,
                      mgr.bdd_xor(good[static_cast<std::size_t>(po)],
                                  faulty[static_cast<std::size_t>(po)]));
  if (mgr.bdd_and(reached, diff) == mgr.zero())
    return SrfClass::kUnobservableSrf;
  return SrfClass::kDetectable;
}

SrfCensus classify_faults(const Netlist& nl, const std::vector<Fault>& faults,
                          const SrfOptions& opts) {
  SrfCensus census;
  for (const auto& f : faults) {
    switch (classify_srf(nl, f, opts)) {
      case SrfClass::kInvalidSrf:
        ++census.invalid;
        break;
      case SrfClass::kUnobservableSrf:
        ++census.unobservable;
        break;
      case SrfClass::kDetectable:
        ++census.detectable;
        break;
    }
  }
  return census;
}

}  // namespace satpg
