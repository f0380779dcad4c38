// The tests' structural fault oracle, shared by every suite that checks a
// fault model against it. It rewrites the netlist instead of overlaying
// the fault, so it shares no fault-model code with src/sim's overlay or
// the fault simulators.
#pragma once

#include <vector>

#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/simulator.h"

namespace satpg {

/// A copy of `nl` whose behaviour is exactly the faulty machine's. A stem
/// fault reroutes every reader of the node to a constant, a pin fault one
/// fan-in slot (a FF's D pin and a PO marker's pin included).
inline Netlist inject_fault(const Netlist& nl, const Fault& f) {
  Netlist faulty = nl;
  const NodeId c = faulty.add_const(f.stuck1, "fault_const");
  if (f.pin < 0)
    faulty.replace_uses(f.node, c);
  else
    faulty.set_fanin(f.node, static_cast<std::size_t>(f.pin), c);
  return faulty;
}

/// Two-machine replay from the all-X power-up state on SeqSimulator:
/// detected iff some cycle shows a primary output known in both machines
/// with differing values (the strict PROOFS-era convention).
inline bool seqsim_detects(const Netlist& good, const Netlist& faulty,
                           const std::vector<std::vector<V3>>& seq) {
  SeqSimulator sg(good), sf(faulty);
  sg.set_state(std::vector<V3>(good.num_dffs(), V3::kX));
  sf.set_state(std::vector<V3>(faulty.num_dffs(), V3::kX));
  for (const auto& vec : seq) {
    const auto pg = sg.step(vec);
    const auto pf = sf.step(vec);
    for (std::size_t o = 0; o < pg.size(); ++o)
      if (pg[o] != V3::kX && pf[o] != V3::kX && pg[o] != pf[o]) return true;
  }
  return false;
}

}  // namespace satpg
