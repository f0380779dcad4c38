// "mcnc_lite" gate library.
//
// The paper maps onto a reduced mcnc.genlib containing only gate types its
// ATPGs understand; this table plays that role. Delays are in the same
// arbitrary "ns" units the paper's Table 7 uses, areas in unit cells.
// Fan-in is capped at 4 — the tech mapper decomposes wider gates.
#pragma once

#include "netlist/netlist.h"

namespace satpg {

constexpr int kMaxLibFanin = 4;
// The time-frame model folds every mapped gate from one fixed-width fan-in
// row (CompiledNetlist::fanin_row), so the row is exactly the cap wide.
static_assert(kMaxLibFanin == CompiledNetlist::kRowFanins);

struct LibCell {
  double delay;
  double area;
};

/// Cell parameters for a gate type at a given fan-in count.
/// CHECK-fails for unsupported (type, arity) combinations.
LibCell lib_cell(GateType t, std::size_t arity);

/// Annotate every combinational gate's delay/area from the library and set
/// DFF area. CHECK-fails if a gate exceeds kMaxLibFanin (run the tech
/// mapper first).
void annotate_library(Netlist& nl);

}  // namespace satpg
