#include "analysis/seqec.h"

#include "analysis/bddcircuit.h"
#include "bdd/bdd.h"

namespace satpg {

SeqecResult check_sequential_equivalence(const Netlist& a, const Netlist& b,
                                         const SeqecOptions& opts) {
  SeqecResult res;
  if (a.num_inputs() != b.num_inputs() ||
      a.num_outputs() != b.num_outputs()) {
    res.note = "interface mismatch";
    return res;
  }
  // Both machines read one input vector, so b must name its inputs as a
  // does and in the same order.
  for (NodeId in : a.inputs()) {
    const NodeId match = b.find(a.node(in).name);
    if (match == kNoNode || b.node(match).type != GateType::kInput) {
      res.note = "input name mismatch: " + a.node(in).name;
      return res;
    }
  }
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    if (a.node(a.inputs()[i]).name != b.node(b.inputs()[i]).name) {
      res.note = "input order differs; align inputs before checking";
      return res;
    }
  }

  const unsigned na = static_cast<unsigned>(a.num_dffs());
  const unsigned nb = static_cast<unsigned>(b.num_dffs());
  BddVarMap vma;
  vma.num_ffs = na;
  vma.num_pis = static_cast<unsigned>(a.num_inputs());
  vma.in_base = 2 * na + 2 * nb;
  vma.num_vars = vma.in_base + vma.num_pis;
  BddVarMap vmb = vma;
  vmb.num_ffs = nb;
  vmb.ps_base = 2 * na;

  BddMgr mgr(vma.total(), opts.bdd_node_limit);
  const auto fa = build_node_functions(a, mgr, vma);
  const auto fb = build_node_functions(b, mgr, vmb);
  auto bits = state_bits(a, mgr, vma, fa);
  for (const StateBit& bit : state_bits(b, mgr, vmb, fb)) bits.push_back(bit);
  const BddRef init =
      mgr.bdd_and(init_cube(a, mgr, vma), init_cube(b, mgr, vmb));
  const BddRef reached =
      compute_reached_set(mgr, bits, vma.inputs(),
                          reset_var(a, vma, opts.reset_input), init);

  for (std::size_t o = 0; o < a.outputs().size(); ++o) {
    const BddRef diff = mgr.bdd_xor(
        fa[static_cast<std::size_t>(a.outputs()[o])],
        fb[static_cast<std::size_t>(b.outputs()[o])]);
    if (mgr.bdd_and(reached, diff) != mgr.zero()) {
      res.note = "primary output " + std::to_string(o) + " (" +
                 a.node(a.outputs()[o]).name + ") differs on a reachable "
                 "state";
      return res;
    }
  }
  res.equivalent = true;
  return res;
}

}  // namespace satpg
