#include "analysis/bddcircuit.h"

#include <algorithm>

#include "sim/simulator.h"

namespace satpg {

namespace {

// BDDs as a fold_gate value algebra.
struct BddAlgebra {
  using Value = BddRef;
  BddMgr& mgr;
  BddRef constant(bool one) const { return one ? mgr.one() : mgr.zero(); }
  BddRef not_(BddRef a) const { return mgr.bdd_not(a); }
  BddRef and_(BddRef a, BddRef b) const { return mgr.bdd_and(a, b); }
  BddRef or_(BddRef a, BddRef b) const { return mgr.bdd_or(a, b); }
  BddRef xor_(BddRef a, BddRef b) const { return mgr.bdd_xor(a, b); }
};

}  // namespace

std::vector<BddRef> build_node_functions(const Netlist& nl, BddMgr& mgr,
                                         const BddVarMap& vm,
                                         const std::optional<Fault>& fault) {
  std::vector<BddRef> fn(nl.num_nodes(), mgr.zero());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    fn[static_cast<std::size_t>(nl.inputs()[i])] =
        mgr.var(vm.in(static_cast<unsigned>(i)));
  for (std::size_t i = 0; i < nl.dffs().size(); ++i)
    fn[static_cast<std::size_t>(nl.dffs()[i])] =
        mgr.var(vm.ps(static_cast<unsigned>(i)));
  sweep(BddAlgebra{mgr}, nl.compiled(), fault, fn);
  return fn;
}

BddRef node_function(const Netlist& nl, BddMgr& mgr, const BddVarMap& vm,
                     const std::vector<BddRef>& fn, NodeId id) {
  const auto& n = nl.node(id);
  auto index_in = [id](const std::vector<NodeId>& ids) {
    return static_cast<unsigned>(
        std::find(ids.begin(), ids.end(), id) - ids.begin());
  };
  if (n.type == GateType::kInput) return mgr.var(vm.in(index_in(nl.inputs())));
  if (n.type == GateType::kDff) return mgr.var(vm.ps(index_in(nl.dffs())));
  return fold_gate(BddAlgebra{mgr}, n.type, n.fanins.size(),
                   [&](std::size_t k) {
                     return fn[static_cast<std::size_t>(n.fanins[k])];
                   });
}

std::vector<StateBit> state_bits(const Netlist& nl, BddMgr& mgr,
                                 const BddVarMap& vm,
                                 const std::vector<BddRef>& fn,
                                 const std::optional<Fault>& fault) {
  std::vector<StateBit> bits;
  for (unsigned i = 0; i < vm.num_ffs; ++i) {
    const NodeId ff = nl.dffs()[i];
    BddRef next = fn[static_cast<std::size_t>(nl.node(ff).fanins[0])];
    if (fault && fault->pin == 0 && fault->node == ff)
      next = fault->stuck1 ? mgr.one() : mgr.zero();
    bits.push_back({vm.ps(i), vm.ns(i), next});
  }
  return bits;
}

BddRef init_cube(const Netlist& nl, BddMgr& mgr, const BddVarMap& vm) {
  BddRef init = mgr.one();
  for (unsigned i = 0; i < vm.num_ffs; ++i) {
    const auto ff_init = nl.node(nl.dffs()[i]).init;
    if (ff_init == FfInit::kZero)
      init = mgr.bdd_and(init, mgr.nvar(vm.ps(i)));
    else if (ff_init == FfInit::kOne)
      init = mgr.bdd_and(init, mgr.var(vm.ps(i)));
  }
  return init;
}

std::optional<unsigned> reset_var(const Netlist& nl, const BddVarMap& vm,
                                  const std::string& name) {
  const NodeId id = name.empty() ? kNoNode : nl.find(name);
  for (unsigned j = 0; j < vm.num_pis; ++j)
    if (nl.inputs()[j] == id) return vm.in(j);
  return std::nullopt;
}

BddRef compute_reached_set(BddMgr& mgr, const std::vector<StateBit>& bits,
                           const std::vector<unsigned>& inputs,
                           std::optional<unsigned> reset, BddRef init,
                           int* iterations) {
  // Quantification schedule: each present-state or input variable leaves
  // after the last conjunct whose support holds it, or before the first
  // conjunct when no support holds it.
  std::vector<BddRef> conj;
  std::vector<int> last(mgr.num_vars(), -1);
  for (std::size_t k = 0; k < bits.size(); ++k) {
    conj.push_back(
        mgr.bdd_not(mgr.bdd_xor(mgr.var(bits[k].ns), bits[k].next)));
    for (unsigned v : mgr.support(bits[k].next))
      last[v] = static_cast<int>(k);
  }
  std::vector<unsigned> unused;
  std::vector<std::vector<unsigned>> quantify(bits.size());
  std::vector<unsigned> rename_map(mgr.num_vars());
  for (unsigned v = 0; v < mgr.num_vars(); ++v) rename_map[v] = v;
  auto schedule = [&](unsigned v) {
    if (last[v] < 0)
      unused.push_back(v);
    else
      quantify[static_cast<std::size_t>(last[v])].push_back(v);
  };
  for (const StateBit& b : bits) {
    schedule(b.ps);
    rename_map[b.ns] = b.ps;
  }
  for (unsigned v : inputs) schedule(v);

  auto image = [&](BddRef set) {
    BddRef r = mgr.exists(set, unused);
    for (std::size_t k = 0; k < conj.size(); ++k)
      r = mgr.and_exists(r, conj[k], quantify[k]);
    return mgr.rename(r, rename_map);
  };

  int local_iters = 0;
  int& iters = iterations ? *iterations : local_iters;
  if (reset) {
    const BddRef rst_on = mgr.var(*reset);
    init = mgr.one();
    for (;;) {
      const BddRef next = image(mgr.bdd_and(init, rst_on));
      ++iters;
      if (next == init) break;
      init = next;
      SATPG_CHECK_MSG(iters < 100000, "reset fixpoint did not converge");
    }
  }

  // Frontier BFS: layer k+1 is the image of layer k minus what is reached,
  // so each step equals one whole-set image step of the classic loop.
  BddRef reached = init;
  BddRef frontier = init;
  for (;;) {
    const BddRef fresh =
        mgr.bdd_and(image(frontier), mgr.bdd_not(reached));
    ++iters;
    if (fresh == mgr.zero()) break;
    reached = mgr.bdd_or(reached, fresh);
    frontier = fresh;
    SATPG_CHECK_MSG(iters < 1000000,
                    "reachability fixpoint did not converge");
  }
  return reached;
}

}  // namespace satpg
