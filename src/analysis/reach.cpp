#include "analysis/reach.h"

#include <algorithm>
#include <cmath>

#include "analysis/bddcircuit.h"
#include "bdd/bdd.h"
#include "sim/simulator.h"

namespace satpg {

ReachResult compute_reachable(const Netlist& nl, const ReachOptions& opts) {
  ReachResult res;
  res.num_dffs = static_cast<int>(nl.num_dffs());
  res.total_states = std::pow(2.0, res.num_dffs);
  if (res.num_dffs == 0) {
    res.num_valid = 1.0;
    res.density = 1.0;
    return res;
  }

  const BddVarMap vm = BddVarMap::single(
      static_cast<unsigned>(nl.num_dffs()),
      static_cast<unsigned>(nl.num_inputs()));
  BddMgr mgr(vm.total(), opts.bdd_node_limit);

  const auto fn = build_node_functions(nl, mgr, vm);
  const auto bits = state_bits(nl, mgr, vm, fn);
  const BddRef init = init_cube(nl, mgr, vm);
  const BddRef reached = compute_reached_set(
      mgr, bits, vm.inputs(), reset_var(nl, vm, opts.reset_input), init,
      &res.fixpoint_iterations);

  res.num_valid = mgr.sat_count(reached, vm.num_ffs);
  res.density = res.num_valid / res.total_states;

  if (res.num_valid <= static_cast<double>(opts.enumerate_limit) &&
      vm.num_ffs <= 64) {
    std::vector<unsigned> ps_vars;
    for (unsigned i = 0; i < vm.num_ffs; ++i) ps_vars.push_back(vm.ps(i));
    for (std::uint64_t bits : mgr.enumerate(reached, ps_vars))
      res.states.push_back(BitVec::from_value(vm.num_ffs, bits));
    res.enumerated = true;
  }
  return res;
}

double density_of_encoding(const Netlist& nl) {
  return compute_reachable(nl).density;
}

// ---- state-validity oracle --------------------------------------------------

const char* oracle_mode_name(ValidityOracleInfo::Mode m) {
  switch (m) {
    case ValidityOracleInfo::Mode::kDisabled:
      return "disabled";
    case ValidityOracleInfo::Mode::kExact:
      return "exact";
    case ValidityOracleInfo::Mode::kSuperset:
      return "superset";
  }
  return "?";
}

std::vector<V3> reachable_superset_v3(const Netlist& nl,
                                      const std::string& reset_input) {
  const std::size_t nff = nl.num_dffs();
  if (nff == 0) return {};
  SeqSimulator sim(nl);

  const NodeId rst = nl.find(reset_input);
  int rst_index = -1;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    if (nl.inputs()[i] == rst) rst_index = static_cast<int>(i);

  std::vector<V3> state(nff, V3::kX);
  if (rst_index >= 0) {
    // Reset-phase image chain under rst=1, other inputs free. Each iterate
    // abstracts img^k(universal), so EVERY iterate is a superset of the
    // reset set — a missing fixpoint within the cap is still sound.
    std::vector<V3> in(nl.num_inputs(), V3::kX);
    in[static_cast<std::size_t>(rst_index)] = V3::kOne;
    const std::size_t cap = 2 * nff + 4;
    for (std::size_t it = 0; it < cap; ++it) {
      sim.set_state(state);
      sim.step(in);
      if (sim.state() == state) break;
      state = sim.state();
    }
  } else {
    // No reset line: the initial set comes from the DFF init values, the
    // same convention compute_reachable uses.
    sim.reset_to_init();
    state = sim.state();
  }

  // Merge-to-X reachability fixpoint under free inputs. Digits only move
  // toward X, so this terminates within nff+1 sweeps.
  const std::vector<V3> free_in(nl.num_inputs(), V3::kX);
  for (;;) {
    sim.set_state(state);
    sim.step(free_in);
    const std::vector<V3>& next = sim.state();
    bool changed = false;
    for (std::size_t i = 0; i < nff; ++i) {
      if (state[i] != V3::kX && next[i] != state[i]) {
        state[i] = V3::kX;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return state;
}

StateValidityOracle StateValidityOracle::build(const Netlist& nl,
                                               const ReachOptions& opts) {
  StateValidityOracle o;
  o.num_ffs_ = nl.num_dffs();
  if (o.num_ffs_ == 0) {
    // One (empty) state, trivially reachable.
    o.info_.mode = ValidityOracleInfo::Mode::kExact;
    o.info_.num_valid = 1.0;
    o.info_.density = 1.0;
    return o;
  }
  try {
    const ReachResult r = compute_reachable(nl, opts);
    o.info_.num_valid = r.num_valid;
    o.info_.density = r.density;
    if (r.enumerated && o.num_ffs_ <= 64) {
      o.info_.mode = ValidityOracleInfo::Mode::kExact;
      o.states_.reserve(r.states.size());
      for (const BitVec& s : r.states) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < o.num_ffs_; ++i)
          if (s.get(i)) bits |= 1ULL << i;
        o.states_.push_back(bits);
      }
      std::sort(o.states_.begin(), o.states_.end());
      return o;
    }
  } catch (const BddOverflow&) {
    // Degrade to the superset mode; num_valid/density stay unknown (-1).
  }
  o.info_.mode = ValidityOracleInfo::Mode::kSuperset;
  o.pinned_ = reachable_superset_v3(nl, opts.reset_input);
  return o;
}

StateValidity StateValidityOracle::classify(const StateKey& cube) const {
  switch (info_.mode) {
    case ValidityOracleInfo::Mode::kDisabled:
      return StateValidity::kUnknown;
    case ValidityOracleInfo::Mode::kExact: {
      if (num_ffs_ == 0) return StateValidity::kValid;
      std::uint64_t care = 0, ones = 0;
      for (std::size_t i = 0; i < num_ffs_; ++i) {
        const V3 v = cube.get(i);
        if (v == V3::kX) continue;
        care |= 1ULL << i;
        if (v == V3::kOne) ones |= 1ULL << i;
      }
      if (care == 0) return StateValidity::kValid;
      for (const std::uint64_t s : states_)
        if (((s ^ ones) & care) == 0) return StateValidity::kValid;
      return StateValidity::kInvalid;
    }
    case ValidityOracleInfo::Mode::kSuperset: {
      bool any_known = false;
      for (std::size_t i = 0; i < num_ffs_; ++i) {
        const V3 v = cube.get(i);
        if (v == V3::kX) continue;
        any_known = true;
        if (pinned_[i] != V3::kX && pinned_[i] != v)
          return StateValidity::kInvalid;
      }
      return any_known ? StateValidity::kUnknown : StateValidity::kValid;
    }
  }
  return StateValidity::kUnknown;
}

}  // namespace satpg
