// BDD-based sequential equivalence checking.
//
// Proves that two netlists with identical primary-input/-output interfaces
// implement the same sequential behaviour after synchronized
// initialization: the product machine of the two circuits is initialized
// with the rst=1 image fixpoint from the universal product set (the
// study's reset convention — both circuits settle under held reset), the
// reachable product set is computed, and every primary-output pair must
// agree on it.
//
// This turns the test suite's randomized synth/retiming equivalence checks
// into proofs on the circuits where the BDDs stay tractable: retiming
// preserves behaviour (Theorem 1's premise), and the synthesized netlist
// implements its FSM.
#pragma once

#include <string>

#include "netlist/netlist.h"

namespace satpg {

struct SeqecOptions {
  std::string reset_input = "rst";
  std::size_t bdd_node_limit = 32u << 20;
};

struct SeqecResult {
  bool equivalent = false;
  /// Human-readable reason when not equivalent (mismatching PO index) or
  /// when the check degraded ("interface mismatch").
  std::string note;
};

/// Exact equivalence on the synchronized reachable product space. Both
/// netlists must declare the same input names in the same order; POs match
/// by position. Throws BddOverflow on blowup.
SeqecResult check_sequential_equivalence(const Netlist& a, const Netlist& b,
                                         const SeqecOptions& opts = {});

}  // namespace satpg
