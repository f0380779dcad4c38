// Exact sequential fault detectability and the sequentially-redundant-
// fault taxonomy (paper §3, after Devadas et al.).
//
// The analysis builds the *product machine* of the good and faulty
// circuits symbolically: state variables for both machines, a shared input
// vector, synchronized initialization through the reset line (the rst=1
// image fixpoint from the universal product set — the same convention the
// reachability analysis uses). On the reachable product set:
//
//   * the fault is EXCITABLE when some reachable (s_g, s_f, in) makes the
//     faulty machine's faulted line compute the opposite of the stuck
//     value — otherwise it is an **invalid-SRF** (the paper's dominant
//     class: every excitation state lies in the invalid state space);
//   * the fault is DETECTABLE when some reachable (s_g, s_f, in) drives a
//     primary output to differ between the machines — excitable but
//     undetectable faults are reported **unobservable-SRF**;
//   * otherwise the fault is provably detectable.
//
// This is an exact oracle (within the synchronized-reset initialization
// convention), so it doubles as an auditor for the ATPG engines: every
// fault an engine labels redundant must be non-detectable here, and the
// aborted faults can be split into "actually redundant" vs "missed" —
// which is precisely the paper's question about what retiming injects.
//
// Cost: BDDs over 2·#FF state variables + inputs. Fine for the original
// circuits; deeply-retimed circuits can exceed the node limit, in which
// case BddOverflow propagates and callers degrade gracefully.
#pragma once

#include "analysis/reach.h"
#include "fault/fault.h"
#include "netlist/netlist.h"

namespace satpg {

enum class SrfClass {
  kInvalidSrf,       ///< unexcitable from any reachable product state
  kUnobservableSrf,  ///< excitable, but no reachable state reveals it
  kDetectable,       ///< a distinguishing reachable (state, input) exists
};

struct SrfOptions {
  std::string reset_input = "rst";
  std::size_t bdd_node_limit = 32u << 20;
};

/// Classify one fault exactly. Throws BddOverflow on blowup.
SrfClass classify_srf(const Netlist& nl, const Fault& fault,
                      const SrfOptions& opts = {});

struct SrfCensus {
  std::size_t invalid = 0;
  std::size_t unobservable = 0;
  std::size_t detectable = 0;
};

/// Classify a whole fault list (typically an engine's aborted faults), one
/// classify_srf call, and so one BDD manager, per fault.
SrfCensus classify_faults(const Netlist& nl, const std::vector<Fault>& faults,
                          const SrfOptions& opts = {});

}  // namespace satpg
