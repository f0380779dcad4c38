// Exact reachable-state analysis and the paper's density-of-encoding
// metric (SIS `extract_seq_dc` substitute), via the BDD package.
//
// Valid states are defined as in the paper (§5): states reachable from the
// reset state. The study's circuits power up unknown and are initialized
// through an explicit reset input, so the reset *set* of a circuit is
// computed first: starting from the universal state set, the image under
// rst=1 is iterated to a fixpoint (a decreasing chain — for the original
// circuits it collapses to the single reset code after one step; for
// retimed circuits it is the set of configurations the reset sequence can
// leave the moved flip-flops in). Valid states are then the least fixpoint
// of the unconstrained image from that reset set.
//
// Variable order: present-state bit i at 2i, next-state bit i at 2i+1,
// primary inputs after; the fixpoint is compute_reached_set
// (bddcircuit.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/bitvec.h"
#include "netlist/netlist.h"
#include "sim/statekey.h"
#include "sim/value.h"

namespace satpg {

struct ReachOptions {
  /// Name of the reset input; when absent from the netlist (or empty) the
  /// initial set comes from the DFF init values instead (X bits free).
  std::string reset_input = "rst";
  /// Explicit state enumeration is produced when the valid-state count is
  /// at most this.
  std::size_t enumerate_limit = 1u << 16;
  /// BDD manager node cap.
  std::size_t bdd_node_limit = 16u << 20;
};

struct ReachResult {
  int num_dffs = 0;
  double num_valid = 0.0;      ///< |reachable states| (exact, as double)
  double total_states = 0.0;   ///< 2^num_dffs
  double density = 0.0;        ///< num_valid / total_states
  int fixpoint_iterations = 0;
  /// Explicit valid states (bit i = nl.dffs()[i]) when small enough.
  std::vector<BitVec> states;
  bool enumerated = false;
};

/// Exact reachability. Throws BddOverflow if the node cap is exceeded.
ReachResult compute_reachable(const Netlist& nl, const ReachOptions& opts = {});

/// Density of encoding of a circuit (convenience wrapper).
double density_of_encoding(const Netlist& nl);

// ---- state-validity oracle --------------------------------------------------

/// Verdict on whether a present-state cube intersects the reachable set.
/// Bucket order (and the index used by atpg::EffortAttribution arrays):
/// kValid = 0, kInvalid = 1, kUnknown = 2.
enum class StateValidity { kValid = 0, kInvalid = 1, kUnknown = 2 };

/// How a StateValidityOracle answers queries, for reports.
struct ValidityOracleInfo {
  enum class Mode {
    kDisabled,   ///< default-constructed: every query returns kUnknown
    kExact,      ///< explicit enumerated reachable set; no kUnknown answers
    kSuperset,   ///< 3-valued per-FF superset; kInvalid is proven, the rest
                 ///< is kUnknown (except the trivial all-X cube)
  };
  Mode mode = Mode::kDisabled;
  /// Exact |reachable| and density when the BDD analysis completed (even
  /// when classification had to fall back to kSuperset because the set was
  /// too large to enumerate); -1 when unknown.
  double num_valid = -1.0;
  double density = -1.0;
};

const char* oracle_mode_name(ValidityOracleInfo::Mode m);

/// 3-valued per-FF abstraction of the reachable set: digit i (order
/// nl.dffs()) is kZero/kOne when flip-flop i provably holds that constant
/// in EVERY reachable state, kX otherwise. Computed by a SeqSimulator
/// fixpoint: the reset-phase image chain (reset input asserted, other
/// inputs X) followed by a merge-to-X reachability fixpoint under free
/// inputs. Always a sound superset — a cube demanding the opposite of a
/// pinned digit cannot intersect the reachable set.
std::vector<V3> reachable_superset_v3(const Netlist& nl,
                                      const std::string& reset_input = "rst");

/// Classifies present-state cubes against the reachable set. Immutable
/// after build(): classify() is pure and safe to call concurrently from
/// any number of threads, so answers can never depend on thread count.
///
/// build() prefers the exact mode (reachable set enumerated by
/// compute_reachable and <= 64 flip-flops); when enumeration is
/// unavailable or the BDD overflows its node cap it degrades to the
/// 3-valued superset mode rather than failing.
class StateValidityOracle {
 public:
  /// Disabled oracle: classify() always returns kUnknown.
  StateValidityOracle() = default;

  static StateValidityOracle build(const Netlist& nl,
                                   const ReachOptions& opts = {});

  const ValidityOracleInfo& info() const { return info_; }
  bool enabled() const {
    return info_.mode != ValidityOracleInfo::Mode::kDisabled;
  }

  /// Does the cube (digit i = nl.dffs()[i], X = unconstrained) intersect
  /// the reachable set? Exact mode answers kValid/kInvalid only; superset
  /// mode proves kInvalid where it can and returns kUnknown otherwise.
  /// The empty (all-X) cube is always kValid: the reachable set is
  /// nonempty.
  StateValidity classify(const StateKey& cube) const;

  /// Logical footprint of the oracle's answer structures (element counts x
  /// element sizes, fixed once build() returns) — the deterministic byte
  /// charge the driver records under base/memstats subsystem bdd_oracle.
  std::uint64_t footprint_bytes() const {
    return states_.size() * sizeof(std::uint64_t) +
           pinned_.size() * sizeof(V3);
  }

 private:
  ValidityOracleInfo info_;
  std::size_t num_ffs_ = 0;
  /// Exact mode: sorted fully-specified reachable states, bit i = digit i.
  std::vector<std::uint64_t> states_;
  /// Superset mode: per-FF pinned constants (kX = unconstrained).
  std::vector<V3> pinned_;
};

}  // namespace satpg
