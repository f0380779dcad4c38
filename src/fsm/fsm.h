// Symbolic finite state machine (state-transition-table form).
//
// Mirrors the KISS2 view of an FSM used by the MCNC benchmarks and by SIS:
// a Mealy machine whose transitions are input *cubes* (each input bit is
// 0, 1, or '-') from a symbolic present state to a symbolic next state with
// an output cube (each output bit 0, 1, or '-').
//
// Semantics: for a present state and a fully-specified input vector, the
// first transition whose cube matches determines next state and outputs.
// Machines used by the study are deterministic and completely specified
// (check_complete/check_deterministic verify this); KISS2 benchmarks with
// unspecified behaviour simulate to X outputs / unchanged state.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "base/bitvec.h"
#include "base/rng.h"
#include "sim/value.h"

namespace satpg {

/// A positional cube over n bits; care[i]=0 means '-' at position i.
struct Cube {
  BitVec value;  ///< bit values where care
  BitVec care;   ///< which bits are specified

  static Cube all_dontcare(std::size_t n) {
    return {BitVec(n), BitVec(n)};
  }
  static Cube from_string(const std::string& s);  ///< '0'/'1'/'-', MSB first

  std::size_t size() const { return care.size(); }

  bool matches(const BitVec& bits) const {
    SATPG_DCHECK(bits.size() == care.size());
    return ((bits ^ value) & care).none();
  }

  /// Do two cubes intersect (share at least one minterm)?
  bool intersects(const Cube& o) const {
    return ((value ^ o.value) & care & o.care).none();
  }

  std::string to_string() const;  ///< '0'/'1'/'-', MSB first
};

struct FsmTransition {
  Cube input;      ///< over num_inputs bits
  int from = 0;    ///< present-state index
  int to = 0;      ///< next-state index
  Cube output;     ///< over num_outputs bits
};

class Fsm {
 public:
  Fsm(std::string name, int num_inputs, int num_outputs);

  const std::string& name() const { return name_; }
  int num_inputs() const { return num_inputs_; }
  int num_outputs() const { return num_outputs_; }
  int num_states() const { return static_cast<int>(state_names_.size()); }

  int add_state(const std::string& name);
  int find_state(const std::string& name) const;  ///< -1 when absent
  const std::string& state_name(int s) const { return state_names_[s]; }

  int reset_state() const { return reset_state_; }
  void set_reset_state(int s);

  void add_transition(FsmTransition t);
  const std::vector<FsmTransition>& transitions() const {
    return transitions_;
  }

  /// Transitions leaving state s (indices into transitions()).
  const std::vector<int>& transitions_from(int s) const;

  /// Step the machine: (state, input vector) -> (next state, outputs).
  /// Unspecified input combinations return state unchanged and X outputs
  /// (out[i] = kX); unspecified output bits are X.
  struct StepResult {
    int next_state;
    std::vector<V3> outputs;
    bool specified;  ///< false when no transition matched
  };
  StepResult step(int state, const BitVec& input) const;

  /// Every (state, input minterm) covered by at least one transition?
  /// Verified symbolically per state by cube-cover tautology, not by
  /// enumerating 2^num_inputs vectors.
  bool check_complete() const;

  /// No two overlapping cubes from one state disagree on next state or on a
  /// commonly-cared output bit?
  bool check_deterministic() const;

  /// States reachable from the reset state following any transition edge.
  std::vector<bool> reachable_states() const;

 private:
  std::string name_;
  int num_inputs_;
  int num_outputs_;
  std::vector<std::string> state_names_;
  int reset_state_ = 0;
  std::vector<FsmTransition> transitions_;
  mutable std::vector<std::vector<int>> from_index_;  // lazy
  mutable bool index_valid_ = false;
};

/// Cover-tautology helper: do the given input cubes cover the whole input
/// space? (Shannon expansion with unate shortcuts; exposed for tests.)
bool cubes_cover_everything(const std::vector<Cube>& cubes,
                            std::size_t num_bits);

}  // namespace satpg
