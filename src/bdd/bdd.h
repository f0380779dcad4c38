// Small ROBDD package.
//
// Purpose-built for exact reachable-state analysis of the study's circuits
// (≤ ~30 flip-flops, ≤ ~30 primary inputs): reduced ordered BDDs with a
// unique table, ITE-based apply, existential quantification, relational
// product (and_exists), and a monotone variable renaming used to map
// next-state variables back onto present-state variables.
//
// Design notes:
//   * No complement edges and no garbage collection — managers are created
//     per analysis and discarded; a hard node cap guards against blowup
//     (BddOverflow is thrown, callers fall back or fail loudly).
//   * Variable indices are "levels": smaller index = closer to the root.
//     Callers choose the order (reachability interleaves present/next state
//     variables, so renaming an image's next-state variables onto the
//     present-state ones is monotone).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "base/check.h"

namespace satpg {

using BddRef = std::uint32_t;

struct BddOverflow : std::runtime_error {
  BddOverflow() : std::runtime_error("BDD node limit exceeded") {}
};

class BddMgr {
 public:
  /// `num_vars` is the variable universe size; `node_limit` caps live nodes.
  explicit BddMgr(unsigned num_vars, std::size_t node_limit = 8u << 20);

  unsigned num_vars() const { return num_vars_; }
  std::size_t num_nodes() const { return nodes_.size(); }

  BddRef zero() const { return 0; }
  BddRef one() const { return 1; }

  BddRef var(unsigned v);   ///< literal v
  BddRef nvar(unsigned v);  ///< literal !v

  BddRef bdd_not(BddRef f);
  BddRef bdd_and(BddRef f, BddRef g);
  BddRef bdd_or(BddRef f, BddRef g);
  BddRef bdd_xor(BddRef f, BddRef g);
  BddRef ite(BddRef f, BddRef g, BddRef h);

  /// ∃ vars . f  — `vars` is a set of variable indices (any order).
  BddRef exists(BddRef f, const std::vector<unsigned>& vars);

  /// ∃ vars . (f ∧ g) — relational product with early quantification.
  BddRef and_exists(BddRef f, BddRef g, const std::vector<unsigned>& vars);

  /// Rename variables via `map` (map[v] = new index, or v itself when
  /// unchanged). The map must be strictly monotone on the variables present
  /// in f (checked), so the result stays ordered without reordering.
  BddRef rename(BddRef f, const std::vector<unsigned>& map);

  /// Number of satisfying assignments over `nvars` variables (double — the
  /// study's state spaces reach 2^28).
  double sat_count(BddRef f, unsigned nvars);

  /// Evaluate under a complete assignment (assignment[v] in {0,1}).
  bool eval(BddRef f, const std::vector<bool>& assignment) const;

  /// Enumerate all satisfying assignments restricted to `vars` (other
  /// variables must not appear in f; CHECKed). Returns each assignment as a
  /// bit pattern over vars (bit i corresponds to vars[i]). Intended for
  /// extracting explicit valid-state sets when they are small.
  std::vector<std::uint64_t> enumerate(BddRef f,
                                       const std::vector<unsigned>& vars);

  /// Support: which variables appear in f.
  std::vector<unsigned> support(BddRef f);

 private:
  struct Node {
    unsigned var;
    BddRef lo, hi;
  };
  struct NodeKey {
    unsigned var;
    BddRef lo, hi;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    std::size_t operator()(const NodeKey& k) const {
      std::uint64_t h = k.var;
      h = h * 0x9e3779b97f4a7c15ULL + k.lo;
      h = h * 0x9e3779b97f4a7c15ULL + k.hi;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };
  struct TripleKey {
    BddRef a, b, c;
    bool operator==(const TripleKey&) const = default;
  };
  struct TripleKeyHash {
    std::size_t operator()(const TripleKey& k) const {
      std::uint64_t h = k.a;
      h = h * 0x9e3779b97f4a7c15ULL + k.b;
      h = h * 0x9e3779b97f4a7c15ULL + k.c;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };

  unsigned level(BddRef f) const {
    return f <= 1 ? num_vars_ : nodes_[f].var;
  }
  BddRef mk(unsigned var, BddRef lo, BddRef hi);
  BddRef exists_rec(BddRef f, const std::vector<bool>& qvars,
                    std::unordered_map<BddRef, BddRef>& cache);
  BddRef and_exists_rec(BddRef f, BddRef g, const std::vector<bool>& qvars,
                        std::unordered_map<TripleKey, BddRef, TripleKeyHash>&
                            cache);
  BddRef rename_rec(BddRef f, const std::vector<unsigned>& map,
                    std::unordered_map<BddRef, BddRef>& cache);
  double sat_count_rec(BddRef f,
                       std::unordered_map<BddRef, double>& cache);

  unsigned num_vars_;
  std::size_t node_limit_;
  std::vector<Node> nodes_;  // [0]=false, [1]=true sentinels
  std::unordered_map<NodeKey, BddRef, NodeKeyHash> unique_;
  std::unordered_map<TripleKey, BddRef, TripleKeyHash> ite_cache_;
};

}  // namespace satpg
