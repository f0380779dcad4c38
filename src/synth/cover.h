// Cube-cover algebra and espresso-style two-level minimization.
//
// Covers are positional-cube lists (reusing fsm::Cube) over a fixed
// variable count. Minimization follows the classic espresso loop on a
// single-output function with a don't-care set:
//
//   EXPAND      — enlarge each cube literal-by-literal while it stays inside
//                 ON ∪ DC (validity via cofactor tautology, no complement
//                 computation), absorbing any cubes the expansion covers.
//   IRREDUNDANT — drop cubes covered by the rest of the cover plus DC.
//
// The "rugged" synthesis script iterates EXPAND/IRREDUNDANT twice with
// different literal orders; the "delay" script runs one pass (see
// scripts.h). This is deliberately simpler than full espresso (no REDUCE /
// LASTGASP) — adequate for the study's function sizes and fully tested
// against exhaustive truth tables.
#pragma once

#include <vector>

#include "base/rng.h"
#include "fsm/fsm.h"

namespace satpg {

using Cover = std::vector<Cube>;

/// Cofactor of a cover with respect to a cube: cubes that conflict with
/// `c` are dropped, agreeing literals become don't-cares.
Cover cover_cofactor(const Cover& cover, const Cube& c);

/// Is the cover a tautology (covers every minterm)?
bool cover_tautology(const Cover& cover, std::size_t num_vars);

/// Is cube `c` entirely inside `cover` (semantically)?
bool cover_contains_cube(const Cover& cover, const Cube& c,
                         std::size_t num_vars);

/// Does the cover evaluate to 1 on this minterm?
bool cover_matches(const Cover& cover, const BitVec& minterm);

/// Single-cube containment: every minterm of a is a minterm of b.
bool cube_contains(const Cube& outer, const Cube& inner);

struct EspressoOptions {
  int passes = 1;           ///< EXPAND+IRREDUNDANT iterations
  std::uint64_t seed = 1;   ///< literal-order shuffling between passes
};

/// Minimize ON against DC; result covers ON and stays inside ON ∪ DC.
Cover espresso_lite(const Cover& on, const Cover& dc, std::size_t num_vars,
                    const EspressoOptions& opts = {});

}  // namespace satpg
