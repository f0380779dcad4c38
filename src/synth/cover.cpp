#include "synth/cover.h"

#include <algorithm>
#include <numeric>

namespace satpg {

Cover cover_cofactor(const Cover& cover, const Cube& c) {
  Cover out;
  out.reserve(cover.size());
  for (const auto& cube : cover) {
    // Conflict: both care about a bit and disagree.
    if (((cube.value ^ c.value) & cube.care & c.care).any()) continue;
    Cube r = cube;
    // Bits fixed by c become don't-cares in the cofactor.
    r.care &= ~c.care;
    r.value &= r.care;
    out.push_back(std::move(r));
  }
  return out;
}

bool cover_tautology(const Cover& cover, std::size_t num_vars) {
  return cubes_cover_everything(cover, num_vars);
}

bool cube_contains(const Cube& outer, const Cube& inner) {
  // outer ⊇ inner: outer's cared bits are cared and equal in inner.
  if (!outer.care.is_subset_of(inner.care)) return false;
  return ((outer.value ^ inner.value) & outer.care).none();
}

bool cover_contains_cube(const Cover& cover, const Cube& c,
                         std::size_t num_vars) {
  // Fast path: a single cube already contains c.
  for (const auto& cube : cover)
    if (cube_contains(cube, c)) return true;
  return cover_tautology(cover_cofactor(cover, c), num_vars);
}

bool cover_matches(const Cover& cover, const BitVec& minterm) {
  for (const auto& c : cover)
    if (c.matches(minterm)) return true;
  return false;
}

namespace {

// EXPAND one cube: drop literals greedily in the given order while the
// enlarged cube remains inside on ∪ dc.
Cube expand_cube(Cube c, const Cover& on, const Cover& dc,
                 std::size_t num_vars, const std::vector<std::size_t>& order) {
  Cover care_set = on;
  care_set.insert(care_set.end(), dc.begin(), dc.end());
  for (std::size_t bit : order) {
    if (!c.care.get(bit)) continue;
    Cube trial = c;
    trial.care.set(bit, false);
    trial.value.set(bit, false);
    if (cover_contains_cube(care_set, trial, num_vars)) c = trial;
  }
  return c;
}

}  // namespace

Cover espresso_lite(const Cover& on, const Cover& dc, std::size_t num_vars,
                    const EspressoOptions& opts) {
  Rng rng(opts.seed);
  Cover cover = on;
  // Drop ON cubes entirely inside DC up front (they are free).
  if (!dc.empty()) {
    Cover kept;
    for (auto& c : cover)
      if (!cover_contains_cube(dc, c, num_vars)) kept.push_back(std::move(c));
    cover = std::move(kept);
  }

  for (int pass = 0; pass < std::max(1, opts.passes); ++pass) {
    // ---- EXPAND ----
    std::vector<std::size_t> order(num_vars);
    std::iota(order.begin(), order.end(), 0u);
    if (pass > 0) {
      // Shuffle literal order between passes to escape local minima.
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(rng.next_below(i))]);
    }
    // Expand large cubes first — they absorb more.
    std::sort(cover.begin(), cover.end(), [](const Cube& a, const Cube& b) {
      return a.care.count() < b.care.count();
    });
    Cover expanded;
    for (std::size_t i = 0; i < cover.size(); ++i) {
      // Skip cubes already absorbed by an expanded one.
      bool absorbed = false;
      for (const auto& e : expanded)
        if (cube_contains(e, cover[i])) {
          absorbed = true;
          break;
        }
      if (absorbed) continue;
      expanded.push_back(expand_cube(cover[i], on, dc, num_vars, order));
    }
    cover = std::move(expanded);

    // ---- IRREDUNDANT ----
    // Greedy: try removing cubes (smallest first); keep removal if the rest
    // of the cover plus DC still contains the cube.
    std::sort(cover.begin(), cover.end(), [](const Cube& a, const Cube& b) {
      return a.care.count() > b.care.count();
    });
    for (std::size_t i = 0; i < cover.size();) {
      Cover rest = dc;
      for (std::size_t j = 0; j < cover.size(); ++j)
        if (j != i) rest.push_back(cover[j]);
      if (cover_contains_cube(rest, cover[i], num_vars))
        cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(i));
      else
        ++i;
    }
  }
  return cover;
}

}  // namespace satpg
