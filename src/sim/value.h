// Logic value domains.
//
// V3  — three-valued (0, 1, X) scalar logic used by the sequential
//       simulator, reachability seeding, and ATPG good-machine values.
// PV  — 64-way bit-parallel three-valued encoding used by the parallel
//       fault simulator: bit i of `zero` means "slot i is 0", bit i of
//       `one` means "slot i is 1"; neither bit set means X. A slot never
//       has both bits set (checked in debug builds).
// PVW — the wide (pattern-parallel) word: kSubWords 64-slot PV sub-words
//       simulated together by the PPSFP engine. Sub-word g carries
//       sequence lane g of a lane group; within each sub-word slot 0 is
//       that lane's good machine and slots 1..63 carry the batch's faulty
//       machines (same fault→slot map in every sub-word). The SSE2 /
//       AVX2 / AVX-512 kernels view a plane as 4×128-, 2×256-, or 1×512-
//       bit vectors (PV128/PV256/PV512); the logical width is fixed at
//       kSubWords regardless of the physical kernel, which is what makes
//       results and metrics identical across dispatch tiers.
#pragma once

#include <cstdint>

#include "base/check.h"

namespace satpg {

enum class V3 : std::uint8_t { kZero = 0, kOne = 1, kX = 2 };

inline char v3_char(V3 v) {
  switch (v) {
    case V3::kZero:
      return '0';
    case V3::kOne:
      return '1';
    case V3::kX:
      return 'X';
  }
  return '?';
}

inline V3 v3_not(V3 a) {
  if (a == V3::kZero) return V3::kOne;
  if (a == V3::kOne) return V3::kZero;
  return V3::kX;
}

inline V3 v3_and(V3 a, V3 b) {
  if (a == V3::kZero || b == V3::kZero) return V3::kZero;
  if (a == V3::kOne && b == V3::kOne) return V3::kOne;
  return V3::kX;
}

inline V3 v3_or(V3 a, V3 b) {
  if (a == V3::kOne || b == V3::kOne) return V3::kOne;
  if (a == V3::kZero && b == V3::kZero) return V3::kZero;
  return V3::kX;
}

inline V3 v3_xor(V3 a, V3 b) {
  if (a == V3::kX || b == V3::kX) return V3::kX;
  return (a == b) ? V3::kZero : V3::kOne;
}

/// 64-slot parallel three-valued word.
struct PV {
  std::uint64_t zero = 0;
  std::uint64_t one = 0;

  static PV all(V3 v) {
    switch (v) {
      case V3::kZero:
        return {~0ULL, 0};
      case V3::kOne:
        return {0, ~0ULL};
      default:
        return {0, 0};
    }
  }

  V3 slot(unsigned i) const {
    const std::uint64_t m = 1ULL << i;
    if (zero & m) return V3::kZero;
    if (one & m) return V3::kOne;
    return V3::kX;
  }

  void set_slot(unsigned i, V3 v) {
    const std::uint64_t m = 1ULL << i;
    zero &= ~m;
    one &= ~m;
    if (v == V3::kZero)
      zero |= m;
    else if (v == V3::kOne)
      one |= m;
  }

  bool well_formed() const { return (zero & one) == 0; }

  bool operator==(const PV& o) const = default;
};

inline PV pv_not(PV a) { return {a.one, a.zero}; }

inline PV pv_and(PV a, PV b) {
  return {a.zero | b.zero, a.one & b.one};
}

inline PV pv_or(PV a, PV b) {
  return {a.zero & b.zero, a.one | b.one};
}

inline PV pv_xor(PV a, PV b) {
  const std::uint64_t known = (a.zero | a.one) & (b.zero | b.one);
  const std::uint64_t x = (a.one ^ b.one) & known;
  return {known & ~x, x};
}

/// Wide parallel three-valued word: PVW::kSubWords independent 64-slot PV
/// sub-words, one per sequence lane of a PPSFP lane group. 64-byte
/// alignment lets the AVX-512 kernel treat a whole plane as one register.
/// The kernels operate on the raw planes through per-translation-unit
/// backend ops (see src/fsim/wide_kernel.h).
struct alignas(64) PVW {
  static constexpr unsigned kSubWords = 8;  ///< sequence lanes per group
  std::uint64_t zero[kSubWords];
  std::uint64_t one[kSubWords];
};

}  // namespace satpg
