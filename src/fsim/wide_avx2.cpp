// AVX2 PPSFP kernel: each 512-bit logical plane is two __m256i vectors
// (lanes 0-3 and 4-7). Compiled with -mavx2 when the compiler supports it
// (see CMakeLists.txt); the exported entries are only called after the
// runtime CPUID check in src/base/cpu.cpp.
#include "fsim/wide_kernel.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace satpg {
namespace fsim_wide {
namespace {

inline __m256i load256(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store256(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Lane-mask bits `sel` broadcast to 64-bit all-ones lanes.
inline __m256i mask_to_lanes(std::uint8_t m, __m256i sel) {
  return _mm256_cmpeq_epi64(_mm256_and_si256(_mm256_set1_epi64x(m), sel),
                            sel);
}

struct Avx2Ops {
  /// lo: sub-words 0-3, hi: sub-words 4-7.
  struct W {
    __m256i zlo, zhi, olo, ohi;
  };
  static W load(const PVW& p) {
    return {load256(p.zero), load256(p.zero + 4), load256(p.one),
            load256(p.one + 4)};
  }
  static void store(PVW& p, const W& a) {
    store256(p.zero, a.zlo);
    store256(p.zero + 4, a.zhi);
    store256(p.one, a.olo);
    store256(p.one + 4, a.ohi);
  }
  static W expand(std::uint8_t zm, std::uint8_t om) {
    const __m256i lo = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i hi = _mm256_setr_epi64x(16, 32, 64, 128);
    return {mask_to_lanes(zm, lo), mask_to_lanes(zm, hi),
            mask_to_lanes(om, lo), mask_to_lanes(om, hi)};
  }
  static W force(const W& a, std::uint64_t m, bool stuck1) {
    const __m256i mm = _mm256_set1_epi64x(static_cast<long long>(m));
    const __m256i zs = stuck1 ? _mm256_setzero_si256() : mm;
    const __m256i os = stuck1 ? mm : _mm256_setzero_si256();
    return {_mm256_or_si256(_mm256_andnot_si256(mm, a.zlo), zs),
            _mm256_or_si256(_mm256_andnot_si256(mm, a.zhi), zs),
            _mm256_or_si256(_mm256_andnot_si256(mm, a.olo), os),
            _mm256_or_si256(_mm256_andnot_si256(mm, a.ohi), os)};
  }
  static W not_(const W& a) { return {a.olo, a.ohi, a.zlo, a.zhi}; }
  static W and_(const W& a, const W& b) {
    return {_mm256_or_si256(a.zlo, b.zlo), _mm256_or_si256(a.zhi, b.zhi),
            _mm256_and_si256(a.olo, b.olo), _mm256_and_si256(a.ohi, b.ohi)};
  }
  static W or_(const W& a, const W& b) {
    return {_mm256_and_si256(a.zlo, b.zlo), _mm256_and_si256(a.zhi, b.zhi),
            _mm256_or_si256(a.olo, b.olo), _mm256_or_si256(a.ohi, b.ohi)};
  }
  static W xor_(const W& a, const W& b) {
    const __m256i klo = _mm256_and_si256(_mm256_or_si256(a.zlo, a.olo),
                                         _mm256_or_si256(b.zlo, b.olo));
    const __m256i khi = _mm256_and_si256(_mm256_or_si256(a.zhi, a.ohi),
                                         _mm256_or_si256(b.zhi, b.ohi));
    const __m256i xlo = _mm256_and_si256(_mm256_xor_si256(a.olo, b.olo), klo);
    const __m256i xhi = _mm256_and_si256(_mm256_xor_si256(a.ohi, b.ohi), khi);
    return {_mm256_andnot_si256(xlo, klo), _mm256_andnot_si256(xhi, khi), xlo,
            xhi};
  }
};

void run_avx2(const WideView& w) { run_group_batch<Avx2Ops>(w); }

}  // namespace

KernelFn kernel_avx2() { return &run_avx2; }

bool selftest_avx2() { return backend_selftest<Avx2Ops>(); }

}  // namespace fsim_wide
}  // namespace satpg

#else  // !__AVX2__

namespace satpg {
namespace fsim_wide {
KernelFn kernel_avx2() { return nullptr; }
bool selftest_avx2() { return false; }
}  // namespace fsim_wide
}  // namespace satpg

#endif
