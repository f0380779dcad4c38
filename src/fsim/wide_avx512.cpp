// AVX-512 PPSFP kernel: each 512-bit logical plane is one __m512i
// register, and the per-lane masks map directly onto __mmask8. Compiled
// with -mavx512f when the compiler supports it (see CMakeLists.txt); the
// exported entries are only called after the runtime CPUID + XGETBV check
// in src/base/cpu.cpp.
#include "fsim/wide_kernel.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace satpg {
namespace fsim_wide {
namespace {

inline __m512i mask_to_lanes(std::uint8_t m) {
  return _mm512_maskz_set1_epi64(static_cast<__mmask8>(m), -1LL);
}

struct Avx512Ops {
  struct W {
    __m512i z, o;
  };
  static W load(const PVW& p) {
    return {_mm512_loadu_si512(p.zero), _mm512_loadu_si512(p.one)};
  }
  static void store(PVW& p, const W& a) {
    _mm512_storeu_si512(p.zero, a.z);
    _mm512_storeu_si512(p.one, a.o);
  }
  static W expand(std::uint8_t zm, std::uint8_t om) {
    return {mask_to_lanes(zm), mask_to_lanes(om)};
  }
  static W force(const W& a, std::uint64_t m, bool stuck1) {
    // and with ~m rather than andnot: GCC 12's _mm512_andnot_si512 trips
    // -Wuninitialized on its deliberately-undefined pass-through operand.
    const __m512i mm = _mm512_set1_epi64(static_cast<long long>(m));
    const __m512i keep = _mm512_set1_epi64(static_cast<long long>(~m));
    const __m512i z = _mm512_and_si512(a.z, keep);
    const __m512i o = _mm512_and_si512(a.o, keep);
    return stuck1 ? W{z, _mm512_or_si512(o, mm)}
                  : W{_mm512_or_si512(z, mm), o};
  }
  static W not_(const W& a) { return {a.o, a.z}; }
  static W and_(const W& a, const W& b) {
    return {_mm512_or_si512(a.z, b.z), _mm512_and_si512(a.o, b.o)};
  }
  static W or_(const W& a, const W& b) {
    return {_mm512_and_si512(a.z, b.z), _mm512_or_si512(a.o, b.o)};
  }
  static W xor_(const W& a, const W& b) {
    const __m512i known = _mm512_and_si512(_mm512_or_si512(a.z, a.o),
                                           _mm512_or_si512(b.z, b.o));
    const __m512i x = _mm512_and_si512(_mm512_xor_si512(a.o, b.o), known);
    return {_mm512_xor_si512(known, x), x};  // x is a subset of known
  }
};

void run_avx512(const WideView& w) { run_group_batch<Avx512Ops>(w); }

}  // namespace

KernelFn kernel_avx512() { return &run_avx512; }

bool selftest_avx512() { return backend_selftest<Avx512Ops>(); }

}  // namespace fsim_wide
}  // namespace satpg

#else  // !__AVX512F__

namespace satpg {
namespace fsim_wide {
KernelFn kernel_avx512() { return nullptr; }
bool selftest_avx512() { return false; }
}  // namespace fsim_wide
}  // namespace satpg

#endif
