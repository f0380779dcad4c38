// SSE2 PPSFP kernel: each 512-bit logical plane is four __m128i vectors
// (two sub-words each). SSE2 is baseline on x86-64, so no extra compile
// flags are needed; on other architectures this TU compiles to stubs.
#include "fsim/wide_kernel.h"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace satpg {
namespace fsim_wide {
namespace {

constexpr unsigned kVecs = kLanes / 2;

struct Sse2Ops {
  struct W {
    __m128i z[kVecs], o[kVecs];
  };
  static W load(const PVW& p) {
    W r;
    for (unsigned i = 0; i < kVecs; ++i) {
      r.z[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p.zero) + i);
      r.o[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p.one) + i);
    }
    return r;
  }
  static void store(PVW& p, const W& a) {
    for (unsigned i = 0; i < kVecs; ++i) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p.zero) + i, a.z[i]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p.one) + i, a.o[i]);
    }
  }
  // SSE2 has no 64-bit compare, so mask expansion stays scalar; the bulk
  // plane ops below are where the vectors pay off.
  static W expand(std::uint8_t zm, std::uint8_t om) {
    auto lane = [](std::uint8_t m, unsigned g) {
      return static_cast<long long>(0ULL -
                                    static_cast<std::uint64_t>((m >> g) & 1));
    };
    W r;
    for (unsigned i = 0; i < kVecs; ++i) {
      r.z[i] = _mm_set_epi64x(lane(zm, 2 * i + 1), lane(zm, 2 * i));
      r.o[i] = _mm_set_epi64x(lane(om, 2 * i + 1), lane(om, 2 * i));
    }
    return r;
  }
  static W force(const W& a, std::uint64_t m, bool stuck1) {
    const __m128i mm = _mm_set1_epi64x(static_cast<long long>(m));
    const __m128i zs = stuck1 ? _mm_setzero_si128() : mm;
    const __m128i os = stuck1 ? mm : _mm_setzero_si128();
    W r;
    for (unsigned i = 0; i < kVecs; ++i) {
      r.z[i] = _mm_or_si128(_mm_andnot_si128(mm, a.z[i]), zs);
      r.o[i] = _mm_or_si128(_mm_andnot_si128(mm, a.o[i]), os);
    }
    return r;
  }
  static W not_(const W& a) {
    W r;
    for (unsigned i = 0; i < kVecs; ++i) {
      r.z[i] = a.o[i];
      r.o[i] = a.z[i];
    }
    return r;
  }
  static W and_(const W& a, const W& b) {
    W r;
    for (unsigned i = 0; i < kVecs; ++i) {
      r.z[i] = _mm_or_si128(a.z[i], b.z[i]);
      r.o[i] = _mm_and_si128(a.o[i], b.o[i]);
    }
    return r;
  }
  static W or_(const W& a, const W& b) {
    W r;
    for (unsigned i = 0; i < kVecs; ++i) {
      r.z[i] = _mm_and_si128(a.z[i], b.z[i]);
      r.o[i] = _mm_or_si128(a.o[i], b.o[i]);
    }
    return r;
  }
  static W xor_(const W& a, const W& b) {
    W r;
    for (unsigned i = 0; i < kVecs; ++i) {
      const __m128i known = _mm_and_si128(_mm_or_si128(a.z[i], a.o[i]),
                                          _mm_or_si128(b.z[i], b.o[i]));
      r.o[i] = _mm_and_si128(_mm_xor_si128(a.o[i], b.o[i]), known);
      r.z[i] = _mm_andnot_si128(r.o[i], known);
    }
    return r;
  }
};

void run_sse2(const WideView& w) { run_group_batch<Sse2Ops>(w); }

}  // namespace

KernelFn kernel_sse2() { return &run_sse2; }

bool selftest_sse2() { return backend_selftest<Sse2Ops>(); }

}  // namespace fsim_wide
}  // namespace satpg

#else  // !__SSE2__

namespace satpg {
namespace fsim_wide {
KernelFn kernel_sse2() { return nullptr; }
bool selftest_sse2() { return false; }
}  // namespace fsim_wide
}  // namespace satpg

#endif
