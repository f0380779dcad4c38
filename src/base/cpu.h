// CPU feature detection and SIMD tier selection for the wide fault
// simulator (DESIGN.md §8).
//
// A SimdTier names one physical kernel width. Detection runs CPUID (and
// XGETBV, to confirm the OS saves the wider register files) exactly once;
// every later query reads the cached result. The `SATPG_FORCE_SCALAR`
// environment variable caps resolution at kScalar regardless of hardware
// or explicit requests — it exists so CI legs and bug reports can pin the
// portable code path — and is likewise read once per process.
#pragma once

#include <cstdint>
#include <string>

namespace satpg {

/// Physical kernel widths for the wide (pattern-parallel) fault simulator.
/// All tiers compute the same fixed-width logical word, so results and
/// metrics are identical across tiers by construction; the tier only
/// selects which instruction set crunches it.
enum class SimdTier : std::uint8_t {
  kAuto = 0,  ///< widest tier that is both compiled in and CPU-supported
  kScalar,    ///< portable uint64_t[] loops
  kSse2,      ///< 128-bit vectors
  kAvx2,      ///< 256-bit vectors
  kAvx512,    ///< 512-bit vectors (AVX-512F)
};

/// "auto", "scalar", "sse2", "avx2", "avx512".
const char* simd_tier_name(SimdTier t);

/// Maps a lane-group bit width (128/256/512) to its tier; false on any
/// other width. 64 maps to kScalar for symmetry with --width=64.
bool simd_tier_from_width(unsigned width, SimdTier* out);

struct CpuFeatures {
  bool sse2 = false;
  bool avx2 = false;    ///< AVX2 and OS YMM state support
  bool avx512 = false;  ///< AVX-512F and OS ZMM/opmask state support
};

/// Cached one-time CPUID/XGETBV probe of the running machine.
const CpuFeatures& cpu_features();

/// True when the hardware (and OS register-state support) can run `t`.
/// kScalar and kAuto are always runnable.
bool simd_tier_supported(SimdTier t);

/// Cached one-time read of SATPG_FORCE_SCALAR: set and not "0" => true.
bool simd_force_scalar_env();

/// Marketing name of the running CPU ("AMD EPYC 7B13", ...), read once
/// from the CPUID brand string (x86) or /proc/cpuinfo; "unknown" when
/// neither works. Wall-plane provenance only — it names the machine, so
/// it may appear in bench/profile artifacts but never in deterministic
/// reports.
const std::string& cpu_model_name();

}  // namespace satpg
