#include "base/cpu.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace satpg {

namespace {

#if defined(__x86_64__) || defined(__i386__)

std::uint64_t read_xcr0() {
  std::uint32_t eax, edx;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0"  // xgetbv, old-assembler safe
                   : "=a"(eax), "=d"(edx)
                   : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

CpuFeatures probe() {
  CpuFeatures f;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  f.sse2 = (edx >> 26) & 1;
  const bool osxsave = (ecx >> 27) & 1;
  const bool avx = (ecx >> 28) & 1;
  if (!osxsave || !avx) return f;
  const std::uint64_t xcr0 = read_xcr0();
  const bool ymm_ok = (xcr0 & 0x6) == 0x6;          // XMM + YMM saved
  const bool zmm_ok = (xcr0 & 0xe6) == 0xe6;        // + opmask, ZMM hi/lo
  unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
  if (!__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) return f;
  f.avx2 = ymm_ok && ((ebx7 >> 5) & 1);
  f.avx512 = zmm_ok && ((ebx7 >> 16) & 1);          // AVX-512F
  return f;
}

#else

CpuFeatures probe() { return {}; }

#endif

}  // namespace

const char* simd_tier_name(SimdTier t) {
  switch (t) {
    case SimdTier::kAuto:
      return "auto";
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kSse2:
      return "sse2";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "?";
}

bool simd_tier_from_width(unsigned width, SimdTier* out) {
  switch (width) {
    case 64:
      *out = SimdTier::kScalar;
      return true;
    case 128:
      *out = SimdTier::kSse2;
      return true;
    case 256:
      *out = SimdTier::kAvx2;
      return true;
    case 512:
      *out = SimdTier::kAvx512;
      return true;
    default:
      return false;
  }
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe();
  return f;
}

bool simd_tier_supported(SimdTier t) {
  const CpuFeatures& f = cpu_features();
  switch (t) {
    case SimdTier::kAuto:
    case SimdTier::kScalar:
      return true;
    case SimdTier::kSse2:
      return f.sse2;
    case SimdTier::kAvx2:
      return f.avx2;
    case SimdTier::kAvx512:
      return f.avx512;
  }
  return false;
}

namespace {

std::string probe_cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned max_ext = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &max_ext, &ebx, &ecx, &edx) &&
      max_ext >= 0x80000004u) {
    char brand[49] = {};
    auto* words = reinterpret_cast<unsigned*>(brand);
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &words[leaf * 4 + 0],
                  &words[leaf * 4 + 1], &words[leaf * 4 + 2],
                  &words[leaf * 4 + 3]);
    std::string name(brand);
    // The brand string is padded; trim the edges.
    while (!name.empty() && name.front() == ' ') name.erase(name.begin());
    while (!name.empty() && (name.back() == ' ' || name.back() == '\0'))
      name.pop_back();
    if (!name.empty()) return name;
  }
#endif
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f)) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon == nullptr) continue;
      std::string name(colon + 1);
      while (!name.empty() && (name.front() == ' ' || name.front() == '\t'))
        name.erase(name.begin());
      while (!name.empty() && (name.back() == '\n' || name.back() == ' '))
        name.pop_back();
      std::fclose(f);
      if (!name.empty()) return name;
      break;
    }
    std::fclose(f);
  }
#endif
  return "unknown";
}

}  // namespace

const std::string& cpu_model_name() {
  static const std::string name = probe_cpu_model();
  return name;
}

bool simd_force_scalar_env() {
  static const bool forced = [] {
    const char* v = std::getenv("SATPG_FORCE_SCALAR");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
  }();
  return forced;
}

}  // namespace satpg
