#include "base/memstats.h"

#include <cstdio>
#include <cstring>
#include <ostream>

namespace satpg {

namespace detail {
std::atomic<bool> g_memstats_enabled{false};
}

void set_memstats_enabled(bool on) {
  detail::g_memstats_enabled.store(on, std::memory_order_relaxed);
}

namespace {

// Enumerator order == sorted-name order; MemTally::write_json leans on it.
constexpr const char* kSubsystemNames[kNumMemSubsystems] = {
    "bdd_oracle",      "cdcl_clause_db", "cnf_encoder", "decision_ring",
    "fsim_wide_lanes", "shared_cubes",   "tfm_frames",
};

}  // namespace

const char* mem_subsystem_name(MemSubsystem s) {
  return kSubsystemNames[static_cast<std::size_t>(s)];
}

void MemTally::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad1 = pad + "  ";
  const std::string pad2 = pad1 + "  ";
  os << "{\n" << pad1 << "\"subsystems\": {";
  for (std::size_t i = 0; i < kNumMemSubsystems; ++i) {
    const Account& a = acct[i];
    os << (i == 0 ? "\n" : ",\n") << pad2 << '"' << kSubsystemNames[i]
       << "\": {\"live\": " << a.live() << ", \"peak\": " << a.peak
       << ", \"allocated\": " << a.allocated << ", \"allocs\": " << a.allocs
       << '}';
  }
  os << '\n' << pad1 << "},\n";
  os << pad1 << "\"total\": {\"live\": " << live
     << ", \"peak\": " << peak_upper_bound()
     << ", \"allocated\": " << total_allocated() << "}\n"
     << pad << '}';
}

// ---- registry ---------------------------------------------------------------

void MemStatsRegistry::charge(MemSubsystem s, std::uint64_t bytes,
                              std::uint64_t peak_hint) {
  if (!memstats_enabled()) return;
  Account& a = acct_[static_cast<std::size_t>(s)];
  a.allocated.fetch_add(bytes, std::memory_order_relaxed);
  a.allocs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t hint = peak_hint != 0 ? peak_hint : bytes;
  std::uint64_t cur = a.peak.load(std::memory_order_relaxed);
  while (hint > cur && !a.peak.compare_exchange_weak(
                           cur, hint, std::memory_order_relaxed)) {
  }
}

void MemStatsRegistry::release(MemSubsystem s, std::uint64_t bytes) {
  if (!memstats_enabled()) return;
  acct_[static_cast<std::size_t>(s)].freed.fetch_add(
      bytes, std::memory_order_relaxed);
}

MemTally MemStatsRegistry::snapshot() const {
  MemTally t;
  for (std::size_t i = 0; i < kNumMemSubsystems; ++i) {
    const Account& a = acct_[i];
    MemTally::Account& out = t.acct[i];
    out.allocated = a.allocated.load(std::memory_order_relaxed);
    out.freed = a.freed.load(std::memory_order_relaxed);
    out.allocs = a.allocs.load(std::memory_order_relaxed);
    out.peak = a.peak.load(std::memory_order_relaxed);
    if (out.live() > out.peak) out.peak = out.live();
    t.live += out.live();
    if (t.live > t.peak) t.peak = t.live;
  }
  return t;
}

std::uint64_t MemStatsRegistry::live_bytes() const {
  std::uint64_t t = 0;
  for (const Account& a : acct_)
    t += a.allocated.load(std::memory_order_relaxed) -
         a.freed.load(std::memory_order_relaxed);
  return t;
}

void MemStatsRegistry::reset() {
  for (Account& a : acct_) {
    a.allocated.store(0, std::memory_order_relaxed);
    a.freed.store(0, std::memory_order_relaxed);
    a.allocs.store(0, std::memory_order_relaxed);
    a.peak.store(0, std::memory_order_relaxed);
  }
}

MemStatsRegistry& MemStatsRegistry::global() {
  static MemStatsRegistry* const registry = new MemStatsRegistry;  // immortal
  return *registry;
}

std::uint64_t process_peak_rss_kb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      unsigned long long v = 0;
      if (std::sscanf(line + 6, "%llu", &v) == 1) kb = v;
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

}  // namespace satpg
