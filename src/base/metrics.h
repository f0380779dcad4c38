// Low-overhead, thread-aware metrics registry.
//
// A process-wide registry of named counters that the engines update from
// hot paths. It holds only what nothing else counts: substrate work
// (`tfm.evals`, `podem.*`, `fsim.*`, ...), including the speculative
// attempts the run report never merges. Per-fault search effort lives in
// the report's `summary` and `per_fault` blocks, not here. Design
// constraints, in order:
//
//   * Near-zero cost when disabled: every mutation starts with one relaxed
//     atomic load of the global enable flag and returns immediately when it
//     is off — no stores, no allocation, no registry growth from hot paths.
//     The flag defaults to off; `--metrics-json` (CLI / harness) turns it on.
//   * Thread-aware sharding: mutations land in per-thread slots (indexed by
//     `telemetry_thread_index()`, cacheline-padded) so ThreadPool workers
//     never contend on a shared counter word. Shards are merged at report
//     time in fixed slot order — the same merge-order discipline as
//     `atpg/parallel` — so a read is a pure function of what was recorded.
//   * Deterministic reports: everything the registry stores is a sum —
//     order-independent — and `write_json` iterates names in sorted order.
//     A run that records only thread-count-invariant quantities (see
//     DESIGN.md §5) therefore dumps byte-identical JSON at any `--threads`
//     value. Wall-clock quantities belong in the trace (`base/trace.h`),
//     never in the registry.
//
// Handles returned by counter() are stable for the process lifetime; hot
// call sites cache them in function-local statics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace satpg {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}

/// Global on/off switch; mutations are dropped while off.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on);

/// Reserved telemetry index of the process main thread (claimed during
/// static initialization, before any worker can exist).
inline constexpr unsigned kMainThreadIndex = 0;
/// Sentinel index for threads that never registered — e.g. a caller-owned
/// std::thread outside the ThreadPool. Such threads still shard metrics
/// deterministically (sentinel % kShards) but render as "t?" in log lines.
inline constexpr unsigned kForeignThreadIndex = ~0u;

/// Small dense per-thread index shared by metrics sharding, trace lanes,
/// and log-line tagging: kMainThreadIndex for the main thread, 1.. for
/// registered workers, kForeignThreadIndex for everything else.
unsigned telemetry_thread_index();

/// Claim a dense worker index (>= 1) for the calling thread; idempotent —
/// an already-registered thread (including main) keeps its index. Called by
/// ThreadPool's worker loop; foreign threads may call it to opt in.
unsigned telemetry_register_worker();

class MetricsRegistry {
 public:
  static constexpr std::size_t kShards = 16;

  /// Monotonic sum. add() is wait-free: one relaxed fetch_add into the
  /// caller's shard.
  class Counter {
   public:
    void add(std::uint64_t n = 1) {
      if (!metrics_enabled()) return;
      shards_[telemetry_thread_index() % kShards].v.fetch_add(
          n, std::memory_order_relaxed);
    }
    /// Shards merged in slot order 0..kShards-1.
    std::uint64_t total() const;
    void reset();

   private:
    struct alignas(64) Slot {
      std::atomic<std::uint64_t> v{0};
    };
    std::array<Slot, kShards> shards_;
  };

  /// Find-or-create by name. Returned references stay valid for the
  /// registry's lifetime. Names are dot-separated lowercase
  /// ("podem.backtracks"); registration takes a mutex — do it once per call
  /// site, not per event.
  Counter& counter(const std::string& name);

  /// Zero every counter (names stay registered). Used between runs that
  /// must produce independent reports.
  void reset();

  /// Deterministic dump, `{"counters": {name: total, ...}}`: names
  /// sorted, shards merged in slot order. See header comment for the
  /// thread-count-invariance contract.
  void write_json(std::ostream& os, int indent = 0) const;
  std::string to_json() const;

  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;  ///< guards the map, not the counter storage
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace satpg
