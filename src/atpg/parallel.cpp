#include "atpg/parallel.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "base/json.h"
#include "base/memstats.h"
#include "base/profiler.h"
#include "base/strutil.h"
#include "base/telemetry_flags.h"
#include "base/threadpool.h"

namespace satpg {

// ---- SharedLearningCache ----------------------------------------------------

SharedLearningCache::SharedLearningCache(std::size_t num_shards)
    : shards_(std::max<std::size_t>(1, num_shards)) {}

bool SharedLearningCache::View::lookup_ok(
    const StateKey& key, std::vector<std::vector<V3>>* prefix) const {
  const Shard& sh = cache_->shard_for(key);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.map.find(key);
  if (it == sh.map.end()) return false;
  const Entry& e = it->second;
  if (!e.ok || e.epoch > read_epoch_) return false;
  *prefix = e.prefix;
  return true;
}

bool SharedLearningCache::View::lookup_fail_info(const StateKey& key,
                                                 std::string* exporter,
                                                 std::uint32_t* epoch) const {
  const Shard& sh = cache_->shard_for(key);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.map.find(key);
  if (it == sh.map.end()) return false;
  const Entry& e = it->second;
  if (e.ok || e.epoch > read_epoch_) return false;
  if (exporter != nullptr) *exporter = e.exporter;
  if (epoch != nullptr) *epoch = e.epoch;
  return true;
}

std::vector<LearningShare::FailCubeInfo>
SharedLearningCache::View::fail_cube_infos() const {
  // Shard scan, then a canonical sort: the visible set is frozen for the
  // round (same-round publishes carry epoch read_epoch_+1), so the result
  // depends only on the committed cache content, never on shard layout or
  // scheduling.
  std::vector<FailCubeInfo> cubes;
  for (const Shard& sh : cache_->shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (const auto& [key, e] : sh.map)
      if (!e.ok && e.epoch <= read_epoch_)
        cubes.push_back({key, e.exporter, e.epoch});
  }
  std::sort(cubes.begin(), cubes.end(),
            [](const FailCubeInfo& a, const FailCubeInfo& b) {
              return a.key.to_string() < b.key.to_string();
            });
  return cubes;
}

void SharedLearningCache::publish(std::uint32_t round, std::uint32_t unit,
                                  const AtpgEngine& engine) {
  const std::uint32_t epoch = round + 1;
  const auto insert = [&](const StateKey& key, bool ok,
                          const std::vector<std::vector<V3>>* prefix,
                          const std::string* exporter) {
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      // First writer in (epoch, unit) order wins, so the surviving entry
      // does not depend on publish arrival order — and a visible entry is
      // never replaced (any racing publish carries a larger epoch).
      // Provenance tags inherit the same stability: the original
      // exporter's entry survives republishing by beneficiaries.
      const Entry& e = it->second;
      if (std::make_pair(e.epoch, e.unit) <= std::make_pair(epoch, unit))
        return;
    }
    Entry e;
    e.ok = ok;
    e.epoch = epoch;
    e.unit = unit;
    if (prefix != nullptr) e.prefix = *prefix;
    if (exporter != nullptr) e.exporter = *exporter;
    sh.map[key] = std::move(e);
  };
  const auto& origins = engine.cube_origins();
  for (const auto& [key, prefix] : engine.learned_ok())
    insert(key, true, &prefix, nullptr);
  for (const auto& key : engine.learned_fail()) {
    const auto origin = origins.find(key);
    insert(key, false, nullptr,
           origin != origins.end() ? &origin->second.exporter : nullptr);
  }
}

std::size_t SharedLearningCache::size() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    n += sh.map.size();
  }
  return n;
}

std::uint64_t SharedLearningCache::logical_bytes() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (const auto& [key, e] : sh.map) {
      n += key.size() + e.exporter.size() + sizeof(Entry);
      for (const auto& v : e.prefix) n += v.size() * sizeof(V3);
    }
  }
  return n;
}

// ---- driver -----------------------------------------------------------------

namespace {

// Fixed work-unit geometry — deliberately independent of the thread count
// so the round structure (and with it every result bit) never varies with
// num_threads. kUnitSize trades per-unit engine construction (SCOAP) cost
// against fault-drop responsiveness; kUnitsPerRound bounds how much
// speculative generation one round can waste on faults a sibling unit is
// about to drop.
constexpr std::size_t kUnitSize = 4;
constexpr std::size_t kUnitsPerRound = 16;

struct UnitOutcome {
  std::vector<FaultAttempt> attempts;        ///< slot per unit fault
  std::vector<std::uint8_t> budget_skipped;  ///< never attempted: budget
  std::vector<std::uint8_t> deadline_skipped;
  std::size_t verify_rejects = 0;
  /// First triggered capture of this unit (fault order within the unit).
  std::optional<SearchCapture> capture;
};

// ---- live monitoring --------------------------------------------------------

enum class RunPhase : std::uint32_t {
  kRandom = 0,
  kOracle,
  kRounds,
  kReplay,
  kDone,
};

const char* run_phase_name(RunPhase p) {
  switch (p) {
    case RunPhase::kRandom:
      return "random";
    case RunPhase::kOracle:
      return "oracle";
    case RunPhase::kRounds:
      return "rounds";
    case RunPhase::kReplay:
      return "replay";
    case RunPhase::kDone:
      return "done";
  }
  return "?";
}

/// Shared scoreboard between the orchestrating thread (writer, at merge
/// barriers), the workers (writers of their own SearchProgress slot), and
/// the monitor thread (reader). Atomics only — safe to sample mid-round;
/// a heartbeat may catch values from two different merge steps, which is
/// fine for display (DESIGN.md §7).
struct ProgressBoard {
  std::vector<SearchProgress> slots;  ///< one per worker thread
  std::atomic<std::uint32_t> phase{0};
  std::atomic<std::uint32_t> round{0};
  std::atomic<std::uint64_t> faults{0};    ///< collapsed faults
  std::atomic<std::uint64_t> resolved{0};  ///< settled collapsed faults
  std::atomic<std::uint64_t> detected{0};
  std::atomic<std::uint64_t> redundant{0};
  std::atomic<std::uint64_t> aborted{0};
  std::atomic<std::uint64_t> evals{0};  ///< committed (merged) evals
  std::atomic<std::uint64_t> backtracks{0};
  std::atomic<std::uint64_t> tests{0};
  std::atomic<std::uint64_t> coverage_milli{0};  ///< strict FE, milli-%
  std::atomic<std::uint64_t> deferred_parked{0};
  std::atomic<std::uint64_t> stuck_flagged{0};

  explicit ProgressBoard(std::size_t num_slots) : slots(num_slots) {}
};

class AtpgMonitorSource final : public MonitorSource {
 public:
  AtpgMonitorSource(const ProgressBoard* board,
                    std::vector<std::string> fault_names,
                    std::chrono::steady_clock::time_point run_t0,
                    const WatchdogOptions& wd)
      : board_(board),
        fault_names_(std::move(fault_names)),
        run_t0_(run_t0),
        stuck_seconds_(wd.stuck_seconds),
        stuck_evals_(wd.stuck_evals) {}

  std::string heartbeat_json(std::uint64_t seq, double elapsed_s) override {
    const ProgressBoard& b = *board_;
    std::string s = strprintf(
        "{\"schema\": \"satpg.heartbeat.v2\", \"seq\": %llu, "
        "\"elapsed_s\": %.3f, \"phase\": \"%s\", \"round\": %u, "
        "\"faults\": %llu, \"resolved\": %llu, \"detected\": %llu, "
        "\"redundant\": %llu, \"aborted\": %llu, \"coverage_pct\": %.3f, "
        "\"evals\": %llu, \"backtracks\": %llu, \"tests\": %llu, "
        "\"deferred\": %llu, \"stuck_flagged\": %llu, "
        "\"mem_live_bytes\": %llu, \"peak_rss_kb\": %llu, \"inflight\": [",
        static_cast<unsigned long long>(seq), elapsed_s,
        run_phase_name(static_cast<RunPhase>(
            b.phase.load(std::memory_order_relaxed))),
        b.round.load(std::memory_order_relaxed),
        ull(b.faults), ull(b.resolved), ull(b.detected), ull(b.redundant),
        ull(b.aborted),
        static_cast<double>(b.coverage_milli.load(
            std::memory_order_relaxed)) / 1000.0,
        ull(b.evals), ull(b.backtracks), ull(b.tests),
        ull(b.deferred_parked), ull(b.stuck_flagged),
        // Process-level truth rides the heartbeat stream ONLY: VmHWM and
        // the racy registry live count are wall-clock-shaped and never
        // enter a deterministic report (DESIGN.md §11).
        static_cast<unsigned long long>(
            MemStatsRegistry::global().live_bytes()),
        static_cast<unsigned long long>(process_peak_rss_kb()));
    const double run_elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - run_t0_)
                                   .count();
    bool first = true;
    for (std::size_t w = 0; w < b.slots.size(); ++w) {
      const SearchProgress& p = b.slots[w];
      const std::uint64_t tag = p.fault_tag.load(std::memory_order_relaxed);
      if (tag == 0) continue;
      const std::size_t fi = static_cast<std::size_t>(tag - 1);
      const std::string name =
          fi < fault_names_.size() ? fault_names_[fi] : "?";
      const double slot_elapsed = std::max(
          0.0, run_elapsed - static_cast<double>(p.start_us.load(
                                 std::memory_order_relaxed)) /
                                 1e6);
      const std::uint64_t evals = p.evals.load(std::memory_order_relaxed);
      const bool stuck =
          (stuck_seconds_ > 0.0 && slot_elapsed >= stuck_seconds_) ||
          (stuck_evals_ > 0 && evals >= stuck_evals_);
      s += strprintf(
          "%s{\"slot\": %zu, \"fault\": \"%s\", \"phase\": \"%s\", "
          "\"evals\": %llu, \"backtracks\": %llu, \"implications\": %llu, "
          "\"invalid_evals\": %llu, \"conflicts\": %llu, "
          "\"propagations\": %llu, \"restarts\": %llu, "
          "\"elapsed_s\": %.3f, \"stuck\": %s}",
          first ? "" : ", ", w, json_escape(name).c_str(),
          search_phase_name(static_cast<SearchPhase>(
              p.phase.load(std::memory_order_relaxed))),
          static_cast<unsigned long long>(evals),
          static_cast<unsigned long long>(
              p.backtracks.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              p.implications.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              p.invalid_evals.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              p.conflicts.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              p.propagations.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              p.restarts.load(std::memory_order_relaxed)),
          slot_elapsed, stuck ? "true" : "false");
      first = false;
    }
    s += "]}";
    return s;
  }

  std::string progress_line(double elapsed_s) override {
    const ProgressBoard& b = *board_;
    std::size_t inflight = 0;
    for (const SearchProgress& p : b.slots)
      if (p.fault_tag.load(std::memory_order_relaxed) != 0) ++inflight;
    return strprintf(
        "[%8.1fs] %s r%u  %llu/%llu faults  FE %.2f%%  %llu tests  "
        "%llu evals  %zu in-flight  %llu stuck  %llu deferred",
        elapsed_s,
        run_phase_name(static_cast<RunPhase>(
            b.phase.load(std::memory_order_relaxed))),
        b.round.load(std::memory_order_relaxed), ull(b.resolved),
        ull(b.faults),
        static_cast<double>(b.coverage_milli.load(
            std::memory_order_relaxed)) / 1000.0,
        ull(b.tests), ull(b.evals), inflight, ull(b.stuck_flagged),
        ull(b.deferred_parked));
  }

 private:
  static unsigned long long ull(const std::atomic<std::uint64_t>& a) {
    return static_cast<unsigned long long>(
        a.load(std::memory_order_relaxed));
  }

  const ProgressBoard* board_;
  const std::vector<std::string> fault_names_;
  const std::chrono::steady_clock::time_point run_t0_;
  const double stuck_seconds_;
  const std::uint64_t stuck_evals_;
};

}  // namespace

std::ptrdiff_t resolve_capture_fault(
    const Netlist& nl, const std::vector<CollapsedFault>& collapsed,
    const std::string& spec) {
  if (spec.empty()) return -1;
  std::uint64_t i = 0;
  if (parse_u64(spec.c_str(), &i))
    return i < collapsed.size() ? static_cast<std::ptrdiff_t>(i) : -1;
  for (std::size_t k = 0; k < collapsed.size(); ++k)
    if (fault_name(nl, collapsed[k].representative) == spec)
      return static_cast<std::ptrdiff_t>(k);
  return -1;
}

ParallelAtpgResult run_parallel_atpg(const Netlist& nl,
                                     const ParallelAtpgOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  ParallelAtpgResult res;
  AtpgRunResult& run = res.run;

  // Build the netlist's lazy caches before workers share it: the const
  // accessors populate mutable caches on first use and must not race. The
  // fault simulator reads only the compiled form; only CDCL encoding reads
  // the fanout cones inside the workers.
  nl.compiled();
  if (opts.run.engine.kind == EngineKind::kCdcl) nl.fanout_cones();

  const auto collapsed = collapse_faults(nl);
  std::vector<Fault> faults;
  faults.reserve(collapsed.size());
  for (const auto& cf : collapsed) faults.push_back(cf.representative);

  enum class S { kUndetected, kDetected, kRedundant, kAborted };
  std::vector<S> status(faults.size(), S::kUndetected);
  std::vector<bool> potential(faults.size(), false);
  res.detected_by.assign(faults.size(), -1);
  res.attempted.assign(faults.size(), 0);
  res.fault_stats.assign(faults.size(), FaultSearchStats{});
  res.fault_events.assign(faults.size(), SearchEventList{});
  res.cube_sources.assign(faults.size(), {});

  const unsigned num_threads = opts.num_threads == 0
                                   ? ThreadPool::hardware_threads()
                                   : opts.num_threads;

  // ---- live monitor (observer only; DESIGN.md §7) ----
  // Everything the monitor thread reads is either atomic (the board) or
  // immutable from here on (the fault-name vector, built before start()).
  const bool monitored = opts.monitor.enabled();
  std::unique_ptr<ProgressBoard> board;
  std::unique_ptr<AtpgMonitorSource> source;
  std::unique_ptr<RunMonitor> monitor;
  if (monitored) {
    board = std::make_unique<ProgressBoard>(
        std::max<std::size_t>(1, num_threads));
    board->faults.store(faults.size(), std::memory_order_relaxed);
    std::vector<std::string> names;
    names.reserve(faults.size());
    for (const Fault& f : faults) names.push_back(fault_name(nl, f));
    source = std::make_unique<AtpgMonitorSource>(board.get(),
                                                 std::move(names), t0,
                                                 opts.watchdog);
    monitor = std::make_unique<RunMonitor>(source.get(), opts.monitor);
    monitor->start();
  }
  const auto set_phase = [&](RunPhase p) {
    if (board) board->phase.store(static_cast<std::uint32_t>(p),
                                  std::memory_order_relaxed);
  };
  const auto now_us = [&t0] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t0)
            .count());
  };

  // ---- watchdog / capture / memory-budget state ----
  const bool wd = opts.watchdog.enabled();
  const bool defer = wd && opts.watchdog.defer;
  // A budget arms per-attempt accounting even when the registry plane is
  // off; mem-capped faults ride the same park-and-requeue machinery as
  // watchdog deferral (and work without it).
  const bool mem_budget = opts.mem_budget_bytes != 0;
  const bool mem_armed = memstats_enabled() || mem_budget;
  res.mem_budget_bytes = opts.mem_budget_bytes;
  std::vector<std::uint8_t> parked(faults.size(), 0);
  std::vector<std::uint8_t> requeued(faults.size(), 0);
  std::vector<std::uint8_t> tripped(faults.size(), 0);
  std::vector<std::uint8_t> was_deferred(faults.size(), 0);
  std::vector<std::uint8_t> mem_parked(faults.size(), 0);
  std::vector<std::uint64_t> trip_evals(faults.size(), 0);
  const bool capturing = opts.capture.armed;
  const std::ptrdiff_t capture_target =
      capturing ? resolve_capture_fault(nl, collapsed, opts.capture.fault)
                : -1;

  // ---- random phase ----
  set_phase(RunPhase::kRandom);
  const auto random_seqs =
      make_random_sequences(nl, opts.run.random_sequences,
                            opts.run.random_length, opts.run.seed);
  if (!random_seqs.empty()) {
    PhaseSpan span(ProfPhase::kAtpgRandomPhase);
    const auto fr =
        run_fault_simulation(nl, faults, random_seqs, opts.run.fsim);
    std::vector<int> seq_test_index(random_seqs.size(), -1);
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (fr.detected_at[i] >= 0)
        seq_test_index[static_cast<std::size_t>(fr.detected_at[i])] = 0;
    for (std::size_t s = 0; s < random_seqs.size(); ++s)
      if (seq_test_index[s] >= 0) {
        seq_test_index[s] = static_cast<int>(run.tests.size());
        run.tests.push_back(random_seqs[s]);
      }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (fr.detected_at[i] >= 0) {
        status[i] = S::kDetected;
        res.detected_by[i] =
            seq_test_index[static_cast<std::size_t>(fr.detected_at[i])];
      }
      if (fr.potential_at[i] >= 0) potential[i] = true;
    }
  }

  // ---- deterministic phase: rounds of fixed work units ----
  // kCdcl shares proven-unreachable cubes through the same epoch-gated
  // cache unless sharing is ablated away (--no-shared-learning).
  const bool learning =
      opts.run.engine.kind == EngineKind::kLearning ||
      (opts.run.engine.kind == EngineKind::kCdcl &&
       opts.run.engine.share_learning);
  // Built once on the orchestrating thread, then shared read-only by every
  // unit engine: the oracle is immutable and classify() is pure, so the
  // attribution buckets are as thread-count invariant as the search stats.
  StateValidityOracle oracle;
  if (opts.run.attribute_effort) {
    PhaseSpan oracle_span(ProfPhase::kAtpgOracleBuild);
    set_phase(RunPhase::kOracle);
    oracle = StateValidityOracle::build(nl);
    run.oracle = oracle.info();
  }
  // The oracle's answer structures live for the rest of the run; charge
  // them once, post-build, on the orchestrator (deterministic bytes).
  const MemRegistryScope oracle_mem(
      MemSubsystem::kBddOracle,
      memstats_enabled() ? oracle.footprint_bytes() : 0);
  set_phase(RunPhase::kRounds);
  SharedLearningCache cache;
  std::uint64_t cache_bytes_charged = 0;
  std::atomic<bool> abort{false};
  const bool have_deadline = opts.deadline_ms > 0;
  const auto deadline = t0 + std::chrono::milliseconds(opts.deadline_ms);

  std::size_t w_all = 0;
  for (const auto& cf : collapsed)
    w_all += static_cast<std::size_t>(cf.class_size);
  const auto current_fe = [&]() {
    std::size_t w = 0;
    for (std::size_t j = 0; j < faults.size(); ++j)
      if (status[j] == S::kDetected || status[j] == S::kRedundant)
        w += static_cast<std::size_t>(collapsed[j].class_size);
    return 100.0 * static_cast<double>(w) /
           static_cast<double>(std::max<std::size_t>(1, w_all));
  };

  std::uint64_t committed_evals = 0;
  std::uint64_t committed_backtracks = 0;
  std::size_t verify_rejects = 0;

  std::vector<std::size_t> todo;
  for (std::uint32_t round = 0;; ++round) {
    todo.clear();
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (status[i] == S::kUndetected && !parked[i]) todo.push_back(i);
    if (todo.empty() && (defer || mem_budget)) {
      // Every non-parked fault has settled: requeue the parked ones with
      // the full original budget (and the memory budget lifted). A parked
      // fault a sibling's test already dropped stays dropped; the rest get
      // the exact attempt they would have had without deferral/budget
      // (fresh engine, fresh budget, no cap).
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (!parked[i]) continue;
        parked[i] = 0;
        if (status[i] != S::kUndetected) continue;
        requeued[i] = 1;
        todo.push_back(i);
        if (was_deferred[i]) ++res.deferred_requeued;
        if (mem_parked[i]) ++res.mem_requeued;
      }
      if (board)
        board->deferred_parked.store(0, std::memory_order_relaxed);
    }
    if (todo.empty()) break;

    if (opts.run.total_eval_budget &&
        committed_evals > opts.run.total_eval_budget) {
      for (const std::size_t i : todo) status[i] = S::kAborted;
      break;
    }
    if (have_deadline && (abort.load(std::memory_order_relaxed) ||
                          Clock::now() >= deadline)) {
      abort.store(true, std::memory_order_relaxed);
      res.aborted_by_deadline += todo.size();
      for (const std::size_t i : todo) status[i] = S::kAborted;
      break;
    }

    if (board) board->round.store(round + 1, std::memory_order_relaxed);
    const std::size_t round_faults =
        std::min(todo.size(), kUnitSize * kUnitsPerRound);
    const std::size_t num_units =
        (round_faults + kUnitSize - 1) / kUnitSize;
    std::vector<UnitOutcome> outcome(num_units);
    const std::uint64_t round_start_evals = committed_evals;
    // Soft caps are decided HERE, before the parallel section, from
    // orchestrator-owned state only — workers never read driver state, so
    // which attempts run capped is thread-count invariant.
    std::vector<std::uint8_t> round_capped(round_faults, 0);
    if (defer)
      for (std::size_t k = 0; k < round_faults; ++k)
        round_capped[k] = requeued[todo[k]] ? 0 : 1;
    // Same pre-parallel decision for the memory budget: requeued faults
    // run with the budget lifted.
    std::vector<std::uint8_t> round_mem_limited(round_faults, 0);
    if (mem_budget)
      for (std::size_t k = 0; k < round_faults; ++k)
        round_mem_limited[k] = requeued[todo[k]] ? 0 : 1;

    const auto run_unit = [&](std::size_t u, unsigned w) {
      PhaseSpan span(ProfPhase::kAtpgUnit);
      const std::size_t lo = u * kUnitSize;
      const std::size_t n = std::min(kUnitSize, round_faults - lo);
      UnitOutcome& out = outcome[u];
      out.attempts.resize(n);
      out.budget_skipped.assign(n, 0);
      out.deadline_skipped.assign(n, 0);
      AtpgEngine engine(nl, opts.run.engine);
      const SharedLearningCache::View view = cache.view_for_round(round);
      if (learning) engine.set_shared_learning(&view);
      engine.set_abort_flag(&abort);
      engine.set_record_events(opts.record_events);
      if (opts.run.attribute_effort) engine.set_validity_oracle(&oracle);
      SearchProgress* cell = board ? &board->slots[w] : nullptr;
      if (cell) engine.set_search_progress(cell);
      DecisionRing ring(opts.capture.ring_capacity);
      if (capturing) engine.set_decision_ring(&ring);
      for (std::size_t k = 0; k < n; ++k) {
        if (have_deadline && Clock::now() >= deadline)
          abort.store(true, std::memory_order_relaxed);
        if (abort.load(std::memory_order_relaxed)) {
          out.deadline_skipped[k] = 1;
          continue;
        }
        // Budget check against the committed count at round start plus
        // this unit's own spend — both deterministic, unlike a live shared
        // counter whose reading would depend on sibling-unit timing.
        if (opts.run.total_eval_budget &&
            round_start_evals + engine.total_evals() >
                opts.run.total_eval_budget) {
          out.budget_skipped[k] = 1;
          continue;
        }
        const std::size_t fi = todo[lo + k];
        const std::uint64_t cap =
            round_capped[lo + k] ? opts.watchdog.stuck_evals : 0;
        engine.set_soft_eval_cap(cap);
        engine.set_mem_accounting(
            mem_armed,
            round_mem_limited[lo + k] ? opts.mem_budget_bytes : 0);
        if (cell) cell->begin_fault(fi + 1, now_us());
        out.attempts[k] = engine.generate(faults[fi]);
        if (cell) cell->end_fault();
        if (capturing && !out.capture) {
          const FaultAttempt& a = out.attempts[k];
          const char* reason = nullptr;
          if (capture_target >= 0 &&
              static_cast<std::size_t>(capture_target) == fi)
            reason = "requested";
          else if (wd && (a.soft_capped ||
                          a.stats.evals >= opts.watchdog.stuck_evals))
            reason = "watchdog";
          else if (have_deadline && a.status == FaultStatus::kAborted &&
                   abort.load(std::memory_order_relaxed))
            reason = "deadline";
          if (reason != nullptr) {
            const bool wall_cut = a.status == FaultStatus::kAborted &&
                                  abort.load(std::memory_order_relaxed);
            out.capture = make_capture(nl, faults[fi], fi, opts.run.engine,
                                       cap, reason, wall_cut, a, ring);
            out.capture->seed = opts.run.seed;
          }
        }
      }
      out.verify_rejects = engine.verify_rejects();
      if (learning)
        cache.publish(round, static_cast<std::uint32_t>(u), engine);
    };

    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(num_threads, num_units));
    if (workers <= 1) {
      for (std::size_t u = 0; u < num_units; ++u) run_unit(u, 0);
    } else {
      ThreadPool::shared().run_on_workers(workers, [&](unsigned w) {
        for (std::size_t u = w; u < num_units; u += workers)
          run_unit(u, w);
      });
    }

    // ---- merge barrier: unit order, fault order within a unit ----
    PhaseSpan merge_span(ProfPhase::kAtpgMerge);
    for (std::size_t u = 0; u < num_units; ++u) {
      const std::size_t lo = u * kUnitSize;
      UnitOutcome& out = outcome[u];
      verify_rejects += out.verify_rejects;
      if (out.capture && !res.capture) res.capture = std::move(out.capture);
      for (std::size_t k = 0; k < out.attempts.size(); ++k) {
        const std::size_t i = todo[lo + k];
        FaultAttempt& attempt = out.attempts[k];
        // Work spent on a fault a sibling unit dropped still counts: the
        // speculation really ran.
        committed_evals += attempt.stats.evals;
        committed_backtracks += attempt.stats.backtracks;
        const bool ran =
            !out.deadline_skipped[k] && !out.budget_skipped[k];
        if (ran) {
          // Speculative attempts fold too — the bytes were really spent —
          // keeping the tally a function of the fixed round structure.
          res.mem.add(attempt.mem);
          if (attempt.mem_capped) ++res.mem_tripped;
          run.implications += attempt.stats.implications;
          run.window_growths += attempt.stats.window_growths;
          run.justify_calls += attempt.stats.justify_calls;
          run.justify_failures += attempt.stats.justify_failures;
          run.learn_hits += attempt.stats.learn_hits;
          run.learn_misses += attempt.stats.learn_misses;
          run.learn_inserts += attempt.stats.learn_inserts;
          run.conflicts += attempt.stats.conflicts;
          run.propagations += attempt.stats.propagations;
          run.restarts += attempt.stats.restarts;
          run.learned_clauses += attempt.stats.learned_clauses;
          run.cube_exports += attempt.stats.cube_exports;
          run.attribution.add(attempt.stats.attribution);
          res.attempted[i] = 1;
          res.fault_stats[i] = attempt.stats;
          res.fault_events[i] = std::move(attempt.events);
          res.cube_sources[i] = std::move(attempt.cube_sources);
          // Watchdog flag: a deterministic function of the attempt's own
          // eval count (a capped attempt that hit its cap counts too).
          if (wd && !tripped[i] &&
              (attempt.soft_capped ||
               attempt.stats.evals >= opts.watchdog.stuck_evals)) {
            tripped[i] = 1;
            trip_evals[i] = attempt.stats.evals;
            if (board)
              board->stuck_flagged.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (status[i] != S::kUndetected) continue;  // dropped this round
        if (out.deadline_skipped[k]) {
          status[i] = S::kAborted;
          ++res.aborted_by_deadline;
          continue;
        }
        if (out.budget_skipped[k]) {
          status[i] = S::kAborted;
          continue;
        }
        if (((defer && attempt.soft_capped) ||
             (mem_budget && attempt.mem_capped)) &&
            !requeued[i]) {
          // Park: the fault stays undetected (still droppable by sibling
          // tests) and re-enters the queue with the full budget once the
          // non-parked faults have drained. Memory-budget parks use the
          // same machinery and work with the watchdog off.
          parked[i] = 1;
          if (defer && attempt.soft_capped) was_deferred[i] = 1;
          if (mem_budget && attempt.mem_capped) mem_parked[i] = 1;
          if (board)
            board->deferred_parked.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        switch (attempt.status) {
          case FaultStatus::kRedundant:
            status[i] = S::kRedundant;
            break;
          case FaultStatus::kAborted:
            status[i] = S::kAborted;
            break;
          case FaultStatus::kDetected: {
            // Verify and drop everything else this sequence catches.
            std::vector<Fault> remaining;
            std::vector<std::size_t> remap;
            for (std::size_t j = 0; j < faults.size(); ++j)
              if (j == i || status[j] == S::kUndetected) {
                remaining.push_back(faults[j]);
                remap.push_back(j);
              }
            const auto fr = run_fault_simulation(
                nl, remaining, {attempt.sequence}, opts.run.fsim);
            bool target_confirmed = false;
            const int test_index = static_cast<int>(run.tests.size());
            for (std::size_t m = 0; m < remaining.size(); ++m) {
              if (fr.potential_at[m] >= 0) potential[remap[m]] = true;
              if (fr.detected_at[m] < 0) continue;
              if (remap[m] == i) target_confirmed = true;
              status[remap[m]] = S::kDetected;
              res.detected_by[remap[m]] = test_index;
            }
            // The engine verified the target on the faulty machine
            // already; belt-and-braces against simulator disagreement.
            SATPG_CHECK_MSG(target_confirmed,
                            "engine-verified test rejected by parallel fsim");
            run.tests.push_back(std::move(attempt.sequence));
            break;
          }
        }
        run.fe_trace.push_back({committed_evals, current_fe()});
      }
    }

    if (board) {
      std::uint64_t det = 0, red = 0, ab = 0;
      for (std::size_t j = 0; j < faults.size(); ++j) {
        if (status[j] == S::kDetected) ++det;
        else if (status[j] == S::kRedundant) ++red;
        else if (status[j] == S::kAborted) ++ab;
      }
      board->detected.store(det, std::memory_order_relaxed);
      board->redundant.store(red, std::memory_order_relaxed);
      board->aborted.store(ab, std::memory_order_relaxed);
      board->resolved.store(det + red + ab, std::memory_order_relaxed);
      board->evals.store(committed_evals, std::memory_order_relaxed);
      board->backtracks.store(committed_backtracks,
                              std::memory_order_relaxed);
      board->tests.store(run.tests.size(), std::memory_order_relaxed);
      board->coverage_milli.store(
          static_cast<std::uint64_t>(current_fe() * 1000.0),
          std::memory_order_relaxed);
    }

    // Shared-cube accounting happens HERE, at the barrier, never inside
    // publish(): the committed cache content at a round boundary is
    // deterministic (and monotone — epochs only grow), while the publish
    // race inside a round is not. One growth charge per round keeps the
    // registry row thread-count invariant.
    if (learning && memstats_enabled()) {
      const std::uint64_t b = cache.logical_bytes();
      if (b > cache_bytes_charged) {
        MemStatsRegistry::global().charge(MemSubsystem::kSharedCubes,
                                          b - cache_bytes_charged);
        cache_bytes_charged = b;
      }
    }
  }

  // ---- watchdog verdicts (fault-index order: deterministic) ----
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (tripped[i])
      res.stuck_faults.push_back({i, trip_evals[i], was_deferred[i] != 0});

  // ---- accounting ----
  std::size_t w_det = 0, w_red = 0, w_abort = 0, w_total = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::size_t w = static_cast<std::size_t>(collapsed[i].class_size);
    w_total += w;
    S s = status[i];
    if (opts.run.count_potential_detections && potential[i] &&
        (s == S::kUndetected || s == S::kAborted))
      s = S::kDetected;
    switch (s) {
      case S::kDetected:
        w_det += w;
        break;
      case S::kRedundant:
        w_red += w;
        break;
      default:
        w_abort += w;
    }
  }
  run.total_faults = w_total;
  run.detected = w_det;
  run.redundant = w_red;
  run.aborted = w_abort;
  run.fault_coverage =
      100.0 * static_cast<double>(w_det) /
      static_cast<double>(std::max<std::size_t>(1, w_total));
  run.fault_efficiency =
      100.0 * static_cast<double>(w_det + w_red) /
      static_cast<double>(std::max<std::size_t>(1, w_total));
  run.evals = committed_evals;
  run.backtracks = committed_backtracks;
  run.verify_failures = verify_rejects;
  run.effort_invalid_frac = run.attribution.invalid_frac(run.evals);

  res.status.assign(faults.size(), FaultStatus::kAborted);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (status[i] == S::kDetected)
      res.status[i] = FaultStatus::kDetected;
    else if (status[i] == S::kRedundant)
      res.status[i] = FaultStatus::kRedundant;
  }

  // Final replay for the state-traversal census.
  if (!run.tests.empty()) {
    PhaseSpan span(ProfPhase::kAtpgReplay);
    set_phase(RunPhase::kReplay);
    auto fr = run_fault_simulation(nl, {}, run.tests, opts.run.fsim);
    run.states_traversed = std::move(fr.good_states);
  }
  set_phase(RunPhase::kDone);
  // Fold the process-global registry plane (fsim wide lanes, BDD oracle,
  // shared cubes) into the per-attempt plane folded at the merge barriers.
  // The two planes touch disjoint subsystems, so adding the snapshot never
  // double-counts a byte. Taken after the final replay so its lane charge
  // is included.
  if (memstats_enabled()) res.mem.add(MemStatsRegistry::global().snapshot());
  // Stop (join + final heartbeat) before returning so the stream is
  // complete before the caller writes any report.
  if (monitor) {
    monitor->stop();
    res.heartbeat_samples = monitor->samples();
  }
  run.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return res;
}

}  // namespace satpg
