#include "atpg/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "atpg/capture.h"
#include "atpg/cdcl/cdcl.h"
#include "base/profiler.h"
#include "base/rng.h"

namespace satpg {

const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kHitec:
      return "hitec";
    case EngineKind::kForward:
      return "forward";
    case EngineKind::kLearning:
      return "learning";
    case EngineKind::kCdcl:
      return "cdcl";
  }
  return "?";
}

AtpgEngine::AtpgEngine(const Netlist& nl, const EngineOptions& opts)
    : nl_(nl), opts_(opts), scoap_(compute_scoap(nl)),
      dff_index_(nl.num_nodes(), -1) {
  for (std::size_t i = 0; i < nl.dffs().size(); ++i)
    dff_index_[static_cast<std::size_t>(nl.dffs()[i])] =
        static_cast<int>(i);
}

StateKey AtpgEngine::cube_key(
    const std::vector<std::pair<NodeId, V3>>& cube) const {
  // nl_.dffs() order defines the key positions.
  StateKey key(nl_.num_dffs());
  for (const auto& [ff, v] : cube) {
    const int i = dff_index_[static_cast<std::size_t>(ff)];
    SATPG_DCHECK(i >= 0);
    key.set(static_cast<std::size_t>(i), v);
  }
  return key;
}

StateValidity AtpgEngine::classify_cube(const StateKey& key) {
  if (validity_ == nullptr) return StateValidity::kUnknown;
  const auto [it, inserted] =
      validity_memo_.try_emplace(key, StateValidity::kUnknown);
  if (inserted) it->second = validity_->classify(key);
  return it->second;
}

// ---- one justification level --------------------------------------------

bool AtpgEngine::begin_justify(JustifyLevel* lvl,
                               const std::vector<std::pair<NodeId, V3>>& cube,
                               int depth, StateSet& on_path,
                               const PodemBudget& budget,
                               const JustifyMode& mode, JustifyOutcome* out) {
  using Status = JustifyOutcome::Status;
  if (cube.empty()) {
    out->status = Status::kJustified;
    return true;
  }
  publish_phase(SearchPhase::kJustify);
  ++stats_.justify_calls;
  stats_.max_justify_depth =
      std::max<std::uint64_t>(stats_.max_justify_depth,
                              static_cast<std::uint64_t>(depth) + 1);
  lvl->key = cube_key(cube);
  lvl->depth = depth;
  const StateKey& key = lvl->key;
  cubes_visited_.insert(key);
  if (record_events_) {
    SearchEvent e;
    e.kind = SearchEventKind::kJustifyEnter;
    e.a = depth;
    e.at = budget.evals;
    e.cube = key.to_string();
    events_buf_.push_back(std::move(e));
  }
  // Attribution bucket for everything spent at THIS level on this cube
  // (nested levels classify their own cubes). Pure observation: the
  // verdict feeds counters only, never the search.
  lvl->bucket = static_cast<std::size_t>(classify_cube(key));
  if (validity_ != nullptr) ++stats_.attribution.justify_calls[lvl->bucket];
  const auto fail = [&](Status st) {
    ++stats_.justify_failures;
    if (validity_ != nullptr)
      ++stats_.attribution.justify_failures[lvl->bucket];
    out->status = st;
    justify_leave(*lvl, st, budget);
    return true;
  };
  if (depth > opts_.max_backward_frames) return fail(Status::kFailed);
  if (on_path.count(key)) return fail(Status::kFailed);  // requirement loop

  if (mode.caches) {
    // Cache consumption enters the decision stream: a hit short-circuits
    // the search, so replay (atpg/capture.h) must see WHERE and WITH WHAT
    // VERDICT to explain a divergence against cache-less re-runs.
    const auto hit = [&](bool ok, const std::string& src) {
      ++stats_.learn_hits;
      if (ring_ != nullptr)
        ring_->push({DecisionEventKind::kLearnHit,
                     static_cast<std::uint8_t>(ok ? 1 : 0), depth, -1,
                     static_cast<std::uint64_t>(StateKeyHash{}(key))});
      if (record_events_) {
        SearchEvent e;
        e.kind = SearchEventKind::kLearnHit;
        e.a = depth;
        e.b = ok ? 1 : 0;
        e.at = budget.evals;
        e.cube = key.to_string();
        e.src = src;
        events_buf_.push_back(std::move(e));
      }
    };
    if (auto it = learned_ok_.find(key); it != learned_ok_.end()) {
      hit(true, {});
      out->status = Status::kJustified;
      out->prefix = it->second;
      justify_leave(*lvl, Status::kJustified, budget);
      return true;
    }
    if (learned_fail_.count(key)) {
      const auto origin = cube_origins_.find(key);
      const bool tagged = origin != cube_origins_.end();
      if (tagged)
        count_cube_source(origin->second.exporter, origin->second.epoch);
      hit(false, tagged ? origin->second.exporter : std::string());
      return fail(mode.cached_fail);
    }
    if (shared_ != nullptr) {
      // Copy shared hits into the local caches so repeated lookups stay on
      // the fast path (and so the driver's harvest republishes them, a
      // no-op under the cache's first-writer-wins rule).
      std::vector<std::vector<V3>> prefix;
      if (shared_->lookup_ok(key, &prefix)) {
        hit(true, {});
        learned_ok_[key] = prefix;
        out->status = Status::kJustified;
        out->prefix = std::move(prefix);
        justify_leave(*lvl, Status::kJustified, budget);
        return true;
      }
      std::string exporter;
      std::uint32_t epoch = 0;
      if (shared_->lookup_fail_info(key, &exporter, &epoch)) {
        count_cube_source(exporter, epoch);
        hit(false, exporter);
        learned_fail_.insert(key);
        cube_origins_[key] = {exporter, epoch};
        return fail(mode.cached_fail);
      }
    }
    ++stats_.learn_misses;
  }
  on_path.insert(key);
  return false;
}

void AtpgEngine::commit_spend(const JustifyLevel& lvl,
                              const PodemBudget& budget) {
  // Snapshot-delta accounting: the budget counters tick live during nested
  // justification levels too, but those run between a mark() and the next
  // commit, so each level's spend lands on its own cube's bucket.
  if (validity_ == nullptr) return;
  EffortAttribution& attr = stats_.attribution;
  attr.justify_evals[lvl.bucket] += budget.evals - lvl.evals0;
  attr.justify_backtracks[lvl.bucket] += budget.backtracks - lvl.backtracks0;
  if (progress_ != nullptr)
    progress_->invalid_evals.store(
        attr.justify_evals[static_cast<std::size_t>(StateValidity::kInvalid)],
        std::memory_order_relaxed);
}

void AtpgEngine::end_justify(const JustifyLevel& lvl,
                             const JustifyOutcome& out, StateSet& on_path,
                             const JustifyMode& mode, bool learn_fail,
                             const PodemBudget& budget) {
  on_path.erase(lvl.key);
  if (out.justified()) {
    if (mode.caches) {
      learned_ok_[lvl.key] = out.prefix;
      ++stats_.learn_inserts;
    }
    justify_leave(lvl, out.status, budget);
    return;
  }
  ++stats_.justify_failures;
  if (validity_ != nullptr) ++stats_.attribution.justify_failures[lvl.bucket];
  if (learn_fail) {
    learned_fail_.insert(lvl.key);
    ++stats_.learn_inserts;
    if (out.status == JustifyOutcome::Status::kProvenInvalid)
      ++stats_.cube_exports;
    cube_origins_[lvl.key] = {fault_name_, 0};
    if (record_events_) {
      SearchEvent e;
      e.kind = SearchEventKind::kCubeExport;
      e.at = budget.evals;
      e.cube = lvl.key.to_string();
      // kLearning's failed-search export carries its cube size; kCdcl's
      // proof export never has.
      if (out.status == JustifyOutcome::Status::kFailed)
        e.bytes = e.cube.size();
      events_buf_.push_back(std::move(e));
    }
  }
  justify_leave(lvl, out.status, budget);
}

void AtpgEngine::justify_leave(const JustifyLevel& lvl,
                               JustifyOutcome::Status st,
                               const PodemBudget& budget) {
  // Every opened level emits the matching leave event (outcome = status
  // code) so timelines can reconstruct the descent.
  if (record_events_) {
    SearchEvent e;
    e.kind = SearchEventKind::kJustifyLeave;
    e.a = lvl.depth;
    e.b = static_cast<std::int32_t>(st);
    e.at = budget.evals;
    events_buf_.push_back(std::move(e));
  }
}

AtpgEngine::JustifyOutcome AtpgEngine::justify(
    const std::vector<std::pair<NodeId, V3>>& cube, int depth,
    StateSet& on_path, PodemBudget& budget) {
  // Span only the outermost call: justification recurses through nested
  // frames, and a span per level would double-count every inner cycle.
  std::optional<PhaseSpan> prof_span;
  if (depth == 0 && !cube.empty()) prof_span.emplace(ProfPhase::kPodemJustify);
  const JustifyMode mode{opts_.kind == EngineKind::kLearning,
                         JustifyOutcome::Status::kFailed};
  JustifyLevel lvl;
  JustifyOutcome out;
  if (begin_justify(&lvl, cube, depth, on_path, budget, mode, &out))
    return out;

  TimeFrameModel tfm(justify_template());
  tfm.attach_eval_counter(&budget.evals);
  const MemScope tfm_mem(budget.mem, MemSubsystem::kTfmFrames,
                         tfm.footprint_bytes());
  Podem podem(tfm, scoap_, /*allow_state_decisions=*/true,
              PodemGoal::kJustify, cube);
  lvl.mark(budget);
  PodemStatus st = podem.search(budget);
  commit_spend(lvl, budget);
  while (st == PodemStatus::kSuccess) {
    // Extract this solution: the input vector and the new state demand.
    std::vector<V3> vec(nl_.num_inputs(), V3::kX);
    for (std::size_t i = 0; i < nl_.inputs().size(); ++i)
      vec[i] = podem.pi_value(0, nl_.inputs()[i]);
    std::vector<std::pair<NodeId, V3>> prev_cube;
    for (NodeId ff : nl_.dffs()) {
      const V3 v = podem.state_value(ff);
      if (v != V3::kX) prev_cube.push_back({ff, v});
    }
    auto sub = justify(prev_cube, depth + 1, on_path, budget);
    if (sub.justified()) {
      out.status = JustifyOutcome::Status::kJustified;
      out.prefix = std::move(sub.prefix);
      out.prefix.push_back(std::move(vec));
      break;
    }
    if (budget.exhausted_backtracks() || budget.exhausted_evals()) break;
    lvl.mark(budget);
    st = podem.resume(budget);
    commit_spend(lvl, budget);
  }
  // A complete search that failed is budget-honest: kLearning caches it.
  end_justify(lvl, out, on_path, mode,
              mode.caches && !out.justified() && st == PodemStatus::kExhausted,
              budget);
  return out;
}

const TimeFrameModel& AtpgEngine::justify_template() {
  if (!justify_template_)
    justify_template_.emplace(TimeFrameModel::Template{}, nl_,
                              current_fault_, 1);
  return *justify_template_;
}

// ---- one fault attempt ------------------------------------------------------

PodemBudget AtpgEngine::begin_attempt(const Fault& fault) {
  attempt_t0_ = std::chrono::steady_clock::now();
  current_fault_ = fault;
  justify_template_.reset();
  stats_ = FaultSearchStats{};
  events_buf_.clear();
  attempt_sources_.clear();
  attempt_rejects_ = 0;
  fault_name_ = fault_name(nl_, fault);
  // ONE budget for every phase of this fault: window growth, all
  // justification levels, and the redundancy check all consume the same
  // cumulative `evals` counter (fed by TimeFrameModel::attach_eval_counter
  // and PodemBudget::charge_cdcl) so a fault can never overspend
  // eval_limit by restarting the count in a fresh model or solver.
  PodemBudget budget;
  budget.max_backtracks = opts_.backtrack_limit;
  // The watchdog's defer mode trims the FIRST attempt with a soft cap; the
  // requeued retry runs uncapped from a fresh budget, so it spends exactly
  // the decisions an uncapped first attempt would have.
  budget.max_evals = soft_eval_cap_ != 0
                         ? std::min(opts_.eval_limit, soft_eval_cap_)
                         : opts_.eval_limit;
  budget.abort = abort_;
  budget.abort_at_check = abort_at_check_;
  budget.progress = progress_;
  if (ring_ != nullptr) ring_->reset();
  budget.ring = ring_;
  attempt_mem_ = MemTally{};
  budget.mem = mem_armed_ ? &attempt_mem_ : nullptr;
  budget.mem_limit = mem_limit_;
  // The capture ring is owned for the whole attempt: charged first, held
  // throughout (so keeping it out of the limit is exact) and released
  // before the tally is snapshotted into the attempt.
  budget.mem_held = budget.mem != nullptr && ring_ != nullptr
                        ? ring_->capacity() * sizeof(DecisionEvent)
                        : 0;
  if (budget.mem_held != 0)
    budget.mem->charge(MemSubsystem::kDecisionRing, budget.mem_held);
  return budget;
}

void AtpgEngine::enter_window(int frames, const PodemBudget& budget) {
  if (frames > 1) {
    ++stats_.window_growths;
    if (record_events_) {
      SearchEvent e;
      e.kind = SearchEventKind::kWindowGrow;
      e.a = frames;
      e.at = budget.evals;
      events_buf_.push_back(std::move(e));
    }
  }
  publish_phase(SearchPhase::kWindow);
}

AtpgEngine::Verdict AtpgEngine::verify_candidate(
    const Fault& fault, std::vector<std::vector<V3>> prefix,
    const std::vector<std::vector<V3>>& window, FaultAttempt* attempt) {
  // Justification ran on the good machine, so confirm on the faulty machine
  // before declaring success (HITEC verifies with its fault simulator the
  // same way). On mismatch the caller enumerates a different solution.
  TestSequence candidate = std::move(prefix);
  for (const auto& v : window) candidate.push_back(v);
  for (auto& vec : candidate)
    for (auto& x : vec)
      if (x == V3::kX) x = V3::kZero;
  if (simulate_fault_serial(nl_, fault, candidate) >= 0) {
    attempt->status = FaultStatus::kDetected;
    attempt->sequence = std::move(candidate);
    return Verdict::kDetected;
  }
  ++verify_rejects_;
  return ++attempt_rejects_ >= opts_.verify_reject_limit ? Verdict::kGiveUp
                                                         : Verdict::kRejected;
}

void AtpgEngine::begin_redundancy(const PodemBudget& budget) {
  publish_phase(SearchPhase::kRedundancy);
  if (record_events_) {
    SearchEvent e;
    e.kind = SearchEventKind::kRedundancyStart;
    e.a = 1;
    e.at = budget.evals;
    events_buf_.push_back(std::move(e));
  }
}

void AtpgEngine::end_redundancy(bool redundant, const PodemBudget& budget,
                                FaultAttempt* attempt) {
  if (redundant) attempt->status = FaultStatus::kRedundant;
  if (record_events_) {
    SearchEvent e;
    e.kind = SearchEventKind::kRedundancyVerdict;
    e.b = redundant ? 1 : 0;
    e.at = budget.evals;
    events_buf_.push_back(std::move(e));
  }
}

void AtpgEngine::end_attempt(const PodemBudget& budget,
                             FaultAttempt* attempt) {
  total_evals_ += budget.evals;
  total_backtracks_ += budget.backtracks;
  stats_.evals = budget.evals;
  stats_.backtracks = budget.backtracks;
  stats_.implications = budget.decisions;
  stats_.verify_rejects = static_cast<std::uint64_t>(attempt_rejects_);
  stats_.budget_exhausted =
      budget.exhausted_backtracks() || budget.exhausted_evals();
  attempt->soft_capped = soft_eval_cap_ != 0 &&
                         soft_eval_cap_ < opts_.eval_limit &&
                         attempt->status == FaultStatus::kAborted &&
                         budget.exhausted_evals();
  attempt->mem_capped = attempt->status == FaultStatus::kAborted &&
                        budget.mem_exceeded();
  if (budget.mem_held != 0)
    budget.mem->release(MemSubsystem::kDecisionRing, budget.mem_held);
  stats_.peak_bytes = attempt_mem_.peak;
  attempt->mem = attempt_mem_;
  attempt->first_abort_check = budget.first_abort_check;
  if (record_events_) {
    if (stats_.budget_exhausted || attempt->mem_capped) {
      SearchEvent e;
      e.kind = SearchEventKind::kBudgetAbort;
      e.a = budget.exhausted_evals() ? 1 : 0;
      e.b = budget.exhausted_backtracks() ? 1 : 0;
      if (budget.mem_exceeded()) e.bytes = attempt_mem_.peak;
      e.at = budget.evals;
      events_buf_.push_back(std::move(e));
    }
    if (budget.first_abort_check != 0) {
      SearchEvent e;
      e.kind = SearchEventKind::kExternalAbort;
      e.at = budget.evals;
      events_buf_.push_back(std::move(e));
    }
  }
  stats_.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - attempt_t0_)
                            .count();
  attempt->stats = stats_;
  if (record_events_) {
    attempt->events = std::move(events_buf_);
    events_buf_.clear();
  }
  attempt->cube_sources.reserve(attempt_sources_.size());
  for (const auto& [src, hits] : attempt_sources_)
    attempt->cube_sources.push_back({src.first, src.second, hits});
  attempt_sources_.clear();
}

FaultAttempt AtpgEngine::generate(const Fault& fault) {
  if (opts_.kind == EngineKind::kCdcl) return CdclAtpg(*this).generate(fault);
  FaultAttempt attempt;
  PodemBudget budget = begin_attempt(fault);
  const bool allow_state = opts_.kind != EngineKind::kForward;
  bool any_aborted = false;

  for (int frames = 1;
       frames <= opts_.max_forward_frames && !any_aborted;
       ++frames) {
    enter_window(frames, budget);
    TimeFrameModel tfm(nl_, fault, frames);
    tfm.attach_eval_counter(&budget.evals);
    const MemScope tfm_mem(budget.mem, MemSubsystem::kTfmFrames,
                           tfm.footprint_bytes());
    Podem podem(tfm, scoap_, allow_state, PodemGoal::kDetect);
    PodemStatus st = podem.search(budget);
    while (st == PodemStatus::kSuccess) {
      // Window vectors.
      std::vector<std::vector<V3>> window(
          static_cast<std::size_t>(frames),
          std::vector<V3>(nl_.num_inputs(), V3::kX));
      for (int t = 0; t < frames; ++t)
        for (std::size_t i = 0; i < nl_.inputs().size(); ++i)
          window[static_cast<std::size_t>(t)][i] =
              podem.pi_value(t, nl_.inputs()[i]);
      // Required frame-0 state.
      std::vector<std::pair<NodeId, V3>> cube;
      if (allow_state)
        for (NodeId ff : nl_.dffs()) {
          const V3 v = podem.state_value(ff);
          if (v != V3::kX) cube.push_back({ff, v});
        }
      StateSet on_path;
      auto just = justify(cube, 0, on_path, budget);
      publish_phase(SearchPhase::kWindow);
      if (just.justified()) {
        const Verdict v =
            verify_candidate(fault, std::move(just.prefix), window, &attempt);
        if (v == Verdict::kDetected) break;
        if (v == Verdict::kGiveUp) {
          any_aborted = true;
          break;
        }
      }
      if (budget.exhausted_backtracks() || budget.exhausted_evals()) {
        any_aborted = true;
        break;
      }
      st = podem.resume(budget);
    }
    if (attempt.status == FaultStatus::kDetected) break;
    if (st == PodemStatus::kAborted) any_aborted = true;
    // kExhausted: no detection within this window from any state; widen.
  }

  if (attempt.status != FaultStatus::kDetected && !any_aborted) {
    // Sound redundancy check: complete single-frame search for
    // excite-and-store from a free state. Runs on the SAME budget — the
    // redundancy verdict requires the search to complete within whatever
    // this fault has left, so eval_limit really is per fault, all phases.
    begin_redundancy(budget);
    TimeFrameModel tfm(justify_template());
    tfm.attach_eval_counter(&budget.evals);
    const MemScope tfm_mem(budget.mem, MemSubsystem::kTfmFrames,
                           tfm.footprint_bytes());
    Podem podem(tfm, scoap_, /*allow_state=*/true,
                PodemGoal::kDetectOrStore);
    // kSuccess: storable but not detected within the window — aborted.
    // kAborted: budget ran out mid-proof — aborted, never redundant.
    end_redundancy(podem.search(budget) == PodemStatus::kExhausted, budget,
                   &attempt);
  }
  end_attempt(budget, &attempt);
  return attempt;
}

std::vector<TestSequence> make_random_sequences(const Netlist& nl, int count,
                                                int length,
                                                std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedf00dULL);
  const NodeId rst = nl.find("rst");
  int rst_index = -1;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    if (nl.inputs()[i] == rst) rst_index = static_cast<int>(i);

  std::vector<TestSequence> seqs;
  for (int s = 0; s < count; ++s) {
    TestSequence seq;
    for (int t = 0; t < length; ++t) {
      std::vector<V3> v(nl.num_inputs());
      for (auto& x : v) x = rng.next_bool() ? V3::kOne : V3::kZero;
      if (rst_index >= 0)
        v[static_cast<std::size_t>(rst_index)] =
            (t == 0 || rng.next_bernoulli(0.02)) ? V3::kOne : V3::kZero;
      seq.push_back(std::move(v));
    }
    seqs.push_back(std::move(seq));
  }
  return seqs;
}

}  // namespace satpg
