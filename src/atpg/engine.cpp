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

AtpgEngine::JustifyOutcome AtpgEngine::justify(
    const std::vector<std::pair<NodeId, V3>>& cube, int depth,
    StateSet& on_path, PodemBudget& budget) {
  if (cube.empty()) return {true, {}};
  // Span only the outermost call: justification recurses through nested
  // frames, and a span per level would double-count every inner cycle.
  std::optional<PhaseSpan> prof_span;
  if (depth == 0) prof_span.emplace(ProfPhase::kPodemJustify);
  if (progress_ != nullptr)
    progress_->phase.store(static_cast<std::uint32_t>(SearchPhase::kJustify),
                           std::memory_order_relaxed);
  ++stats_.justify_calls;
  stats_.max_justify_depth =
      std::max<std::uint64_t>(stats_.max_justify_depth,
                              static_cast<std::uint64_t>(depth) + 1);
  const StateKey key = cube_key(cube);
  cubes_visited_.insert(key);
  if (record_events_) {
    SearchEvent e;
    e.kind = SearchEventKind::kJustifyEnter;
    e.a = depth;
    e.at = budget.evals;
    e.cube = key.to_string();
    events_buf_.push_back(std::move(e));
  }
  // Every justify() return emits the matching leave event (outcome 0 fail,
  // 1 ok) so timelines can reconstruct the descent.
  const auto leave = [&](int outcome) {
    if (record_events_) {
      SearchEvent e;
      e.kind = SearchEventKind::kJustifyLeave;
      e.a = depth;
      e.b = outcome;
      e.at = budget.evals;
      events_buf_.push_back(std::move(e));
    }
  };
  // Attribution bucket for everything spent at THIS level on this cube
  // (nested levels classify their own cubes). Pure observation: the
  // verdict feeds counters only, never the search.
  const std::size_t bucket = static_cast<std::size_t>(classify_cube(key));
  const bool attributed = validity_ != nullptr;
  EffortAttribution& attr = stats_.attribution;
  if (attributed) ++attr.justify_calls[bucket];
  const auto fail_bucket = [&] {
    if (attributed) ++attr.justify_failures[bucket];
  };
  if (depth > opts_.max_backward_frames) {
    ++stats_.justify_failures;
    fail_bucket();
    leave(0);
    return {};
  }
  if (on_path.count(key)) {
    ++stats_.justify_failures;
    fail_bucket();
    leave(0);
    return {};  // state-requirement loop
  }

  const bool learning = opts_.kind == EngineKind::kLearning;
  // Learning-cache consumption enters the decision stream: a hit short-
  // circuits the search, so replay (atpg/capture.h) must see WHERE and
  // WITH WHAT VERDICT to explain a divergence against cache-less re-runs.
  const auto ring_learn_hit = [&](bool ok) {
    if (ring_ != nullptr)
      ring_->push({DecisionEventKind::kLearnHit,
                   static_cast<std::uint8_t>(ok ? 1 : 0), depth, -1,
                   static_cast<std::uint64_t>(StateKeyHash{}(key))});
  };
  const auto event_learn_hit = [&](bool ok, const std::string& src) {
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
  if (learning) {
    if (auto it = learned_ok_.find(key); it != learned_ok_.end()) {
      ++stats_.learn_hits;
      ring_learn_hit(true);
      event_learn_hit(true, {});
      leave(1);
      return {true, it->second};
    }
    if (learned_fail_.count(key)) {
      ++stats_.learn_hits;
      ++stats_.justify_failures;
      fail_bucket();
      ring_learn_hit(false);
      const auto origin = cube_origins_.find(key);
      if (origin != cube_origins_.end())
        count_cube_source(origin->second.exporter, origin->second.epoch);
      event_learn_hit(false, origin != cube_origins_.end()
                                 ? origin->second.exporter
                                 : std::string());
      leave(0);
      return {};
    }
    if (shared_ != nullptr) {
      // Copy shared hits into the local caches so repeated lookups stay on
      // the fast path (and so the driver's harvest republishes them, a
      // no-op under the cache's first-writer-wins rule).
      std::vector<std::vector<V3>> prefix;
      if (shared_->lookup_ok(key, &prefix)) {
        ++stats_.learn_hits;
        ring_learn_hit(true);
        event_learn_hit(true, {});
        learned_ok_[key] = prefix;
        leave(1);
        return {true, std::move(prefix)};
      }
      std::string exporter;
      std::uint32_t epoch = 0;
      if (shared_->lookup_fail_info(key, &exporter, &epoch)) {
        ++stats_.learn_hits;
        ++stats_.justify_failures;
        fail_bucket();
        ring_learn_hit(false);
        count_cube_source(exporter, epoch);
        event_learn_hit(false, exporter);
        learned_fail_.insert(key);
        cube_origins_[key] = {exporter, epoch};
        leave(0);
        return {};
      }
    }
    ++stats_.learn_misses;
  }

  on_path.insert(key);
  JustifyOutcome out;

  TimeFrameModel tfm(justify_template());
  tfm.attach_eval_counter(&budget.evals);
  const MemScope tfm_mem(budget.mem, MemSubsystem::kTfmFrames,
                         tfm.footprint_bytes());
  Podem podem(tfm, scoap_, /*allow_state_decisions=*/true,
              PodemGoal::kJustify, cube);
  // Snapshot-delta accounting around search()/resume(): the budget counters
  // tick live during nested justify() recursions too, but those happen
  // between the snapshots below, so each level's spend lands on its own
  // cube's bucket.
  std::uint64_t evals0 = budget.evals;
  std::uint64_t backtracks0 = budget.backtracks;
  const auto commit_spend = [&] {
    if (attributed) {
      attr.justify_evals[bucket] += budget.evals - evals0;
      attr.justify_backtracks[bucket] += budget.backtracks - backtracks0;
      if (progress_ != nullptr)
        progress_->invalid_evals.store(
            attr.justify_evals[static_cast<std::size_t>(
                StateValidity::kInvalid)],
            std::memory_order_relaxed);
    }
  };
  PodemStatus st = podem.search(budget);
  commit_spend();
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
    if (sub.ok) {
      out.ok = true;
      out.prefix = std::move(sub.prefix);
      out.prefix.push_back(std::move(vec));
      break;
    }
    if (budget.exhausted_backtracks() || budget.exhausted_evals()) break;
    evals0 = budget.evals;
    backtracks0 = budget.backtracks;
    st = podem.resume(budget);
    commit_spend();
  }
  on_path.erase(key);

  if (learning) {
    if (out.ok) {
      learned_ok_[key] = out.prefix;
      ++stats_.learn_inserts;
    } else if (st == PodemStatus::kExhausted) {
      learned_fail_.insert(key);  // complete search failed (budget-honest)
      ++stats_.learn_inserts;
      cube_origins_[key] = {fault_name_, 0};
      if (record_events_) {
        SearchEvent e;
        e.kind = SearchEventKind::kCubeExport;
        e.at = budget.evals;
        e.cube = key.to_string();
        e.bytes = e.cube.size();
        events_buf_.push_back(std::move(e));
      }
    }
  }
  if (!out.ok) {
    ++stats_.justify_failures;
    fail_bucket();
  }
  leave(out.ok ? 1 : 0);
  return out;
}

const TimeFrameModel& AtpgEngine::justify_template() {
  if (!justify_template_)
    justify_template_.emplace(TimeFrameModel::Template{}, nl_,
                              current_fault_, 1);
  return *justify_template_;
}

FaultAttempt AtpgEngine::generate(const Fault& fault) {
  if (opts_.kind == EngineKind::kCdcl) {
    CdclAtpg cdcl(*this);
    return cdcl.generate(fault);
  }
  const auto t0 = std::chrono::steady_clock::now();
  FaultAttempt attempt;
  current_fault_ = fault;
  justify_template_.reset();
  stats_ = FaultSearchStats{};
  events_buf_.clear();
  attempt_sources_.clear();
  fault_name_ = fault_name(nl_, fault);
  // ONE budget for every phase of this fault: window growth, all
  // justification levels, and the redundancy check all consume the same
  // cumulative `evals` counter (fed by TimeFrameModel::attach_eval_counter)
  // so a fault can never overspend eval_limit by restarting the count in a
  // fresh model.
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
  // The capture ring is owned for the whole attempt; charged here and
  // released before the tally is snapshotted into the attempt below.
  const std::uint64_t ring_bytes =
      budget.mem != nullptr && ring_ != nullptr
          ? ring_->capacity() * sizeof(DecisionEvent)
          : 0;
  if (ring_bytes != 0)
    budget.mem->charge(MemSubsystem::kDecisionRing, ring_bytes);
  const auto publish_phase = [&](SearchPhase p) {
    if (progress_ != nullptr)
      progress_->phase.store(static_cast<std::uint32_t>(p),
                             std::memory_order_relaxed);
  };

  const bool allow_state = opts_.kind != EngineKind::kForward;
  bool any_aborted = false;
  int rejects_this_fault = 0;

  for (int frames = 1;
       frames <= opts_.max_forward_frames && !any_aborted;
       ++frames) {
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
      if (just.ok) {
        // Candidate sequence; justification ran on the good machine, so
        // confirm on the faulty machine before declaring success (HITEC
        // verifies with its fault simulator the same way). On mismatch the
        // enumeration continues with a different solution.
        TestSequence candidate = just.prefix;
        for (const auto& v : window) candidate.push_back(v);
        for (auto& vec : candidate)
          for (auto& x : vec)
            if (x == V3::kX) x = V3::kZero;
        if (simulate_fault_serial(nl_, fault, candidate) >= 0) {
          attempt.status = FaultStatus::kDetected;
          attempt.sequence = std::move(candidate);
          break;
        }
        ++verify_rejects_;
        if (++rejects_this_fault >= opts_.verify_reject_limit) {
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
    publish_phase(SearchPhase::kRedundancy);
    if (record_events_) {
      SearchEvent e;
      e.kind = SearchEventKind::kRedundancyStart;
      e.a = 1;
      e.at = budget.evals;
      events_buf_.push_back(std::move(e));
    }
    TimeFrameModel tfm(justify_template());
    tfm.attach_eval_counter(&budget.evals);
    const MemScope tfm_mem(budget.mem, MemSubsystem::kTfmFrames,
                           tfm.footprint_bytes());
    Podem podem(tfm, scoap_, /*allow_state=*/true,
                PodemGoal::kDetectOrStore);
    const PodemStatus st = podem.search(budget);
    if (st == PodemStatus::kExhausted)
      attempt.status = FaultStatus::kRedundant;
    // kSuccess: storable but not detected within the window — aborted.
    // kAborted: budget ran out mid-proof — aborted, never redundant.
    if (record_events_) {
      SearchEvent e;
      e.kind = SearchEventKind::kRedundancyVerdict;
      e.b = st == PodemStatus::kExhausted ? 1 : 0;
      e.at = budget.evals;
      events_buf_.push_back(std::move(e));
    }
  }

  total_evals_ += budget.evals;
  total_backtracks_ += budget.backtracks;
  stats_.evals = budget.evals;
  stats_.backtracks = budget.backtracks;
  stats_.implications = budget.decisions;
  stats_.verify_rejects = static_cast<std::uint64_t>(rejects_this_fault);
  stats_.budget_exhausted =
      budget.exhausted_backtracks() || budget.exhausted_evals();
  attempt.soft_capped = soft_eval_cap_ != 0 &&
                        soft_eval_cap_ < opts_.eval_limit &&
                        attempt.status == FaultStatus::kAborted &&
                        budget.exhausted_evals();
  attempt.mem_capped = attempt.status == FaultStatus::kAborted &&
                       budget.mem_exceeded();
  if (ring_bytes != 0)
    budget.mem->release(MemSubsystem::kDecisionRing, ring_bytes);
  stats_.peak_bytes = attempt_mem_.peak;
  attempt.mem = attempt_mem_;
  attempt.first_abort_check = budget.first_abort_check;
  if (record_events_) {
    if (stats_.budget_exhausted || attempt.mem_capped) {
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
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  attempt.stats = stats_;
  flush_attempt_observability(&attempt);
  return attempt;
}

void AtpgEngine::flush_attempt_observability(FaultAttempt* attempt) {
  if (record_events_) {
    attempt->events = std::move(events_buf_);
    events_buf_.clear();
  }
  attempt->cube_sources.reserve(attempt_sources_.size());
  for (const auto& [src, hits] : attempt_sources_)
    attempt->cube_sources.push_back({src.first, src.second, hits});
  attempt_sources_.clear();
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
