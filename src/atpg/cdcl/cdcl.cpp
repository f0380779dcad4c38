#include "atpg/cdcl/cdcl.h"

#include <algorithm>
#include <utility>

#include "atpg/capture.h"
#include "atpg/cdcl/cnf.h"
#include "atpg/tfm.h"
#include "base/memstats.h"
#include "base/profiler.h"

namespace satpg {

namespace {

/// Objective codes recorded into the decision ring's kObjective events
/// (value field), mirroring PodemGoal's order.
constexpr std::uint8_t kObjDetect = 0;
constexpr std::uint8_t kObjDetectOrStore = 1;
constexpr std::uint8_t kObjJustify = 2;

/// A SAT model lifted to 3-valued form: the window's input vectors and
/// the frame-0 flip-flops the objective still needs.
struct LiftedModel {
  std::vector<std::vector<V3>> inputs;
  std::vector<std::pair<NodeId, V3>> cube;
};

/// Lift a model of `cnf`, shared by the justify and window queries: the
/// model's inputs of the first `frames` frames are assigned on `tfm`, then,
/// greedily in dffs() order, a flip-flop is dropped when assigning every
/// other still-kept flip-flop's model value leaves `holds()` true.
template <class Holds>
LiftedModel lift_model(const Netlist& nl, const CdclSolver& solver,
                       const TimeFrameCnf& cnf, int frames,
                       TimeFrameModel& tfm, Holds holds) {
  PhaseSpan span(ProfPhase::kCdclLift);
  LiftedModel out;
  out.inputs.assign(static_cast<std::size_t>(frames),
                    std::vector<V3>(nl.num_inputs(), V3::kX));
  for (int t = 0; t < frames; ++t)
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const NodeId pi = nl.inputs()[i];
      const V3 v = solver.model_value(cnf.good(t, pi)) ? V3::kOne : V3::kZero;
      out.inputs[static_cast<std::size_t>(t)][i] = v;
      tfm.assign(t, pi, v);
    }
  const std::size_t pi_mark = tfm.trail_mark();
  const std::size_t n = nl.num_dffs();
  std::vector<V3> sv(n);
  for (std::size_t i = 0; i < n; ++i)
    sv[i] = solver.model_value(cnf.state_var(i)) ? V3::kOne : V3::kZero;
  std::vector<char> kept(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      if (kept[j] && j != i) tfm.assign(0, nl.dffs()[j], sv[j]);
    const bool held = holds();
    tfm.undo_to(pi_mark);
    if (held) kept[i] = 0;
  }
  for (std::size_t i = 0; i < n; ++i)
    if (kept[i]) out.cube.push_back({nl.dffs()[i], sv[i]});
  return out;
}

}  // namespace

// Second leg of the unreachability proof. A predecessor-free cube is
// disjoint from the image of every state, so it can only intersect the
// reachable set through the INITIAL states (reachable = initial ∪ image
// closure, analysis/reach.h). Under the study's reset convention — an
// explicit reset input, the same default name reach.h keys on — the
// initial (reset) set is itself an image fixpoint, so predecessor-UNSAT
// already covers it. Otherwise the initial set comes from the FfInit
// values, and the cube must demand the opposite of some pinned init digit
// to provably miss it (a kUnknown digit admits both values, so only a
// pinned conflict excludes the whole set).
bool CdclAtpg::cube_excludes_initial(const StateKey& key) const {
  for (const NodeId in : e_.nl_.inputs())
    if (e_.nl_.node(in).name == "rst") return true;
  for (std::size_t i = 0; i < key.size(); ++i) {
    const V3 v = key.get(i);
    if (v == V3::kX) continue;
    const FfInit init = e_.nl_.node(e_.nl_.dffs()[i]).init;
    if (init == FfInit::kZero && v == V3::kOne) return true;
    if (init == FfInit::kOne && v == V3::kZero) return true;
  }
  return false;
}

void CdclAtpg::harvest(const CdclSolver& solver) {
  const SolverStats& s = solver.stats();
  e_.stats_.conflicts += s.conflicts;
  e_.stats_.propagations += s.propagations;
  e_.stats_.restarts += s.restarts;
  e_.stats_.learned_clauses += s.learned;
}

void CdclAtpg::catch_up(TimeFrameCnf& cnf, std::size_t* blocked,
                        const PodemBudget& budget) {
  // Block every cube proven since the last solve (imports at attempt start,
  // then anything deeper recursions exported meanwhile). Each successful
  // block is a provenance hit against the cube's exporter.
  for (; *blocked < blocking_.size(); ++*blocked) {
    const Block& blk = blocking_[*blocked];
    if (!cnf.block_state_cube(blk.key)) continue;
    ++e_.stats_.cube_blocks;
    e_.count_cube_source(blk.exporter, blk.epoch);
    if (e_.record_events_) {
      SearchEvent e;
      e.kind = SearchEventKind::kCubeImport;
      e.a = static_cast<std::int32_t>(blk.epoch);
      e.at = budget.evals;
      e.cube = blk.key.to_string();
      e.src = blk.exporter;
      e_.events_buf_.push_back(std::move(e));
    }
  }
}

CdclAtpg::JustifyOutcome CdclAtpg::justify(
    const std::vector<std::pair<NodeId, V3>>& cube, int depth,
    StateSet& on_path, PodemBudget& budget) {
  using Status = JustifyOutcome::Status;
  constexpr AtpgEngine::JustifyMode kMode{true, Status::kProvenInvalid};
  AtpgEngine::JustifyLevel lvl;
  JustifyOutcome out;
  if (e_.begin_justify(&lvl, cube, depth, on_path, budget, kMode, &out))
    return out;

  // One-frame fault-free predecessor query: free previous state and
  // inputs, the D lines of the cube's flip-flops pinned to its values.
  // The copy is taken before set_budget(), so the encoding's byte backlog
  // moves into the tally just as a fresh encode's would.
  if (!justify_template_) justify_template_.emplace(e_.nl_);
  CdclSolver solver(justify_template_->solver);
  TimeFrameCnf cnf(justify_template_->cnf, &solver);
  const MemScope cnf_mem(budget.mem, MemSubsystem::kCnfEncoder,
                         cnf.footprint_bytes());
  solver.set_budget(&budget);
  solver.set_ring(e_.ring_);
  solver.set_event_sink(e_.record_events_ ? &e_.events_buf_ : nullptr);
  for (const auto& [ff, v] : cube)
    cnf.add_justify_target(ff, v == V3::kOne);
  // Blocking proven-unreachable cubes cannot hide a REACHABLE predecessor,
  // so an UNSAT below is still an exact unreachability proof (§9).
  std::size_t blocked = 0;
  if (e_.ring_ != nullptr)
    e_.ring_->push({DecisionEventKind::kObjective, kObjJustify, depth, -1,
                    static_cast<std::uint64_t>(StateKeyHash{}(lvl.key))});

  // Taint: any incomplete step (budget abort, depth/loop/budget failure of
  // a sub-cube we then blocked) makes a final UNSAT inconclusive — the
  // cube merely FAILED, it was not proven unreachable.
  bool tainted = false;
  lvl.mark(budget);
  for (;;) {
    catch_up(cnf, &blocked, budget);
    const SolveStatus st = solver.solve();
    if (st != SolveStatus::kSat) {
      e_.commit_spend(lvl, budget);
      tainted = tainted || st == SolveStatus::kAborted;
      break;
    }
    // Lift the model to a 3-valued (previous-state, input) pair: keep the
    // model's inputs, drop every flip-flop whose value the targets don't
    // need, checked on the good rail of the TFM.
    if (!justify_tfm_)
      justify_tfm_.emplace(TimeFrameModel::Template{}, e_.nl_, std::nullopt,
                           1);
    TimeFrameModel tfm(*justify_tfm_);
    const MemScope tfm_mem(budget.mem, MemSubsystem::kTfmFrames,
                           tfm.footprint_bytes());
    tfm.attach_eval_counter(&budget.evals);
    auto [inputs, prev_cube] = lift_model(e_.nl_, solver, cnf, 1, tfm, [&] {
      for (const auto& [ff, v] : cube)
        if (tfm.value(0, e_.nl_.node(ff).fanins[0]).g != v) return false;
      return true;
    });
    e_.commit_spend(lvl, budget);

    auto sub = justify(prev_cube, depth + 1, on_path, budget);
    e_.publish_phase(SearchPhase::kJustify);
    lvl.mark(budget);
    if (sub.justified()) {
      out.status = Status::kJustified;
      out.prefix = std::move(sub.prefix);
      out.prefix.push_back(std::move(inputs[0]));
      break;
    }
    if (sub.status == Status::kFailed) {
      // Not proven unreachable — excluding it below makes any later UNSAT
      // inconclusive for THIS cube, but enumeration must move on.
      tainted = true;
      cnf.block_state_cube(e_.cube_key(prev_cube));
    }
    // kProvenInvalid: the recursion appended prev_cube to blocking_; the
    // catch-up at the top of the loop blocks it here.
    if (budget.exhausted_backtracks() || budget.exhausted_evals() ||
        budget.mem_exceeded()) {
      tainted = true;
      break;
    }
  }
  harvest(solver);

  // Complete UNSAT with only proven-unreachable cubes excluded AND the
  // initial set ruled out: no reachable predecessor produces this cube and
  // no initial state lies in it, so (reachable = initial ∪ image closure,
  // analysis/reach's fixpoint) the cube intersects no reachable state.
  // Export the proof, attributed to the current fault.
  const bool proven =
      !out.justified() && !tainted && cube_excludes_initial(lvl.key);
  if (proven) {
    out.status = Status::kProvenInvalid;
    blocking_.push_back({lvl.key, e_.fault_name_, 0});
  }
  e_.end_justify(lvl, out, on_path, kMode, proven, budget);
  return out;
}

FaultAttempt CdclAtpg::generate(const Fault& fault) {
  FaultAttempt attempt;
  PodemBudget budget = e_.begin_attempt(fault);
  if (!e_.opts_.share_learning) {
    // Pure per-attempt mode: every generate() is a function of (netlist,
    // fault, options) alone — the `satpg replay` contract.
    e_.learned_ok_.clear();
    e_.learned_fail_.clear();
  }

  // Visible proven-unreachable cubes, imported once per attempt in a
  // deterministic order: the shared view's snapshot (frozen for the round)
  // merged with the local failure cache, sorted by packed-key text. Each
  // entry keeps its provenance tag; when the same key exists both shared
  // and locally, the published (epoch-tagged) entry wins attribution.
  blocking_.clear();
  if (e_.shared_ != nullptr)
    for (const LearningShare::FailCubeInfo& info :
         e_.shared_->fail_cube_infos())
      blocking_.push_back({info.key, info.exporter, info.epoch});
  for (const StateKey& k : e_.learned_fail_) {
    const auto origin = e_.cube_origins_.find(k);
    if (origin != e_.cube_origins_.end())
      blocking_.push_back({k, origin->second.exporter,
                           origin->second.epoch});
    else
      blocking_.push_back({k, std::string(), 0});
  }
  std::sort(blocking_.begin(), blocking_.end(),
            [](const Block& a, const Block& b) {
              const std::string sa = a.key.to_string();
              const std::string sb = b.key.to_string();
              if (sa != sb) return sa < sb;
              if ((a.epoch != 0) != (b.epoch != 0)) return a.epoch != 0;
              if (a.epoch != b.epoch) return a.epoch < b.epoch;
              return a.exporter < b.exporter;
            });
  blocking_.erase(std::unique(blocking_.begin(), blocking_.end(),
                              [](const Block& a, const Block& b) {
                                return a.key == b.key;
                              }),
                  blocking_.end());
  for (const Block& blk : blocking_) {
    e_.learned_fail_.insert(blk.key);
    if (!blk.exporter.empty())
      e_.cube_origins_.emplace(blk.key,
                               AtpgEngine::CubeOrigin{blk.exporter,
                                                      blk.epoch});
  }

  bool any_aborted = false;
  for (int frames = 1;
       frames <= e_.opts_.max_forward_frames && !any_aborted; ++frames) {
    e_.enter_window(frames, budget);
    CdclSolver solver;
    TimeFrameCnf cnf(e_.nl_, fault, frames, &solver);
    const MemScope cnf_mem(budget.mem, MemSubsystem::kCnfEncoder,
                           cnf.footprint_bytes());
    solver.set_budget(&budget);
    solver.set_ring(e_.ring_);
    solver.set_event_sink(e_.record_events_ ? &e_.events_buf_ : nullptr);
    if (!cnf.add_detect_objective(/*include_boundary=*/false))
      continue;  // no PO difference expressible in this window; widen
    if (e_.ring_ != nullptr)
      e_.ring_->push({DecisionEventKind::kObjective, kObjDetect, frames, -1,
                      static_cast<std::uint64_t>(blocking_.size())});
    std::size_t blocked = 0;
    std::optional<TimeFrameModel> lift_template;  // built on the first model
    for (;;) {
      catch_up(cnf, &blocked, budget);
      const SolveStatus st = solver.solve();
      if (st == SolveStatus::kAborted) {
        any_aborted = true;
        break;
      }
      if (st == SolveStatus::kUnsat) break;  // widen the window
      // Extract the window's input vectors and lift the frame-0 state:
      // drop every flip-flop the detection doesn't need, re-checked on the
      // dual-rail model.
      if (!lift_template)
        lift_template.emplace(TimeFrameModel::Template{}, e_.nl_, fault,
                              frames);
      TimeFrameModel tfm(*lift_template);
      const MemScope tfm_mem(budget.mem, MemSubsystem::kTfmFrames,
                             tfm.footprint_bytes());
      tfm.attach_eval_counter(&budget.evals);
      const auto [window, cube] =
          lift_model(e_.nl_, solver, cnf, frames, tfm,
                     [&] { return tfm.detected_at_po(); });

      StateSet on_path;
      auto just = justify(cube, 0, on_path, budget);
      e_.publish_phase(SearchPhase::kWindow);
      if (just.justified()) {
        const AtpgEngine::Verdict v = e_.verify_candidate(
            fault, std::move(just.prefix), window, &attempt);
        if (v == AtpgEngine::Verdict::kDetected) break;
        if (v == AtpgEngine::Verdict::kGiveUp) {
          any_aborted = true;
          break;
        }
        // Justification ran on the good machine and disagreed with the
        // faulty simulator: rule out only this exact decision assignment
        // and keep enumerating.
        std::vector<CnfLit> blk;
        for (int t = 0; t < frames; ++t)
          for (std::size_t i = 0; i < e_.nl_.inputs().size(); ++i) {
            const int var = cnf.good(t, e_.nl_.inputs()[i]);
            blk.push_back(mk_lit(var, solver.model_value(var)));
          }
        for (std::size_t i = 0; i < e_.nl_.num_dffs(); ++i)
          blk.push_back(mk_lit(cnf.state_var(i),
                               solver.model_value(cnf.state_var(i))));
        solver.add_clause(blk.data(), blk.size());
      } else {
        // The lifted cube cannot be justified (it is nonempty — the empty
        // cube trivially succeeds). Exclude it and enumerate on; when it
        // was PROVEN unreachable the catch-up above also blocks it in
        // every later solver of the attempt.
        cnf.block_state_cube(e_.cube_key(cube));
      }
      if (budget.exhausted_backtracks() || budget.exhausted_evals() ||
          budget.mem_exceeded()) {
        any_aborted = true;
        break;
      }
    }
    harvest(solver);
    if (attempt.status == FaultStatus::kDetected) break;
  }

  if (attempt.status != FaultStatus::kDetected && !any_aborted) {
    // Sound redundancy proof, same shape as the structural engines'
    // kDetectOrStore search: one frame, free state and inputs, NO blocking
    // clauses — the UNSAT must be unconditional. Runs on the same budget.
    e_.begin_redundancy(budget);
    CdclSolver solver;
    TimeFrameCnf cnf(e_.nl_, fault, 1, &solver);
    const MemScope cnf_mem(budget.mem, MemSubsystem::kCnfEncoder,
                           cnf.footprint_bytes());
    solver.set_budget(&budget);
    solver.set_ring(e_.ring_);
    solver.set_event_sink(e_.record_events_ ? &e_.events_buf_ : nullptr);
    if (e_.ring_ != nullptr)
      e_.ring_->push({DecisionEventKind::kObjective, kObjDetectOrStore, 1,
                      -1, 0});
    // No objective: no observation point can ever carry a difference, so
    // the fault's effect is structurally invisible from every state. kSat:
    // storable but not detected within the window — aborted.
    const bool redundant =
        !cnf.add_detect_objective(/*include_boundary=*/true) ||
        solver.solve() == SolveStatus::kUnsat;
    harvest(solver);
    e_.end_redundancy(redundant, budget, &attempt);
  }
  e_.end_attempt(budget, &attempt);
  return attempt;
}

}  // namespace satpg
