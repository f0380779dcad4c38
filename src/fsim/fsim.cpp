#include "fsim/fsim.h"

#include <algorithm>
#include <cstdint>

#include "base/metrics.h"
#include "base/profiler.h"
#include "base/threadpool.h"
#include "fsim/wide_driver.h"
#include "sim/simulator.h"

namespace satpg {

int simulate_fault_serial(const Netlist& nl, const Fault& fault,
                          const TestSequence& seq) {
  // Good and faulty machines in lockstep from the all-X power-up state.
  SeqSimulator good(nl), faulty(nl, fault);
  const std::vector<V3> all_x(nl.num_dffs(), V3::kX);
  good.set_state(all_x);
  faulty.set_state(all_x);
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const auto g = good.step(seq[t]);
    const auto f = faulty.step(seq[t]);
    for (std::size_t o = 0; o < g.size(); ++o)
      if (g[o] != V3::kX && f[o] != V3::kX && g[o] != f[o])
        return static_cast<int>(t);
  }
  return -1;
}

namespace {

// 64-slot words as a fold_gate value algebra.
struct PVAlgebra {
  using Value = PV;
  PV constant(bool one) const { return PV::all(one ? V3::kOne : V3::kZero); }
  PV not_(PV a) const { return pv_not(a); }
  PV and_(PV a, PV b) const { return pv_and(a, b); }
  PV or_(PV a, PV b) const { return pv_or(a, b); }
  PV xor_(PV a, PV b) const { return pv_xor(a, b); }
};

// Good-machine values for every node of every frame of one sequence,
// [frame][node] pre-clock. Simulated exactly once per sequence; every batch
// reads good values from here instead of re-deriving them in slot 0 of a
// full-netlist parallel sweep. Buffers are reused across sequences.
using GoodTrace = std::vector<std::vector<V3>>;

// Steps `sim` through `seq` from all-X and records its trace and the state
// trajectory.
void simulate_good(SeqSimulator& sim, const TestSequence& seq,
                   GoodTrace& trace, StateSet* good_states) {
  sim.set_state(std::vector<V3>(sim.netlist().num_dffs(), V3::kX));
  if (trace.size() < seq.size()) trace.resize(seq.size());
  for (std::size_t t = 0; t < seq.size(); ++t) {
    sim.step(seq[t]);
    trace[t] = sim.values();
    if (good_states) {
      const auto& state = sim.state();
      StateKey key(state.size());
      bool known = false;
      for (std::size_t i = 0; i < state.size(); ++i) {
        key.set(i, state[i]);
        known |= state[i] != V3::kX;
      }
      if (known) good_states->insert(key);
    }
  }
}

// Per-worker scratch arena. All buffers are sized once per netlist and
// reused across every batch and frame the worker simulates — the per-frame
// hot path performs no heap allocation.
struct FsimArena {
  struct Inject {
    NodeId node;
    int pin;
    unsigned slot;
    bool stuck1;
    std::int32_t next;  ///< next injection on the same node, or -1
  };

  std::vector<PV> val;                 ///< per node
  std::vector<PV> state;               ///< per DFF
  std::vector<std::uint8_t> active;    ///< per node: differs from good?
  std::vector<std::int32_t> inj_head;  ///< per node -> index into inj, -1
  std::vector<Inject> inj;             ///< flattened injection table
  std::vector<std::uint32_t> cone_pis;   ///< PI indices inside the cone
  std::vector<std::uint32_t> cone_dffs;  ///< DFF indices inside the cone
  std::vector<NodeId> cone_eval;  ///< cone comb/PO nodes in topo order
  std::vector<NodeId> cone_pos;   ///< cone PO markers, nl.outputs() order
  std::vector<PV> pv_gather;      ///< fanin staging for gate evaluation
  BitVec cone;                    ///< union of batch fault-site cones
  bool prepared = false;

  void prepare(const Netlist& nl) {
    if (prepared && val.size() == nl.num_nodes()) return;
    val.assign(nl.num_nodes(), PV{});
    state.assign(nl.num_dffs(), PV{});
    active.assign(nl.num_nodes(), 0);
    inj_head.assign(nl.num_nodes(), -1);
    inj.reserve(63);
    pv_gather.resize(nl.compiled().max_fanins);
    cone.resize(nl.num_nodes());
    prepared = true;
  }
};

// One 63-fault batch simulated against one sequence, restricted to the
// union of the batch's fault-site fanout cones. Nodes outside the cone are
// provably identical to the good machine, whose per-frame values arrive in
// `good`; inside the cone an activity check skips any gate whose fanins
// all match the good values and which carries no injection. Sets
// newly[faults index] / newly_pot[faults index] — each batch owns disjoint
// fault indices, so concurrent batches never write the same slot.
void simulate_batch(const Netlist& nl, const std::vector<Fault>& faults,
                    const std::size_t* batch, std::size_t batch_size,
                    const TestSequence& seq, const GoodTrace& good,
                    FsimArena& a, std::uint8_t* newly,
                    std::uint8_t* newly_pot) {
  SATPG_DCHECK(batch_size >= 1 && batch_size <= 63);
  a.prepare(nl);
  const CompiledNetlist& c = nl.compiled();
  const auto& cones = nl.fanout_cones();
  const auto& inputs = nl.inputs();
  const auto& dffs = nl.dffs();

  // Union cone of the batch's fault sites.
  a.cone.clear_all();
  for (std::size_t k = 0; k < batch_size; ++k)
    a.cone |= cones[static_cast<std::size_t>(faults[batch[k]].node)];

  // Flattened injection table: clear the previous batch's heads (bounded
  // by 63 entries, not netlist size), then chain this batch's faults.
  for (const auto& e : a.inj)
    a.inj_head[static_cast<std::size_t>(e.node)] = -1;
  a.inj.clear();
  for (std::size_t k = 0; k < batch_size; ++k) {
    const Fault& f = faults[batch[k]];
    const auto ni = static_cast<std::size_t>(f.node);
    a.inj.push_back({f.node, f.pin, static_cast<unsigned>(k + 1), f.stuck1,
                     a.inj_head[ni]});
    a.inj_head[ni] = static_cast<std::int32_t>(a.inj.size()) - 1;
  }

  // Cone membership lists, in evaluation order.
  a.cone_pis.clear();
  a.cone_dffs.clear();
  a.cone_eval.clear();
  a.cone_pos.clear();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (a.cone.get(static_cast<std::size_t>(inputs[i])))
      a.cone_pis.push_back(static_cast<std::uint32_t>(i));
  for (std::size_t i = 0; i < dffs.size(); ++i)
    if (a.cone.get(static_cast<std::size_t>(dffs[i])))
      a.cone_dffs.push_back(static_cast<std::uint32_t>(i));
  for (NodeId id : c.eval)
    if (a.cone.get(static_cast<std::size_t>(id))) a.cone_eval.push_back(id);
  for (NodeId po : nl.outputs())
    if (a.cone.get(static_cast<std::size_t>(po))) a.cone_pos.push_back(po);

  // All-X power-up state for the cone's flip-flops. Stale `active` flags
  // are harmless: every cone node's flag is rewritten each frame before
  // any topologically-later consumer reads it.
  for (std::uint32_t i : a.cone_dffs) a.state[i] = PV::all(V3::kX);

  auto forced = [](const FsimArena::Inject& j) {
    return j.stuck1 ? V3::kOne : V3::kZero;
  };

  for (std::size_t t = 0; t < seq.size(); ++t) {
    const auto& pi = seq[t];
    const std::vector<V3>& gval = good[t];

    // Cone sources: PIs and DFF outputs, with stem injections.
    for (std::uint32_t idx : a.cone_pis) {
      const auto id = static_cast<std::size_t>(inputs[idx]);
      PV v = PV::all(pi[idx]);
      for (std::int32_t e = a.inj_head[id]; e >= 0; e = a.inj[e].next)
        if (a.inj[e].pin < 0) v.set_slot(a.inj[e].slot, forced(a.inj[e]));
      a.val[id] = v;
      a.active[id] = v != PV::all(gval[id]) ? 1 : 0;
    }
    for (std::uint32_t i : a.cone_dffs) {
      const auto id = static_cast<std::size_t>(dffs[i]);
      PV v = a.state[i];
      for (std::int32_t e = a.inj_head[id]; e >= 0; e = a.inj[e].next)
        if (a.inj[e].pin < 0) v.set_slot(a.inj[e].slot, forced(a.inj[e]));
      a.val[id] = v;
      a.active[id] = v != PV::all(gval[id]) ? 1 : 0;
    }

    // Cone gates and PO markers in topological order.
    for (NodeId id : a.cone_eval) {
      const auto ni = static_cast<std::size_t>(id);
      const GateType type = c.type[ni];
      const auto fanins = c.fanins(id);
      const V3 g = gval[ni];
      // Activity check: a gate whose fanins all equal the good machine in
      // every slot and which injects nothing evaluates to the good value.
      bool act = a.inj_head[ni] >= 0;
      if (!act)
        for (NodeId f : fanins) {
          const auto fi = static_cast<std::size_t>(f);
          if (a.cone.get(fi) && a.active[fi]) {
            act = true;
            break;
          }
        }
      if (!act) {
        a.val[ni] = PV::all(g);
        a.active[ni] = 0;
        continue;
      }
      const std::size_t nfi = fanins.size();
      for (std::size_t k = 0; k < nfi; ++k) {
        const auto fi = static_cast<std::size_t>(fanins[k]);
        a.pv_gather[k] =
            a.cone.get(fi) ? a.val[fi] : PV::all(gval[fi]);
      }
      // Pin faults force their slot on the staged fan-in copy, so one
      // word evaluation serves the batch; stem faults (and the PO marker's
      // pin-0 fault) force the output after it.
      const bool po_marker = type == GateType::kOutput;
      if (!po_marker)
        for (std::int32_t e = a.inj_head[ni]; e >= 0; e = a.inj[e].next) {
          const auto& j = a.inj[e];
          if (j.pin >= 0)
            a.pv_gather[static_cast<std::size_t>(j.pin)].set_slot(j.slot,
                                                                  forced(j));
        }
      PV v = fold_gate(PVAlgebra{}, type, nfi,
                       [&](std::size_t k) { return a.pv_gather[k]; });
      for (std::int32_t e = a.inj_head[ni]; e >= 0; e = a.inj[e].next) {
        const auto& j = a.inj[e];
        if (po_marker ? j.pin == 0 : j.pin < 0) v.set_slot(j.slot, forced(j));
      }
      a.val[ni] = v;
      a.active[ni] = v != PV::all(g) ? 1 : 0;
    }

    // Detection: slot differs from the good value with both known.
    // Potential detection: good known, slot X. POs outside the cone carry
    // the good value in every slot and can contribute neither.
    for (NodeId po : a.cone_pos) {
      const PV v = a.val[static_cast<std::size_t>(po)];
      const V3 g = v.slot(0);
      if (g == V3::kX) continue;
      const std::uint64_t good_mask = g == V3::kOne ? v.zero : v.one;
      std::uint64_t diff = good_mask & ~1ULL;  // known-opposite slots
      while (diff) {
        const unsigned slot = static_cast<unsigned>(__builtin_ctzll(diff));
        diff &= diff - 1;
        if (slot >= 1 && slot <= batch_size) newly[batch[slot - 1]] = 1;
      }
      std::uint64_t xs = ~(v.zero | v.one) & ~1ULL;
      while (xs) {
        const unsigned slot = static_cast<unsigned>(__builtin_ctzll(xs));
        xs &= xs - 1;
        if (slot >= 1 && slot <= batch_size) newly_pot[batch[slot - 1]] = 1;
      }
    }

    // Clock the cone's flip-flops (D-pin faults inject here).
    for (std::uint32_t i : a.cone_dffs) {
      const auto id = static_cast<std::size_t>(dffs[i]);
      const auto d = static_cast<std::size_t>(c.fanins(dffs[i])[0]);
      PV v = a.cone.get(d) ? a.val[d] : PV::all(gval[d]);
      for (std::int32_t e = a.inj_head[id]; e >= 0; e = a.inj[e].next)
        if (a.inj[e].pin == 0) v.set_slot(a.inj[e].slot, forced(a.inj[e]));
      a.state[i] = v;
    }
  }
}

}  // namespace

FsimResult run_fault_simulation(const Netlist& nl,
                                const std::vector<Fault>& faults,
                                const std::vector<TestSequence>& sequences,
                                const FsimOptions& opts) {
  FsimResult res;
  res.detected_at.assign(faults.size(), -1);
  res.potential_at.assign(faults.size(), -1);
  if (sequences.empty()) return res;

  PhaseSpan fsim_span(ProfPhase::kFsimRun);
  if (metrics_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("fsim.calls").add();
    reg.counter("fsim.sequences").add(sequences.size());
    std::uint64_t vectors = 0;
    for (const auto& s : sequences) vectors += s.size();
    reg.counter("fsim.vectors").add(vectors);
  }

  // Build the netlist's lazy caches before workers share it: the const
  // accessors populate mutable caches on first use and must not race.
  nl.compiled();

  const unsigned max_workers = opts.num_threads == 0
                                   ? ThreadPool::hardware_threads()
                                   : opts.num_threads;

  if (opts.engine == FsimEngine::kWide)
    return fsim_wide::run_wide(nl, faults, sequences, opts, max_workers);

  // The 64-slot reference: only it restricts batches to fanout cones.
  if (!faults.empty()) nl.fanout_cones();

  std::vector<std::uint8_t> detected(faults.size(), 0);
  std::vector<std::uint8_t> newly(faults.size(), 0);
  std::vector<std::uint8_t> newly_pot(faults.size(), 0);
  std::vector<std::size_t> remaining;
  remaining.reserve(faults.size());
  SeqSimulator good(nl);
  GoodTrace trace;
  std::vector<FsimArena> arenas;

  for (std::size_t si = 0; si < sequences.size(); ++si) {
    // The good machine runs once per sequence; batches only re-simulate
    // the faulty cones against it. This also records the state trajectory
    // without ever simulating an empty batch.
    {
      PhaseSpan good_span(ProfPhase::kFsimGood);
      simulate_good(good, sequences[si], trace, &res.good_states);
    }

    // Remaining (undetected) faults, batched 63 at a time. The batch
    // partition is fixed before any batch runs and every batch writes only
    // its own faults' flags, so results are independent of worker count
    // and scheduling order.
    remaining.clear();
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (!detected[i]) remaining.push_back(i);
    if (remaining.empty()) continue;
    const std::size_t num_batches = (remaining.size() + 62) / 63;
    std::fill(newly.begin(), newly.end(), 0);
    std::fill(newly_pot.begin(), newly_pot.end(), 0);

    auto run_batch = [&](std::size_t b, FsimArena& arena) {
      const std::size_t lo = b * 63;
      const std::size_t n =
          std::min<std::size_t>(63, remaining.size() - lo);
      PhaseSpan batch_span(ProfPhase::kFsimBatch);
      simulate_batch(nl, faults, remaining.data() + lo, n, sequences[si],
                     trace, arena, newly.data(), newly_pot.data());
    };

    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(max_workers, num_batches));
    if (arenas.size() < workers) arenas.resize(workers);
    if (workers <= 1) {
      for (std::size_t b = 0; b < num_batches; ++b)
        run_batch(b, arenas[0]);
    } else {
      ThreadPool::shared().run_on_workers(
          workers, [&run_batch, workers, num_batches, &arenas](unsigned w) {
            for (std::size_t b = w; b < num_batches; b += workers)
              run_batch(b, arenas[w]);
          });
    }

    for (std::size_t idx : remaining) {
      if (newly[idx]) {
        detected[idx] = 1;
        res.detected_at[idx] = static_cast<int>(si);
      }
      if (newly_pot[idx] && res.potential_at[idx] < 0)
        res.potential_at[idx] = static_cast<int>(si);
    }
  }
  res.num_detected = static_cast<std::size_t>(
      std::count(detected.begin(), detected.end(), 1));
  return res;
}

std::pair<std::size_t, std::size_t> graded_coverage(
    const std::vector<CollapsedFault>& faults,
    const std::vector<int>& detected_at) {
  SATPG_CHECK(faults.size() == detected_at.size());
  std::size_t det = 0, total = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    total += static_cast<std::size_t>(faults[i].class_size);
    if (detected_at[i] >= 0)
      det += static_cast<std::size_t>(faults[i].class_size);
  }
  return {det, total};
}

}  // namespace satpg
