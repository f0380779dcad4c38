// Wide pattern-parallel (PPSFP) fault-simulation driver.
//
// Packs a lane group of PVW::kSubWords sequences into one simulation: one
// packed good-machine pass per group produces per-frame per-node 8-lane
// good masks, then every 63-fault batch is simulated across all lanes at
// once by a SIMD kernel (wide_scalar/sse2/avx2/avx512.cpp) chosen by a
// one-time CPUID dispatch. The driver owns everything that is not
// ISA-sensitive: opcode translation, cone construction, injection tables,
// the thread-pool fan-out, and the merge that maps per-lane detection
// masks back to per-sequence results.
//
// Determinism contract (DESIGN.md §8): lane g of group gi is sequence
// index gi*kLanes + g, fixed before any batch runs. detected_at is the
// lowest detecting lane; potential_at considers only lanes up to and
// including the detecting lane (later lanes are never simulated by the
// 64-slot engine, which drops a fault after its detecting sequence).
// Batch partitions are fixed per group and each batch writes only its own
// faults' lane masks, so results are identical for every thread count;
// every kernel tier computes the same fixed-width logical word, so they
// are identical across tiers too. The semantic counters fsim.batches /
// calls / sequences / vectors match the 64-slot engine exactly
// (fsim.batches is derived from the detection results, reproducing the
// per-sequence drop schedule the 64-slot engine would have executed);
// engine-internal hot-path counters live under fsim.wide.* because the
// wide engine's evaluation schedule is legitimately different.
#include <algorithm>
#include <cstring>

#include "base/cpu.h"
#include "base/memstats.h"
#include "base/metrics.h"
#include "base/profiler.h"
#include "base/threadpool.h"
#include "fsim/wide_driver.h"
#include "fsim/wide_internal.h"
#include "sim/simulator.h"

namespace satpg {

namespace {

fsim_wide::KernelFn tier_kernel(SimdTier t) {
  switch (t) {
    case SimdTier::kScalar:
      return fsim_wide::kernel_scalar();
    case SimdTier::kSse2:
      return fsim_wide::kernel_sse2();
    case SimdTier::kAvx2:
      return fsim_wide::kernel_avx2();
    case SimdTier::kAvx512:
      return fsim_wide::kernel_avx512();
    case SimdTier::kAuto:
      break;
  }
  return nullptr;
}

}  // namespace

bool fsim_wide_tier_usable(SimdTier tier) {
  if (tier == SimdTier::kAuto || tier == SimdTier::kScalar) return true;
  return tier_kernel(tier) != nullptr && simd_tier_supported(tier);
}

SimdTier fsim_wide_widest_compiled_tier() {
  for (SimdTier t : {SimdTier::kAvx512, SimdTier::kAvx2, SimdTier::kSse2})
    if (tier_kernel(t) != nullptr) return t;
  return SimdTier::kScalar;
}

SimdTier fsim_wide_resolve_tier(SimdTier tier) {
  if (simd_force_scalar_env()) return SimdTier::kScalar;
  if (tier != SimdTier::kAuto) return tier;
  for (SimdTier t : {SimdTier::kAvx512, SimdTier::kAvx2, SimdTier::kSse2})
    if (tier_kernel(t) != nullptr && simd_tier_supported(t)) return t;
  return SimdTier::kScalar;
}

bool run_wide_kernel_selftest(SimdTier tier) {
  switch (tier == SimdTier::kAuto ? fsim_wide_resolve_tier(tier) : tier) {
    case SimdTier::kScalar:
      return fsim_wide::selftest_scalar();
    case SimdTier::kSse2:
      return fsim_wide::selftest_sse2();
    case SimdTier::kAvx2:
      return fsim_wide::selftest_avx2();
    case SimdTier::kAvx512:
      return fsim_wide::selftest_avx512();
    case SimdTier::kAuto:
      break;
  }
  return false;
}

namespace fsim_wide {
namespace {

/// Kernel opcode of a node the kernel evaluates (a gate or PO marker).
std::uint8_t wop_of(GateType t) {
  switch (t) {
    case GateType::kConst0:
      return kWConst0;
    case GateType::kConst1:
      return kWConst1;
    case GateType::kBuf:
      return kWBuf;
    case GateType::kNot:
      return kWNot;
    case GateType::kAnd:
      return kWAnd;
    case GateType::kNand:
      return kWNand;
    case GateType::kOr:
      return kWOr;
    case GateType::kNor:
      return kWNor;
    case GateType::kXor:
      return kWXor;
    case GateType::kXnor:
      return kWXnor;
    case GateType::kOutput:
      return kWOutput;
    default:
      SATPG_CHECK_MSG(false, "node type never evaluated by the kernel");
      return 0;
  }
}

/// Packed good-machine trace of one lane group: one PV pass (slot g =
/// lane g) over the full netlist per frame, flattened to the per-node
/// 8-lane 0/1 masks the kernels consume.
struct GroupGood {
  std::vector<std::uint8_t> zm, om;  ///< [frame * num_nodes + node]
  std::vector<std::uint8_t> live;    ///< per frame: lane still in-sequence
  std::size_t frames = 0;
  std::vector<PV> val;    // scratch
  std::vector<PV> state;  // scratch
};

void simulate_group_good(const Netlist& nl,
                         const std::vector<TestSequence>& seqs,
                         std::size_t base, unsigned lanes, GroupGood& gg,
                         StateSet* good_states) {
  const CompiledNetlist& c = nl.compiled();
  const auto& inputs = nl.inputs();
  const auto& dffs = nl.dffs();
  const std::size_t n = nl.num_nodes();

  gg.frames = 0;
  for (unsigned g = 0; g < lanes; ++g)
    gg.frames = std::max(gg.frames, seqs[base + g].size());
  gg.zm.assign(gg.frames * n, 0);
  gg.om.assign(gg.frames * n, 0);
  gg.live.assign(gg.frames, 0);
  gg.val.assign(n, PV{});
  gg.state.assign(dffs.size(), PV{});

  for (std::size_t t = 0; t < gg.frames; ++t) {
    std::uint8_t live = 0;
    for (unsigned g = 0; g < lanes; ++g)
      if (t < seqs[base + g].size()) {
        SATPG_CHECK(seqs[base + g][t].size() == nl.num_inputs());
        live |= static_cast<std::uint8_t>(1u << g);
      }
    gg.live[t] = live;

    // Dead lanes keep all-X inputs: their machines idle along harmlessly
    // and the live mask gates everything observable.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      PV w{};
      for (unsigned g = 0; g < lanes; ++g)
        if ((live >> g) & 1) w.set_slot(g, seqs[base + g][t][i]);
      gg.val[static_cast<std::size_t>(inputs[i])] = w;
    }
    for (std::size_t i = 0; i < dffs.size(); ++i)
      gg.val[static_cast<std::size_t>(dffs[i])] = gg.state[i];
    for (NodeId id : c.eval) {
      const auto u = static_cast<std::size_t>(id);
      gg.val[u] = eval_gate_pv(c.type[u], c.fanins(id), gg.val);
    }
    std::uint8_t* zrow = gg.zm.data() + t * n;
    std::uint8_t* orow = gg.om.data() + t * n;
    for (std::size_t i = 0; i < n; ++i) {
      zrow[i] = static_cast<std::uint8_t>(gg.val[i].zero & 0xff);
      orow[i] = static_cast<std::uint8_t>(gg.val[i].one & 0xff);
    }
    // Clock, then record each live lane's entered state (matches the
    // per-sequence engine; StateSet equality is content-based, so the
    // lane-major insertion order is irrelevant).
    for (std::size_t i = 0; i < dffs.size(); ++i)
      gg.state[i] = gg.val[static_cast<std::size_t>(
          nl.node(dffs[i]).fanins[0])];
    if (good_states) {
      for (unsigned g = 0; g < lanes; ++g) {
        if (!((live >> g) & 1)) continue;
        StateKey key(dffs.size());
        bool known = false;
        for (std::size_t i = 0; i < dffs.size(); ++i) {
          const V3 v = gg.state[i].slot(g);
          key.set(i, v);
          known |= v != V3::kX;
        }
        if (known) good_states->insert(key);
      }
    }
  }
}

/// Per-worker scratch, PVW-sized twin of fsim.cpp's FsimArena.
struct WideArena {
  std::vector<PVW> val;    ///< per node
  std::vector<PVW> state;  ///< per DFF
  std::vector<PVW> gather;
  std::vector<const PVW*> gather_ptrs;
  std::vector<std::uint8_t> active;
  std::vector<std::uint8_t> in_cone;
  std::vector<std::int32_t> inj_head;
  std::vector<WInject> inj;
  std::vector<std::int32_t> eval_ids;
  std::vector<std::uint8_t> eval_ops;
  std::vector<std::int32_t> pi_ids, dff_ids, dff_dnode, dff_index, po_ids;
  BitVec cone;
  std::uint64_t det_acc[kLanes];
  std::uint64_t pot_acc[kLanes];
  bool prepared = false;

  void prepare(const Netlist& nl, std::size_t max_fanins) {
    if (prepared && val.size() == nl.num_nodes()) return;
    val.assign(nl.num_nodes(), PVW{});
    state.assign(nl.num_dffs(), PVW{});
    gather.resize(max_fanins);
    gather_ptrs.resize(max_fanins);
    active.assign(nl.num_nodes(), 0);
    in_cone.assign(nl.num_nodes(), 0);
    inj_head.assign(nl.num_nodes(), -1);
    inj.reserve(63);
    cone.resize(nl.num_nodes());
    prepared = true;
  }
};

/// Logical footprint of one prepared WideArena plus the group-good image
/// at its largest (frames = longest sequence) — a pure function of
/// (netlist, sequences), charged once per run_wide call regardless of
/// worker count so the accounted bytes are thread-count invariant. The
/// per-batch id lists are rebuilt in place from prepare()-sized storage
/// and are covered by the node-indexed terms.
std::uint64_t wide_logical_bytes(const Netlist& nl, std::size_t max_frames) {
  const std::uint64_t n = nl.num_nodes();
  const std::uint64_t arena =
      n * (sizeof(PVW) + 2 * sizeof(std::uint8_t) + sizeof(std::int32_t)) +
      nl.num_dffs() * sizeof(PVW) +
      nl.compiled().max_fanins * (sizeof(PVW) + sizeof(const PVW*)) +
      63 * sizeof(WInject) + (n + 7) / 8;
  const std::uint64_t group = max_frames * (2 * n + 1) +
                              (n + nl.num_dffs()) * sizeof(PV);
  return arena + group;
}

/// One (group, batch): build the cone-restricted flattened view, run the
/// kernel over all frames, then unpack the per-fault 8-bit lane masks.
/// Each batch owns disjoint fault indices, so concurrent batches never
/// write the same det_lanes/pot_lanes byte.
void simulate_group_batch(const Netlist& nl,
                          const std::vector<Fault>& faults,
                          const std::size_t* batch, std::size_t batch_size,
                          const GroupGood& gg, KernelFn kernel,
                          ProfPhase kernel_phase, WideArena& a,
                          std::uint8_t* det_lanes,
                          std::uint8_t* pot_lanes) {
  SATPG_DCHECK(batch_size >= 1 && batch_size <= 63);
  const CompiledNetlist& c = nl.compiled();
  a.prepare(nl, c.max_fanins);
  const auto& cones = nl.fanout_cones();
  const auto& inputs = nl.inputs();
  const auto& dffs = nl.dffs();

  a.cone.clear_all();
  for (std::size_t k = 0; k < batch_size; ++k)
    a.cone |= cones[static_cast<std::size_t>(faults[batch[k]].node)];
  std::memset(a.in_cone.data(), 0, a.in_cone.size());
  for (std::size_t i = a.cone.find_first(); i < a.cone.size();
       i = a.cone.find_next(i))
    a.in_cone[i] = 1;

  for (const auto& e : a.inj)
    a.inj_head[static_cast<std::size_t>(e.node)] = -1;
  a.inj.clear();
  for (std::size_t k = 0; k < batch_size; ++k) {
    const Fault& f = faults[batch[k]];
    const auto ni = static_cast<std::size_t>(f.node);
    a.inj.push_back({f.node, f.pin, static_cast<std::uint32_t>(k + 1),
                     static_cast<std::uint8_t>(f.stuck1 ? 1 : 0),
                     a.inj_head[ni]});
    a.inj_head[ni] = static_cast<std::int32_t>(a.inj.size()) - 1;
  }

  a.pi_ids.clear();
  a.dff_ids.clear();
  a.dff_dnode.clear();
  a.dff_index.clear();
  a.eval_ids.clear();
  a.eval_ops.clear();
  a.po_ids.clear();
  for (NodeId id : inputs)
    if (a.in_cone[static_cast<std::size_t>(id)]) a.pi_ids.push_back(id);
  for (std::size_t i = 0; i < dffs.size(); ++i)
    if (a.in_cone[static_cast<std::size_t>(dffs[i])]) {
      a.dff_ids.push_back(dffs[i]);
      a.dff_dnode.push_back(c.fanins(dffs[i])[0]);
      a.dff_index.push_back(static_cast<std::int32_t>(i));
    }
  for (NodeId id : c.eval)
    if (a.in_cone[static_cast<std::size_t>(id)]) {
      a.eval_ids.push_back(id);
      a.eval_ops.push_back(wop_of(c.type[static_cast<std::size_t>(id)]));
    }
  for (NodeId po : nl.outputs())
    if (a.in_cone[static_cast<std::size_t>(po)]) a.po_ids.push_back(po);

  const bool count_metrics = metrics_enabled();
  std::uint64_t gate_evals = 0;
  std::uint64_t activity_skips = 0;

  WideView w;
  w.fanin_nodes = c.fanin.data();
  w.fanin_begin = c.fanin_off.data();
  w.num_nodes = nl.num_nodes();
  w.in_cone = a.in_cone.data();
  w.eval_ids = a.eval_ids.data();
  w.eval_ops = a.eval_ops.data();
  w.eval_count = a.eval_ids.size();
  w.pi_ids = a.pi_ids.data();
  w.pi_count = a.pi_ids.size();
  w.dff_ids = a.dff_ids.data();
  w.dff_dnode = a.dff_dnode.data();
  w.dff_index = a.dff_index.data();
  w.dff_count = a.dff_ids.size();
  w.po_ids = a.po_ids.data();
  w.po_count = a.po_ids.size();
  w.inj_head = a.inj_head.data();
  w.inj = a.inj.data();
  w.zm = gg.zm.data();
  w.om = gg.om.data();
  w.live = gg.live.data();
  w.frames = gg.frames;
  w.val = a.val.data();
  w.state = a.state.data();
  w.active = a.active.data();
  w.gather = a.gather.data();
  w.gather_ptrs = a.gather_ptrs.data();
  w.batch_size = batch_size;
  w.det_acc = a.det_acc;
  w.pot_acc = a.pot_acc;
  w.count_metrics = count_metrics;
  w.gate_evals = &gate_evals;
  w.activity_skips = &activity_skips;

  {
    // Attributed to the dispatched tier's phase, so a profile splits the
    // wide-kernel cycles by the instruction set that actually ran.
    PhaseSpan kernel_span(kernel_phase);
    kernel(w);
  }

  for (std::size_t k = 0; k < batch_size; ++k) {
    const unsigned slot = static_cast<unsigned>(k + 1);
    std::uint8_t dm = 0, pm = 0;
    for (unsigned g = 0; g < kLanes; ++g) {
      dm |= static_cast<std::uint8_t>(((a.det_acc[g] >> slot) & 1) << g);
      pm |= static_cast<std::uint8_t>(((a.pot_acc[g] >> slot) & 1) << g);
    }
    det_lanes[batch[k]] = dm;
    pot_lanes[batch[k]] = pm;
  }

  if (count_metrics) {
    static MetricsRegistry::Counter& ge =
        MetricsRegistry::global().counter("fsim.wide.gate_evals");
    static MetricsRegistry::Counter& as =
        MetricsRegistry::global().counter("fsim.wide.activity_skips");
    ge.add(gate_evals);
    as.add(activity_skips);
  }
}

}  // namespace

FsimResult run_wide(const Netlist& nl, const std::vector<Fault>& faults,
                    const std::vector<TestSequence>& sequences,
                    const FsimOptions& opts, unsigned max_workers) {
  FsimResult res;
  res.detected_at.assign(faults.size(), -1);
  res.potential_at.assign(faults.size(), -1);
  if (sequences.empty()) return res;

  const SimdTier tier = fsim_wide_resolve_tier(opts.simd);
  SATPG_CHECK_MSG(fsim_wide_tier_usable(tier),
                  "requested wide-fsim tier is not available on this "
                  "machine/build (satpg fsim --width=64 pins the portable one)");
  KernelFn kernel = tier_kernel(tier);
  SATPG_CHECK(kernel != nullptr);
  const ProfPhase kernel_phase = prof_phase_for_wide_kernel(tier);

  // One arena + one group image for the duration of the call (never
  // x workers, never x groups).
  std::uint64_t wide_bytes = 0;
  if (memstats_enabled()) {
    std::size_t max_frames = 0;
    for (const auto& s : sequences)
      max_frames = std::max(max_frames, s.size());
    wide_bytes = wide_logical_bytes(nl, max_frames);
  }
  const MemRegistryScope lanes_mem(MemSubsystem::kFsimWideLanes, wide_bytes);

  const std::size_t num_groups = (sequences.size() + kLanes - 1) / kLanes;
  if (metrics_enabled()) {
    static MetricsRegistry::Counter& groups =
        MetricsRegistry::global().counter("fsim.wide.groups");
    groups.add(num_groups);
  }

  std::vector<std::uint8_t> detected(faults.size(), 0);
  std::vector<std::uint8_t> det_lanes(faults.size(), 0);
  std::vector<std::uint8_t> pot_lanes(faults.size(), 0);
  std::vector<std::size_t> remaining;
  remaining.reserve(faults.size());
  GroupGood gg;
  std::vector<WideArena> arenas;
  // The 64-slot engine counts one fsim.batches unit per (sequence,
  // 63-fault chunk of the then-remaining faults). Detection results are
  // drop-schedule invariant, so that count can be reproduced exactly from
  // detected_at — keeping the semantic metrics engine-independent even
  // though the wide engine batches per group.
  std::uint64_t logical_batches = 0;

  for (std::size_t base = 0; base < sequences.size(); base += kLanes) {
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::size_t>(kLanes, sequences.size() - base));
    {
      PhaseSpan good_span(ProfPhase::kFsimWideGood);
      simulate_group_good(nl, sequences, base, lanes, gg,
                          &res.good_states);
    }

    remaining.clear();
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (!detected[i]) remaining.push_back(i);
    if (remaining.empty()) continue;

    const std::size_t num_batches = (remaining.size() + 62) / 63;
    auto run_batch = [&](std::size_t b, WideArena& arena) {
      const std::size_t lo = b * 63;
      const std::size_t nb =
          std::min<std::size_t>(63, remaining.size() - lo);
      simulate_group_batch(nl, faults, remaining.data() + lo, nb, gg,
                           kernel, kernel_phase, arena, det_lanes.data(),
                           pot_lanes.data());
    };
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(max_workers, num_batches));
    if (arenas.size() < workers) arenas.resize(workers);
    if (workers <= 1) {
      if (arenas.empty()) arenas.resize(1);
      for (std::size_t b = 0; b < num_batches; ++b) run_batch(b, arenas[0]);
    } else {
      ThreadPool::shared().run_on_workers(
          workers, [&run_batch, workers, num_batches, &arenas](unsigned w) {
            for (std::size_t b = w; b < num_batches; b += workers)
              run_batch(b, arenas[w]);
          });
    }

    // Merge: lowest detecting lane wins (lane index == sequence index);
    // potential detections count only up to and including that lane — the
    // per-sequence engine drops a fault right after its detecting
    // sequence and would never observe later ones.
    std::size_t det_in_lane[kLanes] = {};
    for (std::size_t idx : remaining) {
      const std::uint8_t dm = det_lanes[idx];
      std::uint8_t pm = pot_lanes[idx];
      if (dm) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(dm));
        detected[idx] = 1;
        res.detected_at[idx] = static_cast<int>(base + lane);
        ++det_in_lane[lane];
        pm &= static_cast<std::uint8_t>((2u << lane) - 1);
      }
      if (pm && res.potential_at[idx] < 0)
        res.potential_at[idx] =
            static_cast<int>(base + static_cast<unsigned>(__builtin_ctz(pm)));
    }
    std::size_t rem = remaining.size();
    for (unsigned g = 0; g < lanes; ++g) {
      if (rem > 0) logical_batches += (rem + 62) / 63;
      rem -= det_in_lane[g];
    }
  }

  if (metrics_enabled() && logical_batches > 0) {
    static MetricsRegistry::Counter& batches =
        MetricsRegistry::global().counter("fsim.batches");
    batches.add(logical_batches);
  }
  res.num_detected = static_cast<std::size_t>(
      std::count(detected.begin(), detected.end(), 1));
  return res;
}

}  // namespace fsim_wide
}  // namespace satpg
