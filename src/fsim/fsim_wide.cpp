// Wide pattern-parallel (PPSFP) fault-simulation driver: the engine every
// production run_fault_simulation call runs.
//
// Packs a lane group of PVW::kSubWords sequences into one simulation:
// every 63-fault batch is simulated across all lanes at once, over the
// whole netlist, by a SIMD kernel (wide_scalar/sse2/avx2/avx512.cpp)
// chosen by a one-time CPUID dispatch. Slot 0 of every lane is that
// lane's good machine (PROOFS), so there is no separate good-machine
// pass: the kernel takes good PO values from slot 0, and the group's
// first batch records the good-state census from slot 0 of the clocked
// flip-flops (one fault-free run does when no fault remains). This file
// owns everything that is not ISA-sensitive: opcode translation, the PI
// lane masks, injection tables, the thread-pool fan-out, and the merge
// that maps per-lane detection masks back to per-sequence results.
//
// Determinism contract (DESIGN.md §8): lane g of group gi is sequence
// index gi*kLanes + g, fixed before any batch runs. detected_at is the
// lowest detecting lane; potential_at considers only lanes up to and
// including the detecting lane (later lanes are never simulated by the
// 64-slot engine, which drops a fault after its detecting sequence).
// Batch partitions are fixed per group and each batch writes only its own
// faults' lane masks, so results are identical for every thread count;
// every kernel tier computes the same fixed-width logical word, so they
// are identical across tiers too. The semantic counters fsim.calls /
// sequences / vectors are counted by run_fault_simulation for either
// engine; engine-internal counters live under fsim.wide.*.
#include <algorithm>

#include "base/cpu.h"
#include "base/memstats.h"
#include "base/metrics.h"
#include "base/profiler.h"
#include "base/threadpool.h"
#include "fsim/wide_driver.h"
#include "fsim/wide_internal.h"

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

/// The netlist as the kernel reads it, built once per run_wide call and
/// shared read-only by every worker: the compiled evaluation list's
/// opcodes and each flip-flop's D fan-in.
struct WideNetlist {
  std::vector<std::uint8_t> eval_ops;
  std::vector<std::int32_t> dff_dnode;

  explicit WideNetlist(const Netlist& nl) {
    const CompiledNetlist& c = nl.compiled();
    eval_ops.reserve(c.eval.size());
    for (NodeId id : c.eval)
      eval_ops.push_back(wop_of(c.type[static_cast<std::size_t>(id)]));
    for (NodeId d : nl.dffs()) dff_dnode.push_back(c.fanins(d)[0]);
  }
};

/// One lane group's inputs and census: per-frame PI lane masks and live
/// mask, filled by run_wide before the group's batches run, and the
/// good-state census that one kernel run per group records.
struct GroupInputs {
  std::vector<std::uint8_t> pi_zm, pi_om;  ///< [frame * num_inputs + pi]
  std::vector<std::uint8_t> live;          ///< per frame
  std::vector<std::uint8_t> census_zm, census_om;  ///< [frame * dffs + ff]
  std::size_t frames = 0;

  void fill(const Netlist& nl, const std::vector<TestSequence>& seqs,
            std::size_t base, unsigned lanes) {
    const std::size_t npi = nl.num_inputs();
    frames = 0;
    for (unsigned g = 0; g < lanes; ++g)
      frames = std::max(frames, seqs[base + g].size());
    pi_zm.assign(frames * npi, 0);
    pi_om.assign(frames * npi, 0);
    live.assign(frames, 0);
    census_zm.assign(frames * nl.num_dffs(), 0);
    census_om.assign(frames * nl.num_dffs(), 0);
    // Dead lanes keep all-X inputs: their machines idle along harmlessly
    // and the live mask gates everything observable.
    for (unsigned g = 0; g < lanes; ++g) {
      const TestSequence& seq = seqs[base + g];
      const auto bit = static_cast<std::uint8_t>(1u << g);
      for (std::size_t t = 0; t < seq.size(); ++t) {
        SATPG_CHECK(seq[t].size() == npi);
        live[t] |= bit;
        for (std::size_t i = 0; i < npi; ++i) {
          if (seq[t][i] == V3::kZero) pi_zm[t * npi + i] |= bit;
          if (seq[t][i] == V3::kOne) pi_om[t * npi + i] |= bit;
        }
      }
    }
  }

  /// Insert each live lane's entered states (StateSet equality is
  /// content-based, so the frame-major insertion order is irrelevant).
  void record_census(std::size_t num_dffs, StateSet& good_states) const {
    for (std::size_t t = 0; t < frames; ++t)
      for (unsigned g = 0; g < kLanes; ++g) {
        if (!((live[t] >> g) & 1)) continue;
        StateKey key(num_dffs);
        bool known = false;
        for (std::size_t i = 0; i < num_dffs; ++i) {
          const std::size_t k = t * num_dffs + i;
          const V3 v = (census_zm[k] >> g) & 1   ? V3::kZero
                       : (census_om[k] >> g) & 1 ? V3::kOne
                                                 : V3::kX;
          key.set(i, v);
          known |= v != V3::kX;
        }
        if (known) good_states.insert(key);
      }
  }
};

/// Per-worker scratch, PVW-sized twin of fsim.cpp's FsimArena.
struct WideArena {
  std::vector<PVW> val;    ///< per node
  std::vector<PVW> state;  ///< per DFF
  std::vector<PVW> gather;
  std::vector<const PVW*> gather_ptrs;
  std::vector<std::int32_t> inj_head;
  std::vector<WInject> inj;
  std::uint64_t det_acc[kLanes];
  std::uint64_t pot_acc[kLanes];
  bool prepared = false;

  void prepare(const Netlist& nl, std::size_t max_fanins) {
    if (prepared && val.size() == nl.num_nodes()) return;
    val.assign(nl.num_nodes(), PVW{});
    state.assign(nl.num_dffs(), PVW{});
    gather.resize(max_fanins);
    gather_ptrs.resize(max_fanins);
    inj_head.assign(nl.num_nodes(), -1);
    inj.reserve(63);
    prepared = true;
  }
};

/// Logical footprint of the call's WideNetlist, one prepared WideArena and
/// one GroupInputs at its largest (frames = longest sequence) — a pure
/// function of (netlist, sequences), charged once per run_wide call
/// regardless of worker count so the accounted bytes are thread-count
/// invariant.
std::uint64_t wide_logical_bytes(const Netlist& nl, std::size_t max_frames) {
  const std::uint64_t n = nl.num_nodes();
  const std::uint64_t lists = nl.compiled().eval.size() +
                              nl.num_dffs() * sizeof(std::int32_t);
  const std::uint64_t arena =
      n * (sizeof(PVW) + sizeof(std::int32_t)) +
      nl.num_dffs() * sizeof(PVW) +
      nl.compiled().max_fanins * (sizeof(PVW) + sizeof(const PVW*)) +
      63 * sizeof(WInject);
  const std::uint64_t group =
      max_frames * (2 * nl.num_inputs() + 1 + 2 * nl.num_dffs());
  return lists + arena + group;
}

/// One (group, batch): chain the batch's injections, run the kernel over
/// all frames, then unpack the per-fault 8-bit lane masks. Each batch owns
/// disjoint fault indices, so concurrent batches never write the same
/// det_lanes/pot_lanes byte. An empty batch is the fault-free run that
/// records the census when no fault remains; `census` asks the kernel to
/// record it into `in`, which only one run per group does.
void simulate_group_batch(const Netlist& nl, const WideNetlist& wn,
                          const std::vector<Fault>& faults,
                          const std::size_t* batch, std::size_t batch_size,
                          GroupInputs& in, bool census, KernelFn kernel,
                          ProfPhase kernel_phase, WideArena& a,
                          std::uint8_t* det_lanes,
                          std::uint8_t* pot_lanes) {
  SATPG_DCHECK(batch_size <= 63);
  const CompiledNetlist& c = nl.compiled();
  a.prepare(nl, c.max_fanins);

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

  WideView w;
  w.fanin_nodes = c.fanin.data();
  w.fanin_begin = c.fanin_off.data();
  w.eval_ids = c.eval.data();
  w.eval_ops = wn.eval_ops.data();
  w.eval_count = c.eval.size();
  w.pi_ids = nl.inputs().data();
  w.pi_count = nl.num_inputs();
  w.dff_ids = nl.dffs().data();
  w.dff_dnode = wn.dff_dnode.data();
  w.dff_count = nl.num_dffs();
  w.po_ids = nl.outputs().data();
  w.po_count = nl.outputs().size();
  w.inj_head = a.inj_head.data();
  w.inj = a.inj.data();
  w.pi_zm = in.pi_zm.data();
  w.pi_om = in.pi_om.data();
  w.live = in.live.data();
  w.frames = in.frames;
  w.val = a.val.data();
  w.state = a.state.data();
  w.gather = a.gather.data();
  w.gather_ptrs = a.gather_ptrs.data();
  if (census) {
    w.census_zm = in.census_zm.data();
    w.census_om = in.census_om.data();
  }
  w.det_acc = a.det_acc;
  w.pot_acc = a.pot_acc;

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

  // Every kernel run evaluates the whole evaluation list in every frame.
  if (metrics_enabled()) {
    static MetricsRegistry::Counter& ge =
        MetricsRegistry::global().counter("fsim.wide.gate_evals");
    ge.add(w.eval_count * w.frames);
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

  // One arena + one group's inputs for the duration of the call (never
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

  const WideNetlist wn(nl);
  std::vector<std::uint8_t> detected(faults.size(), 0);
  std::vector<std::uint8_t> det_lanes(faults.size(), 0);
  std::vector<std::uint8_t> pot_lanes(faults.size(), 0);
  std::vector<std::size_t> remaining;
  remaining.reserve(faults.size());
  GroupInputs in;
  std::vector<WideArena> arenas(1);

  for (std::size_t base = 0; base < sequences.size(); base += kLanes) {
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::size_t>(kLanes, sequences.size() - base));
    in.fill(nl, sequences, base, lanes);

    remaining.clear();
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (!detected[i]) remaining.push_back(i);

    // The group's first batch records the census; with no fault left, one
    // fault-free run does.
    const std::size_t num_batches = std::max<std::size_t>(
        1, (remaining.size() + 62) / 63);
    auto run_batch = [&](std::size_t b, WideArena& arena) {
      const std::size_t lo = b * 63;
      const std::size_t nb =
          std::min<std::size_t>(63, remaining.size() - lo);
      simulate_group_batch(nl, wn, faults, remaining.data() + lo, nb, in,
                           b == 0, kernel, kernel_phase, arena,
                           det_lanes.data(), pot_lanes.data());
    };
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(max_workers, num_batches));
    if (arenas.size() < workers) arenas.resize(workers);
    if (workers <= 1) {
      for (std::size_t b = 0; b < num_batches; ++b) run_batch(b, arenas[0]);
    } else {
      ThreadPool::shared().run_on_workers(
          workers, [&run_batch, workers, num_batches, &arenas](unsigned w) {
            for (std::size_t b = w; b < num_batches; b += workers)
              run_batch(b, arenas[w]);
          });
    }
    in.record_census(nl.num_dffs(), res.good_states);

    // Merge: lowest detecting lane wins (lane index == sequence index);
    // potential detections count only up to and including that lane — the
    // per-sequence engine drops a fault right after its detecting
    // sequence and would never observe later ones.
    for (std::size_t idx : remaining) {
      const std::uint8_t dm = det_lanes[idx];
      std::uint8_t pm = pot_lanes[idx];
      if (dm) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(dm));
        detected[idx] = 1;
        res.detected_at[idx] = static_cast<int>(base + lane);
        pm &= static_cast<std::uint8_t>((2u << lane) - 1);
      }
      if (pm && res.potential_at[idx] < 0)
        res.potential_at[idx] =
            static_cast<int>(base + static_cast<unsigned>(__builtin_ctz(pm)));
    }
  }

  res.num_detected = static_cast<std::size_t>(
      std::count(detected.begin(), detected.end(), 1));
  return res;
}

}  // namespace fsim_wide
}  // namespace satpg
