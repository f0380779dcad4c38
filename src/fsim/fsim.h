// Sequential stuck-at fault simulation (PROOFS substitute).
//
// Semantics follow the HITEC/PROOFS era conventions:
//   * every test sequence starts from the unknown (all-X) power-up state —
//     sequences are self-initializing through the circuit's reset line;
//   * a fault is detected at cycle t when some primary output is a known
//     value in both machines and the values differ (conservative X
//     handling — possible-detects do not count);
//   * faults are permanent: active in every cycle including initialization.
//
// One production engine and two references share the semantics:
//   * the wide pattern-parallel (PPSFP) engine, which every
//     run_fault_simulation call runs by default (ATPG verify-and-drop,
//     the random phase, grading and the Table 8 replay): it packs a lane
//     group of PVW::kSubWords sequences into one simulation and simulates
//     every 63-fault batch across all lanes at once, over the whole
//     netlist, on SIMD kernels selected by a one-time CPUID dispatch
//     (scalar / SSE2 / AVX2 / AVX-512, see DESIGN.md §8). Slot 0 of each
//     lane is that lane's good machine, so it needs no separate good pass;
//   * a 64-slot bit-parallel reference (slot 0 carries the good machine,
//     slots 1..63 carry faulty machines), one sequence at a time. It
//     simulates the good machine exactly once per sequence and restricts
//     each batch to the union of its fault sites' sequential fanout cones
//     with per-gate activity skips, so it shares no evaluation schedule
//     with the wide engine. Tests, CI and the benchmark regrade check the
//     wide engine against it;
//   * the serial reference simulate_fault_serial (one fault at a time):
//     two src/sim SeqSimulators, the good machine and one given the fault,
//     stepped in lockstep from all-X. It is what each ATPG engine's verify
//     re-simulates a candidate on.
//
// Neither reference has a gate truth table of its own: both evaluate
// through src/sim's fold_gate (the 64-slot batches over the PV algebra),
// and the 64-slot good pass steps a SeqSimulator. The serial reference's
// faulty machine is src/sim's one stuck-at overlay; the 64-slot batches
// keep their own slot-mask injection table, which puts 63 faults on one
// sweep.
//
// Both bit-parallel engines run their 63-fault batches concurrently on a
// thread pool, with per-worker scratch arenas that keep the per-frame hot
// path allocation-free. Results are bit-identical for every thread count,
// engine, lane width and dispatch tier — batches are formed before any
// batch runs, each batch writes only its own faults' flags, lane order
// equals sequence order, and first-detection ties resolve to the lowest
// lane index.
//
// The good machine's state trajectory is recorded so experiments can count
// the distinct states a test set traverses (Tables 6 and 8).
#pragma once

#include <vector>

#include "base/cpu.h"
#include "fault/fault.h"
#include "netlist/netlist.h"
#include "sim/statekey.h"
#include "sim/value.h"

namespace satpg {

/// One test sequence: per-cycle primary-input vectors (nl.inputs() order).
using TestSequence = std::vector<std::vector<V3>>;

/// Serial reference: cycle index of first detection from all-X, or -1.
int simulate_fault_serial(const Netlist& nl, const Fault& fault,
                          const TestSequence& seq);

enum class FsimEngine : std::uint8_t {
  kWide = 0,    ///< the pattern-parallel PVW engine (production)
  kBaseline64,  ///< the one-sequence-at-a-time 64-slot reference
};

struct FsimOptions {
  /// Worker threads for batch-level parallelism: 1 = in-caller serial
  /// execution (the reference path), 0 = one worker per hardware thread.
  /// Results are bit-identical for every value.
  unsigned num_threads = 0;
  /// kWide for every production call, any sequence count; kBaseline64
  /// selects the reference that tests and the benchmark regrade compare
  /// against. Results are identical either way.
  FsimEngine engine = FsimEngine::kWide;
  /// Physical kernel width for the wide engine. kAuto picks the widest
  /// tier that is compiled in and CPU-supported; an explicit tier that is
  /// unavailable is a fatal error (callers can pre-validate with
  /// fsim_wide_tier_usable). SATPG_FORCE_SCALAR=1 in the environment caps
  /// resolution at kScalar and wins over explicit requests. Results are
  /// bit-identical for every tier.
  SimdTier simd = SimdTier::kAuto;
};

/// True when the wide engine can run `tier` in this process: the kernel
/// is compiled in and the CPU supports it (kScalar/kAuto always can).
bool fsim_wide_tier_usable(SimdTier tier);

/// The widest tier whose kernel this BINARY contains, ignoring what the
/// running CPU supports (build provenance — harness/build_info).
SimdTier fsim_wide_widest_compiled_tier();

/// The tier run_fault_simulation's wide engine would actually execute for
/// a request of `tier` (applies SATPG_FORCE_SCALAR, resolves kAuto to the
/// widest usable tier).
SimdTier fsim_wide_resolve_tier(SimdTier tier);

/// Lane-by-lane semantic selftest of `tier`'s kernel ops against the V3
/// truth tables. False when the tier is not compiled in; CHECK-fails
/// never. kAuto tests the tier fsim_wide_resolve_tier(kAuto) picks.
bool run_wide_kernel_selftest(SimdTier tier);

struct FsimResult {
  std::vector<int> detected_at;   ///< per fault: sequence index, or -1
  /// Potential detections (good output known, faulty output X — the fault
  /// may or may not be observed on silicon; PROOFS-era tools credited
  /// these separately).
  std::vector<int> potential_at;  ///< per fault: sequence index, or -1
  /// Distinct good-machine states entered across all sequences (packed
  /// {0,1,X} codes, digit i = nl.dffs()[i]). The all-X power-up state is
  /// not counted; partially-known states are.
  StateSet good_states;
  std::size_t num_detected = 0;
};

/// Parallel fault simulation of `faults` against every sequence. A fault
/// is dropped after its first detecting sequence.
FsimResult run_fault_simulation(const Netlist& nl,
                                const std::vector<Fault>& faults,
                                const std::vector<TestSequence>& sequences,
                                const FsimOptions& opts = {});

/// Convenience for graded coverage over a collapsed list: returns
/// (detected weight, total weight) using class sizes.
std::pair<std::size_t, std::size_t> graded_coverage(
    const std::vector<CollapsedFault>& faults,
    const std::vector<int>& detected_at);

}  // namespace satpg
