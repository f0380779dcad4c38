// Interface between the wide (PPSFP) fault-simulation driver in
// fsim_wide.cpp and the per-tier SIMD kernel translation units
// (wide_scalar.cpp / wide_sse2.cpp / wide_avx2.cpp / wide_avx512.cpp).
//
// Everything that crosses this boundary is plain data: the driver hands
// over the netlist's compiled CSR fan-ins (Netlist::compiled()) as raw
// pointers, the whole-netlist source/eval/PO lists (built once per call,
// gate types translated to opcodes), the batch's injection table and the
// group's PI lane masks, and the kernel runs the whole frame loop against
// them. Slot 0 of every sub-word is that lane's good machine, so there is
// no separate good trace: the kernel reads good PO values and the state
// census from slot 0. Fault injection is bit-parallel: each fault forces
// its slot, on the node's value (stem) or on a per-pin fan-in copy (pin),
// and every gate costs one plane evaluation per batch. The kernel TUs are
// compiled with wider -m flags than the rest of the build, so they must
// not instantiate any inline code shared with other TUs — POD views keep
// the ISA boundary airtight (see wide_kernel.h).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/value.h"

namespace satpg {
namespace fsim_wide {

/// Sequence lanes per group == PVW sub-words. Lane g of group gi carries
/// sequence index gi*kLanes + g; this mapping is fixed before any batch
/// runs and is what makes first-detection tie-breaks deterministic.
constexpr unsigned kLanes = PVW::kSubWords;

/// Gate opcodes private to the wide kernel. The driver translates
/// GateType; the kernel never touches netlist headers.
enum WOp : std::uint8_t {
  kWConst0,
  kWConst1,
  kWBuf,
  kWNot,
  kWAnd,
  kWNand,
  kWOr,
  kWNor,
  kWXor,
  kWXnor,
  kWOutput,  ///< PO marker: pass through fanin 0, pin-0 faults force it
};

/// One fault injection, chained per node via `next` (same layout as the
/// 64-slot engine's table). `slot` is the fault's PV slot (1..63), shared
/// by every sub-word.
struct WInject {
  std::int32_t node;
  std::int32_t pin;  ///< -1 stem; >=0 forced fanin pin (0 = DFF D at clock)
  std::uint32_t slot;
  std::uint8_t stuck1;
  std::int32_t next;  ///< next injection on the same node, or -1
};

/// Flattened inputs/scratch/outputs of one (group, batch) kernel run.
struct WideView {
  // Netlist topology: the compiled form's CSR fan-ins, shared read-only.
  const std::int32_t* fanin_nodes = nullptr;   ///< CSR fanin ids
  const std::uint32_t* fanin_begin = nullptr;  ///< per node, size N+1

  // Whole-netlist gate/PO evaluation list in topological order.
  const std::int32_t* eval_ids = nullptr;
  const std::uint8_t* eval_ops = nullptr;  ///< WOp per eval entry
  std::size_t eval_count = 0;

  // Sources and PO markers, in nl.inputs() / nl.dffs() / nl.outputs()
  // order.
  const std::int32_t* pi_ids = nullptr;
  std::size_t pi_count = 0;
  const std::int32_t* dff_ids = nullptr;
  const std::int32_t* dff_dnode = nullptr;  ///< D-fanin node id
  std::size_t dff_count = 0;
  const std::int32_t* po_ids = nullptr;
  std::size_t po_count = 0;

  // Injection table (empty for a fault-free run).
  const std::int32_t* inj_head = nullptr;  ///< per node -> inj index, -1
  const WInject* inj = nullptr;

  // Group inputs: bit g of pi_zm/pi_om[t*pi_count+i] says lane g's PI i is
  // 0/1 in frame t (neither bit: X). live[t] masks lanes whose sequence
  // still has a vector at frame t.
  const std::uint8_t* pi_zm = nullptr;
  const std::uint8_t* pi_om = nullptr;
  const std::uint8_t* live = nullptr;
  std::size_t frames = 0;

  // Scratch (per-worker arena, reused across batches).
  PVW* val = nullptr;    ///< per node
  PVW* state = nullptr;  ///< per nl.dffs() index
  /// max_fanins staging: per-pin copies of fan-ins that carry a pin fault.
  PVW* gather = nullptr;
  const PVW** gather_ptrs = nullptr;  ///< per pin: into val or gather

  // Good-state census (null: not recorded by this run): bit g of
  // census_zm/om[t*dff_count+i] says slot 0 of lane g's flip-flop i is 0/1
  // after frame t's clock.
  std::uint8_t* census_zm = nullptr;
  std::uint8_t* census_om = nullptr;

  // Outputs: per-lane accumulated detection / potential-detection slot
  // masks (bit s of det_acc[g] = slot s differed on some PO in lane g).
  std::uint64_t* det_acc = nullptr;  ///< [kLanes], kernel zeroes them
  std::uint64_t* pot_acc = nullptr;
};

using KernelFn = void (*)(const WideView&);

// Per-tier kernel entry points. A tier whose instruction set the compiler
// cannot target returns nullptr (the driver then falls back down the
// ladder for kAuto and fails loudly for explicit requests).
KernelFn kernel_scalar();
KernelFn kernel_sse2();
KernelFn kernel_avx2();
KernelFn kernel_avx512();

// Per-tier backend-op selftests: verify the SIMD value ops lane-by-lane
// against V3 truth tables on pseudo-random well-formed words. Return
// false when the tier is not compiled in.
bool selftest_scalar();
bool selftest_sse2();
bool selftest_avx2();
bool selftest_avx512();

}  // namespace fsim_wide
}  // namespace satpg
