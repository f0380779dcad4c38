// Interface between the wide (PPSFP) fault-simulation driver in
// fsim_wide.cpp and the per-tier SIMD kernel translation units
// (wide_scalar.cpp / wide_sse2.cpp / wide_avx2.cpp / wide_avx512.cpp).
//
// Everything that crosses this boundary is plain data: the driver hands
// over the netlist's compiled CSR fan-ins (Netlist::compiled()) as raw
// pointers, flattens the batch (cone membership bytes, injection table,
// eval/source/PO lists with gate types translated to opcodes) and the group
// good-machine trace (per-frame per-node 8-lane 0/1 masks) into raw
// arrays, and the kernel runs the whole frame loop against them. Fault
// injection is bit-parallel: each fault forces its slot, on the node's
// value (stem) or on a per-pin fan-in copy (pin), and every gate costs one
// plane evaluation per batch. The kernel TUs are compiled with wider -m
// flags than the rest of the build, so they must not instantiate any
// inline code shared with other TUs — POD views keep the ISA boundary
// airtight (see wide_kernel.h).
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
  std::size_t num_nodes = 0;

  // Batch cone: byte per node, 1 = inside the union fanout cone.
  const std::uint8_t* in_cone = nullptr;

  // Cone gate/PO evaluation list in topological order.
  const std::int32_t* eval_ids = nullptr;
  const std::uint8_t* eval_ops = nullptr;  ///< WOp per eval entry
  std::size_t eval_count = 0;

  // Cone sources.
  const std::int32_t* pi_ids = nullptr;  ///< PI node ids
  std::size_t pi_count = 0;
  const std::int32_t* dff_ids = nullptr;    ///< DFF node ids
  const std::int32_t* dff_dnode = nullptr;  ///< D-fanin node id
  const std::int32_t* dff_index = nullptr;  ///< nl.dffs() position
  std::size_t dff_count = 0;

  // Cone PO markers (subset of eval list, nl.outputs() order).
  const std::int32_t* po_ids = nullptr;
  std::size_t po_count = 0;

  // Injection table.
  const std::int32_t* inj_head = nullptr;  ///< per node -> inj index, -1
  const WInject* inj = nullptr;

  // Group good trace: bit g of zm/om[t*num_nodes+n] says lane g's good
  // value at node n in frame t is 0/1 (neither bit: X). live[t] masks
  // lanes whose sequence still has a vector at frame t.
  const std::uint8_t* zm = nullptr;
  const std::uint8_t* om = nullptr;
  const std::uint8_t* live = nullptr;
  std::size_t frames = 0;

  // Scratch (per-worker arena, reused across batches).
  PVW* val = nullptr;            ///< per node
  PVW* state = nullptr;          ///< per nl.dffs() index
  std::uint8_t* active = nullptr;  ///< per node: differs from good?
  /// max_fanins staging: out-of-cone fan-ins expanded from the good
  /// trace, and per-pin copies of in-cone fan-ins that carry a pin fault.
  PVW* gather = nullptr;
  const PVW** gather_ptrs = nullptr;  ///< per pin: into val or gather

  std::size_t batch_size = 0;  ///< faults in this batch (1..63)

  // Outputs: per-lane accumulated detection / potential-detection slot
  // masks (bit s of det_acc[g] = slot s differed on some PO in lane g).
  std::uint64_t* det_acc = nullptr;  ///< [kLanes], kernel zeroes them
  std::uint64_t* pot_acc = nullptr;

  // Metrics: locals accumulated by the kernel, bulk-added by the driver.
  bool count_metrics = false;
  std::uint64_t* gate_evals = nullptr;
  std::uint64_t* activity_skips = nullptr;
};

using KernelFn = void (*)(const WideView&);

// Per-tier kernel entry points. A tier whose instruction set the compiler
// cannot target returns nullptr (the driver then falls back down the
// ladder for kAuto and fails loudly for explicit requests).
KernelFn kernel_scalar();
KernelFn kernel_sse2();
KernelFn kernel_avx2();
KernelFn kernel_avx512();

// Per-tier backend-op selftests: verify the SIMD plane ops lane-by-lane
// against V3 truth tables on pseudo-random well-formed words. Return
// false when the tier is not compiled in.
bool selftest_scalar();
bool selftest_sse2();
bool selftest_avx2();
bool selftest_avx512();

}  // namespace fsim_wide
}  // namespace satpg
