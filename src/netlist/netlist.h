// Gate-level synchronous sequential netlist.
//
// The netlist is the common representation shared by synthesis output,
// retiming, logic/fault simulation, structural analysis, and ATPG. It is a
// flat node graph:
//
//   * kInput nodes are primary inputs (no fanins).
//   * kOutput nodes are explicit primary-output markers (one fanin). Making
//     POs real nodes keeps the retiming graph and path analyses uniform.
//   * kDff nodes are edge-triggered D flip-flops: one fanin (D), the node's
//     value is Q. Initial (power-up) value is 0/1/X; the paper's circuits
//     power up unknown and are initialized through an explicit reset line
//     synthesized into the next-state logic.
//   * Combinational nodes (BUF/NOT/AND/NAND/OR/NOR/XOR/XNOR, CONST0/1) have
//     1..k fanins.
//
// Node ids are dense indices into nodes(); deleted nodes are tombstoned and
// removed by compact(). The netlist compiles itself on demand into one flat
// form (CompiledNetlist: topological order, levels, CSR fan-ins and
// fan-outs) that every evaluator reads; any mutation drops it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/bitvec.h"
#include "base/check.h"

namespace satpg {

using NodeId = std::int32_t;
constexpr NodeId kNoNode = -1;

enum class GateType : std::uint8_t {
  kInput,
  kOutput,
  kDff,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
};

/// Human-readable gate-type name ("AND", "DFF", ...).
const char* gate_type_name(GateType t);

/// True for BUF/NOT/AND/.../XNOR and CONST (anything evaluated by the
/// combinational simulator).
bool is_combinational(GateType t);

/// Three-valued initial state of a flip-flop.
enum class FfInit : std::uint8_t { kZero, kOne, kUnknown };

struct Node {
  GateType type = GateType::kBuf;
  std::vector<NodeId> fanins;
  std::string name;       ///< unique within the netlist; "" for tombstones
  FfInit init = FfInit::kUnknown;  ///< meaningful for kDff only
  double delay = 1.0;     ///< propagation delay (library units; 0 for DFF/IO)
  double area = 1.0;      ///< area contribution (library units)
  bool dead = false;      ///< tombstone flag (see Netlist::compact)
};

/// The netlist flattened for evaluation: one topological sort, one
/// levelization and CSR adjacency, shared read-only by the logic and fault
/// simulators, the time-frame model and PODEM. Per-node arrays are indexed
/// by NodeId and cover dead nodes too (no fan-ins, no fan-outs, level 0).
struct CompiledNetlist {
  /// Slots per fanin_row entry (below): the library's fan-in cap, which
  /// synth/library.h static_asserts kMaxLibFanin against.
  static constexpr std::size_t kRowFanins = 4;

  /// Live nodes in Netlist::topo_order() order.
  std::vector<NodeId> topo;
  /// Per node: index into `topo`; -1 for dead nodes.
  std::vector<int> topo_pos;
  std::vector<GateType> type;
  /// Per node combinational level: 0 for PIs, FFs and constants; a gate or
  /// PO marker is one more than its deepest fan-in.
  std::vector<std::uint32_t> level;
  /// Live nodes per level, as offsets: level l owns
  /// [level_start[l], level_start[l+1]). Size num_levels() + 1.
  std::vector<std::uint32_t> level_start;
  /// CSR fan-ins in pin order: node i reads fanin[fanin_off[i]..[i+1]).
  std::vector<std::uint32_t> fanin_off;
  std::vector<NodeId> fanin;
  /// Fixed-width fan-ins, kRowFanins slots per node: node i owns
  /// fanin_row[kRowFanins * i ..). An AND/NAND/OR/NOR/BUF/NOT gate or PO
  /// marker with 1..kRowFanins fan-ins holds them in pin order and repeats
  /// fan-in 0 in the spare slots; its three-valued fold reads only the set
  /// of values present, which a repeat leaves unchanged. Every other node
  /// (sources, XOR/XNOR, whose parity a repeat would change, wider gates
  /// and dead nodes) holds kNoNode in every slot and is evaluated from
  /// the CSR fan-ins above.
  std::vector<NodeId> fanin_row;
  /// CSR fan-outs in ascending sink id; a sink reading a node on k pins is
  /// listed k times.
  std::vector<std::uint32_t> fanout_off;
  std::vector<NodeId> fanout;
  /// Combinational gates (constants included) and PO markers in
  /// topological order: what one full simulation sweep evaluates.
  std::vector<NodeId> eval;
  /// Largest fan-in count of any node, at least 1.
  std::size_t max_fanins = 1;

  std::span<const NodeId> fanins(NodeId id) const {
    const auto u = static_cast<std::size_t>(id);
    return {fanin.data() + fanin_off[u], fanin_off[u + 1] - fanin_off[u]};
  }
  std::span<const NodeId> fanouts(NodeId id) const {
    const auto u = static_cast<std::size_t>(id);
    return {fanout.data() + fanout_off[u], fanout_off[u + 1] - fanout_off[u]};
  }
  std::size_t num_levels() const { return level_start.size() - 1; }
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // ---- construction -------------------------------------------------------
  NodeId add_input(const std::string& name);
  NodeId add_output(const std::string& name, NodeId driver);
  NodeId add_dff(const std::string& name, NodeId d, FfInit init);
  NodeId add_gate(GateType t, const std::string& name,
                  std::vector<NodeId> fanins);
  NodeId add_const(bool value, const std::string& name);

  /// Redirect every fanin reference of `old_id` to `new_id` (does not touch
  /// PI/PO/DFF membership lists). Used by rewriting passes and retiming.
  void replace_uses(NodeId old_id, NodeId new_id);

  /// Change the driver of a single fanin slot.
  void set_fanin(NodeId node, std::size_t slot, NodeId driver);

  /// Mark a node dead. Dead nodes are skipped by traversals and dropped by
  /// compact(); they must no longer be referenced by any live node.
  void kill_node(NodeId id);

  /// Remove dead nodes and renumber. Invalidates all NodeIds held outside.
  void compact();

  // ---- access --------------------------------------------------------------
  std::size_t num_nodes() const { return nodes_.size(); }
  const Node& node(NodeId id) const {
    SATPG_DCHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }
  Node& node_mut(NodeId id) {
    invalidate_caches();
    SATPG_DCHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  const std::vector<NodeId>& dffs() const { return dffs_; }

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  std::size_t num_dffs() const { return dffs_.size(); }

  /// Count of live combinational gates (excludes PI/PO/DFF markers).
  std::size_t num_gates() const;

  /// Sum of node areas over live combinational gates and DFFs.
  double total_area() const;

  /// Lookup by unique name; kNoNode when absent.
  NodeId find(const std::string& name) const;

  /// The compiled form, built on first use after a mutation. Build it
  /// before threads share the netlist: the first call writes the cache. A
  /// held reference keeps reading the form it was built as until the next
  /// compiled() call after a mutation rebuilds it in place.
  const CompiledNetlist& compiled() const {
    if (!compiled_valid_) compile();
    return compiled_;
  }

  /// Nodes that reference `id`, in ascending id order, with multiplicity.
  std::span<const NodeId> fanouts(NodeId id) const {
    return compiled().fanouts(id);
  }

  /// Sequential transitive-fanout cone of every live node: bit j of
  /// fanout_cones()[i] is set when a value change at node i can ever reach
  /// node j, crossing flip-flop boundaries into later cycles (a DFF is in
  /// the cone of its D source, and the cone continues through its Q
  /// fanouts). The node itself is always in its own cone. This is exactly
  /// the set of nodes a fault at i can perturb during sequential fault
  /// simulation, so the fault simulator restricts event evaluation to the
  /// union of its batch's cones. Lazily computed and cached.
  const std::vector<BitVec>& fanout_cones() const;

  /// Topological order of live nodes treating DFF outputs, PIs, and consts
  /// as sources (they appear first); every combinational node appears after
  /// all its fanins; OUTPUT marker nodes appear last. A DFF's D fanin
  /// appears *after* the DFF itself — simulators read D when clocking.
  /// CHECK-fails on a combinational cycle.
  const std::vector<NodeId>& topo_order() const { return compiled().topo; }

  /// Validate structural invariants (arity, name uniqueness, reference
  /// liveness, combinational acyclicity). Returns an error description or
  /// std::nullopt when well-formed.
  std::optional<std::string> validate() const;

  /// Deep copy with a fresh name.
  Netlist clone(const std::string& new_name) const;

 private:
  NodeId new_node(GateType t, const std::string& name,
                  std::vector<NodeId> fanins);
  void invalidate_caches() const;
  void compile() const;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> dffs_;
  std::unordered_map<std::string, NodeId> by_name_;

  mutable CompiledNetlist compiled_;  // lazy caches
  mutable std::vector<BitVec> cones_;
  mutable bool compiled_valid_ = false;
  mutable bool cones_valid_ = false;
};

}  // namespace satpg
