#include "synth/techmap.h"

#include <algorithm>
#include <map>
#include <string>

#include "synth/library.h"

namespace satpg {

namespace {

// Fresh unique gate name.
std::string fresh_name(const Netlist& nl, const std::string& base) {
  for (int k = 0;; ++k) {
    std::string name = base + "_" + std::to_string(k);
    if (nl.find(name) == kNoNode) return name;
  }
}

// ---- pass 1: constant propagation + inverter chains -----------------------

// Returns the replacement driver for `id` if it simplifies, else kNoNode.
NodeId simplify_node(Netlist& nl, NodeId id, NodeId const0, NodeId const1) {
  const auto& n = nl.node(id);
  if (!is_combinational(n.type)) return kNoNode;

  auto is_c0 = [&](NodeId f) { return nl.node(f).type == GateType::kConst0; };
  auto is_c1 = [&](NodeId f) { return nl.node(f).type == GateType::kConst1; };

  switch (n.type) {
    case GateType::kBuf:
      return n.fanins[0];
    case GateType::kNot: {
      const NodeId f = n.fanins[0];
      if (nl.node(f).type == GateType::kNot) return nl.node(f).fanins[0];
      if (is_c0(f)) return const1;
      if (is_c1(f)) return const0;
      return kNoNode;
    }
    case GateType::kAnd:
    case GateType::kNand: {
      bool any0 = false;
      std::vector<NodeId> keep;
      for (NodeId f : n.fanins) {
        if (is_c0(f)) any0 = true;
        else if (!is_c1(f)) keep.push_back(f);
      }
      const bool invert = n.type == GateType::kNand;
      if (any0) return invert ? const1 : const0;
      if (keep.empty()) return invert ? const0 : const1;
      if (keep.size() == 1 && !invert) return keep[0];
      if (keep.size() != n.fanins.size() && keep.size() >= 2) {
        auto& m = nl.node_mut(id);
        m.fanins = keep;
      } else if (keep.size() == 1 && invert) {
        // NAND(x) == NOT(x): rebuild as NOT.
        auto& m = nl.node_mut(id);
        m.type = GateType::kNot;
        m.fanins = keep;
      }
      return kNoNode;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool any1 = false;
      std::vector<NodeId> keep;
      for (NodeId f : n.fanins) {
        if (is_c1(f)) any1 = true;
        else if (!is_c0(f)) keep.push_back(f);
      }
      const bool invert = n.type == GateType::kNor;
      if (any1) return invert ? const0 : const1;
      if (keep.empty()) return invert ? const1 : const0;
      if (keep.size() == 1 && !invert) return keep[0];
      if (keep.size() != n.fanins.size() && keep.size() >= 2) {
        auto& m = nl.node_mut(id);
        m.fanins = keep;
      } else if (keep.size() == 1 && invert) {
        auto& m = nl.node_mut(id);
        m.type = GateType::kNot;
        m.fanins = keep;
      }
      return kNoNode;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      // Only constant folding for arity-2.
      if (n.fanins.size() != 2) return kNoNode;
      const NodeId a = n.fanins[0], b = n.fanins[1];
      const bool invert = n.type == GateType::kXnor;
      auto fold = [&](NodeId x, NodeId cnode) -> NodeId {
        const bool cval = (nl.node(cnode).type == GateType::kConst1);
        const bool flip = cval != invert;
        if (!flip) return x;
        // Need NOT(x): synthesize a NOT gate.
        const NodeId inv = nl.add_gate(GateType::kNot,
                                       fresh_name(nl, "tm_inv"), {x});
        return inv;
      };
      if (is_c0(a) || is_c1(a)) return fold(b, a);
      if (is_c0(b) || is_c1(b)) return fold(a, b);
      return kNoNode;
    }
    default:
      return kNoNode;
  }
}

void propagate_constants(Netlist& nl) {
  // Ensure shared constant nodes exist (created lazily).
  NodeId const0 = kNoNode, const1 = kNoNode;
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const auto& n = nl.node(static_cast<NodeId>(i));
    if (n.dead) continue;
    if (n.type == GateType::kConst0 && const0 == kNoNode)
      const0 = static_cast<NodeId>(i);
    if (n.type == GateType::kConst1 && const1 == kNoNode)
      const1 = static_cast<NodeId>(i);
  }
  if (const0 == kNoNode) const0 = nl.add_const(false, fresh_name(nl, "c0"));
  if (const1 == kNoNode) const1 = nl.add_const(true, fresh_name(nl, "c1"));

  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id : std::vector<NodeId>(nl.topo_order())) {
      if (nl.node(id).dead) continue;
      const NodeId repl = simplify_node(nl, id, const0, const1);
      if (repl != kNoNode && repl != id) {
        nl.replace_uses(id, repl);
        if (id != const0 && id != const1) nl.kill_node(id);
        changed = true;
      }
    }
  }
}

// ---- pass 2: fan-in decomposition ------------------------------------------

void decompose_wide(Netlist& nl, bool area_mode) {
  bool changed = true;
  while (changed) {
    changed = false;
    const std::size_t count = nl.num_nodes();
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId id = static_cast<NodeId>(i);
      const auto& n = nl.node(id);
      if (n.dead) continue;
      if (n.type != GateType::kAnd && n.type != GateType::kOr &&
          n.type != GateType::kNand && n.type != GateType::kNor)
        continue;
      if (n.fanins.size() <= static_cast<std::size_t>(kMaxLibFanin)) continue;

      const GateType inner =
          (n.type == GateType::kAnd || n.type == GateType::kNand)
              ? GateType::kAnd
              : GateType::kOr;
      std::vector<NodeId> work = n.fanins;
      if (area_mode) {
        // Linear chain: group the first 4, keep the rest.
        std::vector<NodeId> grp(work.begin(), work.begin() + kMaxLibFanin);
        const NodeId g =
            nl.add_gate(inner, fresh_name(nl, "tm_chain"), grp);
        std::vector<NodeId> rest{g};
        rest.insert(rest.end(), work.begin() + kMaxLibFanin, work.end());
        nl.node_mut(id).fanins = rest;
      } else {
        // Balanced: split into ceil(k/4) groups of near-equal size.
        const std::size_t k = work.size();
        const std::size_t groups = (k + kMaxLibFanin - 1) / kMaxLibFanin;
        std::vector<NodeId> tops;
        std::size_t at = 0;
        for (std::size_t g = 0; g < groups; ++g) {
          const std::size_t take = (k - at + (groups - g) - 1) / (groups - g);
          std::vector<NodeId> grp(work.begin() + static_cast<std::ptrdiff_t>(at),
                                  work.begin() +
                                      static_cast<std::ptrdiff_t>(at + take));
          at += take;
          if (grp.size() == 1)
            tops.push_back(grp[0]);
          else
            tops.push_back(
                nl.add_gate(inner, fresh_name(nl, "tm_bal"), grp));
        }
        nl.node_mut(id).fanins = tops;
      }
      changed = true;
    }
  }
}

// ---- pass 3: NAND/NOR merging ----------------------------------------------

void merge_inverters(Netlist& nl) {
  // Fan-outs as they stand at the start of the pass: merging below
  // mutates the netlist, but the held form is not rebuilt until the next
  // compiled() call.
  const CompiledNetlist& c = nl.compiled();
  const std::size_t count = nl.num_nodes();
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const auto& n = nl.node(id);
    if (n.dead || n.type != GateType::kNot) continue;
    const NodeId src = n.fanins[0];
    const auto& s = nl.node(src);
    if (s.dead) continue;
    // Merge only when the inverter is the AND/OR's sole fanout.
    if (c.fanouts(src).size() != 1) continue;
    if (s.type == GateType::kAnd) {
      auto fanins = s.fanins;
      auto& m = nl.node_mut(id);
      m.type = GateType::kNand;
      m.fanins = fanins;
    } else if (s.type == GateType::kOr) {
      auto fanins = s.fanins;
      auto& m = nl.node_mut(id);
      m.type = GateType::kNor;
      m.fanins = fanins;
    }
  }
}

// ---- pass 4: structural sharing --------------------------------------------

void share_structural(Netlist& nl) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<std::string, NodeId> seen;
    for (NodeId id : std::vector<NodeId>(nl.topo_order())) {
      const auto& n = nl.node(id);
      if (n.dead || !is_combinational(n.type)) continue;
      std::vector<NodeId> key_fanins = n.fanins;
      // AND/OR-family inputs are order-insensitive.
      if (n.type != GateType::kBuf && n.type != GateType::kNot)
        std::sort(key_fanins.begin(), key_fanins.end());
      std::string key = std::to_string(static_cast<int>(n.type));
      for (NodeId f : key_fanins) key += "," + std::to_string(f);
      auto [it, inserted] = seen.emplace(key, id);
      if (!inserted && it->second != id) {
        nl.replace_uses(id, it->second);
        nl.kill_node(id);
        changed = true;
      }
    }
  }
}

// ---- pass 5: dead sweep -----------------------------------------------------

void sweep_dead(Netlist& nl) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<NodeId> dead;
    for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
      const NodeId id = static_cast<NodeId>(i);
      const auto& n = nl.node(id);
      if (n.dead) continue;
      if (n.type == GateType::kInput || n.type == GateType::kOutput ||
          n.type == GateType::kDff)
        continue;
      if (nl.fanouts(id).empty()) dead.push_back(id);
    }
    for (NodeId id : dead) {
      nl.kill_node(id);
      changed = true;
    }
  }
  nl.compact();
}

}  // namespace

void tech_map(Netlist& nl, const TechMapOptions& opts) {
  propagate_constants(nl);
  decompose_wide(nl, opts.area_mode);
  merge_inverters(nl);
  if (opts.area_mode) share_structural(nl);
  sweep_dead(nl);
  annotate_library(nl);
  SATPG_CHECK(nl.validate() == std::nullopt);
}

double critical_path_delay(const Netlist& nl) {
  // First pass: combinational arrival times (DFF outputs/PIs launch at 0).
  std::vector<double> arrive(nl.num_nodes(), 0.0);
  for (NodeId id : nl.topo_order()) {
    const auto& n = nl.node(id);
    if (!is_combinational(n.type)) continue;
    double in_max = 0.0;
    for (NodeId f : n.fanins)
      in_max = std::max(in_max, arrive[static_cast<std::size_t>(f)]);
    arrive[static_cast<std::size_t>(id)] = in_max + n.delay;
  }
  // Second pass: paths terminate at PO markers and DFF D pins. (DFFs sit
  // early in topo order — they are value sources — so their D-pin arrival
  // must be read after the full combinational sweep.)
  double worst = 0.0;
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const auto& n = nl.node(static_cast<NodeId>(i));
    if (n.dead) continue;
    if (n.type == GateType::kOutput || n.type == GateType::kDff)
      worst = std::max(worst, arrive[static_cast<std::size_t>(n.fanins[0])]);
  }
  return worst;
}

}  // namespace satpg
