#include "netlist/netlist.h"

#include <algorithm>

namespace satpg {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::kInput:
      return "INPUT";
    case GateType::kOutput:
      return "OUTPUT";
    case GateType::kDff:
      return "DFF";
    case GateType::kConst0:
      return "CONST0";
    case GateType::kConst1:
      return "CONST1";
    case GateType::kBuf:
      return "BUF";
    case GateType::kNot:
      return "NOT";
    case GateType::kAnd:
      return "AND";
    case GateType::kNand:
      return "NAND";
    case GateType::kOr:
      return "OR";
    case GateType::kNor:
      return "NOR";
    case GateType::kXor:
      return "XOR";
    case GateType::kXnor:
      return "XNOR";
  }
  return "?";
}

bool is_combinational(GateType t) {
  switch (t) {
    case GateType::kInput:
    case GateType::kOutput:
    case GateType::kDff:
      return false;
    default:
      return true;
  }
}

NodeId Netlist::new_node(GateType t, const std::string& name,
                         std::vector<NodeId> fanins) {
  SATPG_CHECK_MSG(by_name_.find(name) == by_name_.end(),
                  "duplicate node name");
  for (NodeId f : fanins) {
    SATPG_CHECK_MSG(f >= 0 && static_cast<std::size_t>(f) < nodes_.size(),
                    "fanin id out of range");
    SATPG_CHECK_MSG(!nodes_[static_cast<std::size_t>(f)].dead,
                    "fanin references dead node");
  }
  Node n;
  n.type = t;
  n.fanins = std::move(fanins);
  n.name = name;
  if (t == GateType::kDff || t == GateType::kInput || t == GateType::kOutput) {
    n.delay = 0.0;
    n.area = (t == GateType::kDff) ? 4.0 : 0.0;  // FFs dominate area
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  by_name_.emplace(name, id);
  invalidate_caches();
  return id;
}

NodeId Netlist::add_input(const std::string& name) {
  const NodeId id = new_node(GateType::kInput, name, {});
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_output(const std::string& name, NodeId driver) {
  const NodeId id = new_node(GateType::kOutput, name, {driver});
  outputs_.push_back(id);
  return id;
}

NodeId Netlist::add_dff(const std::string& name, NodeId d, FfInit init) {
  const NodeId id = new_node(GateType::kDff, name, {d});
  nodes_[static_cast<std::size_t>(id)].init = init;
  dffs_.push_back(id);
  return id;
}

NodeId Netlist::add_gate(GateType t, const std::string& name,
                         std::vector<NodeId> fanins) {
  SATPG_CHECK_MSG(is_combinational(t) && t != GateType::kConst0 &&
                      t != GateType::kConst1,
                  "add_gate expects a combinational gate type");
  const std::size_t arity = fanins.size();
  if (t == GateType::kBuf || t == GateType::kNot)
    SATPG_CHECK_MSG(arity == 1, "BUF/NOT must have exactly one fanin");
  else
    SATPG_CHECK_MSG(arity >= 2, "multi-input gate needs >= 2 fanins");
  return new_node(t, name, std::move(fanins));
}

NodeId Netlist::add_const(bool value, const std::string& name) {
  return new_node(value ? GateType::kConst1 : GateType::kConst0, name, {});
}

void Netlist::replace_uses(NodeId old_id, NodeId new_id) {
  for (auto& n : nodes_) {
    if (n.dead) continue;
    for (auto& f : n.fanins)
      if (f == old_id) f = new_id;
  }
  invalidate_caches();
}

void Netlist::set_fanin(NodeId node, std::size_t slot, NodeId driver) {
  auto& n = nodes_[static_cast<std::size_t>(node)];
  SATPG_CHECK(slot < n.fanins.size());
  n.fanins[slot] = driver;
  invalidate_caches();
}

void Netlist::kill_node(NodeId id) {
  auto& n = nodes_[static_cast<std::size_t>(id)];
  SATPG_CHECK(!n.dead);
  by_name_.erase(n.name);
  n.dead = true;
  n.fanins.clear();
  n.name.clear();
  auto drop = [id](std::vector<NodeId>& v) {
    v.erase(std::remove(v.begin(), v.end(), id), v.end());
  };
  drop(inputs_);
  drop(outputs_);
  drop(dffs_);
  invalidate_caches();
}

void Netlist::compact() {
  std::vector<NodeId> remap(nodes_.size(), kNoNode);
  std::vector<Node> live;
  live.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].dead) continue;
    remap[i] = static_cast<NodeId>(live.size());
    live.push_back(std::move(nodes_[i]));
  }
  for (auto& n : live)
    for (auto& f : n.fanins) {
      SATPG_CHECK_MSG(remap[static_cast<std::size_t>(f)] != kNoNode,
                      "live node references dead node during compact");
      f = remap[static_cast<std::size_t>(f)];
    }
  auto remap_list = [&remap](std::vector<NodeId>& v) {
    for (auto& id : v) id = remap[static_cast<std::size_t>(id)];
  };
  remap_list(inputs_);
  remap_list(outputs_);
  remap_list(dffs_);
  nodes_ = std::move(live);
  by_name_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    by_name_.emplace(nodes_[i].name, static_cast<NodeId>(i));
  invalidate_caches();
}

std::size_t Netlist::num_gates() const {
  std::size_t n = 0;
  for (const auto& node : nodes_)
    if (!node.dead && is_combinational(node.type)) ++n;
  return n;
}

double Netlist::total_area() const {
  double a = 0;
  for (const auto& node : nodes_)
    if (!node.dead && node.type != GateType::kInput &&
        node.type != GateType::kOutput)
      a += node.area;
  return a;
}

NodeId Netlist::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoNode : it->second;
}

namespace {

bool is_source(GateType t) {
  return t == GateType::kInput || t == GateType::kDff ||
         t == GateType::kConst0 || t == GateType::kConst1;
}

// A node whose value folds from the set of its fan-in values (AND/OR
// family, BUF/NOT, PO markers) and fits one fan-in row.
bool has_fanin_row(GateType t, std::uint32_t arity) {
  switch (t) {
    case GateType::kOutput:
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
      return arity >= 1 && arity <= CompiledNetlist::kRowFanins;
    default:
      return false;
  }
}

// Flattens `nodes` into `c`, reusing its storage. Returns false when a
// combinational cycle leaves live nodes unordered.
bool compile_nodes(const std::vector<Node>& nodes, CompiledNetlist& c) {
  const std::size_t n = nodes.size();
  c.type.resize(n);
  c.fanin_off.assign(n + 1, 0);
  c.fanout_off.assign(n + 1, 0);
  c.max_fanins = 1;
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node = nodes[i];
    const std::size_t arity = node.dead ? 0 : node.fanins.size();
    c.type[i] = node.type;
    c.fanin_off[i + 1] = c.fanin_off[i] + static_cast<std::uint32_t>(arity);
    c.max_fanins = std::max(c.max_fanins, arity);
    live += node.dead ? 0 : 1;
    for (std::size_t k = 0; k < arity; ++k)
      ++c.fanout_off[static_cast<std::size_t>(node.fanins[k]) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) c.fanout_off[i + 1] += c.fanout_off[i];
  c.fanin.resize(c.fanin_off[n]);
  c.fanout.resize(c.fanout_off[n]);
  c.fanin_row.assign(n * CompiledNetlist::kRowFanins, kNoNode);
  // Sinks are visited in ascending id, so every fan-out list comes out
  // sorted; `cursor` is each list's fill point.
  std::vector<std::uint32_t> cursor(c.fanout_off.begin(),
                                    c.fanout_off.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t begin = c.fanin_off[i];
    const std::uint32_t arity = c.fanin_off[i + 1] - begin;
    for (std::uint32_t k = begin; k < begin + arity; ++k) {
      const NodeId f = nodes[i].fanins[k - begin];
      c.fanin[k] = f;
      c.fanout[cursor[static_cast<std::size_t>(f)]++] = static_cast<NodeId>(i);
    }
    if (has_fanin_row(c.type[i], arity)) {
      NodeId* const row = c.fanin_row.data() + i * CompiledNetlist::kRowFanins;
      for (std::size_t k = 0; k < CompiledNetlist::kRowFanins; ++k)
        row[k] = c.fanin[begin + (k < arity ? k : 0)];
    }
  }

  // Kahn over combinational edges, with PIs, constants and DFFs as sources
  // (they come out first) and OUTPUT markers held back to the end. A node
  // leaves the queue after all its fan-ins, so its level is final there.
  // `cursor` now counts each node's pending fan-ins.
  std::vector<NodeId> ready, tail;
  for (std::size_t i = 0; i < n; ++i) {
    if (nodes[i].dead) continue;
    cursor[i] = is_source(c.type[i]) ? 0 : c.fanin_off[i + 1] - c.fanin_off[i];
    if (cursor[i] == 0) ready.push_back(static_cast<NodeId>(i));
  }
  c.topo.clear();
  c.eval.clear();
  c.level.assign(n, 0);
  std::uint32_t num_levels = 1;
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const NodeId id = ready[head];
    const auto u = static_cast<std::size_t>(id);
    if (!is_source(c.type[u])) {
      std::uint32_t lvl = 0;
      for (NodeId f : c.fanins(id))
        lvl = std::max(lvl, c.level[static_cast<std::size_t>(f)]);
      c.level[u] = lvl + 1;
      num_levels = std::max(num_levels, lvl + 2);
    }
    if (c.type[u] == GateType::kOutput) {
      tail.push_back(id);
    } else {
      c.topo.push_back(id);
      if (c.type[u] != GateType::kInput && c.type[u] != GateType::kDff)
        c.eval.push_back(id);
    }
    for (NodeId s : c.fanouts(id)) {
      const auto su = static_cast<std::size_t>(s);
      if (c.type[su] == GateType::kDff) continue;  // already a source
      if (--cursor[su] == 0) ready.push_back(s);
    }
  }
  c.topo.insert(c.topo.end(), tail.begin(), tail.end());
  c.eval.insert(c.eval.end(), tail.begin(), tail.end());
  if (c.topo.size() != live) return false;

  c.topo_pos.assign(n, -1);
  c.level_start.assign(num_levels + 1, 0);
  for (std::size_t i = 0; i < c.topo.size(); ++i) {
    const auto u = static_cast<std::size_t>(c.topo[i]);
    c.topo_pos[u] = static_cast<int>(i);
    ++c.level_start[c.level[u] + 1];
  }
  for (std::uint32_t l = 0; l < num_levels; ++l)
    c.level_start[l + 1] += c.level_start[l];
  return true;
}

}  // namespace

void Netlist::compile() const {
  SATPG_CHECK_MSG(compile_nodes(nodes_, compiled_),
                  "combinational cycle detected in netlist");
  compiled_valid_ = true;
}

const std::vector<BitVec>& Netlist::fanout_cones() const {
  if (!cones_valid_ || !compiled_valid_) {
    const CompiledNetlist& c = compiled();
    cones_.assign(nodes_.size(), BitVec(nodes_.size()));
    // Breadth-first closure per node. The graph is cyclic through DFFs, so
    // a reverse-topological DP would need a fixpoint anyway; direct BFS is
    // simple and the circuits are small enough that O(V*E) is negligible
    // next to one fault-simulation run.
    std::vector<NodeId> work;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].dead) continue;
      BitVec& cone = cones_[i];
      cone.set(i, true);
      work.assign(1, static_cast<NodeId>(i));
      while (!work.empty()) {
        const NodeId id = work.back();
        work.pop_back();
        for (NodeId s : c.fanouts(id)) {
          if (cone.get(static_cast<std::size_t>(s))) continue;
          cone.set(static_cast<std::size_t>(s), true);
          work.push_back(s);
        }
      }
    }
    cones_valid_ = true;
  }
  return cones_;
}

std::optional<std::string> Netlist::validate() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& n = nodes_[i];
    if (n.dead) continue;
    auto it = by_name_.find(n.name);
    if (it == by_name_.end() || it->second != static_cast<NodeId>(i))
      return "name map inconsistent at node " + n.name;
    const std::size_t arity = n.fanins.size();
    switch (n.type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
        if (arity != 0) return n.name + ": source node with fanins";
        break;
      case GateType::kOutput:
      case GateType::kDff:
      case GateType::kBuf:
      case GateType::kNot:
        if (arity != 1) return n.name + ": expected exactly one fanin";
        break;
      default:
        if (arity < 2) return n.name + ": gate with < 2 fanins";
    }
    for (NodeId f : n.fanins) {
      if (f < 0 || static_cast<std::size_t>(f) >= nodes_.size())
        return n.name + ": fanin out of range";
      if (nodes_[static_cast<std::size_t>(f)].dead)
        return n.name + ": fanin is dead";
      const GateType ft = nodes_[static_cast<std::size_t>(f)].type;
      if (ft == GateType::kOutput) return n.name + ": fans in from OUTPUT";
    }
  }
  // Acyclicity: compile() CHECK-fails on cycles, so probe a scratch copy.
  CompiledNetlist probe;
  if (!compile_nodes(nodes_, probe)) return "combinational cycle present";
  return std::nullopt;
}

Netlist Netlist::clone(const std::string& new_name) const {
  Netlist c(*this);
  c.name_ = new_name;
  return c;
}

void Netlist::invalidate_caches() const {
  compiled_valid_ = false;
  cones_valid_ = false;
}

}  // namespace satpg
