#include "fault/fault.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "base/strutil.h"

namespace satpg {

std::string fault_name(const Netlist& nl, const Fault& f) {
  const auto& n = nl.node(f.node);
  std::string line = n.name;
  if (f.pin >= 0)
    line += "/in" + std::to_string(f.pin) + "(" +
            nl.node(n.fanins[static_cast<std::size_t>(f.pin)]).name + ")";
  return line + (f.stuck1 ? " s-a-1" : " s-a-0");
}

std::vector<Fault> enumerate_faults(const Netlist& nl) {
  std::vector<Fault> out;
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const auto& n = nl.node(id);
    if (n.dead) continue;
    if (n.type == GateType::kConst0 || n.type == GateType::kConst1) continue;
    // Output stem faults for every value-producing node.
    if (n.type != GateType::kOutput) {
      out.push_back({id, -1, false});
      out.push_back({id, -1, true});
    }
    // Input pin (branch) faults.
    if (n.type != GateType::kInput) {
      for (int pin = 0; pin < static_cast<int>(n.fanins.size()); ++pin) {
        out.push_back({id, pin, false});
        out.push_back({id, pin, true});
      }
    }
  }
  return out;
}

namespace {

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
        std::min(a, b);
  }
};

}  // namespace

std::vector<CollapsedFault> collapse_faults(const Netlist& nl) {
  const std::vector<Fault> all = enumerate_faults(nl);
  std::map<Fault, int> index;
  for (std::size_t i = 0; i < all.size(); ++i)
    index.emplace(all[i], static_cast<int>(i));
  auto idx = [&index](const Fault& f) {
    auto it = index.find(f);
    return it == index.end() ? -1 : it->second;
  };
  UnionFind uf(all.size());
  auto unite_f = [&](const Fault& a, const Fault& b) {
    const int ia = idx(a), ib = idx(b);
    if (ia >= 0 && ib >= 0) uf.unite(ia, ib);
  };

  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const auto& n = nl.node(id);
    if (n.dead) continue;
    // Gate-rule equivalences between input pins and the output stem.
    for (int pin = 0; pin < static_cast<int>(n.fanins.size()); ++pin) {
      switch (n.type) {
        case GateType::kAnd:
          unite_f({id, pin, false}, {id, -1, false});
          break;
        case GateType::kNand:
          unite_f({id, pin, false}, {id, -1, true});
          break;
        case GateType::kOr:
          unite_f({id, pin, true}, {id, -1, true});
          break;
        case GateType::kNor:
          unite_f({id, pin, true}, {id, -1, false});
          break;
        case GateType::kBuf:
        case GateType::kDff:
          unite_f({id, pin, false}, {id, -1, false});
          unite_f({id, pin, true}, {id, -1, true});
          break;
        case GateType::kNot:
          unite_f({id, pin, false}, {id, -1, true});
          unite_f({id, pin, true}, {id, -1, false});
          break;
        default:
          break;  // XOR/XNOR/OUTPUT: no input-output equivalence
      }
    }
    // Single-fanout stems merge with their unique branch.
    const auto fo = nl.fanouts(id);
    if (n.type != GateType::kOutput && fo.size() == 1) {
      const NodeId sink = fo[0];
      const auto& s = nl.node(sink);
      for (int pin = 0; pin < static_cast<int>(s.fanins.size()); ++pin) {
        if (s.fanins[static_cast<std::size_t>(pin)] != id) continue;
        unite_f({id, -1, false}, {sink, pin, false});
        unite_f({id, -1, true}, {sink, pin, true});
      }
    }
  }

  std::map<int, CollapsedFault> classes;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const int root = uf.find(static_cast<int>(i));
    auto [it, inserted] =
        classes.emplace(root, CollapsedFault{all[static_cast<std::size_t>(
                                  root)],
                                  0});
    ++it->second.class_size;
    (void)inserted;
  }
  std::vector<CollapsedFault> out;
  out.reserve(classes.size());
  for (auto& [root, cf] : classes) out.push_back(cf);
  return out;
}

}  // namespace satpg
