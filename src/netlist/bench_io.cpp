#include "netlist/bench_io.h"

#include <cctype>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "base/strutil.h"

namespace satpg {

namespace {

struct PendingGate {
  std::string output;
  std::string func;
  GateType type = GateType::kDff;  ///< parsed `func`; kDff for DFF lines
  std::vector<std::string> args;
  int line;
};

/// An INPUT(...) or OUTPUT(...) declaration.
struct Declared {
  std::string name;
  int line;
};

[[noreturn]] void parse_error(int line, const std::string& msg) {
  throw std::runtime_error("bench parse error at line " +
                           std::to_string(line) + ": " + msg);
}

GateType gate_type_from(const std::string& f, int line) {
  if (f == "AND") return GateType::kAnd;
  if (f == "NAND") return GateType::kNand;
  if (f == "OR") return GateType::kOr;
  if (f == "NOR") return GateType::kNor;
  if (f == "XOR") return GateType::kXor;
  if (f == "XNOR") return GateType::kXnor;
  if (f == "NOT") return GateType::kNot;
  if (f == "BUF" || f == "BUFF") return GateType::kBuf;
  parse_error(line, "unknown gate function '" + f + "'");
}

}  // namespace

Netlist read_bench(std::istream& is, const std::string& name) {
  Netlist nl(name);
  std::vector<Declared> input_names, output_names;
  std::vector<PendingGate> gates;
  std::string raw;
  int lineno = 0;
  while (std::getline(is, raw)) {
    ++lineno;
    std::string line(trim(raw));
    if (auto hash = line.find('#'); hash != std::string::npos)
      line = std::string(trim(line.substr(0, hash)));
    if (line.empty()) continue;

    auto read_parenthesized = [&](std::string_view head) -> std::string {
      const auto open = line.find('(');
      const auto close = line.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close < open)
        parse_error(lineno, std::string(head) + ": malformed parentheses");
      return std::string(trim(line.substr(open + 1, close - open - 1)));
    };

    if (starts_with(line, "INPUT")) {
      input_names.push_back({read_parenthesized("INPUT"), lineno});
    } else if (starts_with(line, "OUTPUT")) {
      output_names.push_back({read_parenthesized("OUTPUT"), lineno});
    } else {
      const auto eq = line.find('=');
      if (eq == std::string::npos) parse_error(lineno, "expected '='");
      PendingGate g;
      g.output = std::string(trim(line.substr(0, eq)));
      g.line = lineno;
      std::string rhs(trim(line.substr(eq + 1)));
      const auto open = rhs.find('(');
      const auto close = rhs.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close < open)
        parse_error(lineno, "malformed gate right-hand side");
      g.func = std::string(trim(rhs.substr(0, open)));
      for (char& c : g.func) c = static_cast<char>(std::toupper(c));
      for (const auto& a : split(rhs.substr(open + 1, close - open - 1), ','))
        g.args.emplace_back(trim(a));
      if (g.output.empty()) parse_error(lineno, "empty gate output name");
      for (const auto& a : g.args)
        if (a.empty()) parse_error(lineno, "empty argument name");
      if (g.func != "DFF") {
        g.type = gate_type_from(g.func, lineno);
        const bool unary =
            g.type == GateType::kBuf || g.type == GateType::kNot;
        if (unary && g.args.size() != 1)
          parse_error(lineno, g.func + " needs exactly one argument");
        if (!unary && g.args.size() < 2)
          parse_error(lineno, g.func + " needs at least two arguments");
      }
      gates.push_back(std::move(g));
    }
  }

  // .bench names a *signal*; a signal that is also listed in OUTPUT(...)
  // gets an explicit OUTPUT marker node named "<signal>_po".
  std::map<std::string, NodeId> sig;
  for (const auto& in : input_names) {
    if (sig.count(in.name))
      parse_error(in.line, "signal '" + in.name + "' redefined");
    sig[in.name] = nl.add_input(in.name);
  }

  // DFFs first so combinational gates can reference FF outputs regardless of
  // declaration order; then iterate gates to fixpoint to tolerate any order.
  for (const auto& g : gates)
    if (g.func == "DFF") {
      if (g.args.size() != 1) parse_error(g.line, "DFF needs one argument");
      if (sig.count(g.output)) parse_error(g.line, "signal redefined");
      // D fanin patched after all signals exist; use a placeholder input of
      // itself via two-phase construction below.
      sig[g.output] = kNoNode;  // reserve the name slot
    }

  // Create DFF nodes with a temporary self-driver, patched later.
  std::map<std::string, const PendingGate*> dff_of;
  for (const auto& g : gates)
    if (g.func == "DFF") dff_of[g.output] = &g;
  // Temporary: DFFs need an existing driver at construction; create them
  // after combinational nodes exist. Instead, build comb gates iteratively,
  // allowing references to DFF names via a proxy map resolved at the end.
  // Simpler scheme: create all DFF nodes now fed by a dummy const that we
  // patch afterwards.
  // '#' starts a comment, so no declared signal can take the dummy's name.
  NodeId dummy = kNoNode;
  if (!dff_of.empty()) dummy = nl.add_const(false, "#bench_dummy");
  for (auto& [name_, g] : dff_of)
    sig[name_] = nl.add_dff(name_, dummy, FfInit::kUnknown);

  // Combinational gates: iterate until all are resolvable (tolerates
  // forward references between gates).
  std::vector<const PendingGate*> todo;
  for (const auto& g : gates)
    if (g.func != "DFF") todo.push_back(&g);
  bool progress = true;
  while (!todo.empty() && progress) {
    progress = false;
    std::vector<const PendingGate*> next;
    for (const auto* g : todo) {
      bool ok = true;
      std::vector<NodeId> fanins;
      for (const auto& a : g->args) {
        auto it = sig.find(a);
        if (it == sig.end() || it->second == kNoNode) {
          ok = false;
          break;
        }
        fanins.push_back(it->second);
      }
      if (!ok) {
        next.push_back(g);
        continue;
      }
      if (sig.count(g->output) && sig[g->output] != kNoNode)
        parse_error(g->line, "signal '" + g->output + "' redefined");
      sig[g->output] = nl.add_gate(g->type, g->output, std::move(fanins));
      progress = true;
    }
    todo.swap(next);
  }
  if (!todo.empty())
    for (const auto& a : todo.front()->args)
      if (auto it = sig.find(a); it == sig.end() || it->second == kNoNode)
        parse_error(todo.front()->line, "unresolved fanin '" + a + "'");

  // Patch DFF D inputs.
  for (const auto& [name_, g] : dff_of) {
    auto it = sig.find(g->args.front());
    if (it == sig.end() || it->second == kNoNode)
      parse_error(g->line, "DFF fanin '" + g->args.front() + "' undefined");
    nl.set_fanin(sig[name_], 0, it->second);
  }
  if (dummy != kNoNode) nl.kill_node(dummy);

  for (const auto& out : output_names) {
    auto it = sig.find(out.name);
    if (it == sig.end())
      throw std::runtime_error("bench: OUTPUT(" + out.name +
                               ") never defined");
    if (nl.find(out.name + "_po") != kNoNode)
      parse_error(out.line, "OUTPUT(" + out.name +
                                ") repeated, or its marker '" + out.name +
                                "_po' names a signal");
    nl.add_output(out.name + "_po", it->second);
  }
  nl.compact();
  if (auto err = nl.validate())
    throw std::runtime_error("bench: invalid netlist: " + *err);
  return nl;
}

Netlist read_bench_string(const std::string& text, const std::string& name) {
  std::istringstream is(text);
  return read_bench(is, name);
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  return read_bench(is, path);
}

void write_bench(const Netlist& nl, std::ostream& os) {
  os << "# " << nl.name() << "\n";
  for (NodeId id : nl.inputs()) os << "INPUT(" << nl.node(id).name << ")\n";
  for (NodeId id : nl.outputs()) {
    const auto& n = nl.node(id);
    os << "OUTPUT(" << nl.node(n.fanins[0]).name << ")\n";
  }
  os << "\n";
  for (NodeId id : nl.topo_order()) {
    const auto& n = nl.node(id);
    switch (n.type) {
      case GateType::kInput:
      case GateType::kOutput:
        break;
      case GateType::kDff:
        os << n.name << " = DFF(" << nl.node(n.fanins[0]).name << ")\n";
        break;
      case GateType::kConst0:
        // .bench has no consts; emit XOR(x,x)-free workaround: a 0 constant
        // as AND of an input with its inverse is wasteful — instead emit a
        // comment and a self-evident gate. Constants only appear in
        // intermediate netlists; synthesized circuits are const-free.
        os << "# const0 " << n.name << " emitted as comment only\n";
        break;
      case GateType::kConst1:
        os << "# const1 " << n.name << " emitted as comment only\n";
        break;
      default: {
        os << n.name << " = ";
        switch (n.type) {
          case GateType::kBuf:
            os << "BUFF";
            break;
          case GateType::kNot:
            os << "NOT";
            break;
          case GateType::kAnd:
            os << "AND";
            break;
          case GateType::kNand:
            os << "NAND";
            break;
          case GateType::kOr:
            os << "OR";
            break;
          case GateType::kNor:
            os << "NOR";
            break;
          case GateType::kXor:
            os << "XOR";
            break;
          case GateType::kXnor:
            os << "XNOR";
            break;
          default:
            break;
        }
        os << "(";
        for (std::size_t i = 0; i < n.fanins.size(); ++i) {
          if (i) os << ", ";
          os << nl.node(n.fanins[i]).name;
        }
        os << ")\n";
      }
    }
  }
}

std::string write_bench_string(const Netlist& nl) {
  std::ostringstream os;
  write_bench(nl, os);
  return os.str();
}

}  // namespace satpg
