#include "harness/suite.h"

#include <filesystem>
#include <fstream>

#include "base/logging.h"
#include "base/profiler.h"
#include "fsm/mcnc_suite.h"
#include "netlist/bench_io.h"
#include "retime/retime.h"
#include "synth/library.h"

namespace satpg {

std::string PairSpec::name() const {
  return fsm + encode_algo_suffix(encode) + script_suffix(script);
}

std::string PairSpec::retimed_name() const { return name() + ".re"; }

std::vector<PairSpec> table2_specs() {
  using E = EncodeAlgo;
  using S = ScriptKind;
  // fsm, encoder, script, paper #DFF (orig), paper #DFF (retimed).
  return {
      {"dk16", E::kInputDominant, S::kDelay, 5, 19},
      {"pma", E::kOutputDominant, S::kDelay, 5, 21},
      {"s510", E::kCombined, S::kDelay, 6, 20},
      {"s510", E::kCombined, S::kRugged, 6, 26},
      {"s510", E::kInputDominant, S::kDelay, 6, 11},
      {"s510", E::kInputDominant, S::kRugged, 6, 23},
      {"s510", E::kOutputDominant, S::kRugged, 6, 28},
      {"s820", E::kCombined, S::kDelay, 5, 14},
      {"s820", E::kCombined, S::kRugged, 5, 9},
      {"s820", E::kInputDominant, S::kRugged, 5, 8},
      {"s820", E::kOutputDominant, S::kDelay, 5, 22},
      {"s820", E::kOutputDominant, S::kRugged, 5, 13},
      {"s832", E::kCombined, S::kRugged, 5, 27},
      {"s832", E::kOutputDominant, S::kRugged, 5, 15},
      {"scf", E::kInputDominant, S::kDelay, 7, 20},
      {"scf", E::kOutputDominant, S::kDelay, 7, 23},
  };
}

std::vector<std::pair<std::string, int>> table7_ladder() {
  return {{".re.v1", 8}, {".re.v2", 16}, {".re.v3", 22}, {".re", 28}};
}

Suite::Suite(SuiteOptions opts) : opts_(std::move(opts)) {}

std::string Suite::cache_path(const std::string& name) const {
  return (std::filesystem::path(opts_.cache_dir) /
          (name + "_s" + std::to_string(opts_.seed) + "_x" +
           std::to_string(static_cast<int>(opts_.fsm_scale * 100)) +
           ".bench"))
      .string();
}

std::optional<Netlist> Suite::load_cached(const std::string& name) const {
  std::ifstream is(cache_path(name));
  if (!is) return std::nullopt;
  Netlist nl = read_bench(is, name);
  annotate_library(nl);
  return nl;
}

void Suite::store_cached(const std::string& name,
                         const std::string& bench_text) const {
  std::error_code ec;
  std::filesystem::create_directories(opts_.cache_dir, ec);
  std::ofstream os(cache_path(name));
  if (os) os << bench_text;
}

Netlist Suite::build_original(const PairSpec& spec) {
  FsmGenSpec gen;
  bool found = false;
  for (const auto& s : mcnc_specs())
    if (s.name == spec.fsm) {
      gen = s;
      found = true;
    }
  SATPG_CHECK_MSG(found, "unknown suite FSM");
  if (opts_.fsm_scale != 1.0) gen = scaled_spec(gen, opts_.fsm_scale);
  gen.seed ^= opts_.seed * 0x9e3779b97f4a7c15ULL;
  const Fsm fsm = generate_control_fsm(gen);
  SynthOptions so;
  so.encode = spec.encode;
  so.script = spec.script;
  so.seed = opts_.seed;
  PhaseSpan span(ProfPhase::kSynth);
  SynthResult res = synthesize(fsm, so);
  return std::move(res.netlist);
}

Netlist Suite::build(const std::string& name) {
  for (const auto& spec : table2_specs()) {
    if (name == spec.name()) return build_original(spec);
    if (name == spec.retimed_name()) {
      Netlist orig = circuit(spec.name());
      // Target the paper's flip-flop count, scaled with the FSM scale so
      // test-size suites stay proportionate.
      const std::size_t target = std::max<std::size_t>(
          orig.num_dffs() + 1,
          static_cast<std::size_t>(spec.paper_re_dffs * opts_.fsm_scale +
                                   0.5));
      PhaseSpan span(ProfPhase::kRetime);
      RetimeResult rt = retime_to_dff_target(orig, target, name);
      return std::move(rt.netlist);
    }
  }
  for (const auto& [suffix, dffs] : table7_ladder()) {
    const std::string full = "s510.jo.sr" + suffix;
    if (name != full || suffix == ".re") continue;  // .re handled above
    Netlist orig = circuit("s510.jo.sr");
    const std::size_t target = std::max<std::size_t>(
        orig.num_dffs() + 1,
        static_cast<std::size_t>(dffs * opts_.fsm_scale + 0.5));
    PhaseSpan span(ProfPhase::kRetime);
    RetimeResult rt = retime_to_dff_target(orig, target, name);
    return std::move(rt.netlist);
  }
  SATPG_CHECK_MSG(false, "Suite::circuit: unknown circuit name");
  return Netlist("");
}

Netlist Suite::circuit(const std::string& name) {
  if (auto cached = load_cached(name)) {
    SATPG_LOG(kInfo) << "suite: loaded " << name << " from cache";
    return std::move(*cached);
  }
  SATPG_LOG(kInfo) << "suite: building " << name;
  // Return the netlist exactly as a later cache hit will read it back:
  // read_bench renumbers nodes, and fault order and the engines' tie-breaks
  // follow node ids, so a fresh run matches a cached one only this way.
  const std::string text = write_bench_string(build(name));
  store_cached(name, text);
  Netlist nl = read_bench_string(text, name);
  annotate_library(nl);
  return nl;
}

}  // namespace satpg
