// Circuit-suite construction for the study.
//
// Reconstructs the paper's circuit population: for each Table 2 row the
// original circuit (FSM × jedi-style encoder × synthesis script) and its
// retimed counterpart targeted at the paper's exact flip-flop count, plus
// the Table 7 ladder of partially-retimed versions of s510.jo.sr.
//
// Synthesis of the larger machines takes tens of seconds, so circuits are
// cached as .bench files in a cache directory (delay/area annotations are
// re-derived on load through the library annotator); delete the directory
// to force a rebuild. A freshly built circuit is returned as read back from
// its .bench text, so a run that builds a circuit and a run that loads it
// from the cache see the same netlist, node numbering included.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "synth/synthesize.h"

namespace satpg {

/// One row of the paper's Table 2.
struct PairSpec {
  std::string fsm;       ///< suite machine name
  EncodeAlgo encode;
  ScriptKind script;
  int paper_orig_dffs;   ///< #DFF of the original circuit in the paper
  int paper_re_dffs;     ///< #DFF of the retimed circuit in the paper
  std::string name() const;             ///< e.g. "s510.jc.sd"
  std::string retimed_name() const;     ///< e.g. "s510.jc.sd.re"
};

/// The 16 circuit pairs of Table 2, with the paper's #DFF columns.
std::vector<PairSpec> table2_specs();

/// The Table 7 ladder: (suffix, target #DFF) for s510.jo.sr —
/// {".re.v1", 8}, {".re.v2", 16}, {".re.v3", 22}, {".re", 28}.
std::vector<std::pair<std::string, int>> table7_ladder();

struct SuiteOptions {
  std::string cache_dir = "circuits_cache";
  /// Scale factor on FSM sizes (1.0 = the paper's dimensions). Tests use
  /// smaller machines; benches default to full size.
  double fsm_scale = 1.0;
  std::uint64_t seed = 1;
};

/// Builds (and caches) suite circuits by paper-style name:
///   "<fsm>.<j?>.<s?>"            original circuit
///   "<fsm>.<j?>.<s?>.re"         retimed to the Table 2 #DFF target
///   "s510.jo.sr.re.v<k>"         Table 7 ladder versions
class Suite {
 public:
  explicit Suite(SuiteOptions opts = {});

  /// CHECK-fails on names outside the population above.
  Netlist circuit(const std::string& name);

  const SuiteOptions& options() const { return opts_; }

 private:
  std::string cache_path(const std::string& name) const;
  std::optional<Netlist> load_cached(const std::string& name) const;
  void store_cached(const std::string& name,
                    const std::string& bench_text) const;
  Netlist build(const std::string& name);
  Netlist build_original(const PairSpec& spec);

  SuiteOptions opts_;
};

}  // namespace satpg
