// The satpg.profile.v2 sidecar: the serialized form of a Profiler
// snapshot (base/profiler.h) plus the identity and provenance context
// that makes the numbers interpretable — circuit/engine identity (shaped
// exactly like the atpg_run report's, so the archive derives the same
// config digest and `satpg inspect --trend` can join report and profile
// rows), build_info, the host CPU model, and the deterministic work
// units (evals, patterns) the derived rates divide by.
//
// The sidecar is wall-clock-plane by definition (DESIGN.md §12): nothing
// in it is reproducible across machines or runs, which is why it is a
// separate file and never a block inside the deterministic report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "base/profiler.h"

namespace satpg {

struct ProfileArtifact {
  std::string tool;     ///< "atpg", "fsim", "bench"
  std::string circuit;  ///< netlist name
  /// Engine identity, mirroring the report's engine block so the archive
  /// config digest matches the paired deterministic report. Tools without
  /// an ATPG engine (fsim) leave kind at its default and the limits 0.
  std::string engine_kind = "none";
  std::uint64_t eval_limit = 0;
  std::uint64_t backtrack_limit = 0;
  std::uint64_t max_forward_frames = 0;
  std::uint64_t max_backward_frames = 0;
  std::uint64_t seed = 0;
  /// Deterministic work units for derived rates; 0 suppresses the rate.
  std::uint64_t evals = 0;
  std::uint64_t patterns = 0;
  ProfSnapshot snap;
};

/// Write the satpg.profile.v2 JSON document. Fixed shape: every phase
/// appears (sorted, inclusive counters), every counter slot appears, the
/// total and the per-lane rows are root folds, and derived rates are
/// emitted only when their inputs are nonzero.
void write_profile_json(std::ostream& os, const ProfileArtifact& a);

/// write_profile_json to a file; false (after printing to stderr) when
/// the file cannot be written.
bool write_profile_json(const std::string& path, const ProfileArtifact& a);

}  // namespace satpg
