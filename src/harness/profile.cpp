#include "harness/profile.h"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "base/cpu.h"
#include "base/json.h"
#include "base/strutil.h"
#include "harness/build_info.h"

namespace satpg {

namespace {

std::string num(double v) { return strprintf("%.6g", v); }

void write_totals(std::ostream& os, const ProfPhaseTotals& t) {
  os << "{\"calls\": " << t.calls;
  for (std::size_t c = 0; c < kNumProfCounters; ++c)
    os << ", \"" << prof_counter_name(static_cast<ProfCounter>(c))
       << "\": " << t.counters[c];
  // Per-block derived rates, emitted only when their inputs moved (the
  // fallback backend leaves every hardware counter at zero).
  const std::uint64_t instr = t.counter(ProfCounter::kInstructions);
  const std::uint64_t cycles = t.counter(ProfCounter::kCycles);
  const std::uint64_t refs = t.counter(ProfCounter::kCacheReferences);
  if (cycles > 0 && instr > 0)
    os << ", \"ipc\": "
       << num(static_cast<double>(instr) / static_cast<double>(cycles));
  if (refs > 0)
    os << ", \"cache_miss_pct\": "
       << num(100.0 *
              static_cast<double>(t.counter(ProfCounter::kCacheMisses)) /
              static_cast<double>(refs));
  os << "}";
}

}  // namespace

void write_profile_json(std::ostream& os, const ProfileArtifact& a) {
  const ProfSnapshot& snap = a.snap;
  os << "{\n  \"schema\": \"satpg.profile.v2\",\n";
  os << "  \"tool\": \"" << json_escape(a.tool) << "\",\n";
  // Identity shaped like the report's, so archive config digests match.
  os << "  \"circuit\": {\"name\": \"" << json_escape(a.circuit)
     << "\"},\n";
  os << "  \"engine\": {\"kind\": \"" << json_escape(a.engine_kind)
     << "\", \"eval_limit\": " << a.eval_limit
     << ", \"backtrack_limit\": " << a.backtrack_limit
     << ", \"max_forward_frames\": " << a.max_forward_frames
     << ", \"max_backward_frames\": " << a.max_backward_frames
     << ", \"seed\": " << a.seed << "},\n";
  os << "  \"build_info\": ";
  write_build_info_json(os, build_info(), 16);
  os << ",\n";
  os << "  \"host_cpu\": \"" << json_escape(cpu_model_name()) << "\",\n";
  os << "  \"backend\": \"" << prof_backend_name(snap.backend) << "\",\n";

  // Which counter slots can move under this backend: the fallback only
  // drives task_clock_ns, so readers need not guess why cycles is zero.
  os << "  \"counters_available\": [\"task_clock_ns\"";
  if (snap.backend == ProfBackend::kPerfEvent)
    for (std::size_t c = 1; c < kNumProfCounters; ++c)
      os << ", \"" << prof_counter_name(static_cast<ProfCounter>(c))
         << "\"";
  os << "],\n";

  os << "  \"wall_seconds\": " << num(snap.wall_seconds) << ",\n";
  os << "  \"work\": {\"evals\": " << a.evals
     << ", \"patterns\": " << a.patterns << "},\n";

  // Fixed shape: every phase appears, enum order == sorted-name order.
  // Rows are inclusive (a span's counters include its nested spans').
  os << "  \"phases\": {\n";
  for (std::size_t p = 0; p < kNumProfPhases; ++p) {
    const ProfPhase phase = static_cast<ProfPhase>(p);
    os << "    \"" << prof_phase_name(phase) << "\": {\"subsystem\": \""
       << prof_phase_subsystem(phase) << "\", ";
    const ProfPhaseTotals t = snap.phase(phase);
    os << "\"calls\": " << t.calls;
    for (std::size_t c = 0; c < kNumProfCounters; ++c)
      os << ", \"" << prof_counter_name(static_cast<ProfCounter>(c))
         << "\": " << t.counters[c];
    os << "}" << (p + 1 < kNumProfPhases ? ",\n" : "\n");
  }
  os << "  },\n";

  // The root fold: every profiled cycle once, however spans nest.
  os << "  \"total\": ";
  write_totals(os, snap.total());
  os << ",\n";

  // Cross-phase derived rates against the deterministic work units.
  os << "  \"derived\": {";
  {
    const ProfPhaseTotals total = snap.total();
    bool first = true;
    const auto field = [&](const char* key, double v) {
      os << (first ? "" : ", ") << "\"" << key << "\": " << num(v);
      first = false;
    };
    const std::uint64_t cycles = total.counter(ProfCounter::kCycles);
    const std::uint64_t task_ns =
        total.counter(ProfCounter::kTaskClockNs);
    if (a.evals > 0) {
      if (cycles > 0)
        field("cycles_per_eval", static_cast<double>(cycles) /
                                     static_cast<double>(a.evals));
      if (task_ns > 0)
        field("task_clock_ns_per_eval", static_cast<double>(task_ns) /
                                            static_cast<double>(a.evals));
      if (snap.wall_seconds > 0)
        field("evals_per_second",
              static_cast<double>(a.evals) / snap.wall_seconds);
    }
    if (a.patterns > 0 && snap.wall_seconds > 0)
      field("patterns_per_second",
            static_cast<double>(a.patterns) / snap.wall_seconds);
    // Per-tier wide-kernel cost per pattern: the SIMD anatomy behind the
    // BENCH_fsim speedup table.
    if (a.patterns > 0)
      for (const ProfPhase phase :
           {ProfPhase::kFsimWideKernelAvx2,
            ProfPhase::kFsimWideKernelAvx512,
            ProfPhase::kFsimWideKernelScalar,
            ProfPhase::kFsimWideKernelSse2}) {
        const ProfPhaseTotals t = snap.phase(phase);
        if (t.calls == 0) continue;
        const std::uint64_t ph_cycles = t.counter(ProfCounter::kCycles);
        const std::uint64_t ph_ns =
            t.counter(ProfCounter::kTaskClockNs);
        const std::string key = std::string(prof_phase_name(phase));
        if (ph_cycles > 0)
          field((key + ".cycles_per_pattern").c_str(),
                static_cast<double>(ph_cycles) /
                    static_cast<double>(a.patterns));
        if (ph_ns > 0)
          field((key + ".task_clock_ns_per_pattern").c_str(),
                static_cast<double>(ph_ns) /
                    static_cast<double>(a.patterns));
      }
  }
  os << "},\n";

  // Per-worker lanes (only lanes that recorded anything), root folds.
  os << "  \"lanes\": [";
  for (std::size_t l = 0; l < snap.lanes.size(); ++l) {
    const ProfPhaseTotals& t = snap.lanes[l].root;
    os << (l == 0 ? "\n    " : ",\n    ") << "{\"lane\": "
       << snap.lanes[l].lane << ", ";
    os << "\"calls\": " << t.calls
       << ", \"task_clock_ns\": " << t.counter(ProfCounter::kTaskClockNs)
       << ", \"cycles\": " << t.counter(ProfCounter::kCycles) << "}";
  }
  os << "]\n}\n";
}

bool write_profile_json(const std::string& path,
                        const ProfileArtifact& a) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  write_profile_json(os, a);
  if (!os.good()) {
    std::fprintf(stderr, "write failed: %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace satpg
