#include "harness/report.h"

#include <array>
#include <fstream>
#include <map>
#include <ostream>

#include "base/json.h"
#include "base/memstats.h"
#include "base/metrics.h"
#include "base/strutil.h"
#include "fault/fault.h"
#include "harness/build_info.h"

namespace satpg {

namespace {

const char* status_name(FaultStatus s) {
  switch (s) {
    case FaultStatus::kDetected:
      return "detected";
    case FaultStatus::kRedundant:
      return "redundant";
    case FaultStatus::kAborted:
      return "aborted";
  }
  return "?";
}

std::string num(double v) { return strprintf("%.17g", v); }

std::string attr_array(const std::array<std::uint64_t, 3>& a) {
  return strprintf("[%llu, %llu, %llu]",
                   static_cast<unsigned long long>(a[0]),
                   static_cast<unsigned long long>(a[1]),
                   static_cast<unsigned long long>(a[2]));
}

}  // namespace

bool is_stale_atpg_run_report(const std::string& text) {
  JsonValue root;
  if (!json_parse(text, &root) || !root.is_object()) return false;
  const std::string schema = root.str_or("schema", "");
  return schema.rfind("satpg.atpg_run.", 0) == 0 && schema != kAtpgRunSchema;
}

bool parse_run_report(const std::string& json_text, RunReport* out,
                      std::string* error) {
  JsonValue root;
  if (!json_parse(json_text, &root, error)) return false;
  if (!root.is_object()) {
    if (error) *error = "report is not a JSON object";
    return false;
  }
  RunReport r;
  r.schema = root.str_or("schema", "");
  if (r.schema != kAtpgRunSchema) {
    if (error)
      *error = "unsupported report schema \"" + r.schema + "\" (need " +
               kAtpgRunSchema + ")";
    return false;
  }
  if (const JsonValue* c = root.find("circuit"))
    r.circuit = c->str_or("name", "?");
  if (const JsonValue* e = root.find("engine")) {
    r.engine = e->str_or("kind", "?");
    r.seed = e->uint_or("seed", 0);
  }
  if (const JsonValue* a = root.find("attribution")) {
    r.oracle_mode = a->str_or("oracle", "");
    r.density = a->num_or("density", -1.0);
  }
  if (const JsonValue* bi = root.find("build_info"))
    r.build_line = strprintf(
        "%s %s %s san=%s simd=%s/%s", bi->str_or("compiler", "?").c_str(),
        bi->str_or("compiler_version", "?").c_str(),
        bi->str_or("build_type", "?").c_str(),
        bi->str_or("sanitizer", "?").c_str(),
        bi->str_or("simd_compiled", "?").c_str(),
        bi->str_or("simd_dispatched", "?").c_str());
  if (const JsonValue* wd = root.find("watchdog")) {
    r.watchdog_defer = wd->bool_or("defer", false);
    if (const JsonValue* wm = wd->find("memory")) {
      r.mem_budget = wm->uint_or("budget", 0);
      r.mem_tripped = wm->uint_or("tripped", 0);
      r.mem_requeued = wm->uint_or("requeued", 0);
      r.mem_verdict = wm->str_or("verdict", "");
    }
  }
  const JsonValue* s = root.find("summary");
  if (s == nullptr || !s->is_object()) {
    if (error) *error = "report lacks a summary object";
    return false;
  }
  r.total_faults = s->uint_or("total_faults", 0);
  r.fault_coverage = s->num_or("fault_coverage", 0.0);
  r.fault_efficiency = s->num_or("fault_efficiency", 0.0);
  r.evals = s->uint_or("evals", 0);
  r.backtracks = s->uint_or("backtracks", 0);
  r.justify_failures = s->uint_or("justify_failures", 0);
  r.cube_exports = s->uint_or("cube_exports", 0);
  r.effort_invalid_frac = s->num_or("effort_invalid_frac", 0.0);

  if (const JsonValue* fe = root.find("fe_trace"); fe && fe->is_array())
    for (const JsonValue& p : fe->array())
      if (p.is_array() && p.array().size() == 2)
        r.fe_trace.emplace_back(
            static_cast<std::uint64_t>(p.array()[0].number()),
            p.array()[1].number());

  if (const JsonValue* pf = root.find("per_fault"); pf && pf->is_array()) {
    r.per_fault.reserve(pf->array().size());
    for (std::size_t i = 0; i < pf->array().size(); ++i) {
      const JsonValue& f = pf->array()[i];
      if (!f.is_object()) continue;
      RunReport::PerFault rec;
      rec.name = f.str_or("fault", "?");
      rec.index = i;
      rec.status = f.str_or("status", "?");
      rec.attempted = f.bool_or("attempted", false);
      rec.evals = f.uint_or("evals", 0);
      rec.backtracks = f.uint_or("backtracks", 0);
      rec.effort_invalid_frac = f.num_or("effort_invalid_frac", 0.0);
      rec.cube_exports = f.uint_or("cube_exports", 0);
      rec.peak_bytes = f.uint_or("peak_bytes", 0);
      if (const JsonValue* cs = f.find("cube_sources"); cs && cs->is_array())
        for (const JsonValue& src : cs->array())
          rec.cube_sources.push_back(
              {src.str_or("from", ""),
               static_cast<std::uint32_t>(src.uint_or("epoch", 0)),
               src.uint_or("hits", 0)});
      r.per_fault.push_back(std::move(rec));
    }
  }

  if (const JsonValue* prov = root.find("cube_provenance")) {
    r.prov_exports = prov->uint_or("exports", 0);
    r.prov_hits = prov->uint_or("import_hits", 0);
    if (const JsonValue* ex = prov->find("exporters"); ex && ex->is_array())
      for (const JsonValue& v : ex->array())
        r.exporters.push_back({v.str_or("fault", ""), v.uint_or("cubes", 0),
                               v.uint_or("beneficiaries", 0),
                               v.uint_or("hits", 0)});
  }

  if (const JsonValue* mem = root.find("memory"); mem && mem->is_object()) {
    r.has_memory = true;
    if (const JsonValue* subs = mem->find("subsystems");
        subs && subs->is_object())
      for (const auto& [name, v] : subs->members())
        r.memory.push_back({name, v.uint_or("live", 0), v.uint_or("peak", 0),
                            v.uint_or("allocated", 0),
                            v.uint_or("allocs", 0)});
    if (const JsonValue* tot = mem->find("total")) {
      r.mem_live_bytes = tot->uint_or("live", 0);
      r.mem_peak_bytes = tot->uint_or("peak", 0);
      r.mem_allocated_bytes = tot->uint_or("allocated", 0);
    }
  }
  *out = std::move(r);
  return true;
}

void write_atpg_report_json(std::ostream& os, const Netlist& nl,
                            const ParallelAtpgOptions& opts,
                            const ParallelAtpgResult& res) {
  const AtpgRunResult& run = res.run;
  os << "{\n";
  os << "  \"schema\": \"" << kAtpgRunSchema << "\",\n";

  os << "  \"circuit\": {\"name\": \"" << json_escape(nl.name())
     << "\", \"inputs\": " << nl.num_inputs()
     << ", \"outputs\": " << nl.num_outputs()
     << ", \"gates\": " << nl.num_gates()
     << ", \"dffs\": " << nl.num_dffs() << "},\n";

  const EngineOptions& eng = opts.run.engine;
  os << "  \"engine\": {\"kind\": \"" << engine_kind_name(eng.kind)
     << "\", \"eval_limit\": " << eng.eval_limit
     << ", \"backtrack_limit\": " << eng.backtrack_limit
     << ", \"max_forward_frames\": " << eng.max_forward_frames
     << ", \"max_backward_frames\": " << eng.max_backward_frames
     << ", \"share_learning\": " << (eng.share_learning ? "true" : "false")
     << ", \"seed\": " << opts.run.seed << "},\n";

  // v6: build provenance. Fixed per binary (the dispatched SIMD tier per
  // binary + machine), so byte-identity across --threads still holds;
  // satpg diff flags runs whose blocks disagree.
  os << "  \"build_info\": ";
  write_build_info_json(os, build_info(), 16);
  os << ",\n";

  // v2: how justification cubes were classified (DESIGN.md §6). num_valid
  // and density are -1 when the BDD analysis did not complete; everything
  // here is deterministic, so the block never breaks byte-identity.
  os << "  \"attribution\": {\"oracle\": \"" << oracle_mode_name(run.oracle.mode)
     << "\", \"num_valid\": " << num(run.oracle.num_valid)
     << ", \"density\": " << num(run.oracle.density)
     << ",\n                  \"bucket_order\": [\"valid\", \"invalid\","
        " \"unknown\"]},\n";

  // v3: watchdog verdicts. The eval threshold is a deterministic run
  // parameter (DESIGN.md §7), so this block — always present, empty when
  // the watchdog is off — is as thread-count invariant as the summary.
  os << "  \"watchdog\": {\"stuck_evals\": " << opts.watchdog.stuck_evals
     << ", \"defer\": " << (opts.watchdog.defer ? "true" : "false")
     << ", \"requeued\": " << res.deferred_requeued
     << ",\n               \"stuck_faults\": [";
  {
    const auto collapsed_wd = collapse_faults(nl);
    for (std::size_t i = 0; i < res.stuck_faults.size(); ++i) {
      const auto& sf = res.stuck_faults[i];
      os << (i == 0 ? "\n    " : ",\n    ") << "{\"fault\": \""
         << json_escape(
                fault_name(nl, collapsed_wd[sf.fault_index].representative))
         << "\", \"index\": " << sf.fault_index
         << ", \"evals\": " << sf.evals
         << ", \"deferred\": " << (sf.deferred ? "true" : "false")
         << ", \"status\": \"" << status_name(res.status[sf.fault_index])
         << "\"}";
    }
  }
  // v6: the memory-budget verdict rides the watchdog block — both are
  // deterministic graceful-degradation gates over the same park/requeue
  // machinery. budget is bytes (0 = unenforced).
  os << "],\n               \"memory\": {\"budget\": " << res.mem_budget_bytes
     << ", \"tripped\": " << res.mem_tripped
     << ", \"requeued\": " << res.mem_requeued << ", \"verdict\": \""
     << (res.mem_budget_bytes == 0 ? "off"
                                   : (res.mem_tripped == 0 ? "clean"
                                                           : "degraded"))
     << "\"}},\n";

  os << "  \"summary\": {"
     << "\"total_faults\": " << run.total_faults
     << ", \"detected\": " << run.detected
     << ", \"redundant\": " << run.redundant
     << ", \"aborted\": " << run.aborted
     << ", \"fault_coverage\": " << num(run.fault_coverage)
     << ", \"fault_efficiency\": " << num(run.fault_efficiency)
     << ",\n              \"evals\": " << run.evals
     << ", \"backtracks\": " << run.backtracks
     << ", \"implications\": " << run.implications
     << ", \"window_growths\": " << run.window_growths
     << ",\n              \"justify_calls\": " << run.justify_calls
     << ", \"justify_failures\": " << run.justify_failures
     << ", \"learn_hits\": " << run.learn_hits
     << ", \"learn_misses\": " << run.learn_misses
     << ", \"learn_inserts\": " << run.learn_inserts
     << ",\n              \"conflicts\": " << run.conflicts
     << ", \"propagations\": " << run.propagations
     << ", \"restarts\": " << run.restarts
     << ", \"learned_clauses\": " << run.learned_clauses
     << ", \"cube_exports\": " << run.cube_exports
     << ",\n              \"verify_failures\": " << run.verify_failures
     << ", \"tests\": " << run.tests.size()
     << ", \"states_traversed\": " << run.states_traversed.size()
     << ",\n              \"attr_calls\": " << attr_array(run.attribution.justify_calls)
     << ", \"attr_failures\": " << attr_array(run.attribution.justify_failures)
     << ",\n              \"attr_evals\": " << attr_array(run.attribution.justify_evals)
     << ", \"attr_backtracks\": " << attr_array(run.attribution.justify_backtracks)
     << ",\n              \"effort_invalid_frac\": "
     << num(run.effort_invalid_frac) << "},\n";

  os << "  \"fe_trace\": [";
  for (std::size_t i = 0; i < run.fe_trace.size(); ++i)
    os << (i == 0 ? "" : ", ") << '[' << run.fe_trace[i].first << ", "
       << num(run.fe_trace[i].second) << ']';
  os << "],\n";

  // One record per collapsed fault. Faults the random phase settled (or
  // budget/deadline skipped) have attempted=false and all-zero stats.
  const auto collapsed = collapse_faults(nl);
  os << "  \"per_fault\": [\n";
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    const FaultSearchStats& s = res.fault_stats[i];
    os << "    {\"fault\": \""
       << json_escape(fault_name(nl, collapsed[i].representative))
       << "\", \"class_size\": " << collapsed[i].class_size
       << ", \"status\": \"" << status_name(res.status[i])
       << "\", \"attempted\": " << (res.attempted[i] ? "true" : "false")
       << ", \"detected_by\": " << res.detected_by[i]
       << ",\n     \"evals\": " << s.evals
       << ", \"backtracks\": " << s.backtracks
       << ", \"implications\": " << s.implications
       << ", \"window_growths\": " << s.window_growths
       << ",\n     \"justify_calls\": " << s.justify_calls
       << ", \"justify_failures\": " << s.justify_failures
       << ", \"justify_depth\": " << s.max_justify_depth
       << ", \"learn_hits\": " << s.learn_hits
       << ", \"learn_misses\": " << s.learn_misses
       << ", \"learn_inserts\": " << s.learn_inserts
       << ",\n     \"conflicts\": " << s.conflicts
       << ", \"propagations\": " << s.propagations
       << ", \"restarts\": " << s.restarts
       << ", \"learned_clauses\": " << s.learned_clauses
       << ", \"cube_blocks\": " << s.cube_blocks
       << ", \"cube_exports\": " << s.cube_exports
       << ",\n     \"verify_rejects\": " << s.verify_rejects
       << ", \"budget_exhausted\": "
       << (s.budget_exhausted ? "true" : "false")
       << ", \"peak_bytes\": " << s.peak_bytes
       << ",\n     \"attr_calls\": " << attr_array(s.attribution.justify_calls)
       << ", \"attr_failures\": " << attr_array(s.attribution.justify_failures)
       << ",\n     \"attr_evals\": " << attr_array(s.attribution.justify_evals)
       << ", \"attr_backtracks\": "
       << attr_array(s.attribution.justify_backtracks)
       << ",\n     \"effort_invalid_frac\": "
       << num(s.attribution.invalid_frac(s.evals))
       << ",\n     \"cube_sources\": [";
    const auto& sources = res.cube_sources[i];
    for (std::size_t j = 0; j < sources.size(); ++j)
      os << (j == 0 ? "" : ", ") << "{\"from\": \""
         << json_escape(sources[j].exporter)
         << "\", \"epoch\": " << sources[j].epoch
         << ", \"hits\": " << sources[j].hits << '}';
    os << "]}" << (i + 1 < collapsed.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  // v5: cube-sharing provenance rollup. exports sums the per-fault
  // cube_exports counters and must equal the summary cube_exports
  // (tools/bench_gate checks the equality; defer-requeue runs are exempt —
  // a parked fault's first attempt counts in the summary but not in its
  // final per-fault record). import_hits is the total of every per-fault
  // cube_sources hit count.
  // The exporters array unions faults that exported cubes with names that
  // appear as a source anywhere, sorted by name — all inputs are
  // deterministic, so the block is too. The empty name collects hits whose
  // exporter is unknown (legacy shares without provenance).
  {
    struct Exporter {
      std::uint64_t cubes = 0;
      std::uint64_t beneficiaries = 0;
      std::uint64_t hits = 0;
    };
    std::map<std::string, Exporter> exporters;
    std::uint64_t import_hits = 0;
    std::uint64_t exports = 0;  // per-fault sum; must equal run.cube_exports
    for (std::size_t i = 0; i < collapsed.size(); ++i) {
      exports += res.fault_stats[i].cube_exports;
      if (res.fault_stats[i].cube_exports > 0)
        exporters[fault_name(nl, collapsed[i].representative)].cubes +=
            res.fault_stats[i].cube_exports;
      for (const CubeSource& src : res.cube_sources[i]) {
        Exporter& e = exporters[src.exporter];
        ++e.beneficiaries;
        e.hits += src.hits;
        import_hits += src.hits;
      }
    }
    os << "  \"cube_provenance\": {\"exports\": " << exports
       << ", \"import_hits\": " << import_hits << ", \"exporters\": [";
    bool first = true;
    for (const auto& [name, e] : exporters) {
      os << (first ? "\n    " : ",\n    ") << "{\"fault\": \""
         << json_escape(name) << "\", \"cubes\": " << e.cubes
         << ", \"beneficiaries\": " << e.beneficiaries
         << ", \"hits\": " << e.hits << '}';
      first = false;
    }
    os << "]},\n";
  }

  // v6: folded byte accounting (base/memstats) — attempt tallies merged in
  // unit/fault order plus the shared-subsystem registry snapshot. Logical
  // bytes only; total.peak is the sum-of-subsystem-peaks upper bound.
  // All-zero (but present, fixed shape) when memstats were never armed.
  os << "  \"memory\": ";
  res.mem.write_json(os, 2);
  os << ",\n";

  os << "  \"metrics\": ";
  MetricsRegistry::global().write_json(os, 2);
  os << "\n}\n";
}

bool write_atpg_report_json(const std::string& path, const Netlist& nl,
                            const ParallelAtpgOptions& opts,
                            const ParallelAtpgResult& res) {
  std::ofstream os(path);
  if (!os) return false;
  write_atpg_report_json(os, nl, opts, res);
  return os.good();
}

void write_events_json(std::ostream& os, const Netlist& nl,
                       const ParallelAtpgOptions& opts,
                       const ParallelAtpgResult& res) {
  const auto collapsed = collapse_faults(nl);
  std::size_t attempted = 0;
  for (std::size_t i = 0; i < collapsed.size(); ++i)
    if (res.attempted[i]) ++attempted;

  os << "{\"schema\": \"satpg.events.v1\", \"circuit\": \""
     << json_escape(nl.name()) << "\", \"engine\": \""
     << engine_kind_name(opts.run.engine.kind)
     << "\", \"seed\": " << opts.run.seed
     << ", \"faults\": " << collapsed.size()
     << ", \"attempted\": " << attempted << "}\n";

  std::string line;
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    if (!res.attempted[i]) continue;
    const FaultSearchStats& s = res.fault_stats[i];
    os << "{\"fault\": \""
       << json_escape(fault_name(nl, collapsed[i].representative))
       << "\", \"index\": " << i << ", \"status\": \""
       << status_name(res.status[i]) << "\", \"evals\": " << s.evals
       << ", \"backtracks\": " << s.backtracks << ", \"invalid_frac\": "
       << num(s.attribution.invalid_frac(s.evals))
       << ", \"events\": " << res.fault_events[i].size() << "}\n";
    for (const SearchEvent& e : res.fault_events[i]) {
      line.clear();
      append_event_json(&line, e);
      os << line << '\n';
    }
  }
}

bool write_events_json(const std::string& path, const Netlist& nl,
                       const ParallelAtpgOptions& opts,
                       const ParallelAtpgResult& res) {
  std::ofstream os(path);
  if (!os) return false;
  write_events_json(os, nl, opts, res);
  return os.good();
}

}  // namespace satpg
