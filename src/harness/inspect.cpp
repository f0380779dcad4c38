#include "harness/inspect.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <ostream>
#include <vector>

#include "base/json.h"
#include "base/strutil.h"
#include "base/table.h"
#include "harness/archive.h"
#include "harness/report.h"

namespace satpg {

namespace {

// ---- event-log reader -------------------------------------------------------

constexpr char kEventsSchema[] = "satpg.events.v1";

bool is_event_log(const RunReport& doc) { return doc.schema == kEventsSchema; }

std::string fmt_u64(std::uint64_t v) {
  return strprintf("%llu", static_cast<unsigned long long>(v));
}

void parse_event(const JsonValue& v, RunReport::Event* e) {
  e->k = v.str_or("k", "?");
  e->at = v.uint_or("at", 0);
  e->a = static_cast<std::int64_t>(v.num_or("a", 0.0));
  e->b = static_cast<std::int64_t>(v.num_or("b", 0.0));
  e->bytes = v.uint_or("bytes", 0);
  e->cube = v.str_or("cube", "");
  e->src = v.str_or("src", "");
  if (const JsonValue* lbd = v.find("lbd"); lbd && lbd->is_array())
    for (const JsonValue& n : lbd->array())
      e->lbd.push_back(
          n.is_number() ? static_cast<std::uint64_t>(n.number()) : 0);
}

/// Aggregate provenance from the parsed faults (event logs carry no
/// rollup block): exports = cube_export events; hits = cube_import +
/// learn-failure hits, attributed to their src tag.
void derive_provenance(RunReport* doc) {
  std::map<std::string, RunReport::Exporter> by_name;
  for (const RunReport::PerFault& f : doc->per_fault) {
    if (f.cube_exports > 0) {
      by_name[f.name].cubes += f.cube_exports;
      doc->prov_exports += f.cube_exports;
    }
    for (const CubeSource& s : f.cube_sources) {
      RunReport::Exporter& row = by_name[s.exporter];
      ++row.beneficiaries;
      row.hits += s.hits;
      doc->prov_hits += s.hits;
    }
  }
  for (auto& [name, row] : by_name) {
    row.fault = name;
    doc->exporters.push_back(row);
  }
}

/// Fill a RunReport from a flight-recorder log: identity from the header,
/// one attempted per_fault record per fault line, its events after it.
bool parse_events_doc(const std::string& text, const JsonValue& header,
                      RunReport* doc, std::string* error) {
  doc->schema = kEventsSchema;
  doc->circuit = header.str_or("circuit", "?");
  doc->engine = header.str_or("engine", "?");
  doc->seed = header.uint_or("seed", 0);
  doc->total_faults = header.uint_or("faults", 0);

  std::size_t pos = text.find('\n');
  pos = pos == std::string::npos ? text.size() : pos + 1;
  std::size_t line_no = 1;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue v;
    std::string jerr;
    if (!json_parse(line, &v, &jerr)) {
      if (error)
        *error = strprintf("line %zu: %s", line_no, jerr.c_str());
      return false;
    }
    if (v.find("fault") != nullptr) {
      RunReport::PerFault f;
      f.name = v.str_or("fault", "?");
      f.index = static_cast<std::size_t>(v.uint_or("index", 0));
      f.status = v.str_or("status", "?");
      f.attempted = true;
      f.evals = v.uint_or("evals", 0);
      f.backtracks = v.uint_or("backtracks", 0);
      f.effort_invalid_frac = v.num_or("invalid_frac", 0.0);
      doc->per_fault.push_back(std::move(f));
      continue;
    }
    if (v.find("k") == nullptr) continue;  // ignorable extension line
    if (doc->per_fault.empty()) {
      if (error) *error = strprintf("line %zu: event before any fault line",
                                    line_no);
      return false;
    }
    RunReport::Event e;
    parse_event(v, &e);
    RunReport::PerFault& f = doc->per_fault.back();
    if (e.k == "cube_export") ++f.cube_exports;
    // Per-fault source aggregation (by exporter name; the epoch shows in
    // the timeline, the rollup does not need it).
    if ((e.k == "cube_import" || e.k == "learn_hit") && !e.src.empty()) {
      bool found = false;
      for (CubeSource& s : f.cube_sources)
        if (s.exporter == e.src) {
          ++s.hits;
          found = true;
          break;
        }
      if (!found) f.cube_sources.push_back({e.src, 0, 1});
    }
    f.events.push_back(std::move(e));
  }
  for (RunReport::PerFault& f : doc->per_fault)
    std::sort(f.cube_sources.begin(), f.cube_sources.end(),
              [](const CubeSource& x, const CubeSource& y) {
                return x.exporter < y.exporter;
              });
  derive_provenance(doc);
  return true;
}

/// Either artifact: an event log is NDJSON whose first line is its header;
/// anything else must be a report (whose first line alone never parses).
bool parse_doc(const std::string& text, RunReport* doc, std::string* error) {
  std::size_t nl = text.find('\n');
  const std::string first =
      text.substr(0, nl == std::string::npos ? text.size() : nl);
  JsonValue v;
  if (json_parse(first, &v) && v.str_or("schema", "") == kEventsSchema)
    return parse_events_doc(text, v, doc, error);
  if (parse_run_report(text, doc, error)) return true;
  if (error) *error = "not an event log; " + *error;
  return false;
}

// ---- rendering helpers ------------------------------------------------------

std::string doc_kind(const RunReport& doc) {
  return is_event_log(doc) ? "event log" : "report";
}

/// Attempted faults ranked hardest-first: evals desc, invalid fraction
/// desc, name asc. Stable across machines — every key is deterministic.
std::vector<const RunReport::PerFault*> hardest(const RunReport& doc,
                                                std::size_t top) {
  std::vector<const RunReport::PerFault*> ranked;
  for (const RunReport::PerFault& f : doc.per_fault)
    if (f.attempted) ranked.push_back(&f);
  std::sort(ranked.begin(), ranked.end(),
            [](const RunReport::PerFault* x, const RunReport::PerFault* y) {
              if (x->evals != y->evals) return x->evals > y->evals;
              if (x->effort_invalid_frac != y->effort_invalid_frac)
                return x->effort_invalid_frac > y->effort_invalid_frac;
              return x->name < y->name;
            });
  if (ranked.size() > top) ranked.resize(top);
  return ranked;
}

std::string event_detail(const RunReport::Event& e) {
  if (e.k == "window_grow" || e.k == "redundancy_start")
    return strprintf("frames=%lld", static_cast<long long>(e.a));
  if (e.k == "justify_enter")
    return strprintf("depth=%lld cube=%s", static_cast<long long>(e.a),
                     e.cube.c_str());
  if (e.k == "justify_leave")
    return strprintf("depth=%lld outcome=%s", static_cast<long long>(e.a),
                     e.b == 1 ? "ok" : (e.b == 2 ? "invalid" : "fail"));
  if (e.k == "redundancy_verdict")
    return e.b == 1 ? "redundant" : "not-redundant";
  if (e.k == "budget_abort") {
    std::string s =
        strprintf("evals_exhausted=%lld backtracks_exhausted=%lld",
                  static_cast<long long>(e.a), static_cast<long long>(e.b));
    if (e.bytes != 0)
      s += strprintf(" peak_bytes=%s", fmt_u64(e.bytes).c_str());
    return s;
  }
  if (e.k == "restart")
    return strprintf("n=%lld", static_cast<long long>(e.a));
  if (e.k == "db_reduce") {
    std::string s = strprintf("killed=%lld live=%lld lbd=[",
                              static_cast<long long>(e.a),
                              static_cast<long long>(e.b));
    for (std::size_t i = 0; i < e.lbd.size(); ++i)
      s += (i == 0 ? "" : " ") + fmt_u64(e.lbd[i]);
    s += "]";
    if (e.bytes != 0)
      s += strprintf(" reclaimed=%s", fmt_u64(e.bytes).c_str());
    return s;
  }
  if (e.k == "cube_export") return strprintf("cube=%s", e.cube.c_str());
  if (e.k == "cube_import")
    return strprintf("src=%s epoch=%lld cube=%s", e.src.c_str(),
                     static_cast<long long>(e.a), e.cube.c_str());
  if (e.k == "learn_hit")
    return strprintf("depth=%lld %s%s%s", static_cast<long long>(e.a),
                     e.b == 1 ? "ok" : "fail",
                     e.src.empty() ? "" : " src=", e.src.c_str());
  return "";
}

std::string event_json(const RunReport::Event& e) {
  std::string s = strprintf("{\"k\": \"%s\", \"at\": %s",
                            json_escape(e.k).c_str(), fmt_u64(e.at).c_str());
  if (e.a != 0) s += strprintf(", \"a\": %lld", static_cast<long long>(e.a));
  if (e.b != 0) s += strprintf(", \"b\": %lld", static_cast<long long>(e.b));
  if (e.bytes != 0) s += ", \"bytes\": " + fmt_u64(e.bytes);
  if (!e.cube.empty())
    s += ", \"cube\": \"" + json_escape(e.cube) + "\"";
  if (!e.src.empty()) s += ", \"src\": \"" + json_escape(e.src) + "\"";
  if (!e.lbd.empty()) {
    s += ", \"lbd\": [";
    for (std::size_t i = 0; i < e.lbd.size(); ++i)
      s += (i == 0 ? "" : ", ") + fmt_u64(e.lbd[i]);
    s += "]";
  }
  return s + "}";
}

const RunReport::PerFault* find_fault(const RunReport& doc,
                                      const std::string& spec) {
  const bool numeric =
      !spec.empty() &&
      std::all_of(spec.begin(), spec.end(),
                  [](unsigned char c) { return std::isdigit(c); });
  for (const RunReport::PerFault& f : doc.per_fault) {
    if (f.name == spec) return &f;
    if (numeric && f.index == static_cast<std::size_t>(std::stoull(spec)))
      return &f;
  }
  return nullptr;
}

void render_overview_txt(std::ostream& os, const RunReport& doc,
                         const InspectOptions& opts) {
  std::size_t attempted = 0;
  for (const RunReport::PerFault& f : doc.per_fault)
    if (f.attempted) ++attempted;
  os << "=== inspect: " << doc.circuit << " (" << doc.engine << ", seed "
     << doc.seed << ") — " << doc_kind(doc) << " " << doc.schema << " ===\n";
  os << "faults: " << doc.total_faults << " total, " << attempted
     << " attempted\n\n";

  const auto ranked = hardest(doc, opts.top);
  os << "hardest faults (top " << ranked.size() << " by evals):\n";
  Table t(is_event_log(doc)
              ? std::vector<std::string>{"rank", "fault", "status", "evals",
                                         "backtracks", "inv_frac", "events"}
              : std::vector<std::string>{"rank", "fault", "status", "evals",
                                         "backtracks", "inv_frac"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const RunReport::PerFault& f = *ranked[i];
    std::vector<std::string> row{strprintf("%zu", i + 1), f.name, f.status,
                                 fmt_u64(f.evals), fmt_u64(f.backtracks),
                                 strprintf("%.4f", f.effort_invalid_frac)};
    if (is_event_log(doc)) row.push_back(strprintf("%zu", f.events.size()));
    t.add_row(std::move(row));
  }
  os << t.to_string() << "\n";

  os << "cube provenance: " << doc.prov_exports << " exports, "
     << doc.prov_hits << " import hits\n";
  if (!doc.exporters.empty()) {
    Table p({"exporter", "cubes", "beneficiaries", "hits"});
    for (const RunReport::Exporter& e : doc.exporters)
      p.add_row({e.fault.empty() ? "(unknown)" : e.fault, fmt_u64(e.cubes),
                 fmt_u64(e.beneficiaries), fmt_u64(e.hits)});
    os << p.to_string();
  }
}

void render_overview_json(std::ostream& os, const RunReport& doc,
                          const InspectOptions& opts) {
  std::size_t attempted = 0;
  for (const RunReport::PerFault& f : doc.per_fault)
    if (f.attempted) ++attempted;
  os << "{\n  \"schema\": \"satpg.inspect.v1\",\n";
  os << "  \"source\": {\"kind\": \""
     << (is_event_log(doc) ? "events" : "report")
     << "\", \"schema\": \"" << json_escape(doc.schema) << "\", \"circuit\": \""
     << json_escape(doc.circuit) << "\", \"engine\": \""
     << json_escape(doc.engine) << "\", \"seed\": " << doc.seed << "},\n";
  os << "  \"faults\": " << doc.total_faults << ", \"attempted\": "
     << attempted << ",\n";
  os << "  \"hardest\": [";
  const auto ranked = hardest(doc, opts.top);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const RunReport::PerFault& f = *ranked[i];
    os << (i == 0 ? "\n    " : ",\n    ") << "{\"fault\": \""
       << json_escape(f.name) << "\", \"status\": \""
       << json_escape(f.status) << "\", \"evals\": " << f.evals
       << ", \"backtracks\": " << f.backtracks << ", \"invalid_frac\": "
       << strprintf("%.17g", f.effort_invalid_frac)
       << ", \"events\": " << f.events.size() << "}";
  }
  os << "],\n";
  os << "  \"provenance\": {\"exports\": " << doc.prov_exports
     << ", \"import_hits\": " << doc.prov_hits << ", \"exporters\": [";
  for (std::size_t i = 0; i < doc.exporters.size(); ++i) {
    const RunReport::Exporter& e = doc.exporters[i];
    os << (i == 0 ? "\n    " : ",\n    ") << "{\"fault\": \""
       << json_escape(e.fault) << "\", \"cubes\": " << e.cubes
       << ", \"beneficiaries\": " << e.beneficiaries << ", \"hits\": "
       << e.hits << "}";
  }
  os << "]}\n}\n";
}

/// Attempted faults ranked by per-attempt peak bytes desc, evals desc,
/// name asc — the memory view's analogue of hardest().
std::vector<const RunReport::PerFault*> hungriest(const RunReport& doc,
                                                  std::size_t top) {
  std::vector<const RunReport::PerFault*> ranked;
  for (const RunReport::PerFault& f : doc.per_fault)
    if (f.attempted) ranked.push_back(&f);
  std::sort(ranked.begin(), ranked.end(),
            [](const RunReport::PerFault* x, const RunReport::PerFault* y) {
              if (x->peak_bytes != y->peak_bytes)
                return x->peak_bytes > y->peak_bytes;
              if (x->evals != y->evals) return x->evals > y->evals;
              return x->name < y->name;
            });
  if (ranked.size() > top) ranked.resize(top);
  return ranked;
}

void render_memory_txt(std::ostream& os, const RunReport& doc,
                       const InspectOptions& opts) {
  os << "=== memory: " << doc.circuit << " (" << doc.engine << ", seed "
     << doc.seed << ") — " << doc.schema << " ===\n";
  os << "subsystems (logical bytes):\n";
  Table t({"subsystem", "live", "peak", "allocated", "allocs"});
  for (const RunReport::MemRow& r : doc.memory)
    t.add_row({r.name, fmt_u64(r.live), fmt_u64(r.peak),
               fmt_u64(r.allocated), fmt_u64(r.allocs)});
  t.add_row({"total", fmt_u64(doc.mem_live_bytes),
             fmt_u64(doc.mem_peak_bytes),
             fmt_u64(doc.mem_allocated_bytes), ""});
  os << t.to_string() << "\n";

  if (!doc.mem_verdict.empty()) {
    os << "budget: ";
    if (doc.mem_budget == 0)
      os << "off";
    else
      os << doc.mem_budget << " bytes per attempt, " << doc.mem_tripped
         << " tripped, " << doc.mem_requeued << " requeued";
    os << " (verdict: " << doc.mem_verdict << ")\n\n";
  }

  const auto ranked = hungriest(doc, opts.top);
  os << "hungriest faults (top " << ranked.size() << " by peak bytes):\n";
  Table h({"rank", "fault", "status", "peak_bytes", "evals"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const RunReport::PerFault& f = *ranked[i];
    h.add_row({strprintf("%zu", i + 1), f.name, f.status,
               fmt_u64(f.peak_bytes), fmt_u64(f.evals)});
  }
  os << h.to_string();
}

void render_memory_json(std::ostream& os, const RunReport& doc,
                        const InspectOptions& opts) {
  os << "{\n  \"schema\": \"satpg.inspect_memory.v1\",\n";
  os << "  \"source\": {\"schema\": \"" << json_escape(doc.schema)
     << "\", \"circuit\": \"" << json_escape(doc.circuit)
     << "\", \"engine\": \"" << json_escape(doc.engine)
     << "\", \"seed\": " << doc.seed << "},\n";
  os << "  \"subsystems\": {";
  for (std::size_t i = 0; i < doc.memory.size(); ++i) {
    const RunReport::MemRow& r = doc.memory[i];
    os << (i == 0 ? "\n    " : ",\n    ") << "\"" << json_escape(r.name)
       << "\": {\"live\": " << r.live << ", \"peak\": " << r.peak
       << ", \"allocated\": " << r.allocated << ", \"allocs\": " << r.allocs
       << "}";
  }
  os << "\n  },\n";
  os << "  \"total\": {\"live\": " << doc.mem_live_bytes
     << ", \"peak\": " << doc.mem_peak_bytes
     << ", \"allocated\": " << doc.mem_allocated_bytes << "},\n";
  os << "  \"budget\": {\"bytes\": " << doc.mem_budget
     << ", \"tripped\": " << doc.mem_tripped
     << ", \"requeued\": " << doc.mem_requeued << ", \"verdict\": \""
     << json_escape(doc.mem_verdict) << "\"},\n";
  os << "  \"hungriest\": [";
  const auto ranked = hungriest(doc, opts.top);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const RunReport::PerFault& f = *ranked[i];
    os << (i == 0 ? "\n    " : ",\n    ") << "{\"fault\": \""
       << json_escape(f.name) << "\", \"status\": \""
       << json_escape(f.status) << "\", \"peak_bytes\": " << f.peak_bytes
       << ", \"evals\": " << f.evals << "}";
  }
  os << "]\n}\n";
}

// ---- profile sidecar view ---------------------------------------------------

/// One phase row of a satpg.profile.* sidecar.
struct ProfRow {
  std::string name;
  std::string subsystem;
  std::uint64_t calls = 0;
  std::uint64_t task_ns = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_refs = 0;
  std::uint64_t cache_misses = 0;
};

/// A parsed satpg.profile.* sidecar, plus the same configuration string
/// the archive digests — the join key for the trend view.
struct ProfDoc {
  std::string schema;
  std::string tool;
  std::string circuit;
  std::string engine;
  std::string backend;
  std::string host_cpu;
  std::string config;  ///< archive identity string (pre-digest)
  double wall_seconds = 0.0;
  std::uint64_t evals = 0;
  std::uint64_t patterns = 0;
  std::vector<ProfRow> phases;  ///< writer's sorted-name order
  ProfRow total;
  /// Derived rates, in writer order (cycles_per_eval, evals_per_second, …).
  std::vector<std::pair<std::string, double>> derived;
};

void parse_prof_row(const JsonValue& v, ProfRow* r) {
  r->calls = v.uint_or("calls", 0);
  r->task_ns = v.uint_or("task_clock_ns", 0);
  r->cycles = v.uint_or("cycles", 0);
  r->instructions = v.uint_or("instructions", 0);
  r->cache_refs = v.uint_or("cache_references", 0);
  r->cache_misses = v.uint_or("cache_misses", 0);
}

bool parse_profile_doc(const JsonValue& root, ProfDoc* doc,
                       std::string* error) {
  doc->schema = root.str_or("schema", "?");
  if (doc->schema.rfind("satpg.profile.", 0) != 0) {
    if (error)
      *error = "not a profile sidecar (schema \"" + doc->schema +
               "\"; need --profile-json output)";
    return false;
  }
  doc->tool = root.str_or("tool", "?");
  if (const JsonValue* c = root.find("circuit"))
    doc->circuit = c->str_or("name", "?");
  if (const JsonValue* e = root.find("engine"))
    doc->engine = e->str_or("kind", "?");
  doc->backend = root.str_or("backend", "?");
  doc->host_cpu = root.str_or("host_cpu", "");
  doc->config = archive_config(root);
  doc->wall_seconds = root.num_or("wall_seconds", 0.0);
  if (const JsonValue* w = root.find("work")) {
    doc->evals = w->uint_or("evals", 0);
    doc->patterns = w->uint_or("patterns", 0);
  }
  if (const JsonValue* ph = root.find("phases"); ph && ph->is_object())
    for (const auto& [name, v] : ph->members()) {
      ProfRow r;
      r.name = name;
      r.subsystem = v.str_or("subsystem", "?");
      parse_prof_row(v, &r);
      doc->phases.push_back(std::move(r));
    }
  if (const JsonValue* tot = root.find("total"))
    parse_prof_row(*tot, &doc->total);
  if (const JsonValue* d = root.find("derived"); d && d->is_object())
    for (const auto& [name, v] : d->members())
      if (v.is_number()) doc->derived.emplace_back(name, v.number());
  return true;
}

/// Phases ranked costliest-first: task-clock desc (the counter both
/// backends drive), then name asc. Zero-call phases are dropped.
std::vector<const ProfRow*> ranked_phases(const ProfDoc& doc) {
  std::vector<const ProfRow*> ranked;
  for (const ProfRow& r : doc.phases)
    if (r.calls > 0) ranked.push_back(&r);
  std::sort(ranked.begin(), ranked.end(),
            [](const ProfRow* x, const ProfRow* y) {
              if (x->task_ns != y->task_ns) return x->task_ns > y->task_ns;
              return x->name < y->name;
            });
  return ranked;
}

std::string pct_of(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return strprintf("%.1f",
                   100.0 * static_cast<double>(part) /
                       static_cast<double>(whole));
}

void render_profile_txt(std::ostream& os, const ProfDoc& doc) {
  os << "=== profile: " << doc.circuit << " (" << doc.engine << ", "
     << doc.tool << ") — " << doc.schema << " ===\n";
  os << "backend: " << doc.backend << ", wall: "
     << strprintf("%.6g", doc.wall_seconds) << " s, work: " << doc.evals
     << " evals, " << doc.patterns << " patterns\n\n";

  const auto ranked = ranked_phases(doc);
  os << "phases (by task-clock):\n";
  Table t({"rank", "phase", "subsystem", "calls", "task_ms", "task %",
           "cycles", "ipc", "miss %"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const ProfRow& r = *ranked[i];
    t.add_row({strprintf("%zu", i + 1), r.name, r.subsystem,
               fmt_u64(r.calls),
               strprintf("%.3f", static_cast<double>(r.task_ns) / 1e6),
               pct_of(r.task_ns, doc.total.task_ns),
               r.cycles == 0 ? "-" : fmt_u64(r.cycles),
               r.cycles == 0 || r.instructions == 0
                   ? "-"
                   : strprintf("%.2f", static_cast<double>(r.instructions) /
                                           static_cast<double>(r.cycles)),
               r.cache_refs == 0 ? "-"
                                 : pct_of(r.cache_misses, r.cache_refs)});
  }
  os << t.to_string() << "\n";

  os << "total: " << doc.total.calls << " spans, "
     << strprintf("%.3f", static_cast<double>(doc.total.task_ns) / 1e6)
     << " ms task-clock";
  if (doc.total.cycles > 0) os << ", " << doc.total.cycles << " cycles";
  os << "\n";
  if (!doc.derived.empty()) {
    os << "derived:\n";
    Table d({"rate", "value"});
    for (const auto& [name, value] : doc.derived)
      d.add_row({name, strprintf("%.6g", value)});
    os << d.to_string();
  }
}

void render_profile_json(std::ostream& os, const ProfDoc& doc) {
  os << "{\n  \"schema\": \"satpg.inspect_profile.v1\",\n";
  os << "  \"source\": {\"schema\": \"" << json_escape(doc.schema)
     << "\", \"tool\": \"" << json_escape(doc.tool) << "\", \"circuit\": \""
     << json_escape(doc.circuit) << "\", \"engine\": \""
     << json_escape(doc.engine) << "\"},\n";
  os << "  \"backend\": \"" << json_escape(doc.backend) << "\",\n";
  os << "  \"wall_seconds\": " << strprintf("%.6g", doc.wall_seconds)
     << ",\n";
  os << "  \"work\": {\"evals\": " << doc.evals << ", \"patterns\": "
     << doc.patterns << "},\n";
  os << "  \"phases\": [";
  const auto ranked = ranked_phases(doc);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const ProfRow& r = *ranked[i];
    os << (i == 0 ? "\n    " : ",\n    ") << "{\"phase\": \""
       << json_escape(r.name) << "\", \"subsystem\": \""
       << json_escape(r.subsystem) << "\", \"calls\": " << r.calls
       << ", \"task_clock_ns\": " << r.task_ns << ", \"cycles\": "
       << r.cycles << ", \"instructions\": " << r.instructions << "}";
  }
  os << "],\n";
  os << "  \"total\": {\"calls\": " << doc.total.calls
     << ", \"task_clock_ns\": " << doc.total.task_ns << ", \"cycles\": "
     << doc.total.cycles << "},\n";
  os << "  \"derived\": {";
  for (std::size_t i = 0; i < doc.derived.size(); ++i)
    os << (i == 0 ? "" : ", ") << "\"" << json_escape(doc.derived[i].first)
       << "\": " << strprintf("%.6g", doc.derived[i].second);
  os << "}\n}\n";
}

void render_fault_txt(std::ostream& os, const RunReport& doc,
                      const RunReport::PerFault& f) {
  os << "=== fault " << f.name << " (index " << f.index << ") — "
     << doc.circuit << " (" << doc.engine << ") ===\n";
  os << "status: " << f.status << ", evals: " << f.evals << ", backtracks: "
     << f.backtracks << ", invalid_frac: "
     << strprintf("%.4f", f.effort_invalid_frac) << "\n";
  if (!f.cube_sources.empty()) {
    os << "cube sources:\n";
    Table s(is_event_log(doc)
                ? std::vector<std::string>{"from", "hits"}
                : std::vector<std::string>{"from", "epoch", "hits"});
    for (const CubeSource& src : f.cube_sources) {
      std::vector<std::string> row{src.exporter.empty() ? "(unknown)"
                                                        : src.exporter};
      if (!is_event_log(doc)) row.push_back(fmt_u64(src.epoch));
      row.push_back(fmt_u64(src.hits));
      s.add_row(std::move(row));
    }
    os << s.to_string();
  }
  if (is_event_log(doc)) {
    os << "timeline (" << f.events.size() << " events, at = budget evals):\n";
    Table t({"at", "event", "detail"});
    for (const RunReport::Event& e : f.events)
      t.add_row({fmt_u64(e.at), e.k, event_detail(e)});
    os << t.to_string();
  } else if (f.cube_sources.empty()) {
    os << "(report record only — run with --events-json for a timeline)\n";
  }
}

void render_fault_json(std::ostream& os, const RunReport::PerFault& f) {
  os << "{\n  \"schema\": \"satpg.inspect.v1\",\n";
  os << "  \"fault\": {\"name\": \"" << json_escape(f.name)
     << "\", \"index\": " << f.index << ", \"status\": \""
     << json_escape(f.status) << "\", \"evals\": " << f.evals
     << ", \"backtracks\": " << f.backtracks << ", \"invalid_frac\": "
     << strprintf("%.17g", f.effort_invalid_frac) << "},\n";
  os << "  \"cube_sources\": [";
  for (std::size_t i = 0; i < f.cube_sources.size(); ++i)
    os << (i == 0 ? "" : ", ") << "{\"from\": \""
       << json_escape(f.cube_sources[i].exporter) << "\", \"epoch\": "
       << f.cube_sources[i].epoch << ", \"hits\": " << f.cube_sources[i].hits
       << "}";
  os << "],\n  \"events\": [";
  for (std::size_t i = 0; i < f.events.size(); ++i)
    os << (i == 0 ? "\n    " : ",\n    ") << event_json(f.events[i]);
  os << "]\n}\n";
}

}  // namespace

bool inspect_source(std::ostream& os, const std::string& text,
                    const InspectOptions& opts, std::string* error) {
  if (opts.profile) {
    JsonValue root;
    std::string jerr;
    if (!json_parse(text, &root, &jerr)) {
      if (error) *error = jerr;
      return false;
    }
    ProfDoc doc;
    if (!parse_profile_doc(root, &doc, error)) return false;
    if (opts.json)
      render_profile_json(os, doc);
    else
      render_profile_txt(os, doc);
    return true;
  }
  RunReport doc;
  if (!parse_doc(text, &doc, error)) return false;
  if (opts.memory) {
    if (!doc.has_memory) {
      if (error)
        *error = is_event_log(doc)
                     ? "event logs carry no memory block; inspect a " +
                           std::string(kAtpgRunSchema) + " report"
                     : std::string("report has no memory block");
      return false;
    }
    if (opts.json)
      render_memory_json(os, doc, opts);
    else
      render_memory_txt(os, doc, opts);
    return true;
  }
  if (!opts.fault.empty()) {
    const RunReport::PerFault* f = find_fault(doc, opts.fault);
    if (f == nullptr) {
      if (error)
        *error = "fault \"" + opts.fault + "\" not found" +
                 (is_event_log(doc)
                      ? " (event logs record attempted faults only)"
                      : "");
      return false;
    }
    if (opts.json)
      render_fault_json(os, *f);
    else
      render_fault_txt(os, doc, *f);
    return true;
  }
  if (opts.json)
    render_overview_json(os, doc, opts);
  else
    render_overview_txt(os, doc, opts);
  return true;
}

bool inspect_trend(std::ostream& os, const std::vector<TrendEntry>& entries,
                   const InspectOptions& opts, std::string* error) {
  struct TrendRow {
    std::string hash;
    RunReport report;
    std::string config;
    const ProfDoc* profile = nullptr;  ///< joined sidecar, if any
  };

  // Pass 1: parse everything; last profile per configuration wins, so a
  // re-profiled run supersedes its older sidecar no matter where the
  // report sits in append order.
  std::vector<TrendRow> rows;
  std::map<std::string, ProfDoc> profiles;
  for (const TrendEntry& entry : entries) {
    JsonValue root;
    std::string jerr;
    if (!json_parse(entry.text, &root, &jerr)) {
      if (error) *error = "entry " + entry.hash + ": " + jerr;
      return false;
    }
    const std::string schema = root.str_or("schema", "");
    if (schema.rfind("satpg.profile.", 0) == 0) {
      ProfDoc p;
      if (!parse_profile_doc(root, &p, error)) return false;
      profiles[p.config] = std::move(p);
      continue;
    }
    TrendRow row;
    row.hash = entry.hash;
    row.config = archive_config(root);
    if (!parse_run_report(entry.text, &row.report, error)) {
      if (error) *error = "entry " + entry.hash + ": " + *error;
      return false;
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    if (error)
      *error = strprintf("no atpg_run reports among %zu archived documents",
                         entries.size());
    return false;
  }
  for (TrendRow& row : rows) {
    const auto it = profiles.find(row.config);
    if (it != profiles.end()) row.profile = &it->second;
  }

  // Joined rates come off the profile's derived block; "-" when no
  // sidecar matched or the backend could not drive the counter.
  const auto derived_of = [](const ProfDoc* p,
                             const char* key) -> std::string {
    if (p == nullptr) return "-";
    for (const auto& [name, value] : p->derived)
      if (name == key) return strprintf("%.6g", value);
    return "-";
  };

  if (opts.json) {
    os << "{\n  \"schema\": \"satpg.inspect_trend.v1\",\n";
    os << "  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const TrendRow& r = rows[i];
      os << (i == 0 ? "\n    " : ",\n    ") << "{\"hash\": \""
         << json_escape(r.hash) << "\", \"circuit\": \""
         << json_escape(r.report.circuit) << "\", \"engine\": \""
         << json_escape(r.report.engine) << "\", \"coverage\": "
         << strprintf("%.17g", r.report.fault_coverage)
         << ", \"evals\": " << r.report.evals << ", \"peak_bytes\": "
         << r.report.mem_peak_bytes;
      if (r.profile == nullptr) {
        os << ", \"profile\": null}";
      } else {
        os << ", \"profile\": {\"backend\": \""
           << json_escape(r.profile->backend)
           << "\", \"wall_seconds\": "
           << strprintf("%.6g", r.profile->wall_seconds);
        for (const char* key : {"evals_per_second", "cycles_per_eval"}) {
          const std::string v = derived_of(r.profile, key);
          if (v != "-") os << ", \"" << key << "\": " << v;
        }
        os << "}}";
      }
    }
    os << "\n  ]\n}\n";
    return true;
  }

  os << "=== trend: " << rows.size() << " archived run"
     << (rows.size() == 1 ? "" : "s") << ", " << profiles.size()
     << " profile sidecar" << (profiles.size() == 1 ? "" : "s")
     << " ===\n";
  Table t({"run", "hash", "circuit", "engine", "coverage %", "evals",
           "peak_bytes", "evals/s", "cycles/eval"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrendRow& r = rows[i];
    t.add_row({strprintf("%zu", i + 1), r.hash.substr(0, 12),
               r.report.circuit, r.report.engine,
               strprintf("%.2f", r.report.fault_coverage),
               fmt_u64(r.report.evals),
               r.report.has_memory ? fmt_u64(r.report.mem_peak_bytes) : "-",
               derived_of(r.profile, "evals_per_second"),
               derived_of(r.profile, "cycles_per_eval")});
  }
  os << t.to_string();
  return true;
}

}  // namespace satpg
