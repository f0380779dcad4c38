#include "harness/diff.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "base/json.h"
#include "base/strutil.h"
#include "base/table.h"
#include "harness/report.h"

namespace satpg {

namespace {

double ratio_of(std::uint64_t b, std::uint64_t a) {
  if (a == 0) return b == 0 ? 1.0 : 0.0;
  return static_cast<double>(b) / static_cast<double>(a);
}

std::string fmt_frac(double v) { return strprintf("%.4f", v); }
std::string fmt_pct(double v) { return strprintf("%.2f", v); }
std::string fmt_ratio(double v) { return strprintf("%.3fx", v); }
std::string fmt_delta_pts(double v) { return strprintf("%+.2f", v); }

}  // namespace

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
  if (const JsonValue* mem = root.find("memory"))
    if (const JsonValue* tot = mem->find("total")) {
      r.mem_peak_bytes = tot->uint_or("peak", 0);
      r.mem_allocated_bytes = tot->uint_or("allocated", 0);
    }
  const JsonValue* s = root.find("summary");
  if (s == nullptr || !s->is_object()) {
    if (error) *error = "report lacks a summary object";
    return false;
  }
  r.fault_coverage = s->num_or("fault_coverage", 0.0);
  r.fault_efficiency = s->num_or("fault_efficiency", 0.0);
  r.evals = s->uint_or("evals", 0);
  r.backtracks = s->uint_or("backtracks", 0);
  r.justify_calls = s->uint_or("justify_calls", 0);
  r.justify_failures = s->uint_or("justify_failures", 0);
  r.effort_invalid_frac = s->num_or("effort_invalid_frac", 0.0);

  if (const JsonValue* pf = root.find("per_fault"); pf && pf->is_array()) {
    r.per_fault.reserve(pf->array().size());
    for (const JsonValue& f : pf->array()) {
      if (!f.is_object()) continue;
      RunReport::PerFault rec;
      rec.name = f.str_or("fault", "?");
      rec.status = f.str_or("status", "?");
      rec.attempted = f.bool_or("attempted", false);
      rec.evals = f.uint_or("evals", 0);
      rec.backtracks = f.uint_or("backtracks", 0);
      rec.justify_failures = f.uint_or("justify_failures", 0);
      rec.effort_invalid_frac = f.num_or("effort_invalid_frac", 0.0);
      r.per_fault.push_back(std::move(rec));
    }
  }
  *out = std::move(r);
  return true;
}

RunDiff diff_runs(const RunReport& a, const RunReport& b,
                  const DiffOptions& opts) {
  RunDiff d;
  d.coverage_delta = b.fault_coverage - a.fault_coverage;
  d.efficiency_delta = b.fault_efficiency - a.fault_efficiency;
  d.evals_ratio = ratio_of(b.evals, a.evals);
  d.backtracks_ratio = ratio_of(b.backtracks, a.backtracks);
  d.invalid_frac_delta = b.effort_invalid_frac - a.effort_invalid_frac;

  // Per-fault join on fault name. std::map keeps the iteration (and with
  // it every output row) in a fixed order independent of input order.
  std::map<std::string, const RunReport::PerFault*> by_name_a;
  for (const auto& f : a.per_fault) by_name_a.emplace(f.name, &f);

  std::vector<RunDiff::FaultDelta> grew;
  for (const auto& fb : b.per_fault) {
    const auto it = by_name_a.find(fb.name);
    if (it == by_name_a.end()) continue;
    const RunReport::PerFault& fa = *it->second;
    RunDiff::FaultDelta fd;
    fd.name = fb.name;
    fd.status_a = fa.status;
    fd.status_b = fb.status;
    fd.evals_delta = static_cast<std::int64_t>(fb.evals) -
                     static_cast<std::int64_t>(fa.evals);
    fd.invalid_frac_a = fa.effort_invalid_frac;
    fd.invalid_frac_b = fb.effort_invalid_frac;
    if (fd.evals_delta > 0) grew.push_back(fd);
    if (fa.status != fb.status) d.status_changes.push_back(fd);
  }
  std::sort(grew.begin(), grew.end(),
            [](const RunDiff::FaultDelta& x, const RunDiff::FaultDelta& y) {
              if (x.evals_delta != y.evals_delta)
                return x.evals_delta > y.evals_delta;
              return x.name < y.name;
            });
  if (grew.size() > opts.top_regressions) grew.resize(opts.top_regressions);
  d.regressions = std::move(grew);

  const std::size_t bins = std::max<std::size_t>(1, opts.scatter_bins);
  d.scatter_a.assign(bins, 0);
  d.scatter_b.assign(bins, 0);
  const auto fill = [bins](const RunReport& r, std::vector<std::uint64_t>& s,
                           std::uint64_t& attempted) {
    for (const auto& f : r.per_fault) {
      if (!f.attempted) continue;
      ++attempted;
      std::size_t bin = static_cast<std::size_t>(
          f.effort_invalid_frac * static_cast<double>(bins));
      if (bin >= bins) bin = bins - 1;  // frac == 1.0 lands in the last bin
      ++s[bin];
    }
  };
  fill(a, d.scatter_a, d.attempted_a);
  fill(b, d.scatter_b, d.attempted_b);
  return d;
}

void write_run_diff(std::ostream& os, const RunReport& a, const RunReport& b,
                    const RunDiff& d) {
  os << "=== run diff: " << a.circuit << " (" << a.engine << ") -> "
     << b.circuit << " (" << b.engine << ") ===\n";

  Table summary({"metric", "baseline", "candidate", "delta"});
  summary.add_row({"fault_coverage %", fmt_pct(a.fault_coverage),
                   fmt_pct(b.fault_coverage),
                   fmt_delta_pts(d.coverage_delta)});
  summary.add_row({"fault_efficiency %", fmt_pct(a.fault_efficiency),
                   fmt_pct(b.fault_efficiency),
                   fmt_delta_pts(d.efficiency_delta)});
  summary.add_row({"evals", strprintf("%llu",
                                      static_cast<unsigned long long>(a.evals)),
                   strprintf("%llu", static_cast<unsigned long long>(b.evals)),
                   fmt_ratio(d.evals_ratio)});
  summary.add_row(
      {"backtracks",
       strprintf("%llu", static_cast<unsigned long long>(a.backtracks)),
       strprintf("%llu", static_cast<unsigned long long>(b.backtracks)),
       fmt_ratio(d.backtracks_ratio)});
  summary.add_row({"justify_failures",
                   strprintf("%llu", static_cast<unsigned long long>(
                                         a.justify_failures)),
                   strprintf("%llu", static_cast<unsigned long long>(
                                         b.justify_failures)),
                   fmt_ratio(ratio_of(b.justify_failures,
                                      a.justify_failures))});
  summary.add_row({"effort_invalid_frac", fmt_frac(a.effort_invalid_frac),
                   fmt_frac(b.effort_invalid_frac),
                   strprintf("%+.4f", d.invalid_frac_delta)});
  summary.add_row({"oracle",
                   a.oracle_mode.empty() ? "-" : a.oracle_mode,
                   b.oracle_mode.empty() ? "-" : b.oracle_mode, "-"});
  summary.add_row({"density",
                   a.density < 0 ? "-" : format_density(a.density),
                   b.density < 0 ? "-" : format_density(b.density), "-"});
  summary.add_row({"peak mem bytes",
                   strprintf("%llu", static_cast<unsigned long long>(
                                         a.mem_peak_bytes)),
                   strprintf("%llu", static_cast<unsigned long long>(
                                         b.mem_peak_bytes)),
                   fmt_ratio(ratio_of(b.mem_peak_bytes, a.mem_peak_bytes))});
  os << summary.to_string() << "\n";

  // Build provenance: performance-level comparisons across differing
  // builds are apples to oranges — say so instead of leaving it implicit.
  if (!a.build_line.empty() || !b.build_line.empty()) {
    Table build({"build", ""});
    build.add_row({"baseline", a.build_line.empty() ? "-" : a.build_line});
    build.add_row({"candidate", b.build_line.empty() ? "-" : b.build_line});
    os << build.to_string();
    if (a.build_line != b.build_line)
      os << "NOTE: build_info differs — effort/memory deltas may reflect "
            "the build, not the change\n";
    os << "\n";
  }

  if (!d.regressions.empty()) {
    os << "top effort regressions (evals, baseline -> candidate):\n";
    Table reg({"fault", "d_evals", "status", "inv_frac a", "inv_frac b"});
    for (const auto& f : d.regressions)
      reg.add_row({f.name,
                   strprintf("%+lld", static_cast<long long>(f.evals_delta)),
                   f.status_a == f.status_b ? f.status_a
                                            : f.status_a + "->" + f.status_b,
                   fmt_frac(f.invalid_frac_a), fmt_frac(f.invalid_frac_b)});
    os << reg.to_string() << "\n";
  }

  if (!d.status_changes.empty()) {
    os << "status changes:\n";
    Table st({"fault", "baseline", "candidate"});
    for (const auto& f : d.status_changes)
      st.add_row({f.name, f.status_a, f.status_b});
    os << st.to_string() << "\n";
  }

  // The Figure-3 scatter: how much of each attempted fault's effort went
  // to provably-invalid state cubes, baseline vs candidate.
  const std::size_t bins = d.scatter_a.size();
  os << "effort_invalid_frac scatter (" << d.attempted_a
     << " vs " << d.attempted_b << " attempted faults):\n";
  Table scatter({"bin", "baseline", "candidate"});
  for (std::size_t i = 0; i < bins; ++i) {
    const double lo = static_cast<double>(i) / static_cast<double>(bins);
    const double hi =
        static_cast<double>(i + 1) / static_cast<double>(bins);
    scatter.add_row({strprintf("[%.1f,%.1f)", lo, hi),
                     strprintf("%llu", static_cast<unsigned long long>(
                                           d.scatter_a[i])),
                     strprintf("%llu", static_cast<unsigned long long>(
                                           d.scatter_b[i]))});
  }
  os << scatter.to_string();
}

GateResult evaluate_gate(const RunReport& baseline,
                         const RunReport& candidate,
                         const GateOptions& opts) {
  GateResult res;
  const double drop = baseline.fault_coverage - candidate.fault_coverage;
  if (drop > opts.max_coverage_drop) {
    res.pass = false;
    res.violations.push_back(strprintf(
        "fault coverage dropped %.2f points (%.2f -> %.2f), allowed %.2f",
        drop, baseline.fault_coverage, candidate.fault_coverage,
        opts.max_coverage_drop));
  }
  const double ratio = ratio_of(candidate.evals, baseline.evals);
  if (ratio > opts.max_effort_ratio) {
    res.pass = false;
    res.violations.push_back(strprintf(
        "effort grew %.3fx (%llu -> %llu evals), allowed %.3fx", ratio,
        static_cast<unsigned long long>(baseline.evals),
        static_cast<unsigned long long>(candidate.evals),
        opts.max_effort_ratio));
  }
  return res;
}

}  // namespace satpg
