#include "harness/diff.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <ostream>

#include "base/strutil.h"
#include "base/table.h"

namespace satpg {

namespace {

/// Fault-efficiency thresholds the milestone table reports.
constexpr double kFeMilestones[] = {25.0, 50.0, 75.0, 90.0, 95.0};

double ratio_of(std::uint64_t b, std::uint64_t a) {
  if (a == 0)
    return b == 0 ? 1.0 : std::numeric_limits<double>::infinity();
  return static_cast<double>(b) / static_cast<double>(a);
}

std::string fmt_u64(std::uint64_t v) {
  return strprintf("%llu", static_cast<unsigned long long>(v));
}
std::string fmt_frac(double v) { return strprintf("%.4f", v); }
std::string fmt_pct(double v) { return strprintf("%.2f", v); }
std::string fmt_ratio(double v) {
  return std::isinf(v) ? "inf" : strprintf("%.3fx", v);
}
std::string fmt_delta_pts(double v) { return strprintf("%+.2f", v); }

std::int64_t evals_to_reach(const RunReport& r, double fe_pct) {
  for (const auto& [evals, fe] : r.fe_trace)
    if (fe >= fe_pct) return static_cast<std::int64_t>(evals);
  return -1;
}

}  // namespace

RunDiff diff_runs(const RunReport& a, const RunReport& b,
                  const DiffOptions& opts) {
  RunDiff d;
  d.coverage_delta = b.fault_coverage - a.fault_coverage;
  d.efficiency_delta = b.fault_efficiency - a.fault_efficiency;
  d.evals_ratio = ratio_of(b.evals, a.evals);
  d.backtracks_ratio = ratio_of(b.backtracks, a.backtracks);
  d.invalid_frac_delta = b.effort_invalid_frac - a.effort_invalid_frac;

  for (const double fe : kFeMilestones)
    d.milestones.push_back({fe, evals_to_reach(a, fe), evals_to_reach(b, fe)});

  // Per-fault join on fault name; the sort fixes every output row's order
  // independent of input order.
  std::map<std::string, const RunReport::PerFault*> by_name_a;
  for (const auto& f : a.per_fault) by_name_a.emplace(f.name, &f);

  for (const auto& fb : b.per_fault) {
    const auto it = by_name_a.find(fb.name);
    if (it == by_name_a.end()) continue;
    const RunReport::PerFault& fa = *it->second;
    if (fa.status == fb.status && fa.evals == fb.evals) continue;
    d.divergent.push_back({fb.name, fa.status, fb.status,
                           static_cast<std::int64_t>(fb.evals) -
                               static_cast<std::int64_t>(fa.evals),
                           fa.effort_invalid_frac, fb.effort_invalid_frac});
  }
  std::sort(d.divergent.begin(), d.divergent.end(),
            [](const RunDiff::FaultDelta& x, const RunDiff::FaultDelta& y) {
              const bool xs = x.status_a != x.status_b;
              const bool ys = y.status_a != y.status_b;
              if (xs != ys) return xs;
              const std::int64_t xd = std::abs(x.evals_delta);
              const std::int64_t yd = std::abs(y.evals_delta);
              if (xd != yd) return xd > yd;
              return x.name < y.name;
            });
  d.divergent_total = d.divergent.size();
  if (d.divergent.size() > opts.top) d.divergent.resize(opts.top);

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
  const auto add_count = [&summary](const char* metric, std::uint64_t va,
                                    std::uint64_t vb) {
    summary.add_row({metric, fmt_u64(va), fmt_u64(vb),
                     fmt_ratio(ratio_of(vb, va))});
  };
  add_count("evals", a.evals, b.evals);
  add_count("backtracks", a.backtracks, b.backtracks);
  add_count("justify_failures", a.justify_failures, b.justify_failures);
  summary.add_row({"effort_invalid_frac", fmt_frac(a.effort_invalid_frac),
                   fmt_frac(b.effort_invalid_frac),
                   strprintf("%+.4f", d.invalid_frac_delta)});
  summary.add_row({"oracle",
                   a.oracle_mode.empty() ? "-" : a.oracle_mode,
                   b.oracle_mode.empty() ? "-" : b.oracle_mode, "-"});
  summary.add_row({"density",
                   a.density < 0 ? "-" : format_density(a.density),
                   b.density < 0 ? "-" : format_density(b.density), "-"});
  add_count("peak mem bytes", a.mem_peak_bytes, b.mem_peak_bytes);
  add_count("cube exports", a.prov_exports, b.prov_exports);
  add_count("cube import hits", a.prov_hits, b.prov_hits);
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

  os << "fault-efficiency milestones (evals to reach FE%):\n";
  Table m({"fe %", "baseline", "candidate"});
  const auto evals_or_dash = [](std::int64_t v) {
    return v < 0 ? std::string("-") : fmt_u64(static_cast<std::uint64_t>(v));
  };
  for (const RunDiff::Milestone& ms : d.milestones)
    m.add_row({strprintf("%.0f", ms.fe_pct), evals_or_dash(ms.evals_a),
               evals_or_dash(ms.evals_b)});
  os << m.to_string() << "\n";

  if (d.divergent_total == 0) {
    os << "per-fault trajectories identical\n\n";
  } else {
    os << "per-fault divergence (" << d.divergent.size() << " of "
       << d.divergent_total << ", status changes first):\n";
    Table div({"fault", "status", "d_evals", "inv_frac a", "inv_frac b"});
    for (const auto& f : d.divergent)
      div.add_row({f.name,
                   f.status_a == f.status_b ? f.status_a
                                            : f.status_a + "->" + f.status_b,
                   strprintf("%+lld", static_cast<long long>(f.evals_delta)),
                   fmt_frac(f.invalid_frac_a), fmt_frac(f.invalid_frac_b)});
    os << div.to_string() << "\n";
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
                     fmt_u64(d.scatter_a[i]), fmt_u64(d.scatter_b[i])});
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
        "effort grew %s (%llu -> %llu evals), allowed %.3fx",
        fmt_ratio(ratio).c_str(),
        static_cast<unsigned long long>(baseline.evals),
        static_cast<unsigned long long>(candidate.evals),
        opts.max_effort_ratio));
  }
  return res;
}

}  // namespace satpg
