// End-to-end benchmark driver for the sequential ATPG pipeline.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --root REPO_DIR --work WORK_DIR [--threads N]
//
// Runs one workload (see workloads()) for S seconds of repeated passes and
// prints one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// With --trace 0 the metrics are the end-to-end ones (medians over the
// passes); with --trace 1 the first half of the time runs untraced passes
// and the second half traced ones, and the metrics are per layer.
//
// Every circuit of a pass is one operation. An operation fails when its
// call throws or when its output check fails; the checks run outside the
// timed part. Progress lines "op <ok|fail> <circuit> [reason]" go to
// stderr so a wrapper can count operations of a process that crashed.
//
// The seed only permutes the order of the circuits in each pass: circuit
// set, budgets and ATPG seeds are pinned, so the work (evals, coverage,
// solver counts) is identical for every seed and the spread across seeds
// is host noise. Inputs come from a private copy of the committed
// circuit cache; the driver never writes into the repository.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/reach.h"
#include "atpg/engine.h"
#include "atpg/parallel.h"
#include "base/logging.h"
#include "base/profiler.h"
#include "fault/fault.h"
#include "fsim/fsim.h"
#include "fsm/mcnc_suite.h"
#include "harness/experiments.h"
#include "harness/suite.h"
#include "netlist/bench_io.h"
#include "retime/retime.h"
#include "synth/library.h"
#include "synth/synthesize.h"

namespace fs = std::filesystem;
using namespace satpg;

namespace {

// ---- workloads --------------------------------------------------------------

constexpr double kFsmScale = 0.3;
constexpr std::uint64_t kSuiteSeed = 3;  // the committed cache's seed
constexpr std::uint64_t kAtpgSeed = 3;
constexpr int kSetupReps = 21;
// build_grade: random grading stimulus per circuit.
constexpr int kGradeSequences = 128;
constexpr int kGradeLength = 100;
constexpr std::uint64_t kGradeSeed = 1;

struct Workload {
  const char* name;
  bool atpg;            ///< false: build_grade (synth, retime, grade)
  EngineKind engine;    ///< ATPG workloads
  double budget_scale;  ///< ExperimentOptions::budget_scale
  unsigned threads;     ///< ATPG and fsim worker threads
  std::vector<std::string> pairs;  ///< Table 2 parent names
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      // scf.ji.sd.re hits total_eval_budget, the other circuits finish
      // under it.
      {"hitec_pairs", true, EngineKind::kHitec, 0.1, 1,
       {"dk16.ji.sd", "s510.jc.sd", "s510.jo.sr", "scf.ji.sd"}},
      // The Table 9 pairs.
      {"cdcl_pairs", true, EngineKind::kCdcl, 0.3, 2,
       {"dk16.ji.sd", "pma.jo.sd", "s510.jc.sd"}},
      // Every Table 2 pair, built cold.
      {"build_grade", false, EngineKind::kHitec, 0.0, 1, {}},
  };
  return w;
}

// ---- small utilities --------------------------------------------------------

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(1, rank)) - 1];
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t s = seed;
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[splitmix64(s) % i]);
}

std::string cache_file(const std::string& circuit) {
  return circuit + "_s" + std::to_string(kSuiteSeed) + "_x" +
         std::to_string(static_cast<int>(kFsmScale * 100)) + ".bench";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- spans ------------------------------------------------------------------

// In-memory span recorder of the benchmark's own layer calls. Spans nest
// by scope; a span's self time is its duration minus its children's.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;  ///< seconds since the recorder's epoch
    int parent = -1;
  };

  bool on = false;

  int open(const std::string& name) {
    if (!on) return -1;
    spans_.push_back({name, now(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// name -> summed self seconds.
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    return out;
  }

  void write_json(const fs::path& path) const {
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                    "\"parent\":%d}%s\n",
                    i, s.name.c_str(), s.start, s.end, s.parent,
                    i + 1 < spans_.size() ? "," : "");
      os << buf;
    }
    os << "]\n";
  }

 private:
  double now() const { return since(epoch_); }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

Spans g_spans;

class SpanScope {
 public:
  explicit SpanScope(const std::string& name) : id_(g_spans.open(name)) {}
  ~SpanScope() { g_spans.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// ---- per-pass accounting ----------------------------------------------------

// Sums over the operations of one pass. Times are seconds.
struct PassStats {
  double wall = 0.0;  ///< timed part only
  std::size_t w_total = 0, w_detected = 0, w_redundant = 0, w_aborted = 0;
  std::map<std::string, double> sum;  ///< per-layer sums (names as reported)
  std::vector<double> attempt_seconds;
  double cpu = 0.0;
};

struct Outcome {
  std::size_t attempted = 0, failed = 0;
};

void report_op(Outcome& out, const std::string& circuit,
               const std::optional<std::string>& failure) {
  ++out.attempted;
  if (failure) {
    ++out.failed;
    std::fprintf(stderr, "op fail %s %s\n", circuit.c_str(), failure->c_str());
  } else {
    std::fprintf(stderr, "op ok %s\n", circuit.c_str());
  }
  std::fflush(stderr);
}

// ---- ATPG workloads ---------------------------------------------------------

struct Inputs {
  std::vector<std::string> names;
  std::vector<Netlist> netlists;
};

std::vector<std::string> circuit_names(const Workload& w) {
  std::vector<std::string> names;
  for (const auto& p : w.pairs) {
    names.push_back(p);
    names.push_back(p + ".re");
  }
  return names;
}

// Fill the private cache `dir` with the workload's circuits: copies of the
// committed cache files, or, for a circuit the committed cache lacks, a
// build through Suite into `dir` itself.
void prepare_private_cache(const Workload& w, const fs::path& root,
                           const fs::path& dir) {
  fs::create_directories(dir);
  for (const auto& name : circuit_names(w)) {
    const fs::path src = root / "circuits_cache" / cache_file(name);
    if (fs::exists(src))
      fs::copy_file(src, dir / cache_file(name),
                    fs::copy_options::overwrite_existing);
    else
      Suite({dir.string(), kFsmScale, kSuiteSeed}).circuit(name);
  }
}

// Load the workload's circuits from the private cache through Suite.
Inputs load_inputs(const Workload& w, const fs::path& dir,
                   std::map<std::string, double>& layer) {
  Inputs in;
  in.names = circuit_names(w);
  const auto t0 = Clock::now();
  Suite suite({dir.string(), kFsmScale, kSuiteSeed});
  double nodes = 0;
  {
    SpanScope span("netlist.load");
    for (const auto& name : in.names) {
      in.netlists.push_back(suite.circuit(name));
      nodes += static_cast<double>(in.netlists.back().num_nodes());
    }
  }
  layer["netlist.load_s"] = since(t0);
  layer["netlist.load_circuits"] = static_cast<double>(in.names.size());
  layer["netlist.load_nodes"] = nodes;
  return in;
}

// Re-grade the returned test set with the 64-slot baseline simulator at 1
// thread. (AtpgRunResult::verify_failures is not checked: it counts
// candidates the engine rejected itself and re-derived, never a returned
// test.) Every strictly detected fault must be detected by the tests, no
// redundant fault may be, and the tests (plus the random-phase sequences,
// whose potential detections the driver also credits) must reproduce at
// least the reported coverage.
std::optional<std::string> check_atpg(const Netlist& nl,
                                      const AtpgRunOptions& run_opts,
                                      const ParallelAtpgResult& res) {
  const AtpgRunResult& run = res.run;
  const auto collapsed = collapse_faults(nl);
  if (collapsed.size() != res.status.size()) return "fault list size";
  std::vector<Fault> faults;
  for (const auto& cf : collapsed) faults.push_back(cf.representative);
  FsimOptions fo;
  fo.num_threads = 1;
  fo.engine = FsimEngine::kBaseline64;
  const FsimResult tests = run_fault_simulation(nl, faults, run.tests, fo);
  const FsimResult rnd = run_fault_simulation(
      nl, faults,
      make_random_sequences(nl, run_opts.random_sequences,
                            run_opts.random_length, run_opts.seed),
      fo);
  std::size_t w_total = 0, w_credit = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::size_t w = static_cast<std::size_t>(collapsed[i].class_size);
    w_total += w;
    const bool det = tests.detected_at[i] >= 0;
    const bool pot = tests.potential_at[i] >= 0 || rnd.detected_at[i] >= 0 ||
                     rnd.potential_at[i] >= 0;
    if (res.status[i] == FaultStatus::kDetected && !det)
      return "detected fault not reproduced: " + fault_name(nl, faults[i]);
    if (res.status[i] == FaultStatus::kRedundant &&
        (det || rnd.detected_at[i] >= 0))
      return "redundant fault detected: " + fault_name(nl, faults[i]);
    if (det || (pot && res.status[i] != FaultStatus::kRedundant)) w_credit += w;
  }
  if (w_total != run.total_faults) return "fault universe size";
  const double fc = 100.0 * static_cast<double>(w_credit) /
                    static_cast<double>(std::max<std::size_t>(1, w_total));
  if (fc + 1e-9 < run.fault_coverage) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "regraded coverage %.4f < reported %.4f", fc,
                  run.fault_coverage);
    return std::string(buf);
  }
  return std::nullopt;
}

// Identity of one circuit's ATPG result: the work counters plus an FNV-1a
// hash of the test set and the per-fault statuses. A result is re-graded
// only the first time its digest is seen; a later pass must repeat it.
struct AtpgDigest {
  std::uint64_t evals = 0, backtracks = 0, conflicts = 0, propagations = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  bool operator==(const AtpgDigest&) const = default;

  explicit AtpgDigest(const ParallelAtpgResult& res)
      : evals(res.run.evals),
        backtracks(res.run.backtracks),
        conflicts(res.run.conflicts),
        propagations(res.run.propagations) {
    for (const auto& seq : res.run.tests) {
      for (const auto& vec : seq)
        for (const V3 v : vec) mix(static_cast<std::uint64_t>(v));
      mix(0xff);
    }
    for (const FaultStatus st : res.status)
      mix(static_cast<std::uint64_t>(st));
  }

 private:
  void mix(std::uint64_t v) { hash = (hash ^ v) * 0x100000001b3ULL; }
};

class AtpgWorkload {
 public:
  AtpgWorkload(const Workload& w, unsigned threads) : threads_(threads) {
    ExperimentOptions eo;
    eo.budget_scale = w.budget_scale;
    eo.seed = kAtpgSeed;
    run_ = scaled_run_options(eo, w.engine);
    run_.fsim.num_threads = threads;
  }

  void set_inputs(Inputs in) { in_ = std::move(in); }

  PassStats pass(std::uint64_t order_seed, bool traced, Outcome& out) {
    PassStats ps;
    std::vector<std::size_t> order(in_.names.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    seeded_shuffle(order, order_seed);
    SpanScope pass_span("pass");
    for (const std::size_t c : order) {
      const std::string& name = in_.names[c];
      const Netlist& nl = in_.netlists[c];
      SpanScope op_span("op");
      std::optional<std::string> failure;
      try {
        ParallelAtpgOptions p;
        p.run = run_;
        p.num_threads = threads_;
        const double cpu0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        ParallelAtpgResult res;
        {
          SpanScope span("atpg.run");
          res = run_parallel_atpg(nl, p);
        }
        const double dt = since(t0);
        ps.cpu += process_cpu_seconds() - cpu0;
        ps.wall += dt;
        account(ps, res, dt);
        if (traced) {
          SpanScope span("analysis.oracle");
          const auto o0 = Clock::now();
          (void)StateValidityOracle::build(nl);
          ps.sum["analysis.oracle_s"] += since(o0);
        }
        SpanScope check_span("check");
        const AtpgDigest d(res);
        auto [it, fresh] = digests_.emplace(name, d);
        if (fresh)
          failure = check_atpg(nl, run_, res);
        else if (!(it->second == d))
          failure = "result differs from the first pass";
      } catch (const std::exception& e) {
        failure = std::string("exception: ") + e.what();
      }
      report_op(out, name, failure);
    }
    return ps;
  }

 private:
  void account(PassStats& ps, const ParallelAtpgResult& res, double dt) {
    const AtpgRunResult& r = res.run;
    ps.w_total += r.total_faults;
    ps.w_detected += r.detected;
    ps.w_redundant += r.redundant;
    ps.w_aborted += r.aborted;
    auto& s = ps.sum;
    s["atpg.run_s"] += dt;
    s["atpg.evals"] += static_cast<double>(r.evals);
    s["atpg.backtracks"] += static_cast<double>(r.backtracks);
    s["atpg.verify_rejects"] += static_cast<double>(r.verify_failures);
    s["atpg.justify_calls"] += static_cast<double>(r.justify_calls);
    s["atpg.justify_failures"] += static_cast<double>(r.justify_failures);
    s["atpg.invalid_evals"] += static_cast<double>(
        r.attribution.justify_evals[static_cast<std::size_t>(
            StateValidity::kInvalid)]);
    s["atpg.learn_hits"] += static_cast<double>(r.learn_hits);
    s["atpg.learn_lookups"] +=
        static_cast<double>(r.learn_hits + r.learn_misses);
    if (run_.total_eval_budget && r.evals >= run_.total_eval_budget)
      s["atpg.budget_capped_circuits"] += 1;
    double vectors = 0;
    for (const auto& t : r.tests) vectors += static_cast<double>(t.size());
    s["atpg.test_vectors"] += vectors;
    s["cdcl.conflicts"] += static_cast<double>(r.conflicts);
    s["cdcl.propagations"] += static_cast<double>(r.propagations);
    s["cdcl.learned_clauses"] += static_cast<double>(r.learned_clauses);
    s["cdcl.cube_exports"] += static_cast<double>(r.cube_exports);
    for (std::size_t i = 0; i < res.attempted.size(); ++i) {
      if (!res.attempted[i]) continue;
      const FaultSearchStats& st = res.fault_stats[i];
      s["atpg.attempt_s"] += st.wall_seconds;
      s["atpg.attempts"] += 1;
      s["cdcl.cube_blocks"] += static_cast<double>(st.cube_blocks);
      ps.attempt_seconds.push_back(st.wall_seconds);
    }
  }

  unsigned threads_;
  AtpgRunOptions run_;
  Inputs in_;
  std::map<std::string, AtpgDigest> digests_;
};

// ---- build_grade ------------------------------------------------------------

struct PairInput {
  PairSpec spec;
  Fsm fsm;
};

// The FSM each Table 2 pair is synthesized from, generated the way
// Suite::build_original does.
std::vector<PairInput> generate_fsms() {
  std::vector<PairInput> out;
  for (const auto& spec : table2_specs()) {
    for (const auto& s : mcnc_specs()) {
      if (s.name != spec.fsm) continue;
      FsmGenSpec gen = scaled_spec(s, kFsmScale);
      gen.seed ^= kSuiteSeed * 0x9e3779b97f4a7c15ULL;
      out.push_back({spec, generate_control_fsm(gen)});
    }
  }
  if (out.size() != table2_specs().size())
    throw std::runtime_error("unknown suite FSM");
  return out;
}

class BuildWorkload {
 public:
  explicit BuildWorkload(fs::path work) : work_(std::move(work)) {}

  void set_inputs(std::vector<PairInput> in) { in_ = std::move(in); }

  PassStats pass(std::uint64_t order_seed, Outcome& out) {
    PassStats ps;
    std::vector<std::size_t> order(in_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    seeded_shuffle(order, order_seed);
    // Every pass starts from an empty private cache.
    const fs::path dir = work_ / "build_cache";
    fs::remove_all(dir);
    fs::create_directories(dir);
    SpanScope pass_span("pass");
    for (const std::size_t k : order) {
      const PairInput& in = in_[k];
      std::optional<Netlist> orig;
      {
        SpanScope op_span("op");
        std::optional<std::string> failure;
        try {
          const auto t0 = Clock::now();
          const double cpu0 = process_cpu_seconds();
          Netlist built = synth(in, ps);
          orig = round_trip(built, dir, ps, &failure);
          grade(*orig, ps);
          ps.wall += since(t0);
          ps.cpu += process_cpu_seconds() - cpu0;
        } catch (const std::exception& e) {
          failure = std::string("exception: ") + e.what();
          orig.reset();
        }
        if (orig && !failure) failure = check_determinism(in.spec.name());
        report_op(out, in.spec.name(), failure);
      }
      SpanScope op_span("op");
      std::optional<std::string> failure;
      if (!orig) {
        failure = "parent circuit failed";
      } else {
        try {
          const auto t0 = Clock::now();
          const double cpu0 = process_cpu_seconds();
          // The DFF target Suite::build retimes to.
          const std::size_t target = std::max<std::size_t>(
              orig->num_dffs() + 1,
              static_cast<std::size_t>(in.spec.paper_re_dffs * kFsmScale +
                                       0.5));
          Netlist re = retime(*orig, target, in.spec.retimed_name(), ps);
          Netlist back = round_trip(re, dir, ps, &failure);
          grade(back, ps);
          ps.wall += since(t0);
          ps.cpu += process_cpu_seconds() - cpu0;
          if (!failure && re.num_dffs() < target)
            failure = "retimed to " + std::to_string(re.num_dffs()) +
                      " DFFs, target " + std::to_string(target);
        } catch (const std::exception& e) {
          failure = std::string("exception: ") + e.what();
        }
        if (!failure) failure = check_determinism(in.spec.retimed_name());
      }
      report_op(out, in.spec.retimed_name(), failure);
    }
    return ps;
  }

 private:
  Netlist synth(const PairInput& in, PassStats& ps) {
    SpanScope span("synth");
    const auto t0 = Clock::now();
    SynthOptions so;
    so.encode = in.spec.encode;
    so.script = in.spec.script;
    so.seed = kSuiteSeed;
    SynthResult res = synthesize(in.fsm, so);
    ps.sum["synth.s"] += since(t0);
    ps.sum["synth.circuits"] += 1;
    ps.sum["synth.gates"] += static_cast<double>(res.netlist.num_gates());
    return std::move(res.netlist);
  }

  Netlist retime(const Netlist& orig, std::size_t target,
                 const std::string& name, PassStats& ps) {
    SpanScope span("retime");
    const auto t0 = Clock::now();
    RetimeResult rt = retime_to_dff_target(orig, target, name);
    const double dt = since(t0);
    ps.sum["retime.s"] += dt;
    ps.sum["retime.circuits"] += 1;
    ps.sum["retime.dffs_added"] +=
        static_cast<double>(rt.netlist.num_dffs()) -
        static_cast<double>(orig.num_dffs());
    ps.sum["retime.max_circuit_s"] =
        std::max(ps.sum["retime.max_circuit_s"], dt);
    return std::move(rt.netlist);
  }

  // write_bench into the pass's cache, then read_bench it back the way
  // Suite loads cached circuits. Node and DFF counts must survive.
  Netlist round_trip(const Netlist& nl, const fs::path& dir, PassStats& ps,
                     std::optional<std::string>* failure) {
    const fs::path path = dir / cache_file(nl.name());
    {
      SpanScope span("netlist.write");
      const auto t0 = Clock::now();
      std::ofstream os(path);
      write_bench(nl, os);
      if (!os.flush())
        throw std::runtime_error("cannot write " + path.string());
      ps.sum["netlist.write_s"] += since(t0);
    }
    SpanScope span("netlist.load");
    const auto t0 = Clock::now();
    std::ifstream is(path);
    Netlist back = read_bench(is, nl.name());
    annotate_library(back);
    ps.sum["netlist.load_s"] += since(t0);
    ps.sum["netlist.load_circuits"] += 1;
    ps.sum["netlist.load_nodes"] += static_cast<double>(back.num_nodes());
    if (back.num_nodes() != nl.num_nodes() || back.num_dffs() != nl.num_dffs())
      *failure = "bench round trip changed node or DFF count";
    return back;
  }

  void grade(const Netlist& nl, PassStats& ps) {
    SpanScope span("fsim.grade");
    const auto t0 = Clock::now();
    const auto collapsed = collapse_faults(nl);
    std::vector<Fault> faults;
    for (const auto& cf : collapsed) faults.push_back(cf.representative);
    const auto seqs =
        make_random_sequences(nl, kGradeSequences, kGradeLength, kGradeSeed);
    FsimOptions fo;
    fo.num_threads = 1;
    fo.engine = FsimEngine::kWide;
    const FsimResult fr = run_fault_simulation(nl, faults, seqs, fo);
    ps.sum["fsim.grade_s"] += since(t0);
    double vectors = 0;
    for (const auto& s : seqs) vectors += static_cast<double>(s.size());
    ps.sum["fsim.fault_vectors"] +=
        vectors * static_cast<double>(faults.size());
    // Potential detections are credited as the ATPG driver credits them.
    std::size_t w_total = 0, w_det = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const std::size_t w = static_cast<std::size_t>(collapsed[i].class_size);
      w_total += w;
      if (fr.detected_at[i] >= 0 || fr.potential_at[i] >= 0) w_det += w;
    }
    ps.w_total += w_total;
    ps.w_detected += w_det;
    last_ = {w_total, w_det};
  }

  std::optional<std::string> check_determinism(const std::string& name) {
    auto [it, fresh] = graded_.emplace(name, last_);
    if (!fresh && it->second != last_)
      return "grade differs from the first pass";
    return std::nullopt;
  }

  fs::path work_;
  std::vector<PairInput> in_;
  std::pair<std::size_t, std::size_t> last_{0, 0};
  std::map<std::string, std::pair<std::size_t, std::size_t>> graded_;
};

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Outcome& out, bool correct,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[192];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// Median over passes of one per-pass sum.
double med(const std::vector<PassStats>& passes, const std::string& key) {
  std::vector<double> v;
  for (const auto& p : passes) {
    const auto it = p.sum.find(key);
    v.push_back(it == p.sum.end() ? 0.0 : it->second);
  }
  return median(v);
}

double med_wall(const std::vector<PassStats>& passes) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(p.wall);
  return median(v);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path root = ".";
  fs::path work;
  unsigned threads = 0;  ///< 0 = the workload's declared count
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--root") a.root = v;
    else if (k == "--work") a.work = v;
    else if (k == "--threads") a.threads = static_cast<unsigned>(std::stoul(v));
    else throw std::runtime_error("unknown flag " + k);
  }
  if (a.work.empty()) throw std::runtime_error("--work is required");
  return a;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& cand : workloads())
    if (args.workload == cand.name) w = &cand;
  if (!w) throw std::runtime_error("unknown workload " + args.workload);
  const unsigned threads = args.threads ? args.threads : w->threads;
  set_log_level(LogLevel::kWarn);
  fs::remove_all(args.work);
  fs::create_directories(args.work);

  // ---- set-up, kSetupReps times; setup_s is the median ----
  std::vector<double> setup_times;
  std::map<std::string, double> load_layer;
  std::optional<AtpgWorkload> atpg;
  std::optional<BuildWorkload> build;
  if (w->atpg) {
    atpg.emplace(*w, threads);
    const fs::path dir = args.work / "cache";
    prepare_private_cache(*w, args.root, dir);
    std::vector<std::map<std::string, double>> loads;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      Inputs in = load_inputs(*w, dir, loads.emplace_back());
      setup_times.push_back(since(t0));
      if (rep + 1 == kSetupReps) atpg->set_inputs(std::move(in));
    }
    for (const char* k :
         {"netlist.load_s", "netlist.load_circuits", "netlist.load_nodes"}) {
      std::vector<double> v;
      for (const auto& l : loads) v.push_back(l.at(k));
      load_layer[k] = median(v);
    }
  } else {
    build.emplace(args.work);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      auto fsms = generate_fsms();
      setup_times.push_back(since(t0));
      if (rep + 1 == kSetupReps) build->set_inputs(std::move(fsms));
    }
  }

  // ---- timed passes ----
  Outcome out;
  std::vector<PassStats> plain, traced;
  std::uint64_t order = args.seed;
  const auto do_pass = [&](bool tr) {
    const std::uint64_t pass_seed = splitmix64(order);
    PassStats ps =
        w->atpg ? atpg->pass(pass_seed, tr, out) : build->pass(pass_seed, out);
    std::fprintf(stderr, "pass %s wall %.6f cpu %.6f\n",
                 tr ? "traced" : "plain", ps.wall, ps.cpu);
    return ps;
  };
  const auto start = Clock::now();
  const double plain_seconds = args.trace ? args.seconds / 2 : args.seconds;
  do {
    plain.push_back(do_pass(false));
  } while (since(start) < plain_seconds);
  ProfSnapshot prof;
  std::map<std::string, double> self;
  if (args.trace) {
    setenv("SATPG_PROFILE_BACKEND", "fallback", 1);
    g_spans.on = true;
    Profiler::global().start();
    do {
      traced.push_back(do_pass(true));
    } while (since(start) < args.seconds);
    Profiler::global().stop();
    prof = Profiler::global().snapshot();
    g_spans.on = false;
    self = g_spans.self_times();
    g_spans.write_json(args.work / "spans.json");
  }

  const bool correct = out.failed == 0;
  const PassStats& first = plain.front();
  const double fc = 100.0 * ratio(static_cast<double>(first.w_detected),
                                  static_cast<double>(first.w_total));
  const double fe = 100.0 * ratio(static_cast<double>(first.w_detected +
                                                     first.w_redundant),
                                 static_cast<double>(first.w_total));
  std::vector<Metric> m;
  if (!args.trace) {
    m = {{"wall_s", med_wall(plain), "s"},
         {"setup_s", median(setup_times), "s"},
         {"peak_rss_mb", peak_rss_mb(), "MB"},
         {"fc_pct", fc, "%"},
         {"fe_pct", fe, "%"}};
    print_result(out, correct, m);
    return correct ? 0 : 1;
  }

  // ---- per-layer metrics from the traced passes ----
  const auto& T = traced;
  const double n_traced = static_cast<double>(T.size());
  const double run_s = med(T, "atpg.run_s");
  const double attempt_s = med(T, "atpg.attempt_s");
  const double evals = med(T, "atpg.evals");
  std::vector<double> attempts;
  for (const auto& p : T)
    attempts.insert(attempts.end(), p.attempt_seconds.begin(),
                    p.attempt_seconds.end());
  std::vector<double> cpu;
  for (const auto& p : T) cpu.push_back(ratio(p.cpu, p.wall));
  const auto prof_s = [&](std::initializer_list<ProfPhase> phases) {
    double ns = 0;
    for (const ProfPhase ph : phases)
      ns += static_cast<double>(
          prof.phase(ph).counter(ProfCounter::kTaskClockNs));
    return 1e-9 * ns / n_traced;
  };
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / n_traced;
  };
  const double untraced_wall = med_wall(plain);
  const double traced_wall = med_wall(T);
  double accounted = 0;
  for (const char* name : {"atpg.run", "synth", "retime", "netlist.write",
                           "netlist.load", "fsim.grade"})
    accounted += self_s(name);
  const auto layer = [&](const char* key) {
    return w->atpg && load_layer.count(key) ? load_layer.at(key) : med(T, key);
  };
  const double grade_s = med(T, "fsim.grade_s");
  const double aborted_w = [&] {
    std::vector<double> v;
    for (const auto& p : T)
      v.push_back(ratio(static_cast<double>(p.w_aborted),
                        static_cast<double>(p.w_total)));
    return median(v);
  }();
  m = {
      {"netlist.load_s", layer("netlist.load_s"), "s"},
      {"netlist.load_circuits", layer("netlist.load_circuits"), "count"},
      {"netlist.load_nodes", layer("netlist.load_nodes"), "count"},
      {"netlist.write_s", med(T, "netlist.write_s"), "s"},
      {"synth.s", med(T, "synth.s"), "s"},
      {"synth.circuits", med(T, "synth.circuits"), "count"},
      {"synth.gates", med(T, "synth.gates"), "count"},
      {"retime.s", med(T, "retime.s"), "s"},
      {"retime.circuits", med(T, "retime.circuits"), "count"},
      {"retime.dffs_added", med(T, "retime.dffs_added"), "count"},
      {"retime.max_circuit_s", med(T, "retime.max_circuit_s"), "s"},
      {"fsim.grade_s", grade_s, "s"},
      {"fsim.fault_vectors", med(T, "fsim.fault_vectors"), "count"},
      {"fsim.fault_vectors_per_s",
       ratio(med(T, "fsim.fault_vectors"), grade_s), "1/s"},
      {"analysis.oracle_s", med(T, "analysis.oracle_s"), "s"},
      {"atpg.run_s", run_s, "s"},
      {"atpg.attempt_s", attempt_s, "s"},
      {"atpg.driver_s", run_s - attempt_s / threads, "s"},
      {"atpg.attempt_s.p50", percentile(attempts, 0.50), "s"},
      {"atpg.attempt_s.p99", percentile(attempts, 0.99), "s"},
      {"atpg.attempts", med(T, "atpg.attempts"), "count"},
      {"atpg.mevals", evals / 1e6, "Mevals"},
      {"atpg.mevals_per_s", ratio(evals / 1e6, run_s), "Mevals/s"},
      {"atpg.backtracks", med(T, "atpg.backtracks"), "count"},
      {"atpg.verify_rejects", med(T, "atpg.verify_rejects"), "count"},
      {"atpg.justify_fail_frac",
       ratio(med(T, "atpg.justify_failures"), med(T, "atpg.justify_calls")),
       "ratio"},
      {"atpg.effort_invalid_frac",
       ratio(med(T, "atpg.invalid_evals"), evals), "ratio"},
      {"atpg.learn_hit_frac",
       ratio(med(T, "atpg.learn_hits"), med(T, "atpg.learn_lookups")),
       "ratio"},
      {"atpg.aborted_frac", aborted_w, "ratio"},
      {"atpg.budget_capped_circuits", med(T, "atpg.budget_capped_circuits"),
       "count"},
      {"atpg.test_vectors", med(T, "atpg.test_vectors"), "count"},
      {"cdcl.conflicts", med(T, "cdcl.conflicts"), "count"},
      {"cdcl.propagations", med(T, "cdcl.propagations"), "count"},
      {"cdcl.propagations_per_s",
       ratio(med(T, "cdcl.propagations"), run_s), "1/s"},
      {"cdcl.learned_clauses", med(T, "cdcl.learned_clauses"), "count"},
      {"cdcl.cube_exports", med(T, "cdcl.cube_exports"), "count"},
      {"cdcl.cube_blocks", med(T, "cdcl.cube_blocks"), "count"},
      {"parallel.threads", static_cast<double>(threads), "count"},
      {"parallel.busy_frac", ratio(attempt_s, threads * run_s), "ratio"},
      {"parallel.cpu_per_wall", median(cpu), "ratio"},
      {"prof.cdcl.propagate_s", prof_s({ProfPhase::kCdclPropagate}), "s"},
      {"prof.cdcl.analyze_s", prof_s({ProfPhase::kCdclAnalyze}), "s"},
      {"prof.podem.justify_s", prof_s({ProfPhase::kPodemJustify}), "s"},
      {"prof.fsim.batch_s", prof_s({ProfPhase::kFsimBatch}), "s"},
      {"prof.fsim.wide_kernel_s",
       prof_s({ProfPhase::kFsimWideKernelScalar,
               ProfPhase::kFsimWideKernelSse2, ProfPhase::kFsimWideKernelAvx2,
               ProfPhase::kFsimWideKernelAvx512}),
       "s"},
      {"self.atpg.run_s", self_s("atpg.run"), "s"},
      {"self.synth_s", self_s("synth"), "s"},
      {"self.retime_s", self_s("retime"), "s"},
      {"self.netlist.write_s", self_s("netlist.write"), "s"},
      {"self.netlist.load_s", self_s("netlist.load"), "s"},
      {"self.fsim.grade_s", self_s("fsim.grade"), "s"},
      {"self.analysis.oracle_s", self_s("analysis.oracle"), "s"},
      {"self.check_s", self_s("check"), "s"},
      {"self.op_s", self_s("op"), "s"},
      {"self.pass_s", self_s("pass"), "s"},
      {"trace.untraced_wall_s", untraced_wall, "s"},
      {"trace.traced_wall_s", traced_wall, "s"},
      {"trace.overhead_frac", ratio(traced_wall, untraced_wall) - 1.0, "ratio"},
      {"trace.accounted_frac", ratio(accounted, untraced_wall), "ratio"},
      {"trace.passes", n_traced, "count"},
  };
  print_result(out, correct, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
