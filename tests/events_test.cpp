// Flight-recorder tests (DESIGN.md §10): the serialized event stream must
// be byte-identical at any thread count (events ride the same
// deterministic merge as fault_stats and contain no wall clock), arming
// the recorder must not change any search result, and disabled mode must
// record nothing. Plus unit coverage of the NDJSON event rendering
// (zero/empty fields omitted; the LBD histogram only on db_reduce), and
// a malformed-input corpus for `satpg inspect` over a real event log and
// profile sidecar.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "atpg/parallel.h"
#include "base/events.h"
#include "base/profiler.h"
#include "base/rng.h"
#include "fsm/mcnc_suite.h"
#include "harness/inspect.h"
#include "harness/profile.h"
#include "harness/report.h"
#include "netlist/netlist.h"
#include "retime/retime.h"
#include "synth/synthesize.h"

namespace satpg {
namespace {

Netlist mcnc_circuit(const std::string& name, double scale) {
  FsmGenSpec spec;
  for (const auto& s : mcnc_specs())
    if (s.name == name) spec = s;
  const Fsm fsm = generate_control_fsm(scaled_spec(spec, scale));
  return synthesize(fsm, {}).netlist;
}

ParallelAtpgOptions engine_options(EngineKind kind, unsigned threads,
                                   bool record_events) {
  ParallelAtpgOptions popts;
  popts.run.engine.kind = kind;
  popts.run.engine.eval_limit = 60'000;
  popts.run.engine.backtrack_limit = 200;
  popts.run.random_sequences = 2;
  popts.run.random_length = 16;
  popts.num_threads = threads;
  popts.record_events = record_events;
  return popts;
}

std::string serialized_events(const Netlist& nl,
                              const ParallelAtpgOptions& opts,
                              const ParallelAtpgResult& res) {
  std::ostringstream os;
  write_events_json(os, nl, opts, res);
  return os.str();
}

// Every result field the deterministic contract covers, minus events.
std::string result_digest(const ParallelAtpgResult& r) {
  std::ostringstream os;
  os << r.run.detected << '/' << r.run.redundant << '/' << r.run.aborted
     << '/' << r.run.evals << '/' << r.run.backtracks << '/'
     << r.run.tests.size() << '\n';
  for (std::size_t i = 0; i < r.status.size(); ++i)
    os << static_cast<int>(r.status[i]) << ',' << r.detected_by[i] << ','
       << int{r.attempted[i]} << ',' << r.fault_stats[i].evals << '\n';
  return os.str();
}

// --- NDJSON rendering --------------------------------------------------------

TEST(EventJsonTest, ZeroAndEmptyFieldsAreOmitted) {
  SearchEvent e;
  e.kind = SearchEventKind::kJustifyEnter;
  e.at = 42;
  std::string line;
  append_event_json(&line, e);
  EXPECT_EQ(line, "{\"k\": \"justify_enter\", \"at\": 42}");

  e.a = 3;
  e.cube = "01X";
  line.clear();
  append_event_json(&line, e);
  EXPECT_EQ(line,
            "{\"k\": \"justify_enter\", \"at\": 42, \"a\": 3, "
            "\"cube\": \"01X\"}");
}

TEST(EventJsonTest, LbdHistogramOnlyOnDbReduce) {
  SearchEvent e;
  e.kind = SearchEventKind::kRestart;
  e.at = 7;
  e.a = 1;
  e.lbd = {1, 2, 3, 4, 5, 6, 7, 8};  // ignored for non-db_reduce kinds
  std::string line;
  append_event_json(&line, e);
  EXPECT_EQ(line.find("lbd"), std::string::npos);

  e.kind = SearchEventKind::kDbReduce;
  e.b = 9;
  line.clear();
  append_event_json(&line, e);
  EXPECT_EQ(line,
            "{\"k\": \"db_reduce\", \"at\": 7, \"a\": 1, \"b\": 9, "
            "\"lbd\": [1, 2, 3, 4, 5, 6, 7, 8]}");
}

TEST(EventJsonTest, EveryKindHasAStableName) {
  EXPECT_STREQ(search_event_kind_name(SearchEventKind::kWindowGrow),
               "window_grow");
  EXPECT_STREQ(search_event_kind_name(SearchEventKind::kCubeImport),
               "cube_import");
  EXPECT_STREQ(search_event_kind_name(SearchEventKind::kLearnHit),
               "learn_hit");
}

// --- thread invariance -------------------------------------------------------

// The acceptance bar: the whole serialized event log — header, per-fault
// lines, every event — is byte-identical at 1/2/8 threads, for every
// engine kind, on a parent circuit and its retimed twin.
TEST(EventsThreadInvarianceTest, SerializedLogIsByteIdenticalAcrossThreads) {
  const Netlist parent = mcnc_circuit("dk16", 0.35);
  const RetimeResult rt = retime_to_dff_target(
      parent, 2 * parent.num_dffs(), parent.name() + ".re");
  for (const Netlist* nl : {&parent, &rt.netlist}) {
    for (const EngineKind kind : {EngineKind::kHitec, EngineKind::kForward,
                                  EngineKind::kLearning, EngineKind::kCdcl}) {
      const auto opts1 = engine_options(kind, 1, true);
      const auto opts2 = engine_options(kind, 2, true);
      const auto opts8 = engine_options(kind, 8, true);
      const auto r1 = run_parallel_atpg(*nl, opts1);
      const auto r2 = run_parallel_atpg(*nl, opts2);
      const auto r8 = run_parallel_atpg(*nl, opts8);
      const std::string log1 = serialized_events(*nl, opts1, r1);
      EXPECT_EQ(log1, serialized_events(*nl, opts2, r2))
          << nl->name() << " kind=" << static_cast<int>(kind);
      EXPECT_EQ(log1, serialized_events(*nl, opts8, r8))
          << nl->name() << " kind=" << static_cast<int>(kind);
      // A real run must actually record something beyond the header.
      EXPECT_GT(log1.size(), log1.find('\n') + 1);
    }
  }
}

// --- disabled mode -----------------------------------------------------------

TEST(EventsDisabledTest, DisabledRecorderStoresNothing) {
  const Netlist nl = mcnc_circuit("dk16", 0.35);
  const auto opts = engine_options(EngineKind::kCdcl, 2, false);
  const auto res = run_parallel_atpg(nl, opts);
  for (const SearchEventList& events : res.fault_events)
    EXPECT_TRUE(events.empty());
}

TEST(EventsDisabledTest, ArmingTheRecorderChangesNoResult) {
  const Netlist nl = mcnc_circuit("dk16", 0.35);
  for (const EngineKind kind : {EngineKind::kLearning, EngineKind::kCdcl}) {
    const auto off = run_parallel_atpg(nl, engine_options(kind, 2, false));
    const auto on = run_parallel_atpg(nl, engine_options(kind, 2, true));
    EXPECT_EQ(result_digest(off), result_digest(on))
        << "kind=" << static_cast<int>(kind);
    // Cube provenance is always recorded, events or not.
    ASSERT_EQ(off.cube_sources.size(), on.cube_sources.size());
    for (std::size_t i = 0; i < off.cube_sources.size(); ++i) {
      ASSERT_EQ(off.cube_sources[i].size(), on.cube_sources[i].size());
      for (std::size_t j = 0; j < off.cube_sources[i].size(); ++j) {
        EXPECT_EQ(off.cube_sources[i][j].exporter,
                  on.cube_sources[i][j].exporter);
        EXPECT_EQ(off.cube_sources[i][j].epoch, on.cube_sources[i][j].epoch);
        EXPECT_EQ(off.cube_sources[i][j].hits, on.cube_sources[i][j].hits);
      }
    }
  }
}

// --- malformed inputs to `satpg inspect` ------------------------------------

// Malformed event-log and profile-sidecar corpus: seeded truncations and
// single-byte substitutions of a real --events-json log and a real
// satpg.profile.v2 sidecar. inspect_source either renders an input or
// refuses it with a message; nothing crashes. Sized to stay well under
// 2 s in the ASan job.
TEST(InspectCorpusTest, MutatedEventLogsAndProfilesFailCleanly) {
  const Netlist nl = mcnc_circuit("dk16", 0.35);
  const auto opts = engine_options(EngineKind::kCdcl, 2, true);
  Profiler::global().start();
  const auto res = run_parallel_atpg(nl, opts);
  Profiler::global().stop();
  ProfileArtifact pa;
  pa.tool = "atpg";
  pa.circuit = nl.name();
  pa.engine_kind = engine_kind_name(opts.run.engine.kind);
  pa.evals = res.run.evals;
  pa.snap = Profiler::global().snapshot();
  std::ostringstream profile;
  write_profile_json(profile, pa);

  InspectOptions events_view;
  InspectOptions profile_view;
  profile_view.profile = true;
  const std::pair<std::string, const InspectOptions*> goldens[] = {
      {serialized_events(nl, opts, res), &events_view},
      {profile.str(), &profile_view}};
  // Bytes that break or bend the grammar; sizeof counts the NUL too.
  static const char kBytes[] = "{}[]\",:\\-.eE+09 \n";
  constexpr int kMutantsPerGolden = 100;
  Rng rng(0x1e300);
  for (const auto& [golden, view] : goldens) {
    std::string err;
    std::ostringstream os;
    ASSERT_TRUE(inspect_source(os, golden, *view, &err)) << err;
    int refused = 0;
    for (int k = 0; k < kMutantsPerGolden; ++k) {
      std::string text = golden;
      if (k % 2 == 0)
        text.resize(rng.next_below(text.size()));
      else
        text[rng.next_below(text.size())] =
            kBytes[rng.next_below(sizeof kBytes)];
      std::ostringstream out;
      err.clear();
      if (!inspect_source(out, text, *view, &err)) {
        EXPECT_FALSE(err.empty()) << "mutant " << k;
        EXPECT_TRUE(out.str().empty()) << "mutant " << k;
        ++refused;
      }
    }
    // The corpus exercises both outcomes.
    EXPECT_GT(refused, 0);
    EXPECT_LT(refused, kMutantsPerGolden);
  }

  // Fixed input: a number outside int64_t/uint64_t in an event field
  // falls back to 0 instead of reaching an undefined cast.
  const std::string log =
      "{\"schema\": \"satpg.events.v1\", \"circuit\": \"c\", "
      "\"engine\": \"cdcl\", \"seed\": 1, \"faults\": 1}\n"
      "{\"fault\": \"g s-a-0\", \"index\": 0, \"status\": \"aborted\"}\n"
      "{\"k\": \"window_grow\", \"at\": 1, \"a\": 1e300}\n"
      "{\"k\": \"db_reduce\", \"at\": 2, \"a\": -1e300, \"b\": 4, "
      "\"lbd\": [1e300, -1, 3]}\n";
  InspectOptions timeline;
  timeline.fault = "g s-a-0";
  std::ostringstream os;
  std::string err;
  ASSERT_TRUE(inspect_source(os, log, timeline, &err)) << err;
  EXPECT_NE(os.str().find("frames=0"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("killed=0 live=4 lbd=[0 0 3]"), std::string::npos)
      << os.str();
}

}  // namespace
}  // namespace satpg
