#include "atpg/capture.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "base/json.h"
#include "base/strutil.h"

namespace satpg {

namespace {

const char* fault_status_name(FaultStatus s) {
  switch (s) {
    case FaultStatus::kDetected:
      return "detected";
    case FaultStatus::kRedundant:
      return "redundant";
    case FaultStatus::kAborted:
      return "aborted";
  }
  return "aborted";
}

bool parse_engine_kind(const std::string& s, EngineKind* out) {
  if (s == "hitec") *out = EngineKind::kHitec;
  else if (s == "forward") *out = EngineKind::kForward;
  else if (s == "learning") *out = EngineKind::kLearning;
  else if (s == "cdcl") *out = EngineKind::kCdcl;
  else return false;
  return true;
}

std::uint64_t parse_hex64(const std::string& s) {
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else return 0;
  }
  return v;
}

// A parsed number narrowed to [lo, hi]: false (rather than an undefined
// cast) when it lies outside, e.g. a hand-edited 1e300.
bool fits(double v, double lo, double hi) { return v >= lo && v <= hi; }

// Largest ring a capture file may ask replay to allocate (the writer's
// default is DecisionRing::kDefaultCapacity = 4096).
constexpr std::uint64_t kMaxRingCapacity = std::uint64_t{1} << 20;

bool parse_event_code(const std::string& s, DecisionEventKind* out) {
  if (s == "O") *out = DecisionEventKind::kObjective;
  else if (s == "D") *out = DecisionEventKind::kDecision;
  else if (s == "B") *out = DecisionEventKind::kBacktrack;
  else if (s == "L") *out = DecisionEventKind::kLearnHit;
  else return false;
  return true;
}

}  // namespace

const char* decision_event_code(DecisionEventKind k) {
  switch (k) {
    case DecisionEventKind::kObjective:
      return "O";
    case DecisionEventKind::kDecision:
      return "D";
    case DecisionEventKind::kBacktrack:
      return "B";
    case DecisionEventKind::kLearnHit:
      return "L";
  }
  return "?";
}

std::vector<DecisionEvent> DecisionRing::window() const {
  const std::uint64_t kept =
      std::min<std::uint64_t>(total_, static_cast<std::uint64_t>(capacity_));
  std::vector<DecisionEvent> out;
  out.reserve(static_cast<std::size_t>(kept));
  for (std::uint64_t i = total_ - kept; i < total_; ++i)
    out.push_back(buf_[static_cast<std::size_t>(i % capacity_)]);
  return out;
}

std::string capture_config_digest(const SearchCapture& cap) {
  // Exactly the inputs replay depends on — not the recorded outcome — so a
  // hand-edited event stream still replays (and simply mismatches), while a
  // hand-edited circuit/options pairing is rejected up front.
  const std::string blob = strprintf(
      "%s|%s|%d|%d|%llu|%llu|%d|%d|%llu|%s|%zu|%zu|%d|%llu",
      cap.circuit.c_str(), engine_kind_name(cap.options.kind),
      cap.options.max_forward_frames, cap.options.max_backward_frames,
      static_cast<unsigned long long>(cap.options.backtrack_limit),
      static_cast<unsigned long long>(cap.options.eval_limit),
      cap.options.verify_reject_limit,
      cap.options.share_learning ? 1 : 0,
      static_cast<unsigned long long>(cap.soft_eval_cap),
      cap.fault.c_str(), cap.fault_index, cap.ring_capacity,
      cap.wall_aborted ? 1 : 0,
      static_cast<unsigned long long>(cap.abort_check));
  return fnv1a64_hex(blob);
}

SearchCapture make_capture(const Netlist& nl, const Fault& fault,
                           std::size_t fault_index,
                           const EngineOptions& options,
                           std::uint64_t soft_eval_cap,
                           const std::string& reason, bool wall_aborted,
                           const FaultAttempt& attempt,
                           const DecisionRing& ring) {
  SearchCapture cap;
  cap.circuit = nl.name();
  cap.options = options;
  cap.soft_eval_cap = soft_eval_cap;
  cap.fault = fault_name(nl, fault);
  cap.fault_index = fault_index;
  cap.reason = reason;
  cap.wall_aborted = wall_aborted;
  cap.abort_check = attempt.first_abort_check;
  cap.status = fault_status_name(attempt.status);
  cap.evals = attempt.stats.evals;
  cap.backtracks = attempt.stats.backtracks;
  cap.implications = attempt.stats.implications;
  cap.ring_capacity = ring.capacity();
  cap.ring_total = ring.total();
  cap.events = ring.window();
  cap.config_digest = capture_config_digest(cap);
  return cap;
}

bool write_capture_json(const std::string& path, const SearchCapture& cap) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"schema\": \"" << json_escape(cap.schema) << "\",\n"
     << " \"circuit\": \"" << json_escape(cap.circuit) << "\",\n"
     << " \"circuit_path\": \"" << json_escape(cap.circuit_path) << "\",\n"
     << " \"engine\": {\"kind\": \"" << engine_kind_name(cap.options.kind)
     << "\", \"max_forward_frames\": " << cap.options.max_forward_frames
     << ", \"max_backward_frames\": " << cap.options.max_backward_frames
     << ", \"backtrack_limit\": " << cap.options.backtrack_limit
     << ", \"eval_limit\": " << cap.options.eval_limit
     << ", \"verify_reject_limit\": " << cap.options.verify_reject_limit
     << ", \"share_learning\": "
     << (cap.options.share_learning ? "true" : "false") << "},\n"
     << " \"seed\": " << cap.seed
     << ", \"soft_eval_cap\": " << cap.soft_eval_cap
     << ", \"config_digest\": \"" << cap.config_digest << "\",\n"
     << " \"fault\": \"" << json_escape(cap.fault) << "\""
     << ", \"fault_index\": " << cap.fault_index
     << ", \"reason\": \"" << json_escape(cap.reason) << "\""
     << ", \"status\": \"" << json_escape(cap.status) << "\""
     << ", \"wall_aborted\": " << (cap.wall_aborted ? "true" : "false")
     << ", \"abort_check\": " << cap.abort_check << ",\n"
     << " \"stats\": {\"evals\": " << cap.evals
     << ", \"backtracks\": " << cap.backtracks
     << ", \"implications\": " << cap.implications << "},\n"
     << " \"ring\": {\"capacity\": " << cap.ring_capacity
     << ", \"total\": " << cap.ring_total << ",\n  \"events\": [";
  for (std::size_t i = 0; i < cap.events.size(); ++i) {
    const DecisionEvent& e = cap.events[i];
    os << (i == 0 ? "\n   " : ",\n   ") << "[\""
       << decision_event_code(e.kind) << "\", " << e.frame << ", " << e.node
       << ", " << static_cast<int>(e.value) << ", \""
       << strprintf("%016llx", static_cast<unsigned long long>(e.aux))
       << "\"]";
  }
  os << "\n  ]}\n}\n";
  return os.good();
}

bool parse_capture_json(const std::string& path, SearchCapture* out,
                        std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = path + ": " + msg;
    return false;
  };
  std::ifstream is(path);
  if (!is) return fail("cannot open");
  std::ostringstream buf;
  buf << is.rdbuf();
  JsonValue root;
  std::string jerr;
  if (!json_parse(buf.str(), &root, &jerr)) return fail(jerr);
  if (!root.is_object()) return fail("not a JSON object");

  SearchCapture cap;
  cap.schema = root.str_or("schema", "");
  if (cap.schema.rfind("satpg.search_capture.", 0) != 0)
    return fail("unexpected schema \"" + cap.schema + "\"");
  cap.circuit = root.str_or("circuit", "");
  cap.circuit_path = root.str_or("circuit_path", "");
  const JsonValue* eng = root.find("engine");
  if (eng == nullptr || !eng->is_object()) return fail("missing engine block");
  if (!parse_engine_kind(eng->str_or("kind", ""), &cap.options.kind))
    return fail("unknown engine kind \"" + eng->str_or("kind", "") + "\"");
  const std::pair<const char*, int*> int_fields[] = {
      {"max_forward_frames", &cap.options.max_forward_frames},
      {"max_backward_frames", &cap.options.max_backward_frames},
      {"verify_reject_limit", &cap.options.verify_reject_limit}};
  for (const auto& [key, field] : int_fields) {
    const double v = eng->num_or(key, *field);
    if (!fits(v, 0, std::numeric_limits<int>::max()))
      return fail(strprintf("engine.%s %g out of range", key, v));
    *field = static_cast<int>(v);
  }
  cap.options.backtrack_limit = eng->uint_or("backtrack_limit", 4000);
  cap.options.eval_limit = eng->uint_or("eval_limit", 4'000'000);
  cap.options.share_learning = eng->bool_or("share_learning", true);
  cap.seed = root.uint_or("seed", 0);
  cap.soft_eval_cap = root.uint_or("soft_eval_cap", 0);
  cap.config_digest = root.str_or("config_digest", "");
  cap.fault = root.str_or("fault", "");
  cap.fault_index = static_cast<std::size_t>(root.uint_or("fault_index", 0));
  cap.reason = root.str_or("reason", "");
  cap.status = root.str_or("status", "");
  cap.wall_aborted = root.bool_or("wall_aborted", false);
  cap.abort_check = root.uint_or("abort_check", 0);
  if (const JsonValue* stats = root.find("stats")) {
    cap.evals = stats->uint_or("evals", 0);
    cap.backtracks = stats->uint_or("backtracks", 0);
    cap.implications = stats->uint_or("implications", 0);
  }
  const JsonValue* ring = root.find("ring");
  if (ring == nullptr || !ring->is_object()) return fail("missing ring block");
  cap.ring_capacity = static_cast<std::size_t>(
      ring->uint_or("capacity", DecisionRing::kDefaultCapacity));
  if (cap.ring_capacity == 0 || cap.ring_capacity > kMaxRingCapacity)
    return fail(strprintf("ring capacity %zu outside [1, %llu]",
                          cap.ring_capacity,
                          static_cast<unsigned long long>(kMaxRingCapacity)));
  cap.ring_total = ring->uint_or("total", 0);
  const JsonValue* events = ring->find("events");
  if (events == nullptr || !events->is_array())
    return fail("missing ring.events array");
  constexpr double kI32Min = std::numeric_limits<std::int32_t>::min();
  constexpr double kI32Max = std::numeric_limits<std::int32_t>::max();
  // Ranges of the numeric event fields, in array order after the code.
  constexpr struct {
    const char* name;
    double lo, hi;
  } kEventFields[] = {
      {"frame", kI32Min, kI32Max},
      {"node", kI32Min, kI32Max},
      {"value", 0, 255}};
  for (const JsonValue& ev : events->array()) {
    if (!ev.is_array() || ev.array().size() != 5)
      return fail("malformed event (want [code, frame, node, value, aux])");
    const auto& a = ev.array();
    if (!a[0].is_string() || !a[1].is_number() || !a[2].is_number() ||
        !a[3].is_number() || !a[4].is_string())
      return fail("malformed event field types");
    DecisionEvent e;
    if (!parse_event_code(a[0].string(), &e.kind))
      return fail("unknown event code \"" + a[0].string() + "\"");
    for (std::size_t f = 0; f < 3; ++f)
      if (!fits(a[f + 1].number(), kEventFields[f].lo, kEventFields[f].hi))
        return fail(strprintf("event %zu: %s %g out of range",
                              cap.events.size(), kEventFields[f].name,
                              a[f + 1].number()));
    e.frame = static_cast<std::int32_t>(a[1].number());
    e.node = static_cast<std::int32_t>(a[2].number());
    e.value = static_cast<std::uint8_t>(a[3].number());
    e.aux = parse_hex64(a[4].string());
    cap.events.push_back(e);
  }
  if (cap.events.size() >
      std::min<std::uint64_t>(cap.ring_total, cap.ring_capacity))
    return fail("more events than the ring could have kept");
  *out = cap;
  return true;
}

ReplayResult replay_capture(const Netlist& nl, const SearchCapture& cap) {
  ReplayResult res;
  if (nl.name() != cap.circuit) {
    res.message = strprintf("circuit mismatch: netlist \"%s\" vs capture \"%s\"",
                            nl.name().c_str(), cap.circuit.c_str());
    return res;
  }
  const std::string digest = capture_config_digest(cap);
  if (!cap.config_digest.empty() && digest != cap.config_digest) {
    res.message = "config_digest mismatch (capture edited?): computed " +
                  digest + " vs recorded " + cap.config_digest;
    return res;
  }
  const auto collapsed = collapse_faults(nl);
  if (cap.fault_index >= collapsed.size()) {
    res.message = strprintf("fault_index %zu out of range (%zu collapsed faults)",
                            cap.fault_index, collapsed.size());
    return res;
  }
  const Fault& fault = collapsed[cap.fault_index].representative;
  const std::string name = fault_name(nl, fault);
  if (name != cap.fault) {
    res.message = "fault name mismatch at index " +
                  std::to_string(cap.fault_index) + ": netlist has \"" + name +
                  "\" vs capture \"" + cap.fault + "\"";
    return res;
  }

  // Re-run the attempt with an identically-configured engine. Only a
  // capture cut short by the wall-clock abort needs intervention: the
  // engine re-cuts the search at the recorded decision-loop check index,
  // which is a pure function of the search path, so the replay follows
  // the identical trajectory through the cut. Deterministic endings
  // (detected/redundant/budget) must reproduce the same stream with no
  // forcing at all.
  nl.compiled();
  if (cap.options.kind == EngineKind::kCdcl) nl.fanout_cones();
  DecisionRing ring(cap.ring_capacity);
  AtpgEngine engine(nl, cap.options);
  engine.set_decision_ring(&ring);
  engine.set_soft_eval_cap(cap.soft_eval_cap);
  if (cap.abort_check != 0) engine.set_abort_at_check(cap.abort_check);
  const FaultAttempt attempt = engine.generate(fault);

  res.status = fault_status_name(attempt.status);
  res.replayed_events = ring.total();
  res.events = ring.window();

  const std::string learn_note =
      cap.options.kind == EngineKind::kLearning ||
              (cap.options.kind == EngineKind::kCdcl &&
               cap.options.share_learning)
          ? " (note: this engine consults caches warmed by other faults; "
            "single-fault replay cannot reconstruct them — divergence is "
            "expected, see DESIGN.md §7. For kCdcl, re-capture with "
            "--no-shared-learning for a bit-exact replay)"
          : "";
  if (ring.total() != cap.ring_total) {
    res.mismatch_index = static_cast<std::int64_t>(
        std::min<std::uint64_t>(ring.total(), cap.ring_total));
    res.message = strprintf(
        "event count diverged: replay produced %llu events, capture recorded "
        "%llu",
        static_cast<unsigned long long>(ring.total()),
        static_cast<unsigned long long>(cap.ring_total)) + learn_note;
    return res;
  }
  const std::uint64_t base =
      cap.ring_total -
      std::min<std::uint64_t>(cap.ring_total, cap.ring_capacity);
  const std::size_t n = std::min(res.events.size(), cap.events.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (res.events[i] == cap.events[i]) continue;
    res.mismatch_index = static_cast<std::int64_t>(base + i);
    const DecisionEvent& want = cap.events[i];
    const DecisionEvent& got = res.events[i];
    res.message = strprintf(
        "decision stream diverged at absolute event %llu: capture "
        "[%s %d %d %d] vs replay [%s %d %d %d]",
        static_cast<unsigned long long>(base + i),
        decision_event_code(want.kind), want.frame, want.node,
        static_cast<int>(want.value), decision_event_code(got.kind),
        got.frame, got.node, static_cast<int>(got.value)) + learn_note;
    return res;
  }
  if (res.events.size() != cap.events.size()) {
    res.mismatch_index = static_cast<std::int64_t>(base + n);
    res.message = "kept-window size diverged" + learn_note;
    return res;
  }
  res.ok = true;
  res.message = strprintf(
      "replay matched: %llu events (window of %zu), status %s",
      static_cast<unsigned long long>(cap.ring_total), cap.events.size(),
      res.status.c_str());
  return res;
}

}  // namespace satpg
