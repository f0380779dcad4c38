#include "atpg/tfm.h"

#include <algorithm>
#include <array>
#include <limits>

#include "base/metrics.h"

namespace satpg {

namespace {

// A folded gate's output rail from the set of values on its fan-ins' rail
// (`seen`, bit 1 << V3 per value present) and their XOR parity (`odd`).
// A one-input BUF/OUTPUT/NOT folds like a one-input AND/NAND.
constexpr V3 fold_rail(GateType type, unsigned seen, bool odd) {
  const bool zero = seen & (1u << static_cast<unsigned>(V3::kZero));
  const bool one = seen & (1u << static_cast<unsigned>(V3::kOne));
  const bool x = seen & (1u << static_cast<unsigned>(V3::kX));
  bool invert = false;
  V3 r = V3::kX;
  switch (type) {
    case GateType::kNot:
    case GateType::kNand:
      invert = true;
      [[fallthrough]];
    case GateType::kBuf:
    case GateType::kOutput:
    case GateType::kAnd:
      r = zero ? V3::kZero : x ? V3::kX : V3::kOne;
      break;
    case GateType::kNor:
      invert = true;
      [[fallthrough]];
    case GateType::kOr:
      r = one ? V3::kOne : x ? V3::kX : V3::kZero;
      break;
    case GateType::kXnor:
      invert = true;
      [[fallthrough]];
    case GateType::kXor:
      r = x ? V3::kX : odd ? V3::kOne : V3::kZero;
      break;
    default:  // sources are never folded
      break;
  }
  if (invert && r != V3::kX) r = r == V3::kZero ? V3::kOne : V3::kZero;
  return r;
}

// kRailTable[type][seen | odd << 3] = fold_rail(type, seen, odd).
constexpr std::size_t kNumGateTypes =
    static_cast<std::size_t>(GateType::kXnor) + 1;
using RailTable = std::array<std::array<V3, 16>, kNumGateTypes>;
constexpr RailTable kRailTable = [] {
  RailTable table{};
  for (std::size_t t = 0; t < kNumGateTypes; ++t)
    for (unsigned k = 0; k < 16; ++k)
      table[t][k] = fold_rail(static_cast<GateType>(t), k & 7u, k >> 3);
  return table;
}();

// The fold below reads a row with four unconditional loads.
constexpr std::size_t kRowFanins = CompiledNetlist::kRowFanins;
static_assert(kRowFanins == 4);

}  // namespace

TimeFrameModel::TimeFrameModel(const Netlist& nl, std::optional<Fault> fault,
                               int num_frames)
    : nl_(nl),
      c_(nl.compiled()),
      n_(nl.num_nodes()),
      fault_(std::move(fault)),
      num_frames_(num_frames) {
  SATPG_CHECK(num_frames >= 1);
  const std::size_t total = static_cast<std::size_t>(num_frames) * n_;
  SATPG_CHECK_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                  "frames x nodes exceeds the trail's 32-bit index");
  values_.assign(total, V5{});
  decisions_.assign(total, V3::kX);
  if (fault_) {
    fault_node_ = fault_->node;
    fault_pin_ = fault_->pin;
    stuck_ = fault_->stuck1 ? V3::kOne : V3::kZero;
  }

  const std::size_t num_live = c_.topo.size();
  const std::size_t num_levels = c_.num_levels();
  bucket_.resize(static_cast<std::size_t>(num_frames) * num_live);
  fill_.assign(static_cast<std::size_t>(num_frames) * num_levels, 0);
  lo_.assign(static_cast<std::size_t>(num_frames), num_levels);
  hi_.assign(static_cast<std::size_t>(num_frames), 0);
  in_queue_.assign(total, Queued::kNo);

  // Initial full evaluation (everything X, but faulty-rail pins and
  // constants must settle).
  for (int t = 0; t < num_frames_; ++t)
    for (NodeId id : c_.topo) mark_dirty(t, id);
  propagate();
  trail_.clear();  // initial state is the baseline; not undoable
}

TimeFrameModel::TimeFrameModel(Template, const Netlist& nl,
                               std::optional<Fault> fault, int num_frames)
    : TimeFrameModel(nl, std::move(fault), num_frames) {
  template_.set = true;
}

TimeFrameModel::~TimeFrameModel() {
  if (evals_ != 0 && !template_.set && metrics_enabled()) {
    static MetricsRegistry::Counter& c =
        MetricsRegistry::global().counter("tfm.evals");
    c.add(evals_);
  }
}

void TimeFrameModel::mark_dirty(int frame, NodeId node) {
  const std::size_t idx = flat(frame, node);
  if (in_queue_[idx] == Queued::kYes) return;
  in_queue_[idx] = Queued::kYes;
  const auto t = static_cast<std::size_t>(frame);
  const std::uint32_t l = c_.level[static_cast<std::size_t>(node)];
  bucket_[t * c_.topo.size() + c_.level_start[l] +
          fill_[t * c_.num_levels() + l]++] = node;
  lo_[t] = std::min(lo_[t], l);
  hi_[t] = std::max(hi_[t], l);
}

void TimeFrameModel::propagate() {
  // One loop over locals: every array base is loaded once, and evaluation,
  // the trail write and the queueing are written out here.
  const std::size_t n = n_;
  const std::size_t num_live = c_.topo.size();
  const std::size_t num_levels = c_.num_levels();
  const GateType* const type = c_.type.data();
  const std::uint32_t* const level = c_.level.data();
  const std::uint32_t* const level_start = c_.level_start.data();
  const std::uint32_t* const fanin_off = c_.fanin_off.data();
  const NodeId* const fanin = c_.fanin.data();
  const NodeId* const fanin_row = c_.fanin_row.data();
  const std::uint32_t* const fanout_off = c_.fanout_off.data();
  const NodeId* const fanout = c_.fanout.data();
  const NodeId fault_node = fault_node_;
  const int fault_pin = fault_pin_;
  const V3 stuck = stuck_;
  std::uint64_t evals = 0;
  for (int t = 0; t < num_frames_; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    NodeId* const bucket = bucket_.data() + ut * num_live;
    std::uint32_t* const fill = fill_.data() + ut * num_levels;
    V5* const row = values_.data() + ut * n;
    const V5* const prev_row = t > 0 ? row - n : nullptr;
    const V3* const dec = decisions_.data() + ut * n;
    Queued* const queued = in_queue_.data() + ut * n;
    // Frame t+1's queue, where a FF latches a changed D driver. A FF is at
    // level 0, whose bucket slots come first.
    const bool has_next = t + 1 < num_frames_;
    NodeId* const next_bucket = bucket + num_live;
    std::uint32_t* const next_fill = fill + num_levels;
    Queued* const next_queued = queued + n;
    // A node dirties only higher levels of this frame, so each level is
    // complete once the sweep reaches it; `hi` may grow during the sweep.
    std::uint32_t hi = hi_[ut];
    for (std::uint32_t l = lo_[ut]; l <= hi; ++l) {
      const std::uint32_t count = fill[l];
      fill[l] = 0;
      evals += count;
      const NodeId* const nodes = bucket + level_start[l];
      for (std::uint32_t i = 0; i < count; ++i) {
        const NodeId id = nodes[i];
        const auto u = static_cast<std::size_t>(id);
        queued[u] = Queued::kNo;

        // Both rails of `id` from its fan-ins' current values.
        V5 nv;
        const NodeId* const in = fanin_row + kRowFanins * u;
        if (l == 0) {  // PIs, FFs and constants
          switch (type[u]) {
            case GateType::kInput:
              nv.g = nv.f = dec[u];
              break;
            case GateType::kDff:
              if (t == 0) {
                nv.g = nv.f = dec[u];
              } else {
                nv = prev_row[fanin[fanin_off[u]]];
                if (id == fault_node && fault_pin == 0) nv.f = stuck;  // D
              }
              break;
            case GateType::kConst0:
              nv.g = nv.f = V3::kZero;
              break;
            default:  // kConst1
              nv.g = nv.f = V3::kOne;
              break;
          }
        } else if (in[0] != kNoNode && id != fault_node) {
          // The fixed row: four loads, no fan-in loop and no pin test.
          // Bit (1 << value) records which of 0/1/X occur on a rail, and a
          // repeated fan-in sets no new bit.
          const V5 a = row[in[0]], b = row[in[1]], c = row[in[2]],
                   d = row[in[3]];
          const unsigned seen_g = 1u << static_cast<unsigned>(a.g) |
                                  1u << static_cast<unsigned>(b.g) |
                                  1u << static_cast<unsigned>(c.g) |
                                  1u << static_cast<unsigned>(d.g);
          const unsigned seen_f = 1u << static_cast<unsigned>(a.f) |
                                  1u << static_cast<unsigned>(b.f) |
                                  1u << static_cast<unsigned>(c.f) |
                                  1u << static_cast<unsigned>(d.f);
          const auto& rail = kRailTable[static_cast<std::size_t>(type[u])];
          nv.g = rail[seen_g];
          nv.f = rail[seen_f];
        } else {
          // The fault's host, XOR/XNOR and gates wider than a row: one
          // pass over the CSR fan-ins that also accumulates XOR parity in
          // the low value bit. The faulty rail reads the stuck value on a
          // faulted input pin.
          const std::uint32_t begin = fanin_off[u];
          const std::uint32_t end = fanin_off[u + 1];
          const std::uint32_t pin =
              id == fault_node && fault_pin >= 0
                  ? begin + static_cast<std::uint32_t>(fault_pin)
                  : end;
          unsigned seen_g = 0, seen_f = 0, par_g = 0, par_f = 0;
          for (std::uint32_t k = begin; k < end; ++k) {
            const V5 v = row[fanin[k]];
            const auto g = static_cast<unsigned>(v.g);
            const auto f = static_cast<unsigned>(k == pin ? stuck : v.f);
            seen_g |= 1u << g;
            seen_f |= 1u << f;
            par_g ^= g;
            par_f ^= f;
          }
          const auto& rail = kRailTable[static_cast<std::size_t>(type[u])];
          nv.g = rail[seen_g | (par_g & 1u) << 3];
          nv.f = rail[seen_f | (par_f & 1u) << 3];
        }
        if (id == fault_node && fault_pin < 0) nv.f = stuck;  // stem fault

        const V5 old = row[u];
        if (nv == old) continue;
        trail_.push_back({static_cast<std::uint32_t>(ut * n + u), old, false});
        row[u] = nv;
        if (old.is_d() != nv.is_d()) {
          if (nv.is_d())
            d_set_.insert({t, id});
          else
            d_set_.erase({t, id});
        }

        for (std::uint32_t k = fanout_off[u]; k < fanout_off[u + 1]; ++k) {
          const NodeId s = fanout[k];
          const auto us = static_cast<std::size_t>(s);
          if (type[us] != GateType::kDff) {
            if (queued[us] == Queued::kYes) continue;
            queued[us] = Queued::kYes;
            const std::uint32_t ls = level[us];
            bucket[level_start[ls] + fill[ls]++] = s;
            hi = std::max(hi, ls);
          } else if (has_next && next_queued[us] == Queued::kNo) {
            next_queued[us] = Queued::kYes;
            next_bucket[next_fill[0]++] = s;
            lo_[ut + 1] = 0;
          }
        }
      }
    }
    lo_[ut] = static_cast<std::uint32_t>(num_levels);
    hi_[ut] = 0;
  }
  evals_ += evals;
  if (external_evals_ != nullptr) *external_evals_ += evals;
}

std::size_t TimeFrameModel::assign(int frame, NodeId node, V3 v) {
  SATPG_CHECK(is_decision_var(frame, node));
  const std::size_t mark = trail_.size();
  const std::size_t idx = flat(frame, node);
  SATPG_CHECK_MSG(decisions_[idx] == V3::kX, "reassigning a decision var");
  trail_.push_back({static_cast<std::uint32_t>(idx), values_[idx], true});
  decisions_[idx] = v;
  mark_dirty(frame, node);
  propagate();
  return mark;
}

void TimeFrameModel::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry e = trail_.back();
    trail_.pop_back();
    if (e.decision) decisions_[e.idx] = V3::kX;
    const bool was_d = values_[e.idx].is_d();
    values_[e.idx] = e.old_value;
    if (was_d != e.old_value.is_d()) {
      const int frame = static_cast<int>(e.idx / n_);
      const NodeId node = static_cast<NodeId>(e.idx % n_);
      if (e.old_value.is_d())
        d_set_.insert({frame, node});
      else
        d_set_.erase({frame, node});
    }
  }
}

bool TimeFrameModel::is_decision_var(int frame, NodeId node) const {
  const GateType type = c_.type[static_cast<std::size_t>(node)];
  if (type == GateType::kInput) return frame >= 0 && frame < num_frames_;
  if (type == GateType::kDff) return frame == 0;
  return false;
}

V3 TimeFrameModel::decision_value(int frame, NodeId node) const {
  return decisions_[flat(frame, node)];
}

bool TimeFrameModel::detected_at_po() const {
  for (int t = 0; t < num_frames_; ++t)
    for (NodeId po : nl_.outputs())
      if (values_[flat(t, po)].is_d()) return true;
  return false;
}

bool TimeFrameModel::d_reaches_boundary() const {
  const int last = num_frames_ - 1;
  for (NodeId ff : nl_.dffs()) {
    const NodeId d = nl_.node(ff).fanins[0];
    V5 v = values_[flat(last, d)];
    if (fault_ && fault_->node == ff && fault_->pin == 0)
      v.f = fault_->stuck1 ? V3::kOne : V3::kZero;
    if (v.is_d()) return true;
  }
  return false;
}

bool TimeFrameModel::effect_still_possible(bool allow_boundary) const {
  if (!fault_) return true;
  const V3 stuck = fault_->stuck1 ? V3::kOne : V3::kZero;

  if (d_set_.empty()) {
    // Not excited anywhere: excitable iff the faulted line's good value can
    // still become the opposite of the stuck value in some frame.
    const NodeId line = fault_->pin >= 0
                            ? nl_.node(fault_->node)
                                  .fanins[static_cast<std::size_t>(
                                      fault_->pin)]
                            : fault_->node;
    for (int t = 0; t < num_frames_; ++t) {
      const V3 g = values_[flat(t, line)].g;
      if (g == V3::kX || g != stuck) return true;
    }
    // A pin fault can also already be "excited" at the gate even when the
    // line equals stuck... no: excitation requires line good != stuck.
    return false;
  }

  // Depth-first forward reachability from the current D nodes (maintained
  // by propagate/undo_to) through X-capable nodes. Every mark set is
  // recorded in reach_marked_ and cleared on the way out.
  if (reach_seen_.empty()) reach_seen_.assign(values_.size(), 0);
  std::vector<std::pair<int, NodeId>>& stack = reach_stack_;
  std::vector<std::size_t>& marked = reach_marked_;
  stack.assign(d_set_.begin(), d_set_.end());
  marked.clear();
  for (const auto& [t, id] : stack) {
    marked.push_back(flat(t, id));
    reach_seen_[marked.back()] = 1;
  }
  const auto reach = [&] {
    while (!stack.empty()) {
      const auto [t, id] = stack.back();
      stack.pop_back();
      if (c_.type[static_cast<std::size_t>(id)] == GateType::kOutput)
        return true;  // reachable or already D
      // Does this node drive a FF into the next frame (or the boundary)?
      for (NodeId s : c_.fanouts(id)) {
        int nt = t;
        if (c_.type[static_cast<std::size_t>(s)] == GateType::kDff) {
          if (t + 1 >= num_frames_) {
            if (allow_boundary) return true;
            continue;
          }
          nt = t + 1;
        }
        const std::size_t sidx = flat(nt, s);
        if (reach_seen_[sidx]) continue;
        const V5 sv = values_[sidx];
        if (!(sv.any_x() || sv.is_d())) continue;  // blocked
        reach_seen_[sidx] = 1;
        marked.push_back(sidx);
        stack.push_back({nt, s});
      }
    }
    return false;
  };
  const bool reached = reach();
  for (const std::size_t idx : marked) reach_seen_[idx] = 0;
  return reached;
}

}  // namespace satpg
