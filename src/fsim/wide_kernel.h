// Backend-templated PPSFP batch kernel, included ONLY by the per-tier
// translation units (wide_scalar.cpp / wide_sse2.cpp / wide_avx2.cpp /
// wide_avx512.cpp).
//
// Everything here lives in an anonymous namespace ON PURPOSE: those TUs
// are compiled with wider -m flags than the rest of the build, and any
// external-linkage inline/template code they emitted could be the copy
// the linker picks for the whole program — which would leak AVX
// instructions into binaries that must also run on narrower CPUs. With
// internal linkage every TU keeps its own private copies and the ISA
// boundary is exactly the exported kernel_*/selftest_* functions, which
// are only called after the runtime CPUID check (src/base/cpu.h).
//
// The kernel runs one (lane-group, fault-batch) frame loop over the
// flattened WideView (see wide_internal.h). Semantics mirror
// fsim.cpp::simulate_batch exactly, lifted from one PV word to
// PVW::kSubWords sub-words — sub-word g is sequence lane g, slot 0 of
// every sub-word is that lane's good machine, slots 1..63 are the batch's
// faulty machines.
//
// Faults are injected as slot masks (PROOFS style): a stem fault forces
// its slot on the node's value after the evaluation; a pin fault forces
// its slot on a private copy of the faulted fan-in before it, so each gate
// costs one plane evaluation per batch however many faults it carries.
#pragma once

#include "fsim/wide_internal.h"

namespace satpg {
namespace fsim_wide {
namespace {  // internal linkage on purpose — see header comment

// Private three-valued helpers (duplicated from sim/value.h so the kernel
// never odr-uses inline functions shared with other TUs).
inline V3 wv_not3(V3 a) {
  if (a == V3::kZero) return V3::kOne;
  if (a == V3::kOne) return V3::kZero;
  return V3::kX;
}

inline V3 wv_and3(V3 a, V3 b) {
  if (a == V3::kZero || b == V3::kZero) return V3::kZero;
  if (a == V3::kOne && b == V3::kOne) return V3::kOne;
  return V3::kX;
}

inline V3 wv_or3(V3 a, V3 b) {
  if (a == V3::kOne || b == V3::kOne) return V3::kOne;
  if (a == V3::kZero && b == V3::kZero) return V3::kZero;
  return V3::kX;
}

inline V3 wv_xor3(V3 a, V3 b) {
  if (a == V3::kX || b == V3::kX) return V3::kX;
  return (a == b) ? V3::kZero : V3::kOne;
}

inline V3 wv_slot(const PVW& w, unsigned g, unsigned s) {
  const std::uint64_t m = 1ULL << s;
  if (w.zero[g] & m) return V3::kZero;
  if (w.one[g] & m) return V3::kOne;
  return V3::kX;
}

inline void wv_set_slot(PVW& w, unsigned g, unsigned s, V3 v) {
  const std::uint64_t m = 1ULL << s;
  w.zero[g] &= ~m;
  w.one[g] &= ~m;
  if (v == V3::kZero)
    w.zero[g] |= m;
  else if (v == V3::kOne)
    w.one[g] |= m;
}

/// Force `slot` to the stuck value in every sub-word (all lanes).
inline void wv_force_slot(PVW& w, unsigned slot, bool stuck1) {
  const std::uint64_t m = 1ULL << slot;
  for (unsigned g = 0; g < kLanes; ++g) {
    w.zero[g] &= ~m;
    w.one[g] &= ~m;
    if (stuck1)
      w.one[g] |= m;
    else
      w.zero[g] |= m;
  }
}

inline bool wv_well_formed(const PVW& w) {
  std::uint64_t bad = 0;
  for (unsigned g = 0; g < kLanes; ++g) bad |= w.zero[g] & w.one[g];
  return bad == 0;
}

/// Portable backend: plain uint64_t loops over the kSubWords sub-words.
/// Also the semantic reference the per-tier selftests are checked against.
struct ScalarOps {
  static void fill_x(PVW& d) {
    for (unsigned g = 0; g < kLanes; ++g) {
      d.zero[g] = 0;
      d.one[g] = 0;
    }
  }
  static void copy(PVW& d, const PVW& s) {
    for (unsigned g = 0; g < kLanes; ++g) {
      d.zero[g] = s.zero[g];
      d.one[g] = s.one[g];
    }
  }
  /// Broadcast per-lane good masks: bit g of zm/om => sub-word g is
  /// all-0 / all-1 (neither => all-X).
  static void expand(PVW& d, std::uint8_t zm, std::uint8_t om) {
    for (unsigned g = 0; g < kLanes; ++g) {
      d.zero[g] = 0ULL - static_cast<std::uint64_t>((zm >> g) & 1);
      d.one[g] = 0ULL - static_cast<std::uint64_t>((om >> g) & 1);
    }
  }
  static void not_ip(PVW& d) {
    for (unsigned g = 0; g < kLanes; ++g) {
      const std::uint64_t z = d.zero[g];
      d.zero[g] = d.one[g];
      d.one[g] = z;
    }
  }
  static void and_acc(PVW& d, const PVW& s) {
    for (unsigned g = 0; g < kLanes; ++g) {
      d.zero[g] |= s.zero[g];
      d.one[g] &= s.one[g];
    }
  }
  static void or_acc(PVW& d, const PVW& s) {
    for (unsigned g = 0; g < kLanes; ++g) {
      d.zero[g] &= s.zero[g];
      d.one[g] |= s.one[g];
    }
  }
  static void xor_acc(PVW& d, const PVW& s) {
    for (unsigned g = 0; g < kLanes; ++g) {
      const std::uint64_t known =
          (d.zero[g] | d.one[g]) & (s.zero[g] | s.one[g]);
      const std::uint64_t x = (d.one[g] ^ s.one[g]) & known;
      d.zero[g] = known & ~x;
      d.one[g] = x;
    }
  }
  /// d == expand(zm, om)? (the activity check).
  static bool eq_expand(const PVW& d, std::uint8_t zm, std::uint8_t om) {
    std::uint64_t acc = 0;
    for (unsigned g = 0; g < kLanes; ++g) {
      acc |= d.zero[g] ^ (0ULL - static_cast<std::uint64_t>((zm >> g) & 1));
      acc |= d.one[g] ^ (0ULL - static_cast<std::uint64_t>((om >> g) & 1));
    }
    return acc == 0;
  }
};

template <class Ops>
inline void eval_wop(std::uint8_t op, const PVW* const* s, std::size_t n,
                     PVW& v) {
  switch (static_cast<WOp>(op)) {
    case kWConst0:
      Ops::expand(v, 0xff, 0x00);
      break;
    case kWConst1:
      Ops::expand(v, 0x00, 0xff);
      break;
    case kWBuf:
    case kWOutput:
      Ops::copy(v, *s[0]);
      break;
    case kWNot:
      Ops::copy(v, *s[0]);
      Ops::not_ip(v);
      break;
    case kWAnd:
    case kWNand:
      Ops::copy(v, *s[0]);
      for (std::size_t k = 1; k < n; ++k) Ops::and_acc(v, *s[k]);
      if (static_cast<WOp>(op) == kWNand) Ops::not_ip(v);
      break;
    case kWOr:
    case kWNor:
      Ops::copy(v, *s[0]);
      for (std::size_t k = 1; k < n; ++k) Ops::or_acc(v, *s[k]);
      if (static_cast<WOp>(op) == kWNor) Ops::not_ip(v);
      break;
    case kWXor:
    case kWXnor:
      Ops::copy(v, *s[0]);
      for (std::size_t k = 1; k < n; ++k) Ops::xor_acc(v, *s[k]);
      if (static_cast<WOp>(op) == kWXnor) Ops::not_ip(v);
      break;
  }
}

#if !defined(NDEBUG)
/// Debug invariant: well-formed planes, and slot 0 of every live lane
/// equals that lane's good value (the good machine never sees injections).
inline bool wv_good_slot0_ok(const PVW& v, std::uint8_t zm, std::uint8_t om,
                             std::uint8_t live) {
  if (!wv_well_formed(v)) return false;
  for (unsigned g = 0; g < kLanes; ++g) {
    if (!((live >> g) & 1)) continue;
    const V3 good = (zm >> g) & 1   ? V3::kZero
                    : (om >> g) & 1 ? V3::kOne
                                    : V3::kX;
    if (wv_slot(v, g, 0) != good) return false;
  }
  return true;
}
#endif

/// One (lane-group, batch) simulation across all frames. Mirrors
/// fsim.cpp::simulate_batch; see WideView for the data contract.
template <class Ops>
void run_group_batch(const WideView& w) {
  std::uint64_t evals = 0, skips = 0;
  for (unsigned g = 0; g < kLanes; ++g) {
    w.det_acc[g] = 0;
    w.pot_acc[g] = 0;
  }
  for (std::size_t i = 0; i < w.dff_count; ++i)
    Ops::fill_x(w.state[w.dff_index[i]]);

  for (std::size_t t = 0; t < w.frames; ++t) {
    const std::uint8_t* zm = w.zm + t * w.num_nodes;
    const std::uint8_t* om = w.om + t * w.num_nodes;
    const std::uint8_t live = w.live[t];

    // Cone sources. A PI carries its good value in every slot (the good
    // trace at a PI is the applied vector; dead lanes are all-X), so it
    // is active only when a stem injection actually changed something.
    for (std::size_t i = 0; i < w.pi_count; ++i) {
      const auto id = static_cast<std::size_t>(w.pi_ids[i]);
      PVW& v = w.val[id];
      Ops::expand(v, zm[id], om[id]);
      bool injected = false;
      for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next)
        if (w.inj[e].pin < 0) {
          wv_force_slot(v, w.inj[e].slot, w.inj[e].stuck1 != 0);
          injected = true;
        }
      w.active[id] = injected && !Ops::eq_expand(v, zm[id], om[id]) ? 1 : 0;
    }
    for (std::size_t i = 0; i < w.dff_count; ++i) {
      const auto id = static_cast<std::size_t>(w.dff_ids[i]);
      PVW& v = w.val[id];
      Ops::copy(v, w.state[w.dff_index[i]]);
      for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next)
        if (w.inj[e].pin < 0)
          wv_force_slot(v, w.inj[e].slot, w.inj[e].stuck1 != 0);
      w.active[id] = Ops::eq_expand(v, zm[id], om[id]) ? 0 : 1;
    }

    // Cone gates and PO markers in topological order.
    for (std::size_t ei = 0; ei < w.eval_count; ++ei) {
      const auto id = static_cast<std::size_t>(w.eval_ids[ei]);
      const std::uint8_t op = w.eval_ops[ei];
      const std::uint32_t fb = w.fanin_begin[id];
      const std::uint32_t fe = w.fanin_begin[id + 1];
      bool act = w.inj_head[id] >= 0;
      if (!act)
        for (std::uint32_t k = fb; k < fe; ++k) {
          const auto f = static_cast<std::size_t>(w.fanin_nodes[k]);
          if (w.in_cone[f] && w.active[f]) {
            act = true;
            break;
          }
        }
      if (!act) {
        ++skips;
        Ops::expand(w.val[id], zm[id], om[id]);
        w.active[id] = 0;
        continue;
      }
      ++evals;
      const std::size_t nfi = fe - fb;
      for (std::size_t k = 0; k < nfi; ++k) {
        const auto f = static_cast<std::size_t>(w.fanin_nodes[fb + k]);
        if (w.in_cone[f]) {
          w.gather_ptrs[k] = &w.val[f];
        } else {
          Ops::expand(w.gather[k], zm[f], om[f]);
          w.gather_ptrs[k] = &w.gather[k];
        }
      }
      const bool po_marker = static_cast<WOp>(op) == kWOutput;
      // Pin faults: force the fault's slot on a private copy of the
      // faulted fan-in, so one plane evaluation serves the whole batch.
      // The copy is per pin, so a node read on two pins is forced on one.
      if (!po_marker)
        for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next) {
          const WInject& j = w.inj[e];
          if (j.pin < 0) continue;
          const auto k = static_cast<std::size_t>(j.pin);
          if (w.gather_ptrs[k] != &w.gather[k]) {
            Ops::copy(w.gather[k], *w.gather_ptrs[k]);
            w.gather_ptrs[k] = &w.gather[k];
          }
          wv_force_slot(w.gather[k], j.slot, j.stuck1 != 0);
        }
      PVW& v = w.val[id];
      eval_wop<Ops>(op, w.gather_ptrs, nfi, v);
      // Stem faults, and the PO marker's pin-0 fault, force the output.
      for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next) {
        const WInject& j = w.inj[e];
        if (po_marker ? j.pin == 0 : j.pin < 0)
          wv_force_slot(v, j.slot, j.stuck1 != 0);
      }
      w.active[id] = Ops::eq_expand(v, zm[id], om[id]) ? 0 : 1;
#if !defined(NDEBUG)
      if (!wv_good_slot0_ok(v, zm[id], om[id], live))
        __builtin_trap();  // wide-word invariant broken
#endif
    }

    // Detection per live lane with a known good value: slot differs from
    // good with both known => detect; slot X => potential detect. Slot 0
    // (the good machine) is masked out of both.
    for (std::size_t p = 0; p < w.po_count; ++p) {
      const auto id = static_cast<std::size_t>(w.po_ids[p]);
      const PVW& v = w.val[id];
      const std::uint8_t gz = zm[id] & live;
      const std::uint8_t go = om[id] & live;
      unsigned lanes = gz | go;
      while (lanes) {
        const unsigned g =
            static_cast<unsigned>(__builtin_ctz(lanes));
        lanes &= lanes - 1;
        const std::uint64_t diff =
            (((go >> g) & 1) ? v.zero[g] : v.one[g]) & ~1ULL;
        w.det_acc[g] |= diff;
        w.pot_acc[g] |= ~(v.zero[g] | v.one[g]) & ~1ULL;
      }
    }

    // Clock the cone's flip-flops (D-pin faults inject here).
    for (std::size_t i = 0; i < w.dff_count; ++i) {
      const auto id = static_cast<std::size_t>(w.dff_ids[i]);
      const auto d = static_cast<std::size_t>(w.dff_dnode[i]);
      PVW& v = w.state[w.dff_index[i]];
      if (w.in_cone[d])
        Ops::copy(v, w.val[d]);
      else
        Ops::expand(v, zm[d], om[d]);
      for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next)
        if (w.inj[e].pin == 0)
          wv_force_slot(v, w.inj[e].slot, w.inj[e].stuck1 != 0);
    }
  }

  if (w.count_metrics) {
    *w.gate_evals += evals;
    *w.activity_skips += skips;
  }
}

/// Lane-by-lane verification of a backend's plane ops against the V3
/// truth tables, on deterministic pseudo-random well-formed words.
template <class Ops>
bool backend_selftest() {
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  auto rand_v3 = [&next]() {
    const std::uint64_t r = next() % 3;
    return r == 0 ? V3::kZero : r == 1 ? V3::kOne : V3::kX;
  };
  auto rand_pvw = [&](PVW& d) {
    Ops::fill_x(d);
    for (unsigned g = 0; g < kLanes; ++g)
      for (unsigned s = 0; s < 64; ++s) wv_set_slot(d, g, s, rand_v3());
  };

  bool ok = true;
  for (int round = 0; round < 64 && ok; ++round) {
    PVW a, b, c;
    rand_pvw(a);
    rand_pvw(b);

    // expand / eq_expand round-trip on disjoint lane masks.
    const auto zm = static_cast<std::uint8_t>(next());
    const auto om = static_cast<std::uint8_t>(next() & ~zm);
    Ops::expand(c, zm, om);
    ok = ok && wv_well_formed(c) && Ops::eq_expand(c, zm, om);
    for (unsigned g = 0; g < kLanes && ok; ++g) {
      const V3 want = (zm >> g) & 1   ? V3::kZero
                      : (om >> g) & 1 ? V3::kOne
                                      : V3::kX;
      for (unsigned s = 0; s < 64; ++s) ok = ok && wv_slot(c, g, s) == want;
    }
    // Perturb one slot: eq_expand must notice.
    const unsigned pg = static_cast<unsigned>(next() % kLanes);
    const unsigned ps = static_cast<unsigned>(next() % 64);
    const V3 old = wv_slot(c, pg, ps);
    wv_set_slot(c, pg, ps, old == V3::kOne ? V3::kZero : V3::kOne);
    ok = ok && !Ops::eq_expand(c, zm, om);

    // copy + not/and/or/xor vs V3 semantics, slot by slot.
    for (int op = 0; op < 4 && ok; ++op) {
      Ops::copy(c, a);
      switch (op) {
        case 0:
          Ops::not_ip(c);
          break;
        case 1:
          Ops::and_acc(c, b);
          break;
        case 2:
          Ops::or_acc(c, b);
          break;
        case 3:
          Ops::xor_acc(c, b);
          break;
      }
      ok = ok && wv_well_formed(c);
      for (unsigned g = 0; g < kLanes && ok; ++g)
        for (unsigned s = 0; s < 64 && ok; ++s) {
          const V3 x = wv_slot(a, g, s);
          const V3 y = wv_slot(b, g, s);
          const V3 want = op == 0   ? wv_not3(x)
                          : op == 1 ? wv_and3(x, y)
                          : op == 2 ? wv_or3(x, y)
                                    : wv_xor3(x, y);
          ok = ok && wv_slot(c, g, s) == want;
        }
    }

    // fill_x.
    Ops::fill_x(c);
    ok = ok && Ops::eq_expand(c, 0, 0);
  }
  return ok;
}

}  // namespace
}  // namespace fsim_wide
}  // namespace satpg
