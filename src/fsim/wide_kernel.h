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
// flattened WideView (see wide_internal.h) and evaluates the whole
// netlist in every frame. Semantics match fsim.cpp::simulate_batch,
// lifted from one PV word to PVW::kSubWords sub-words — sub-word g is
// sequence lane g, slot 0 of every sub-word is that lane's good machine,
// slots 1..63 are the batch's faulty machines. Good PO values and the
// good-state census are read from slot 0.
//
// A backend (`Ops`) is a value type `W` holding one PVW in registers plus
// the ops load, store, and_, or_, xor_, not_, expand and force, so a gate
// is evaluated in registers and stored once. Faults are injected as slot
// masks (PROOFS style): a stem fault forces its slot on the node's value
// after the evaluation; a pin fault forces its slot on a private copy of
// the faulted fan-in before it, so each gate costs one plane evaluation
// per batch however many faults it carries. Gates without a fault read
// their fan-ins straight from `val`.
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

inline bool wv_well_formed(const PVW& w) {
  std::uint64_t bad = 0;
  for (unsigned g = 0; g < kLanes; ++g) bad |= w.zero[g] & w.one[g];
  return bad == 0;
}

inline bool wv_equal(const PVW& a, const PVW& b) {
  std::uint64_t diff = 0;
  for (unsigned g = 0; g < kLanes; ++g)
    diff |= (a.zero[g] ^ b.zero[g]) | (a.one[g] ^ b.one[g]);
  return diff == 0;
}

/// Portable backend: plain uint64_t loops over the kSubWords sub-words.
/// Also the semantic reference the per-tier selftests are checked against.
struct ScalarOps {
  struct W {
    std::uint64_t z[kLanes], o[kLanes];
  };
  static W load(const PVW& p) {
    W r;
    for (unsigned g = 0; g < kLanes; ++g) {
      r.z[g] = p.zero[g];
      r.o[g] = p.one[g];
    }
    return r;
  }
  static void store(PVW& p, const W& a) {
    for (unsigned g = 0; g < kLanes; ++g) {
      p.zero[g] = a.z[g];
      p.one[g] = a.o[g];
    }
  }
  /// Broadcast per-lane masks: bit g of zm/om => sub-word g is all-0 /
  /// all-1 (neither => all-X).
  static W expand(std::uint8_t zm, std::uint8_t om) {
    W r;
    for (unsigned g = 0; g < kLanes; ++g) {
      r.z[g] = 0ULL - static_cast<std::uint64_t>((zm >> g) & 1);
      r.o[g] = 0ULL - static_cast<std::uint64_t>((om >> g) & 1);
    }
    return r;
  }
  /// Force the slots in `m` to the stuck value in every sub-word.
  static W force(const W& a, std::uint64_t m, bool stuck1) {
    const std::uint64_t zs = stuck1 ? 0 : m;
    const std::uint64_t os = stuck1 ? m : 0;
    W r;
    for (unsigned g = 0; g < kLanes; ++g) {
      r.z[g] = (a.z[g] & ~m) | zs;
      r.o[g] = (a.o[g] & ~m) | os;
    }
    return r;
  }
  static W not_(const W& a) {
    W r;
    for (unsigned g = 0; g < kLanes; ++g) {
      r.z[g] = a.o[g];
      r.o[g] = a.z[g];
    }
    return r;
  }
  static W and_(const W& a, const W& b) {
    W r;
    for (unsigned g = 0; g < kLanes; ++g) {
      r.z[g] = a.z[g] | b.z[g];
      r.o[g] = a.o[g] & b.o[g];
    }
    return r;
  }
  static W or_(const W& a, const W& b) {
    W r;
    for (unsigned g = 0; g < kLanes; ++g) {
      r.z[g] = a.z[g] & b.z[g];
      r.o[g] = a.o[g] | b.o[g];
    }
    return r;
  }
  static W xor_(const W& a, const W& b) {
    W r;
    for (unsigned g = 0; g < kLanes; ++g) {
      const std::uint64_t known = (a.z[g] | a.o[g]) & (b.z[g] | b.o[g]);
      r.o[g] = (a.o[g] ^ b.o[g]) & known;
      r.z[g] = known & ~r.o[g];
    }
    return r;
  }
};

/// One gate in registers; `in(k)` yields fan-in k as an Ops::W.
template <class Ops, class In>
inline typename Ops::W eval_wop(std::uint8_t op, std::size_t n, In in) {
  using W = typename Ops::W;
  switch (static_cast<WOp>(op)) {
    case kWConst0:
      return Ops::expand(0xff, 0x00);
    case kWConst1:
      return Ops::expand(0x00, 0xff);
    case kWBuf:
    case kWOutput:
      return in(0);
    case kWNot:
      return Ops::not_(in(0));
    case kWAnd:
    case kWNand: {
      W v = in(0);
      for (std::size_t k = 1; k < n; ++k) v = Ops::and_(v, in(k));
      return static_cast<WOp>(op) == kWNand ? Ops::not_(v) : v;
    }
    case kWOr:
    case kWNor: {
      W v = in(0);
      for (std::size_t k = 1; k < n; ++k) v = Ops::or_(v, in(k));
      return static_cast<WOp>(op) == kWNor ? Ops::not_(v) : v;
    }
    case kWXor:
    case kWXnor: {
      W v = in(0);
      for (std::size_t k = 1; k < n; ++k) v = Ops::xor_(v, in(k));
      return static_cast<WOp>(op) == kWXnor ? Ops::not_(v) : v;
    }
  }
  return Ops::expand(0x00, 0x00);
}

template <class Ops>
inline typename Ops::W force_inj(const typename Ops::W& v, const WInject& j) {
  return Ops::force(v, 1ULL << j.slot, j.stuck1 != 0);
}

/// One (lane-group, batch) simulation across all frames. Mirrors
/// fsim.cpp::simulate_batch over the whole netlist; see WideView for the
/// data contract.
template <class Ops>
void run_group_batch(const WideView& w) {
  using W = typename Ops::W;
  for (unsigned g = 0; g < kLanes; ++g) {
    w.det_acc[g] = 0;
    w.pot_acc[g] = 0;
  }
  const W all_x = Ops::expand(0, 0);
  for (std::size_t i = 0; i < w.dff_count; ++i) Ops::store(w.state[i], all_x);

  for (std::size_t t = 0; t < w.frames; ++t) {
    const std::uint8_t* pz = w.pi_zm + t * w.pi_count;
    const std::uint8_t* po = w.pi_om + t * w.pi_count;
    const std::uint8_t live = w.live[t];

    // Sources: the applied vector (dead lanes all-X) and the state, with
    // stem injections.
    for (std::size_t i = 0; i < w.pi_count; ++i) {
      const auto id = static_cast<std::size_t>(w.pi_ids[i]);
      W v = Ops::expand(pz[i], po[i]);
      for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next)
        if (w.inj[e].pin < 0) v = force_inj<Ops>(v, w.inj[e]);
      Ops::store(w.val[id], v);
    }
    for (std::size_t i = 0; i < w.dff_count; ++i) {
      const auto id = static_cast<std::size_t>(w.dff_ids[i]);
      W v = Ops::load(w.state[i]);
      for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next)
        if (w.inj[e].pin < 0) v = force_inj<Ops>(v, w.inj[e]);
      Ops::store(w.val[id], v);
    }

    // Gates and PO markers in topological order.
    for (std::size_t ei = 0; ei < w.eval_count; ++ei) {
      const auto id = static_cast<std::size_t>(w.eval_ids[ei]);
      const std::uint8_t op = w.eval_ops[ei];
      const std::int32_t* fin = w.fanin_nodes + w.fanin_begin[id];
      const std::size_t nfi = w.fanin_begin[id + 1] - w.fanin_begin[id];
      if (w.inj_head[id] < 0) {
        Ops::store(w.val[id], eval_wop<Ops>(op, nfi, [&](std::size_t k) {
                     return Ops::load(w.val[fin[k]]);
                   }));
        continue;
      }
      // Pin faults: force the fault's slot on a private copy of the
      // faulted fan-in, so one plane evaluation serves the whole batch.
      // The copy is per pin, so a node read on two pins is forced on one.
      const bool po_marker = static_cast<WOp>(op) == kWOutput;
      for (std::size_t k = 0; k < nfi; ++k) w.gather_ptrs[k] = &w.val[fin[k]];
      if (!po_marker)
        for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next) {
          const WInject& j = w.inj[e];
          if (j.pin < 0) continue;
          const auto k = static_cast<std::size_t>(j.pin);
          const W pin = force_inj<Ops>(Ops::load(*w.gather_ptrs[k]), j);
          Ops::store(w.gather[k], pin);
          w.gather_ptrs[k] = &w.gather[k];
        }
      W v = eval_wop<Ops>(op, nfi, [&](std::size_t k) {
        return Ops::load(*w.gather_ptrs[k]);
      });
      // Stem faults, and the PO marker's pin-0 fault, force the output.
      for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next) {
        const WInject& j = w.inj[e];
        if (po_marker ? j.pin == 0 : j.pin < 0) v = force_inj<Ops>(v, j);
      }
      Ops::store(w.val[id], v);
#if !defined(NDEBUG)
      if (!wv_well_formed(w.val[id]))
        __builtin_trap();  // wide-word invariant broken
#endif
    }

    // Detection per live lane whose good value (slot 0) is known: slot
    // differs from good with both known => detect; slot X => potential
    // detect. Slot 0 itself is masked out of both.
    for (std::size_t p = 0; p < w.po_count; ++p) {
      const PVW& v = w.val[w.po_ids[p]];
      for (unsigned g = 0; g < kLanes; ++g) {
        if (!((live >> g) & 1) || !((v.zero[g] | v.one[g]) & 1)) continue;
        w.det_acc[g] |= ((v.one[g] & 1) ? v.zero[g] : v.one[g]) & ~1ULL;
        w.pot_acc[g] |= ~(v.zero[g] | v.one[g]) & ~1ULL;
      }
    }

    // Clock the flip-flops (D-pin faults inject here).
    for (std::size_t i = 0; i < w.dff_count; ++i) {
      const auto id = static_cast<std::size_t>(w.dff_ids[i]);
      W v = Ops::load(w.val[w.dff_dnode[i]]);
      for (std::int32_t e = w.inj_head[id]; e >= 0; e = w.inj[e].next)
        if (w.inj[e].pin == 0) v = force_inj<Ops>(v, w.inj[e]);
      Ops::store(w.state[i], v);
    }

    // Census: each lane's entered good state is slot 0 of the clocked
    // flip-flops.
    if (w.census_zm) {
      std::uint8_t* cz = w.census_zm + t * w.dff_count;
      std::uint8_t* co = w.census_om + t * w.dff_count;
      for (std::size_t i = 0; i < w.dff_count; ++i) {
        std::uint8_t zm = 0, om = 0;
        for (unsigned g = 0; g < kLanes; ++g) {
          zm |= static_cast<std::uint8_t>((w.state[i].zero[g] & 1) << g);
          om |= static_cast<std::uint8_t>((w.state[i].one[g] & 1) << g);
        }
        cz[i] = zm;
        co[i] = om;
      }
    }
  }
}

/// Lane-by-lane verification of a backend's value ops against the V3
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
    for (unsigned g = 0; g < kLanes; ++g)
      for (unsigned s = 0; s < 64; ++s) wv_set_slot(d, g, s, rand_v3());
  };

  bool ok = true;
  for (int round = 0; round < 64 && ok; ++round) {
    PVW a{}, b{}, c{};
    rand_pvw(a);
    rand_pvw(b);

    // load/store round-trip.
    Ops::store(c, Ops::load(a));
    ok = ok && wv_equal(c, a);

    // expand on disjoint lane masks (all-X when both are empty).
    const auto zm = static_cast<std::uint8_t>(round == 0 ? 0 : next());
    const auto om = static_cast<std::uint8_t>(round == 0 ? 0 : next() & ~zm);
    Ops::store(c, Ops::expand(zm, om));
    ok = ok && wv_well_formed(c);
    for (unsigned g = 0; g < kLanes && ok; ++g) {
      const V3 want = (zm >> g) & 1   ? V3::kZero
                      : (om >> g) & 1 ? V3::kOne
                                      : V3::kX;
      for (unsigned s = 0; s < 64; ++s) ok = ok && wv_slot(c, g, s) == want;
    }

    // force: one slot of every lane takes the stuck value, the rest keep
    // a's.
    const unsigned fs = static_cast<unsigned>(next() % 64);
    const bool stuck1 = (next() & 1) != 0;
    Ops::store(c, Ops::force(Ops::load(a), 1ULL << fs, stuck1));
    ok = ok && wv_well_formed(c);
    for (unsigned g = 0; g < kLanes && ok; ++g)
      for (unsigned s = 0; s < 64; ++s)
        ok = ok && wv_slot(c, g, s) ==
                       (s == fs ? (stuck1 ? V3::kOne : V3::kZero)
                                : wv_slot(a, g, s));

    // not/and/or/xor vs V3 semantics, slot by slot.
    for (int op = 0; op < 4 && ok; ++op) {
      const auto x = Ops::load(a);
      const auto y = Ops::load(b);
      Ops::store(c, op == 0   ? Ops::not_(x)
                    : op == 1 ? Ops::and_(x, y)
                    : op == 2 ? Ops::or_(x, y)
                              : Ops::xor_(x, y));
      ok = ok && wv_well_formed(c);
      for (unsigned g = 0; g < kLanes && ok; ++g)
        for (unsigned s = 0; s < 64 && ok; ++s) {
          const V3 p = wv_slot(a, g, s);
          const V3 q = wv_slot(b, g, s);
          const V3 want = op == 0   ? wv_not3(p)
                          : op == 1 ? wv_and3(p, q)
                          : op == 2 ? wv_or3(p, q)
                                    : wv_xor3(p, q);
          ok = ok && wv_slot(c, g, s) == want;
        }
    }
  }
  return ok;
}

}  // namespace
}  // namespace fsim_wide
}  // namespace satpg
