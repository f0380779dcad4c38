// Retiming (Leiserson-Saxe) — the transformation at the heart of the study.
//
// The netlist is abstracted into the classic retiming graph: vertices are
// combinational gates plus a single host vertex (all PIs, POs, and
// constants), edges are connections with weight = number of flip-flops on
// them. A retiming is a lag function r: V -> Z with r(host) = 0; edge
// weights transform as w_r(e) = w(e) + r(head) - r(tail) and must stay
// non-negative.
//
// Feasibility for a target clock period uses the FEAS relaxation
// (Leiserson-Saxe §8 / Shenoy-Rudell): repeatedly compute combinational
// arrival times under the current lags and increment the lag of every
// vertex whose arrival exceeds the target; a legal retiming exists iff this
// converges within |V| rounds. Lags only rise and r(host) stays 0, so a
// probe is rejected as soon as some r(v) exceeds v's minimum-weight path
// to the host (that path's retimed weight would stay negative); logic with
// no path to the host has no such bound. Minimum period is found by binary
// search, with the bounds computed once per graph.
//
// Rebuild shares flip-flops on fanout stems through per-driver FF chains
// (a stem with branch weights w1..wk materializes max(wi) FFs and taps each
// branch at depth wi), which is how SIS's retime materializes registers.
// All rebuilt FFs power up unknown — the circuits' explicit reset line
// remains the initialization mechanism, matching the paper's setup.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace satpg {

/// Retiming graph; vertex 0 is the host.
struct RetimeGraph {
  struct Edge {
    int from;
    int to;
    int weight;           ///< flip-flops on the connection
    // Rebuild bookkeeping: the concrete connection this edge models.
    NodeId source_node = kNoNode;  ///< driving PI/const/gate in the netlist
    NodeId sink_node = kNoNode;    ///< consuming gate or OUTPUT marker
    int sink_slot = 0;             ///< fanin slot at the sink
    /// The actual DFF nodes traversed (sink-side first). Fanout branches
    /// sharing a register chain list the same NodeIds — structural
    /// analyses use this to identify flip-flops exactly.
    std::vector<NodeId> ffs;
  };
  std::vector<double> delay;       ///< per vertex; host = 0
  std::vector<Edge> edges;
  std::vector<NodeId> vertex_node; ///< vertex -> gate NodeId (host: kNoNode)

  int num_vertices() const { return static_cast<int>(delay.size()); }
};

/// Build the graph from a netlist (collapsing DFF chains into weights).
RetimeGraph build_retime_graph(const Netlist& nl);

/// Clock period of the graph under lags `r` (max combinational arrival on
/// the zero-weight subgraph). CHECK-fails if some retimed weight is
/// negative or the zero-weight subgraph is cyclic.
double graph_period(const RetimeGraph& g, const std::vector<int>& r);

/// FEAS: least lag vector achieving `target` period, or std::nullopt.
std::optional<std::vector<int>> feasible_retiming(const RetimeGraph& g,
                                                  double target);

struct RetimeResult {
  Netlist netlist;
  std::vector<int> lag;        ///< per graph vertex (host first, = 0)
  double period_before = 0.0;
  double period_after = 0.0;
};

/// Retime to the minimum feasible clock period (least lags — registers move
/// only where the critical path demands).
RetimeResult retime_min_period(const Netlist& nl, const std::string& name);

/// Flip-flop count of the netlist that rebuild would produce for lags `r`
/// (accounts for FF-chain sharing at fanout stems), without materializing.
std::size_t effective_dff_count(const RetimeGraph& g,
                                const std::vector<int>& r);

/// "Scatter" retiming — the study's .re / .v<k> transformation.
///
/// Starts from the FEAS least-lag solution at the minimum feasible period
/// (so real slack is exploited exactly as SIS's min-period retime would),
/// then sweeps registers backward one gate level at a time — shifting any
/// vertex whose out-edges all still carry a register — until the rebuilt
/// circuit would have at least `target_dffs` flip-flops or no legal shift
/// remains. Level sweeps keep every state loop's register in the loop, so
/// the clock period stays near the loop bound while the register count
/// multiplies: precisely the behaviour the paper observed in SIS-retimed
/// circuits (Table 2's 5-7 FFs ballooning to 19-28; Table 7's ladder).
/// The FF count is kept incrementally: a shift of v re-measures only the
/// chains driving v's out- and in-edges.
RetimeResult retime_to_dff_target(const Netlist& nl, std::size_t target_dffs,
                                  const std::string& name);

/// Retime to the smallest achievable period that is <= `target`.
/// CHECK-fails when target is below the minimum feasible period.
RetimeResult retime_to_period(const Netlist& nl, double target,
                              const std::string& name);

/// Minimum feasible clock period without materializing the result.
double min_feasible_period(const Netlist& nl);

// ---- atomic moves (Figure 1/2 of the paper; used by theorem tests) --------

/// Can all of `gate`'s fanins (each currently a DFF output) donate one FF
/// forward across the gate?
bool can_move_forward(const Netlist& nl, NodeId gate);

/// Perform the forward atomic move. The new output FF's initial value is
/// the gate function of the donated FFs' initial values (3-valued), so
/// initialized circuits stay initialized. CHECK-fails if !can_move_forward.
void move_forward(Netlist& nl, NodeId gate);

/// Can the FF driven by `gate` move backward across it? (gate must feed
/// exactly one DFF and nothing else).
bool can_move_backward(const Netlist& nl, NodeId gate);

/// Perform the backward atomic move; new input FFs power up unknown unless
/// a unique consistent preimage of the old FF's initial value exists.
void move_backward(Netlist& nl, NodeId gate);

}  // namespace satpg
