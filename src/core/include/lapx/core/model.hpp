#pragma once
// The three models of distributed computing (Section 2) as algorithm types,
// plus runners that evaluate a local algorithm at every node and assemble
// the global solution.
//
//  ID: a function of the radius-r ball with raw unique identifiers.
//  OI: a function of the canonicalized (rank-keyed) radius-r ball; the
//      framework canonicalizes before every call, so OI algorithms are
//      order-invariant by construction.
//  PO: a function of the truncated view tree tau(T(G, v)); the runner hands
//      the algorithm only the view, so PO outputs are automatically
//      invariant under lifts (Section 2.5).
//
// Vertex-subset problems: the algorithm returns 0/1 per node.
// Edge-subset problems: the algorithm marks incident edges; an edge belongs
// to the solution iff at least one endpoint marks it (the paper's
// Omega = {0,1}^Delta encoding).
//
// Purity contract: PO and OI algorithms ARE their model's definition -- a
// function of the view type / canonical ball type only.  The PO/OI runners
// rely on this: they classify all vertices with the whole-graph refinement
// engine (core/refine.hpp) or the interned ordered-ball types, evaluate the
// algorithm once per type class on a representative (whose view/ball is
// materialized as the witness), and scatter the answer.  An "algorithm"
// peeking at ViewTree::Node::image or Ball::original is outside the model
// (it would not be lift- or order-invariant) and is not supported.  ID
// runners never deduplicate: identifiers make every ball distinct.

#include <functional>
#include <span>
#include <vector>

#include "lapx/core/ball.hpp"
#include "lapx/core/view.hpp"
#include "lapx/graph/digraph.hpp"
#include "lapx/graph/graph.hpp"

namespace lapx::core {

// --- Vertex-subset algorithms ---

/// PO: output of a node as a function of its truncated view.
using VertexPoAlgorithm = std::function<int(const ViewTree&)>;

/// OI: output as a function of the canonical (rank-keyed) ball.
using VertexOiAlgorithm = std::function<int(const Ball&)>;

/// ID: output as a function of the ball with raw identifiers.
using VertexIdAlgorithm = std::function<int(const Ball&)>;

// --- Edge-subset algorithms ---

/// PO edge output: marks on the root's incident arcs, keyed by the move that
/// reaches the corresponding neighbour (outgoing/incoming + label).
using EdgeMarksPo = std::vector<std::pair<Move, bool>>;
using EdgePoAlgorithm = std::function<EdgeMarksPo(const ViewTree&)>;

/// OI edge output: marks keyed by the ball-local index of the neighbour
/// at the other end of the incident edge.
using EdgeMarksOi = std::vector<std::pair<graph::Vertex, bool>>;
using EdgeOiAlgorithm = std::function<EdgeMarksOi(const Ball&)>;

// --- Runners ---

/// Runs a PO vertex algorithm on every node: result[v] = output at v.
/// Types every vertex with bulk_view_type_ids; a caller that already holds
/// the radius-r view types (a lapxd session's RefineState) passes them to
/// the overload below instead.
std::vector<bool> run_po(const LDigraph& g, const VertexPoAlgorithm& algo,
                         int r);

/// run_po given types[v] == view_type_id(view(g, v, r)) for every vertex
/// (as core::RefineState::types_at(r) returns them).  Only the class
/// representatives' views are materialized.
std::vector<bool> run_po(const LDigraph& g, std::span<const TypeId> types,
                         const VertexPoAlgorithm& algo, int r);

/// Runs an OI vertex algorithm with the given order keys.
std::vector<bool> run_oi(const graph::Graph& g, const order::Keys& keys,
                         const VertexOiAlgorithm& algo, int r);

/// Runs an ID vertex algorithm with the given identifiers.
std::vector<bool> run_id(const graph::Graph& g, const order::Keys& ids,
                         const VertexIdAlgorithm& algo, int r);

/// Runs a PO edge algorithm; returns edge-id-indexed bits of the underlying
/// graph of g.  An edge is selected iff some endpoint marks it.
std::vector<bool> run_po_edges(const LDigraph& g, const EdgePoAlgorithm& algo,
                               int r);

/// run_po_edges given the radius-r view types of every vertex (as for
/// run_po) and g.underlying_graph(), or any graph with the same edge ids;
/// the bits are indexed by `underlying`'s edge ids.
std::vector<bool> run_po_edges(const LDigraph& g,
                               const graph::Graph& underlying,
                               std::span<const TypeId> types,
                               const EdgePoAlgorithm& algo, int r);

/// Runs an OI edge algorithm.
std::vector<bool> run_oi_edges(const graph::Graph& g, const order::Keys& keys,
                               const EdgeOiAlgorithm& algo, int r);

/// Verifies PO lift-invariance empirically: for every vertex v of the lift,
/// the algorithm's output equals its output at phi(v) on the base graph.
bool po_outputs_lift_invariant(const LDigraph& lift, const LDigraph& base,
                               const std::vector<graph::Vertex>& phi,
                               const VertexPoAlgorithm& algo, int r);

}  // namespace lapx::core
