#pragma once
// Batched edge edits and the locality frontier they touch.
//
// The paper's locality argument (Section 2) is exactly what makes graph
// edits cheap to re-analyze: a vertex's radius-r view is a function of the
// arcs within distance r, so editing the edge {u, v} can only change the
// views of vertices within distance r of u or v.  Under the default port
// numbering (port_numbering.hpp) an edit additionally renumbers ports at
// its own endpoints -- sorted adjacency shifts there and nowhere else --
// so the changed arcs stay incident to the edit endpoints and the ball
// bound holds for the induced L-digraph too.  The one global exception is
// the alphabet: the label encoding is i * Delta + j with Delta the maximum
// degree, so an edit batch that changes max_degree relabels arcs
// everywhere; affected_frontier detects that and reports every vertex.
//
// Both frontiers run their BFS over the union of the old and the new
// adjacency (a removed edge still transports "this arc disappeared from
// your view" outwards), which is why they take the post-edit graph plus
// the edit list rather than the graph alone.  ball_frontier is that BFS
// alone: a plain Graph ball carries no port labels, so the ordered balls
// of order/homogeneity need no alphabet fallback.

#include <span>
#include <vector>

#include "lapx/graph/graph.hpp"

namespace lapx::graph {

/// One undirected edge edit.
struct EdgeEdit {
  enum class Kind { kAdd, kRemove };
  Kind kind = Kind::kAdd;
  Vertex u = -1;
  Vertex v = -1;

  bool operator==(const EdgeEdit&) const = default;
};

/// Applies the edits to g in order, with the checks of Graph::from_edges
/// for an add and "no edge {u,v}" for a missing remove.  An add takes id
/// num_edges(); a remove keeps ids dense by moving the edge with the
/// largest id into the freed one, whose id it rewrites in place in its
/// endpoints' incident runs.  Throws at the
/// first invalid edit -- std::invalid_argument for an endpoint out of
/// range, MutationError otherwise -- leaving g with every *earlier* edit
/// applied; callers that need all-or-nothing semantics apply the batch to
/// a copy.  Works on the runs of the vertices the batch touches (its
/// endpoints and those of each edge that moves into a freed id), written
/// back in place when no degree changed: k edits cost O(k Delta) plus at
/// most one O(n + m) pass to lay the offsets out again.
///
/// Returns the edge ids whose slot of the edge array the batch rewrote,
/// ascending, each once: an add's id, the freed id a remove moved the last
/// edge into, and the last id a remove dropped (at or past the final
/// num_edges()).  Every slot that differs between the old and the new
/// edge array, or exists in only one of them, is listed, so a digest kept
/// per block of ids (service::ContentDigest) re-hashes only their blocks.
std::vector<EdgeId> apply_edits(Graph& g, std::span<const EdgeEdit> edits);

/// The vertices whose radius-r view (default port numbering) can differ
/// between the pre-edit graph and `g`, the POST-edit graph, sorted
/// ascending.  This is the radius-r ball around the edit endpoints in the
/// union of old and new adjacency -- or every vertex of g when the batch
/// changed the maximum degree (the port-label alphabet shifts globally).
std::vector<Vertex> affected_frontier(const Graph& g,
                                      std::span<const EdgeEdit> edits, int r);

/// The vertices within distance r of an edit endpoint in the union of the
/// old and the new adjacency, sorted ascending: a superset of those whose
/// radius-r ball in `g`, the POST-edit graph -- its members or the edges
/// among them -- differs from the pre-edit one.  affected_frontier is this
/// set unless the batch changed the maximum degree.  Throws
/// std::invalid_argument for r < 0 and MutationError for an endpoint out
/// of range.
std::vector<Vertex> ball_frontier(const Graph& g,
                                  std::span<const EdgeEdit> edits, int r);

}  // namespace lapx::graph
