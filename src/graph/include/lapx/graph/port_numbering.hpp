#pragma once
// Port numberings and orientations (model PO, Section 1 and 2.5).
//
// In the PO model each node of degree d refers to its incident edges by port
// numbers 1..d (0..d-1 internally), and every edge carries an orientation so
// that its endpoints agree on a head and a tail.  A port numbering plus an
// orientation induces a proper edge labelling: the arc (v, u) gets the label
// (i, j) where u is the i-th neighbour of v and v is the j-th neighbour of u.
// We encode (i, j) as the integer i * Delta + j, fixing the alphabet
// L = {0, .., Delta^2 - 1} for the whole graph family of maximum degree Delta.

#include <span>
#include <vector>

#include "lapx/graph/digraph.hpp"
#include "lapx/graph/graph.hpp"
#include "lapx/graph/mutation.hpp"

namespace lapx::graph {

/// A port numbering: for each node an ordering of its neighbours.
/// ports[v][p] is the neighbour of v behind port p (0-based).
struct PortNumbering {
  std::vector<std::vector<Vertex>> ports;

  /// Port numbering induced by sorted adjacency lists.
  static PortNumbering default_for(const Graph& g);

  /// The port of v that leads to u; throws std::out_of_range if u is not a
  /// neighbour of v.
  int port_of(Vertex v, Vertex u) const;

  /// Validates against g: for every v, ports[v] must be a permutation of the
  /// neighbours of v.
  bool valid_for(const Graph& g) const;
};

/// An orientation: each undirected edge is directed tail -> head.
/// direction[e] == true means the edge (u, v) with u < v points u -> v.
struct Orientation {
  std::vector<bool> u_to_v;

  /// Orients every edge from its smaller to its larger endpoint.
  static Orientation default_for(const Graph& g);

  /// The directed version (tail, head) of edge id e in g.
  std::pair<Vertex, Vertex> directed(const Graph& g, EdgeId e) const;
};

/// Encodes port pair (i, j) into a single label for alphabet width delta.
inline Label encode_port_label(int i, int j, int delta) {
  return static_cast<Label>(i * delta + j);
}

/// Decodes a label back into the port pair (i, j).
inline std::pair<int, int> decode_port_label(Label l, int delta) {
  return {static_cast<int>(l) / delta, static_cast<int>(l) % delta};
}

/// Builds the proper L-digraph induced by (g, pn, orient); see Figure 4 of
/// the paper.  `delta` must be >= max_degree(g) and <= kMaxGraphDegree, and
/// fixes the alphabet size delta^2 so that graphs of one family share one
/// alphabet.
LDigraph to_ldigraph(const Graph& g, const PortNumbering& pn,
                     const Orientation& orient, int delta);

/// Convenience: default ports + default orientation + delta = max_degree.
LDigraph to_ldigraph(const Graph& g);

/// to_ldigraph(g), patched from `parent` == to_ldigraph(f), where `edits`
/// turned f into g (apply_edits).  `frontier` lists, ascending, a
/// superset of the edit endpoints and their neighbours in g, such as
/// affected_frontier(g, edits, 1): default ports move only at the edit
/// endpoints, so only the frontier's runs can change.  Relabels the arcs
/// at the endpoints and at the ids whose edge changed, and rebuilds the
/// frontier's runs (LDigraph::edited); when the batch moved the maximum
/// degree, and with it every label, it builds to_ldigraph(g) instead.
LDigraph to_ldigraph(const Graph& g, const LDigraph& parent,
                     std::span<const EdgeEdit> edits,
                     std::span<const Vertex> frontier);

/// Port numbering induced by a proper edge colouring: the edge of colour c
/// sits behind port c at *both* endpoints.  Requires colours[e] in
/// [0, max_degree) and properly coloured (incident edges have distinct
/// colours) and the graph to be regular of degree max_degree (so every port
/// exists at every node).  This is the Section 6.1 device that makes all
/// PN views of a d-regular graph isomorphic.
PortNumbering ports_from_edge_coloring(const Graph& g,
                                       const std::vector<int>& colors);

/// A proper d-edge-colouring for specific families used in experiments:
/// the d-dimensional hypercube (colour = dimension).
std::vector<int> hypercube_edge_coloring(const Graph& g, int d);

/// A proper 3-edge-colouring of K_{3,3} (vertices 0-2 left, 3-5 right):
/// colour(i, 3 + j) = (i + j) mod 3.
std::vector<int> k33_edge_coloring(const Graph& g);

}  // namespace lapx::graph
