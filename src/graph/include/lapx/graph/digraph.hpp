#pragma once
// L-edge-labelled digraphs (Section 2.5 of the paper).
//
// A PO-algorithm computes on an anonymous network whose structure is an
// L-digraph: each directed edge carries a label from a finite alphabet L, and
// the labelling is *proper*: the incoming edges of every node have pairwise
// distinct labels, and likewise the outgoing edges.  (An edge may share its
// label with an edge of the opposite direction at the same node.)
//
// Labels are represented as integers 0..alphabet_size()-1.  Properness is
// enforced on insertion.

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lapx/graph/graph.hpp"

namespace lapx::graph {

/// Edge-label handle; labels of an L-digraph are 0..|L|-1.
using Label = std::int32_t;

/// A directed labelled edge.
struct Arc {
  Vertex from = -1;
  Vertex to = -1;
  Label label = -1;

  bool operator==(const Arc&) const = default;
};

/// A properly L-edge-labelled directed graph.
///
/// Self-loops are rejected.  Antiparallel arcs (u,v) and (v,u) are permitted
/// (they correspond to a 2-cycle in the underlying graph, which high-girth
/// constructions avoid, but the data structure does not forbid them).
/// Parallel arcs in the same direction are rejected: a pair (u,v) may carry
/// at most one arc, which together with properness keeps the underlying
/// structure a graph rather than a multigraph.
class LDigraph {
 public:
  LDigraph() = default;

  LDigraph(Vertex n, Label alphabet_size);

  /// Builds the digraph that add_arc over `arcs`, in order, would build,
  /// in one pass with each adjacency list reserved exactly: arcs() keeps
  /// the given order.  Throws std::invalid_argument exactly when one of
  /// those add_arc calls would throw.  O(n + m log deg).
  static LDigraph from_arcs(Vertex n, Label alphabet_size,
                            std::vector<Arc> arcs);

  /// Adds arc (u, v) with the given label.  Throws if the arc would violate
  /// properness, create a self-loop, duplicate an existing (u, v) arc, or use
  /// an out-of-range label.
  void add_arc(Vertex u, Vertex v, Label label);

  /// Removes the (unique) arc u -> v and returns the label it carried.
  /// Throws MutationError if no such arc exists.  O(deg) for the adjacency
  /// update plus O(|arcs|) to keep the insertion-order arc list compact.
  Label remove_arc(Vertex u, Vertex v);

  /// Appends `count` isolated vertices (ids num_vertices()..+count-1);
  /// existing vertices, arcs, and labels are untouched.  This is the
  /// in-place growth primitive grow_lift (lift.hpp) builds on.
  void add_vertices(Vertex count);

  Vertex num_vertices() const { return static_cast<Vertex>(out_.size()); }
  std::size_t num_arcs() const { return num_arcs_; }
  Label alphabet_size() const { return alphabet_; }

  /// Target of the outgoing arc of v labelled l, if any.
  std::optional<Vertex> out_neighbor(Vertex v, Label l) const;

  /// Source of the incoming arc of v labelled l, if any.
  std::optional<Vertex> in_neighbor(Vertex v, Label l) const;

  /// Outgoing arcs of v as (label, target), sorted by label.
  std::span<const std::pair<Label, Vertex>> out_arcs(Vertex v) const {
    return {out_.at(v).data(), out_.at(v).size()};
  }

  /// Incoming arcs of v as (label, source), sorted by label.
  std::span<const std::pair<Label, Vertex>> in_arcs(Vertex v) const {
    return {in_.at(v).data(), in_.at(v).size()};
  }

  int out_degree(Vertex v) const { return static_cast<int>(out_.at(v).size()); }
  int in_degree(Vertex v) const { return static_cast<int>(in_.at(v).size()); }

  /// Total degree in the underlying graph sense (assuming no antiparallel
  /// arc pairs): out_degree + in_degree.
  int degree(Vertex v) const { return out_degree(v) + in_degree(v); }

  /// True if every vertex has out-degree and in-degree exactly k, i.e. the
  /// digraph is "2k-regular" in the paper's sense (each label present both
  /// ways at every node when k = |L|).
  bool is_k_in_k_out_regular(int k) const;

  /// All arcs in insertion order.
  const std::vector<Arc>& arcs() const { return arc_list_; }

  /// Forgets directions and labels.  Antiparallel arc pairs collapse to a
  /// single undirected edge.
  Graph underlying_graph() const;

  std::string summary() const;

 private:
  void check_vertex(Vertex v) const {
    if (v < 0 || v >= num_vertices())
      throw std::invalid_argument("vertex out of range: " + std::to_string(v));
  }
  // The checks of one arc on its own: endpoints, self-loop, label range.
  void check_arc(Vertex u, Vertex v, Label label) const;

  Label alphabet_ = 0;
  std::size_t num_arcs_ = 0;
  // Sorted by label; properness makes labels unique per side per vertex.
  std::vector<std::vector<std::pair<Label, Vertex>>> out_;
  std::vector<std::vector<std::pair<Label, Vertex>>> in_;
  std::vector<Arc> arc_list_;
};

}  // namespace lapx::graph
