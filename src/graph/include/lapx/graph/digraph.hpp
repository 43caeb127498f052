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
// checked when the digraph is built by LDigraph::from_arcs, its one
// checked builder; LDigraph::edited derives an edit of a built digraph for
// callers whose arcs are proper by construction.  A built digraph is
// immutable.

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
///
/// Storage is a CSR per direction (Galois' LC_InOut_Graph shape): offsets
/// plus packed label-sorted (label, endpoint) runs for the out- and the
/// in-arcs, and the arc list in the order it was given.  That order is
/// observable -- random_lift draws one permutation per arc in arcs()
/// order, and underlying_graph() numbers edges in it -- so it is kept
/// rather than derived from the CSR.
class LDigraph {
 public:
  LDigraph() = default;

  /// n isolated vertices.  Throws std::invalid_argument on a negative
  /// vertex count or alphabet size.
  LDigraph(Vertex n, Label alphabet_size);

  /// The digraph with exactly `arcs`, which arcs() keeps in the given
  /// order: count, prefix-sum, place, then sort each vertex's runs by
  /// label.  Throws std::invalid_argument unless the arcs form a proper
  /// L-digraph: no endpoint or label out of range, no self-loop, no label
  /// repeated on either side of a vertex, and at most one arc per (u, v).
  /// O(n + m log deg).
  static LDigraph from_arcs(Vertex n, Label alphabet_size,
                            std::vector<Arc> arcs);

  /// The digraph of `arcs` (kept as arcs()), built from this one, which it
  /// differs from only at the vertices in `touched` (ascending, each
  /// once): an arc with no endpoint there is one of this digraph's, with
  /// its label.  `incidence` is a graph whose edge i joins the endpoints of
  /// arcs[i] -- for a default-port digraph, the Graph it labels.  Rebuilds
  /// the touched vertices' runs from their arcs and, per side, lays the
  /// offsets out again in one pass and moves the untouched runs between
  /// touched vertices as blocks (the pass apply_edits runs).  Runs none
  /// of from_arcs' checks: `arcs` must form a proper L-digraph.  O(n + m)
  /// block copies plus O(d log d) per touched vertex of degree d.
  LDigraph edited(std::vector<Arc> arcs, std::span<const Vertex> touched,
                  const Graph& incidence) const;

  Vertex num_vertices() const { return n_; }
  std::size_t num_arcs() const { return arcs_.size(); }
  Label alphabet_size() const { return alphabet_; }

  /// Target of the outgoing arc of v labelled l, if any.
  std::optional<Vertex> out_neighbor(Vertex v, Label l) const;

  /// Source of the incoming arc of v labelled l, if any.
  std::optional<Vertex> in_neighbor(Vertex v, Label l) const;

  /// Outgoing arcs of v as (label, target), sorted by label.  Throws
  /// std::out_of_range when v is not a vertex.
  std::span<const std::pair<Label, Vertex>> out_arcs(Vertex v) const {
    return run(out_off_, out_, v);
  }

  /// Incoming arcs of v as (label, source), sorted by label.  Throws
  /// std::out_of_range when v is not a vertex.
  std::span<const std::pair<Label, Vertex>> in_arcs(Vertex v) const {
    return run(in_off_, in_, v);
  }

  int out_degree(Vertex v) const {
    return static_cast<int>(out_arcs(v).size());
  }
  int in_degree(Vertex v) const { return static_cast<int>(in_arcs(v).size()); }

  /// Total degree in the underlying graph sense (assuming no antiparallel
  /// arc pairs): out_degree + in_degree.
  int degree(Vertex v) const { return out_degree(v) + in_degree(v); }

  /// True if every vertex has out-degree and in-degree exactly k, i.e. the
  /// digraph is "2k-regular" in the paper's sense (each label present both
  /// ways at every node when k = |L|).
  bool is_k_in_k_out_regular(int k) const;

  /// All arcs, in the order from_arcs was given them.
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// True if some pair of vertices carries an arc each way.
  /// O(sum over v of out_degree(v) * in_degree(v)).
  bool has_antiparallel_arcs() const;

  /// Forgets directions and labels; edge i is the i-th arc that is not
  /// the second of an antiparallel pair, which collapses to the edge of
  /// its first.
  Graph underlying_graph() const;

  std::string summary() const;

 private:
  using Runs = std::vector<std::pair<Label, Vertex>>;

  std::span<const std::pair<Label, Vertex>> run(
      const std::vector<std::uint32_t>& off, const Runs& runs,
      Vertex v) const {
    if (v < 0 || v >= n_) throw_out_of_range(v);
    const auto i = static_cast<std::size_t>(v);
    return {runs.data() + off[i], runs.data() + off[i + 1]};
  }
  // Out of line, so the accessors above stay small enough to inline.
  [[noreturn]] static void throw_out_of_range(Vertex v);
  void check_vertex(Vertex v) const {
    if (v < 0 || v >= num_vertices())
      throw std::invalid_argument("vertex out of range: " + std::to_string(v));
  }
  // The checks of one arc on its own: endpoints, self-loop, label range.
  void check_arc(Vertex u, Vertex v, Label label) const;

  Vertex n_ = 0;
  Label alphabet_ = 0;
  // v's out-arcs are out_[out_off_[v] .. out_off_[v + 1]), sorted by
  // label; properness makes labels unique per side per vertex.  Likewise
  // in_ and in_off_.  Both offset arrays have n_ + 1 entries once built.
  std::vector<std::uint32_t> out_off_, in_off_;
  Runs out_, in_;
  std::vector<Arc> arcs_;
};

}  // namespace lapx::graph
