#pragma once
// Simple undirected bounded-degree graphs.
//
// This is the base substrate of the whole library: every model of
// distributed computing in the paper (ID / OI / PO) ultimately computes on a
// simple undirected graph of maximum degree at most a known constant Delta.
//
// Design notes:
//  * Storage is one CSR, the flat shape LDigraph has too (Galois'
//    LC_CSR_Graph): n + 1 32-bit offsets address, per vertex, a sorted
//    neighbour run and a run of incident edge ids in insertion order; the
//    edge list, indexed by edge id, is the fourth array.  A copy is four
//    vector copies and a release four frees, whatever n is.
//  * Graph::from_edges is the one builder (count, prefix-sum, place the
//    incident ids, then the neighbour runs in vertex order, which leaves
//    them sorted) and apply_edits (mutation.hpp) the one editor,
//    which works on the runs of the vertices its batch touches.  There is
//    no per-edge insert: on a flat CSR each would cost O(n + m).
//  * Neighbour runs are sorted, so neighbour queries are O(log deg) and
//    iteration order is deterministic (important for canonical encodings).
//  * Every undirected edge has a stable integer id in [0, num_edges());
//    edge-subset solutions (matchings, edge covers, edge dominating sets) are
//    bit vectors indexed by these ids.  Edge ids and endpoint order feed
//    the service's content digest, so both builders keep them exactly.
//  * The class maintains the invariant "simple graph": no self-loops, no
//    parallel edges.  Violations throw MutationError (an
//    std::invalid_argument, so legacy catch sites keep working).
//  * Both builders guard the same overflow classes as the edge-list reader
//    (graph/io.cpp): the edge count is capped below the EdgeId range (ids
//    would otherwise wrap silently) and the per-vertex degree is capped so
//    that the port-label encoding i * Delta + j (port_numbering.hpp) can
//    never overflow a Label -- an unguarded insert used to be able to
//    push Delta^2 past 2^31 and corrupt every port label downstream.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lapx::graph {

/// Vertex handle; vertices of an n-vertex graph are 0..n-1.
using Vertex = std::int32_t;

/// Stable identifier of an undirected edge.
using EdgeId = std::int32_t;

/// An undirected edge, stored with endpoints .first < .second.
using Edge = std::pair<Vertex, Vertex>;

/// Typed failure of a graph mutation (simplicity violation, id/label
/// overflow, missing edge).  Derives from std::invalid_argument so callers
/// that predate the type keep catching it.
class MutationError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Largest edge count a Graph accepts: one below the EdgeId range, so ids
/// never wrap.  (The service and the edge-list reader cap far lower.)
inline constexpr std::size_t kMaxGraphEdges = 0x7fffffff;

/// Largest degree a Graph accepts: floor(sqrt(2^31 - 1)), so the port-label
/// alphabet Delta^2 of to_ldigraph always fits a Label.
inline constexpr int kMaxGraphDegree = 46340;

struct EdgeEdit;  // mutation.hpp

/// A simple undirected graph with stable edge ids.
class Graph {
 public:
  Graph() = default;

  /// An edgeless graph on n vertices.  Throws std::invalid_argument for a
  /// negative n.
  explicit Graph(Vertex n);

  /// The graph on n vertices whose edge i is edges[i], stored with
  /// endpoints first < second; each vertex's incident ids follow input
  /// order.  One validation pass with a degree count, a prefix sum, then
  /// one pass placing the incident ids and one writing the neighbour runs
  /// in vertex order, sorted as they come: O(n + m).
  /// On failure it throws what inserting the edges one by one would throw
  /// at the first failing edge: std::invalid_argument "vertex out of
  /// range: x", or MutationError for a self-loop, a parallel edge, more
  /// than kMaxGraphEdges edges or a degree above kMaxGraphDegree.  Also
  /// throws std::invalid_argument for a negative n.
  static Graph from_edges(Vertex n, std::vector<Edge> edges);

  Vertex num_vertices() const {
    return off_.empty() ? 0 : static_cast<Vertex>(off_.size() - 1);
  }
  std::size_t num_edges() const { return edges_.size(); }

  /// The accessors taking a vertex throw std::out_of_range when v is not
  /// one.
  int degree(Vertex v) const { return static_cast<int>(neighbors(v).size()); }

  /// Neighbours of v in increasing vertex order.
  std::span<const Vertex> neighbors(Vertex v) const { return run(nbr_, v); }

  bool has_edge(Vertex u, Vertex v) const;

  /// Id of edge {u, v}; throws std::out_of_range if absent.
  EdgeId edge_id(Vertex u, Vertex v) const;

  /// The edge with the given id, endpoints ordered first < second.
  Edge edge(EdgeId id) const { return edges_.at(id); }

  /// All edges; index in this vector equals the edge id.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Ids of the edges incident to v, in insertion order (unsorted).
  std::span<const EdgeId> incident_edges(Vertex v) const {
    return run(inc_, v);
  }

  int max_degree() const;
  int min_degree() const;

  /// True if every vertex has degree exactly d.
  bool is_regular(int d) const;

  /// Human-readable one-line summary, e.g. "Graph(n=10, m=15, maxdeg=3)".
  std::string summary() const;

  /// Equal vertex counts and edge lists (which fix the adjacency).
  bool operator==(const Graph& other) const {
    return num_vertices() == other.num_vertices() && edges_ == other.edges_;
  }

 private:
  friend std::vector<EdgeId> apply_edits(Graph& g,
                                         std::span<const EdgeEdit> edits);
  class Editor;  // apply_edits' batch state (graph.cpp)

  template <typename T>
  std::span<const T> run(const std::vector<T>& runs, Vertex v) const {
    if (v < 0 || v >= num_vertices()) throw_out_of_range(v);
    const auto i = static_cast<std::size_t>(v);
    return {runs.data() + off_[i], runs.data() + off_[i + 1]};
  }
  // Out of line, so the accessors above stay small enough to inline.
  [[noreturn]] static void throw_out_of_range(Vertex v);
  void check_vertex(Vertex v) const {
    if (v < 0 || v >= num_vertices())
      throw std::invalid_argument("vertex out of range: " + std::to_string(v));
  }

  // v's neighbours are nbr_[off_[v] .. off_[v + 1]), sorted, and its
  // incident edge ids inc_[off_[v] .. off_[v + 1]), in insertion order.
  // off_ has n + 1 entries once built (none in a default or moved-from
  // graph, which has no vertices).
  std::vector<std::uint32_t> off_;
  std::vector<Vertex> nbr_;
  std::vector<EdgeId> inc_;
  std::vector<Edge> edges_;
};

/// Drops each edge whose endpoint pair, in either order, occurs earlier
/// in `edges`, keeping first occurrences in order -- for builders whose
/// sources name an edge twice (an L-digraph's antiparallel arcs, circulant
/// offsets, a ball's edges seen from both ends).  Edges with an endpoint
/// outside [0, n) stay, for from_edges to reject.  O(n + m).
void drop_repeated_edges(Vertex n, std::vector<Edge>& edges);

}  // namespace lapx::graph
