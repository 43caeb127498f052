#pragma once
// Ordered graphs and (alpha, r)-homogeneity (Section 3.1, Definition 3.1).
//
// An ordered graph (G, <) is a graph with a linear order on its vertices; we
// represent the order by distinct integer keys (identifiers double as keys,
// which is exactly how the OI model treats them).
//
// The radius-r ordered neighbourhood tau(G, <, v) is the induced subgraph on
// the ball B_G(v, r) together with the restriction of < and the root v.  Two
// ordered neighbourhoods are isomorphic iff there is a root- and
// order-preserving graph isomorphism; because the order is total, the only
// candidate bijection is the unique order-preserving one, so isomorphism
// reduces to equality of a canonical string encoding.  This is the library's
// central trick: OI-neighbourhood isomorphism is O(ball * log ball) instead
// of general graph isomorphism.
//
// (G, <) is (alpha, r)-homogeneous when at least an alpha fraction of its
// vertices share one neighbourhood isomorphism type -- the associated
// homogeneity type.
//
// By the same locality, an edge edit changes only the ordered balls within
// distance r of its endpoints (graph::ball_frontier), so OrderedBallClasses
// keeps every vertex's ball type and the class sizes, and re-types just
// that frontier after an edit.  Every entry point taking a radius throws
// std::invalid_argument for r < 0: a ball BFS never stops there.

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "lapx/core/interner.hpp"
#include "lapx/graph/digraph.hpp"
#include "lapx/graph/graph.hpp"

namespace lapx::order {

using graph::Graph;
using graph::Label;
using graph::LDigraph;
using graph::Vertex;

/// Order keys: any vector of pairwise distinct integers, one per vertex.
using Keys = std::vector<std::int64_t>;

/// Dense ranks 0..n-1 of the given distinct keys.
std::vector<int> ranks_from_keys(const Keys& keys);

/// Keys 0..n-1 in vertex-id order (the identity order).
Keys identity_keys(Vertex n);

/// Canonical encoding of tau(G, <, v) at radius r.  Equal encodings <=>
/// isomorphic ordered rooted neighbourhoods.
std::string ordered_ball_type(const Graph& g, const Keys& keys, Vertex v,
                              int r);

/// Canonical encoding of the ordered rooted radius-r neighbourhood in an
/// L-digraph: the ball of the underlying graph with arc directions and
/// labels retained (the paper's Theorem 3.2 types are L-digraph types).
std::string ordered_ball_type(const LDigraph& d, const Keys& keys, Vertex v,
                              int r);

/// Canonical encoding of the *unordered* PO-invariant structure is handled
/// by view trees in lapx::core; here we also expose the unordered ball type
/// of a plain graph (used to compare ID/OI/PO information content).
std::string unordered_ball_type_with_ids(const Graph& g, const Keys& ids,
                                         Vertex v, int r);

/// Interned ordered-ball types: equal TypeId (within one interner) <=>
/// equal ordered_ball_type string.  The interner keys are a fixed-width
/// binary rendering of the same canonical tuple (size, root, edge list) --
/// no decimal formatting in the hot path; use ordered_ball_type when a
/// human-readable spelling is needed.
core::TypeId ordered_ball_type_id(
    const Graph& g, const Keys& keys, Vertex v, int r,
    core::TypeInterner& interner = core::TypeInterner::global());
core::TypeId ordered_ball_type_id(
    const LDigraph& d, const Keys& keys, Vertex v, int r,
    core::TypeInterner& interner = core::TypeInterner::global());

/// ordered_ball_type_id's lookup half: the id when the type is already
/// interned, kNoType otherwise.  Never inserts, so a parallel caller
/// leaves the interner's id order alone.
core::TypeId find_ordered_ball_type_id(
    const LDigraph& d, const Keys& keys, Vertex v, int r,
    const core::TypeInterner& interner = core::TypeInterner::global());

/// ordered_ball_type_id of every vertex, computed in parallel.  Fresh ids
/// are interned serially in vertex order, so the interner's id -> key map
/// does not depend on LAPX_THREADS.  Throws std::invalid_argument when
/// `keys` does not hold one key per vertex.
std::vector<core::TypeId> ordered_ball_type_ids(
    const Graph& g, const Keys& keys, int r,
    core::TypeInterner& interner = core::TypeInterner::global());
std::vector<core::TypeId> ordered_ball_type_ids(
    const LDigraph& d, const Keys& keys, int r,
    core::TypeInterner& interner = core::TypeInterner::global());

/// Homogeneity measurement result.  Classes are counted by TypeId, and
/// equal ids <=> equal ordered_ball_type spellings, so the counts are
/// those of the canonical encodings.
struct HomogeneityReport {
  double fraction = 0.0;  ///< largest_class / n (best alpha)
  std::size_t largest_class = 0;
  std::size_t distinct_types = 0;
};

/// Measures over ordered_ball_type_ids of every vertex.
HomogeneityReport measure_homogeneity(
    const Graph& g, const Keys& keys, int r,
    core::TypeInterner& interner = core::TypeInterner::global());
HomogeneityReport measure_homogeneity(
    const LDigraph& d, const Keys& keys, int r,
    core::TypeInterner& interner = core::TypeInterner::global());

/// The ordered radius-r ball type of every vertex of a plain graph, and
/// the class sizes: the per-radius state a session keeps so an edge edit
/// re-types only the edit's ball frontier instead of all n balls.  Built
/// and re-typed by the kernel of ordered_ball_type_ids, so ids() equals
/// ordered_ball_type_ids(g, keys, r, interner) id for id and report()
/// equals measure_homogeneity.  Copyable: a copy forks the state.  Not
/// thread-safe; the keys must be the same on every call, and `interner`
/// must outlive the state and its copies.
class OrderedBallClasses {
 public:
  /// Types every vertex.  Throws std::invalid_argument for r < 0 or when
  /// `keys` does not hold one key per vertex.
  OrderedBallClasses(
      const Graph& g, const Keys& keys, int r,
      core::TypeInterner& interner = core::TypeInterner::global());

  const std::vector<core::TypeId>& ids() const { return ids_; }
  HomogeneityReport report() const;

  /// Re-types the `frontier` vertices (strictly ascending) in g, the
  /// edited graph on the same vertex set, and patches the class sizes.
  /// Fresh ids are interned serially in vertex order, so they do not
  /// depend on LAPX_THREADS.  Every vertex whose ball differs from the one
  /// last typed must be in the frontier (graph::ball_frontier of the edit
  /// batch at the state's radius).  Throws std::invalid_argument when the
  /// vertex count changed or the frontier is not ascending vertices of g.
  void retype(const Graph& g, const Keys& keys,
              std::span<const Vertex> frontier);

 private:
  int r_;
  core::TypeInterner* interner_;
  std::vector<core::TypeId> ids_;
  std::unordered_map<core::TypeId, std::size_t> counts_;  // id -> class size
};

/// True if (g, keys) is (alpha, r)-homogeneous.
bool is_homogeneous(const Graph& g, const Keys& keys, double alpha, int r);

}  // namespace lapx::order
