#pragma once
// Graph lifts and covering maps (Section 1.6, Figure 3, Theorem 3.3).
//
// A covering map phi: V(H) -> V(G) of L-digraphs is an onto homomorphism
// that preserves arc labels and is locally bijective: for every v in V(H) and
// label l, v has an outgoing (incoming) arc labelled l iff phi(v) does, and
// the arcs map to each other.  H is then called a lift of G; the fibre of
// g in V(G) is phi^{-1}(g).
//
// Three constructions are provided:
//  * explicit l-lifts via permutation voltages (one permutation per arc),
//  * uniformly random l-lifts,
//  * the product lift of Theorem 3.3: given a 2|L|-regular "template" H
//    (typically a homogeneous high-girth graph) and any L-digraph G, the
//    product on V(H) x V(G) matching equi-labelled arcs is simultaneously a
//    lift of G and a homomorphic image into H.

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "lapx/graph/digraph.hpp"
#include "lapx/graph/graph.hpp"

namespace lapx::graph {

/// The result of a lift construction: the lifted graph together with the
/// covering map onto the base graph.
struct Lift {
  LDigraph graph;
  std::vector<Vertex> phi;  ///< phi[v in lift] = base vertex
};

/// Checks that phi is a covering map of L-digraphs H -> G: onto, label- and
/// direction-preserving, and locally bijective.  If `error` is non-null, a
/// human-readable reason is stored on failure.
bool is_covering_map(const LDigraph& H, const LDigraph& G,
                     const std::vector<Vertex>& phi,
                     std::string* error = nullptr);

/// Checks that phi is a covering map of plain graphs (degree-preserving onto
/// homomorphism with local bijectivity).
bool is_covering_map(const Graph& H, const Graph& G,
                     const std::vector<Vertex>& phi,
                     std::string* error = nullptr);

/// Sizes of the fibres phi^{-1}(g) for each base vertex g.
std::vector<int> fibre_sizes(const std::vector<Vertex>& phi, Vertex base_n);

/// Builds the l-lift defined by a voltage assignment: vertex (g, i) for
/// g in V(G), i in 0..l-1; the arc a = (u, v) of G lifts to arcs
/// (u, i) -> (v, voltage(a)[i]).  Lift vertex (g, i) has index g * l + i.
/// Each voltage must be a permutation of {0, .., l-1}.
Lift voltage_lift(const LDigraph& G, int l,
                  const std::function<std::vector<int>(const Arc&)>& voltage);

/// l-lift with independent uniformly random permutation voltages.
Lift random_lift(const LDigraph& G, int l, std::mt19937_64& rng);

/// Grows `lift` by `extra` new fibre layers over the same base: rebuilds
/// lift.graph (the same object, through LDigraph::from_arcs) with
/// extra * |V(G)| more vertices wired as a fresh random extra-lift of G
/// (random voltages among the new layers only), after the old arcs in
/// their old order, and extends phi accordingly.  The old vertices, their
/// arcs, and therefore their views are untouched -- the result is the
/// disjoint union of the old lift and a new one, still a covering of G --
/// which is exactly the shape the incremental refinement path wants: the
/// edit frontier is the new fibre.  New vertex (g, j) for layer j gets
/// index old_n + g * extra + (j - l).  Returns the index of the first new
/// vertex.
Vertex grow_lift(Lift& lift, const LDigraph& G, int extra,
                 std::mt19937_64& rng);

/// The trivial l-lift (identity voltages): l disjoint copies of G.
Lift disjoint_copies(const LDigraph& G, int l);

/// The Proposition 4.5 connectivity trick: starting from l disjoint copies
/// of a connected, non-tree G, rewires the fibre of one non-bridge arc by a
/// cyclic permutation, producing a *connected* l-lift.  The arc is chosen
/// automatically (any arc on a cycle of the underlying graph); throws if G
/// is a tree or disconnected (connected lifts of trees are trivial --
/// Remark 1.5).
Lift connected_lift(const LDigraph& G, int l);

/// The product lift of Theorem 3.3.  Requires that H is complete on the
/// alphabet: every vertex of H has an outgoing and an incoming arc for every
/// label of G's alphabet (H is 2|L|-regular).  The product C on
/// V(H) x V(G) has an arc (h, g) -> (h', g') with label l whenever
/// (h, h') in E(H) and (g, g') in E(G) both carry label l.
///
/// Vertex (h, g) has index h * |G| + g.
/// Returned phi projects onto G (a covering map); phi_h projects onto H
/// (a homomorphism, not a covering map unless G is 2|L|-regular).
struct ProductLift {
  LDigraph graph;
  std::vector<Vertex> phi;    ///< projection to V(G); covering map
  std::vector<Vertex> phi_h;  ///< projection to V(H); homomorphism
};
ProductLift product_lift(const LDigraph& H, const LDigraph& G);

}  // namespace lapx::graph
