#pragma once
// Exact optimum solvers and certified bounds for the six problems.
//
// Exact values use branch-and-bound (exponential; intended for instances up
// to a few dozen vertices) plus polynomial identities where available:
//   max independent set = n - min vertex cover      (Gallai)
//   min edge cover      = n - i(G) - nu(G)          (Gallai; i = # isolated)
//   nu(G) via blossom (polynomial).
//
// For large instances, certified [lower, upper] bounds are provided; the
// lower-bound experiments only ever need a valid *upper* bound on OPT for
// minimisation problems (ratio >= measured/upper is then sound).

#include <cstdint>

#include "lapx/graph/graph.hpp"
#include "lapx/problems/problem.hpp"

namespace lapx::problems {

/// Exact minimum vertex cover size (branch and bound).
std::size_t min_vertex_cover_size(const graph::Graph& g);

/// Exact maximum independent set size (= n - min vertex cover).
std::size_t max_independent_set_size(const graph::Graph& g);

/// Exact maximum matching size (blossom; polynomial).
std::size_t max_matching_size(const graph::Graph& g);

/// Exact minimum edge cover size: n - (isolated vertices) - nu.  Isolated
/// vertices need no cover (edge_cover() accepts them vacuously), so an
/// edgeless graph has optimum 0.
std::size_t min_edge_cover_size(const graph::Graph& g);

/// Exact minimum dominating set size (branch and bound).
std::size_t min_dominating_set_size(const graph::Graph& g);

/// Exact minimum edge dominating set size (branch and bound).
std::size_t min_edge_dominating_set_size(const graph::Graph& g);

/// Exact optimum of any of the six problems, dispatched by name.
std::size_t exact_optimum(const Problem& p, const graph::Graph& g);

/// Certified bounds for large instances.
struct Bounds {
  std::size_t lower = 0;
  std::size_t upper = 0;
};

/// EDS: lower = ceil(nu/2) (one EDS edge dominates at most two edges of a
/// matching), upper = a greedy maximal matching (a maximal matching is an
/// edge dominating set).
Bounds eds_bounds(const graph::Graph& g);

/// Dominating set: lower = ceil(n / (Delta + 1)), upper = greedy.
Bounds mds_bounds(const graph::Graph& g);

/// Vertex cover: lower = nu(G), upper = endpoints of a maximal matching.
Bounds vc_bounds(const graph::Graph& g);

// Closed forms on cycles (used as test oracles):
std::size_t cycle_min_vertex_cover(std::size_t n);        // ceil(n/2)
std::size_t cycle_max_independent_set(std::size_t n);     // floor(n/2)
std::size_t cycle_max_matching(std::size_t n);            // floor(n/2)
std::size_t cycle_min_edge_cover(std::size_t n);          // ceil(n/2)
std::size_t cycle_min_dominating_set(std::size_t n);      // ceil(n/3)
std::size_t cycle_min_edge_dominating_set(std::size_t n); // ceil(n/3)

}  // namespace lapx::problems
