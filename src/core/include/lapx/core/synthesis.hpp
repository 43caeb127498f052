#pragma once
// Exhaustive synthesis of local PO algorithms.
//
// A radius-r PO algorithm is a function from realizable view types to
// outputs (Section 2.5).  Over a *finite* instance set the realizable types
// are finite, so for small radii the entire algorithm space can be
// enumerated and the optimal worst-case approximation ratio *computed* --
// turning statements like "no PO algorithm beats 4 - 2/Delta'" into machine
// checked optimisation results.  On a symmetric instance there is one view
// type, so the space collapses to |Omega| candidates; richer instance sets
// (mixed orientations, port patterns) grow the space and the synthesizer
// explores it exhaustively.
//
// The synthesizer needs exact optima, so instances should stay small enough
// for lapx::problems::exact_optimum.

#include <map>
#include <string>
#include <vector>

#include "lapx/core/interner.hpp"
#include "lapx/core/model.hpp"
#include "lapx/problems/problem.hpp"

namespace lapx::core {

struct SynthesisResult {
  /// Optimal worst-case approximation ratio over all radius-r PO
  /// algorithms on the instance set; infinity if no algorithm is feasible
  /// on every instance.
  double optimal_ratio = 0.0;

  /// The distinct realizable view types, in enumeration order.
  std::vector<std::string> view_types;

  /// The optimal behaviour: output per view type (vertex problems: 0/1;
  /// edge problems: bitmask over the root's children in canonical order).
  std::vector<int> optimal_behaviour;

  std::size_t algorithms_enumerated = 0;
  std::size_t feasible_algorithms = 0;
};

/// Synthesizes the optimal radius-r PO algorithm for a vertex-subset
/// problem on the given instances.  Throws if the algorithm space exceeds
/// `max_algorithms`.  Views are typed with bulk_view_type_ids against
/// `interner`, so its id order does not depend on LAPX_THREADS.
SynthesisResult synthesize_po_vertex(
    const problems::Problem& problem,
    const std::vector<graph::LDigraph>& instances, int r,
    std::size_t max_algorithms = std::size_t{1} << 22,
    TypeInterner& interner = TypeInterner::global());

/// Edge-subset variant: a behaviour assigns each view type a bitmask over
/// the root's incident arcs (children of the view root, canonical order).
SynthesisResult synthesize_po_edges(
    const problems::Problem& problem,
    const std::vector<graph::LDigraph>& instances, int r,
    std::size_t max_algorithms = std::size_t{1} << 22,
    TypeInterner& interner = TypeInterner::global());

}  // namespace lapx::core
