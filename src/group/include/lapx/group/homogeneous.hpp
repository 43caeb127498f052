#pragma once
// Theorem 3.2: finite 2k-regular (1-eps, r)-homogeneous graphs of girth
// > 2r + 1, constructed from Cayley graphs of the wreath-like families.
//
// Pipeline (mirrors the paper's proof):
//  1. find_generators() locates a level j and a k-set S in W_j whose Cayley
//     graph has girth > 2r + 1 (our constructive stand-in for the
//     Gamburd et al. random-Cayley-graph theorem; see DESIGN.md).
//  2. The same coordinate tuples are read as elements of U_j and of H_j(m).
//     C(U_j, S) with the positive-cone order is (1, infinity)-homogeneous:
//     left multiplication is an order-preserving automorphism group acting
//     transitively, so all ordered neighbourhoods are isomorphic; tau* is
//     this common type.
//  3. Cutting down to H_j(m) (coordinates mod m) keeps every vertex whose
//     radius-r ball avoids coordinate wrap-around at type tau*; the inner
//     cube [r, m-1-r]^d gives the analytic bound (1 - 2r/m)^d on the
//     homogeneous fraction, which tends to 1 as m grows.
//
// Because |H_j(m)| = m^(2^j - 1) explodes, two measurement paths exist:
//  * materialize_homogeneous(): the full finite ordered graph (for moderate
//    m); feeds the lift/simulation machinery.
//  * local_type()/sampled_homogeneity(): evaluates the ordered radius-r
//    neighbourhood type of a single vertex by pure group arithmetic, so the
//    homogeneous fraction can be estimated for astronomically large m.

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "lapx/graph/digraph.hpp"
#include "lapx/group/cayley.hpp"
#include "lapx/group/wreath.hpp"
#include "lapx/order/homogeneity.hpp"

namespace lapx::group {

/// Full parameter set of a Theorem 3.2 instance.
struct HomogeneousSpec {
  int k = 0;      ///< number of generators; the graph is 2k-regular
  int r = 0;      ///< target neighbourhood radius (girth > 2r + 1)
  int level = 0;  ///< wreath level j
  int m = 0;      ///< cut modulus (even); larger m => larger homogeneous
                  ///< fraction
  std::vector<Elem> generators;  ///< S, coordinates in {0, 1}

  WreathGroup finite_group() const { return WreathGroup(level, m); }
  WreathGroup infinite_group() const { return WreathGroup(level, 0); }
};

/// A materialised ordered homogeneous graph (H, <).
struct HomogeneousGraph {
  HomogeneousSpec spec;
  graph::LDigraph digraph;
  order::Keys keys;             ///< positive-cone order ranks
  std::vector<Elem> elements;   ///< vertex -> group element
};

/// Step 1: chooses level and generators for the requested k and r.
std::optional<HomogeneousSpec> design_homogeneous(int k, int r, int max_level,
                                                  std::mt19937_64& rng);

/// Steps 2-3 materialised: C(H_level(m), S) with cone-order keys.
/// If take_component, restricts to the connected component with the highest
/// density of tau*-type vertices (the paper's final averaging step).
HomogeneousGraph materialize_homogeneous(const HomogeneousSpec& spec,
                                         std::int64_t max_vertices,
                                         bool take_component);

/// The homogeneity type tau*: canonical encoding of the ordered radius-r
/// neighbourhood of the identity in C(U_level, S) with the cone order.
/// Independent of m (Theorem 3.2 claim 1).
std::string tau_star_type(const HomogeneousSpec& spec);

/// Canonical encoding of the ordered radius-r neighbourhood of `center`
/// in C(H_level(m), S), computed by local group arithmetic only.
std::string local_type(const HomogeneousSpec& spec, const Elem& center);

/// Estimates the fraction of tau*-type vertices by sampling.  Only tau*
/// is interned (into `interner`); the samples are looked up, so the
/// interner's id order does not depend on LAPX_THREADS.
double sampled_homogeneity(
    const HomogeneousSpec& spec, int samples, std::mt19937_64& rng,
    core::TypeInterner& interner = core::TypeInterner::global());

/// The paper's analytic lower bound (m - 2r)^d / m^d on the tau*-fraction
/// (clamped to [0, 1]).
double inner_fraction_bound(const HomogeneousSpec& spec);

}  // namespace lapx::group
