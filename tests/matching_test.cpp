// Tests for the blossom maximum-matching implementation and the exact
// solvers built on it, cross-checked against brute force on small graphs
// and closed forms on structured families.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "lapx/graph/generators.hpp"
#include "lapx/problems/exact.hpp"
#include "lapx/problems/matching.hpp"
#include "lapx/problems/problem.hpp"

namespace {

using namespace lapx::problems;
using lapx::graph::EdgeId;
using lapx::graph::Graph;
using lapx::graph::Vertex;

// Brute-force maximum matching by enumerating edge subsets (m <= ~20).
std::size_t brute_force_matching(const Graph& g) {
  const std::size_t m = g.num_edges();
  std::size_t best = 0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    std::vector<int> used(g.num_vertices(), 0);
    bool ok = true;
    std::size_t size = 0;
    for (std::size_t e = 0; e < m && ok; ++e) {
      if (!(mask >> e & 1)) continue;
      const auto [u, v] = g.edge(static_cast<EdgeId>(e));
      if (used[u]++ || used[v]++) ok = false;
      ++size;
    }
    if (ok) best = std::max(best, size);
  }
  return best;
}

TEST(Blossom, CyclesAndPaths) {
  for (int n = 3; n <= 12; ++n) {
    EXPECT_EQ(maximum_matching_size(lapx::graph::cycle(n)),
              static_cast<std::size_t>(n / 2))
        << "cycle " << n;
  }
  for (int n = 2; n <= 12; ++n) {
    EXPECT_EQ(maximum_matching_size(lapx::graph::path(n)),
              static_cast<std::size_t>(n / 2))
        << "path " << n;
  }
}

TEST(Blossom, KnownGraphs) {
  EXPECT_EQ(maximum_matching_size(lapx::graph::petersen()), 5u);
  EXPECT_EQ(maximum_matching_size(lapx::graph::complete(6)), 3u);
  EXPECT_EQ(maximum_matching_size(lapx::graph::complete(7)), 3u);
  EXPECT_EQ(maximum_matching_size(lapx::graph::complete_bipartite(3, 5)), 3u);
  EXPECT_EQ(maximum_matching_size(lapx::graph::star(8)), 1u);
}

TEST(Blossom, AgainstBruteForceOnRandomGraphs) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 6 + static_cast<Vertex>(trial % 4);
    std::vector<lapx::graph::Edge> edges;
    std::uniform_int_distribution<Vertex> pick(0, n - 1);
    for (int tries = 0; tries < 14 && edges.size() < 14; ++tries) {
      const lapx::graph::Edge e = std::minmax(pick(rng), pick(rng));
      if (e.first != e.second && std::ranges::count(edges, e) == 0)
        edges.push_back(e);
    }
    const Graph g = Graph::from_edges(n, std::move(edges));
    EXPECT_EQ(maximum_matching_size(g), brute_force_matching(g))
        << "trial " << trial;
  }
}

TEST(Blossom, MatesAreConsistent) {
  std::mt19937_64 rng(7);
  const Graph g = lapx::graph::random_regular(30, 3, rng);
  const auto mates = maximum_matching_mates(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (mates[v] == -1) continue;
    EXPECT_EQ(mates[mates[v]], v);
    EXPECT_TRUE(g.has_edge(v, mates[v]));
  }
  const auto bits = mates_to_edge_bits(g, mates);
  EXPECT_TRUE(maximum_matching().feasible(g, edge_solution(bits)));
}

TEST(GreedyMatching, IsMaximal) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = lapx::graph::random_regular(20, 4, rng);
    const auto greedy = greedy_maximal_matching(g);
    EXPECT_TRUE(is_maximal_matching(g, greedy));
  }
}

TEST(Exact, CycleClosedForms) {
  for (int n : {3, 4, 5, 6, 7, 8, 9, 10, 11}) {
    const Graph g = lapx::graph::cycle(n);
    const auto un = static_cast<std::size_t>(n);
    EXPECT_EQ(min_vertex_cover_size(g), cycle_min_vertex_cover(un)) << n;
    EXPECT_EQ(max_independent_set_size(g), cycle_max_independent_set(un)) << n;
    EXPECT_EQ(max_matching_size(g), cycle_max_matching(un)) << n;
    EXPECT_EQ(min_edge_cover_size(g), cycle_min_edge_cover(un)) << n;
    EXPECT_EQ(min_dominating_set_size(g), cycle_min_dominating_set(un)) << n;
    EXPECT_EQ(min_edge_dominating_set_size(g),
              cycle_min_edge_dominating_set(un))
        << n;
  }
}

TEST(Exact, KnownValues) {
  const Graph p = lapx::graph::petersen();
  EXPECT_EQ(min_vertex_cover_size(p), 6u);
  EXPECT_EQ(max_independent_set_size(p), 4u);
  EXPECT_EQ(min_dominating_set_size(p), 3u);
  EXPECT_EQ(min_edge_dominating_set_size(p), 3u);
  const Graph k4 = lapx::graph::complete(4);
  EXPECT_EQ(min_vertex_cover_size(k4), 3u);
  EXPECT_EQ(min_dominating_set_size(k4), 1u);
  // A single edge leaves its opposite edge undominated in K4.
  EXPECT_EQ(min_edge_dominating_set_size(k4), 2u);
  EXPECT_EQ(min_edge_cover_size(k4), 2u);
}

TEST(Exact, HypercubeValues) {
  const Graph q3 = lapx::graph::hypercube(3);
  EXPECT_EQ(max_matching_size(q3), 4u);
  EXPECT_EQ(min_vertex_cover_size(q3), 4u);
  EXPECT_EQ(min_dominating_set_size(q3), 2u);
}

TEST(Exact, BoundsSandwichTheOptimum) {
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = lapx::graph::random_regular(14, 3, rng);
    const auto eds = eds_bounds(g);
    const std::size_t opt_eds = min_edge_dominating_set_size(g);
    EXPECT_LE(eds.lower, opt_eds);
    EXPECT_GE(eds.upper, opt_eds);
    const auto mds = mds_bounds(g);
    const std::size_t opt_mds = min_dominating_set_size(g);
    EXPECT_LE(mds.lower, opt_mds);
    EXPECT_GE(mds.upper, opt_mds);
    const auto vc = vc_bounds(g);
    const std::size_t opt_vc = min_vertex_cover_size(g);
    EXPECT_LE(vc.lower, opt_vc);
    EXPECT_GE(vc.upper, opt_vc);
  }
}

TEST(Problems, FeasibilityDefinitions) {
  const Graph g = lapx::graph::cycle(6);
  // All nodes form a vertex cover / dominating set.
  std::vector<bool> all_v(6, true), no_v(6, false);
  EXPECT_TRUE(vertex_cover().feasible(g, vertex_solution(all_v)));
  EXPECT_FALSE(vertex_cover().feasible(g, vertex_solution(no_v)));
  EXPECT_TRUE(dominating_set().feasible(g, vertex_solution(all_v)));
  EXPECT_TRUE(independent_set().feasible(g, vertex_solution(no_v)));
  EXPECT_FALSE(independent_set().feasible(g, vertex_solution(all_v)));
  std::vector<bool> all_e(6, true), no_e(6, false);
  EXPECT_TRUE(edge_cover().feasible(g, edge_solution(all_e)));
  EXPECT_FALSE(edge_cover().feasible(g, edge_solution(no_e)));
  EXPECT_TRUE(edge_dominating_set().feasible(g, edge_solution(all_e)));
  EXPECT_FALSE(edge_dominating_set().feasible(g, edge_solution(no_e)));
  EXPECT_TRUE(maximum_matching().feasible(g, edge_solution(no_e)));
  EXPECT_FALSE(maximum_matching().feasible(g, edge_solution(all_e)));
}

TEST(Problems, LocalChecksEqualGlobalFeasibility) {
  // Property test: on random solutions, the conjunction of per-node local
  // checks must coincide with the global specification (PO-checkability).
  std::mt19937_64 rng(55);
  std::bernoulli_distribution flip(0.4);
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = trial % 2 == 0
                        ? lapx::graph::random_regular(12, 3, rng)
                        : lapx::graph::cycle(9);
    for (const Problem* p : all_problems()) {
      Solution s;
      s.kind = p->kind;
      const std::size_t size = p->kind == Kind::kVertexSubset
                                   ? static_cast<std::size_t>(g.num_vertices())
                                   : g.num_edges();
      s.bits.resize(size);
      for (std::size_t i = 0; i < size; ++i) s.bits[i] = flip(rng);
      EXPECT_EQ(p->feasible(g, s), locally_checkable_accepts(*p, g, s))
          << p->name << " trial " << trial;
    }
  }
}

TEST(Problems, ApproximationRatioOrientation) {
  EXPECT_DOUBLE_EQ(approximation_ratio(vertex_cover(), 10, 5), 2.0);
  EXPECT_DOUBLE_EQ(approximation_ratio(independent_set(), 5, 10), 2.0);
  EXPECT_DOUBLE_EQ(approximation_ratio(vertex_cover(), 5, 5), 1.0);
  EXPECT_TRUE(std::isinf(approximation_ratio(independent_set(), 0, 3)));
}

}  // namespace
