// Tests for the fractional-relaxation module, graph I/O, the isomorphism
// checker, and the newer generators.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "lapx/graph/generators.hpp"
#include "lapx/graph/io.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/isomorphism.hpp"
#include "lapx/graph/properties.hpp"
#include "lapx/problems/exact.hpp"
#include "lapx/problems/fractional.hpp"
#include "lapx/problems/problem.hpp"

namespace {

using namespace lapx;
using namespace lapx::problems;
using graph::Graph;
using graph::Vertex;

TEST(Fractional, DoubleCoverIsBipartite2Lift) {
  const Graph g = graph::petersen();
  const Graph dc = bipartite_double_cover(g);
  EXPECT_EQ(dc.num_vertices(), 20);
  EXPECT_EQ(dc.num_edges(), 30u);
  EXPECT_TRUE(graph::is_bipartite(dc));
  // It is a covering map onto g via v -> v / 2.
  std::vector<Vertex> phi(dc.num_vertices());
  for (Vertex v = 0; v < dc.num_vertices(); ++v) phi[v] = v / 2;
  std::string why;
  EXPECT_TRUE(graph::is_covering_map(dc, g, phi, &why)) << why;
}

TEST(Fractional, OddCycleHasHalfIntegralGap) {
  // On C_{2k+1}: nu = k but nu_f = (2k+1)/2 -- the classic gap.
  for (int n : {3, 5, 7, 9}) {
    const Graph g = graph::cycle(n);
    EXPECT_EQ(fractional_matching_doubled(g), static_cast<std::size_t>(n));
    EXPECT_EQ(max_matching_size(g), static_cast<std::size_t>(n / 2));
  }
}

TEST(Fractional, BipartiteGraphsHaveNoGap) {
  // Koenig: on bipartite graphs nu_f = nu and tau_f = tau.
  for (const Graph& g : {graph::complete_bipartite(3, 4), graph::cycle(8),
                         graph::hypercube(3), graph::grid(3, 4)}) {
    EXPECT_EQ(fractional_matching_doubled(g), 2 * max_matching_size(g));
    EXPECT_EQ(fractional_vertex_cover_doubled(g),
              2 * min_vertex_cover_size(g));
  }
}

TEST(Fractional, HalfIntegralMatchingIsFeasibleAndOptimal) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::random_regular(16, 3, rng);
    const auto halves = half_integral_matching(g);
    // Node constraints: sum of halves over incident edges <= 2.
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      int load = 0;
      for (graph::EdgeId e : g.incident_edges(v)) load += halves[e];
      EXPECT_LE(load, 2);
    }
    std::size_t total = 0;
    for (int h : halves) total += h;
    EXPECT_EQ(total, fractional_matching_doubled(g));
  }
}

TEST(Fractional, HalfIntegralCoverIsFeasibleAndDual) {
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::random_regular(16, 3, rng);
    const auto halves = half_integral_vertex_cover(g);
    for (const auto& [u, v] : g.edges())
      EXPECT_GE(halves[u] + halves[v], 2);  // cover every edge fractionally
    std::size_t total = 0;
    for (int h : halves) total += h;
    // Strong duality: tau_f = nu_f.
    EXPECT_EQ(total, fractional_matching_doubled(g));
  }
}

TEST(Fractional, RoundingGivesTwoApproxVertexCover) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::random_regular(18, 3, rng);
    const auto rounded =
        round_up_vertex_cover(half_integral_vertex_cover(g));
    const auto sol = vertex_solution(rounded);
    EXPECT_TRUE(vertex_cover().feasible(g, sol));
    EXPECT_LE(sol.size(), 2 * min_vertex_cover_size(g));
  }
}

TEST(Io, EdgeListRoundTrip) {
  const Graph g = graph::petersen();
  const Graph back = graph::graph_from_edge_list(graph::to_edge_list(g));
  EXPECT_EQ(g, back);
}

TEST(Io, ParsesCommentsAndRejectsGarbage) {
  EXPECT_EQ(graph::graph_from_edge_list("# hello\n3 2\n0 1\n# mid\n1 2\n")
                .num_edges(),
            2u);
  EXPECT_THROW(graph::graph_from_edge_list(""), std::invalid_argument);
  EXPECT_THROW(graph::graph_from_edge_list("3 2\n0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(graph::graph_from_edge_list("3 1\n0 0\n"),
               std::invalid_argument);
  EXPECT_THROW(graph::graph_from_edge_list("2 2\n0 1\n0 1\n"),
               std::invalid_argument);
}

TEST(Io, DotOutputsAllEdges) {
  const auto dot = graph::to_dot(graph::cycle(4));
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 3"), std::string::npos);
  const auto ddot = graph::to_dot(graph::directed_cycle(3));
  EXPECT_NE(ddot.find("0 -> 1"), std::string::npos);
  EXPECT_NE(ddot.find("label=\"0\""), std::string::npos);
}

TEST(Isomorphism, DetectsIsomorphicRelabellings) {
  const Graph g = graph::petersen();
  // Relabel by a fixed permutation.
  std::vector<Vertex> perm{3, 1, 4, 0, 5, 9, 2, 6, 8, 7};
  std::vector<graph::Edge> relabelled;
  for (const auto& [u, v] : g.edges())
    relabelled.emplace_back(perm[u], perm[v]);
  const Graph h = Graph::from_edges(10, std::move(relabelled));
  const auto iso = graph::find_isomorphism(g, h);
  ASSERT_TRUE(iso.has_value());
  for (const auto& [u, v] : g.edges())
    EXPECT_TRUE(h.has_edge((*iso)[u], (*iso)[v]));
}

TEST(Isomorphism, DistinguishesNonIsomorphicGraphs) {
  // Same degree sequence, different graphs: C6 vs two triangles.
  const Graph two_triangles =
      Graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_FALSE(graph::are_isomorphic(graph::cycle(6), two_triangles));
  EXPECT_FALSE(
      graph::are_isomorphic(graph::prism(3), graph::complete_bipartite(3, 3)));
}

TEST(Isomorphism, RootedVariant) {
  const Graph p = graph::path(5);
  EXPECT_TRUE(graph::are_rooted_isomorphic(p, 0, p, 4));   // both endpoints
  EXPECT_FALSE(graph::are_rooted_isomorphic(p, 0, p, 2));  // end vs middle
}

TEST(Isomorphism, AutomorphismCounts) {
  EXPECT_EQ(graph::count_automorphisms(graph::cycle(5)), 10u);     // D5
  EXPECT_EQ(graph::count_automorphisms(graph::complete(4)), 24u);  // S4
  EXPECT_EQ(graph::count_automorphisms(graph::path(4)), 2u);
  EXPECT_EQ(graph::count_automorphisms(graph::petersen()), 120u);
}

TEST(Generators, NewFamilies) {
  EXPECT_EQ(graph::grid(3, 4).num_edges(), 17u);
  EXPECT_TRUE(graph::is_bipartite(graph::grid(3, 4)));
  EXPECT_EQ(graph::wheel(7).num_edges(), 12u);
  EXPECT_EQ(graph::ladder(5).num_vertices(), 10);
  EXPECT_TRUE(graph::prism(4).is_regular(3));
  EXPECT_TRUE(
      graph::are_isomorphic(graph::generalized_petersen(5, 2),
                            graph::petersen()));
  const Graph mk = graph::generalized_petersen(8, 3);  // Moebius-Kantor
  EXPECT_TRUE(mk.is_regular(3));
  EXPECT_EQ(graph::girth(mk), 6);
}

}  // namespace
