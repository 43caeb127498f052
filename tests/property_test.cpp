// Property-based test sweeps across modules: invariants that must hold on
// randomly generated instances, cross-checks between independent
// implementations, and brute-force validation of the exact solvers.

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "lapx/algorithms/cole_vishkin.hpp"
#include "lapx/core/ball.hpp"
#include "lapx/core/view.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/isomorphism.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/graph/properties.hpp"
#include "lapx/group/wreath.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/problems/exact.hpp"
#include "lapx/problems/problem.hpp"

namespace {

using namespace lapx;
using graph::Graph;
using graph::Vertex;

Graph random_graph(int n, double p, std::mt19937_64& rng) {
  std::vector<graph::Edge> edges;
  std::bernoulli_distribution coin(p);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      if (coin(rng)) edges.emplace_back(u, v);
  return Graph::from_edges(n, std::move(edges));
}

order::Keys random_keys(int n, std::mt19937_64& rng) {
  order::Keys keys(n);
  std::iota(keys.begin(), keys.end(), 0);
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

class RandomGraphSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomGraphSweep, CanonicalizeOiIsIdempotent) {
  std::mt19937_64 rng(GetParam());
  const Graph g = random_graph(12, 0.3, rng);
  const auto keys = random_keys(12, rng);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto once = core::canonicalize_oi(core::extract_ball(g, keys, v, 2));
    const auto twice = core::canonicalize_oi(once);
    EXPECT_EQ(once.g, twice.g);
    EXPECT_EQ(once.keys, twice.keys);
    EXPECT_EQ(once.root, twice.root);
  }
}

TEST_P(RandomGraphSweep, CanonicalBallInvariantUnderKeyScaling) {
  std::mt19937_64 rng(GetParam() + 1000);
  const Graph g = random_graph(12, 0.3, rng);
  const auto keys = random_keys(12, rng);
  order::Keys scaled(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) scaled[i] = 5 * keys[i] + 17;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto a = core::canonicalize_oi(core::extract_ball(g, keys, v, 2));
    const auto b = core::canonicalize_oi(core::extract_ball(g, scaled, v, 2));
    EXPECT_EQ(core::oi_ball_type(a), core::oi_ball_type(b));
    EXPECT_EQ(a.g, b.g);
    EXPECT_EQ(a.root, b.root);
  }
}

TEST_P(RandomGraphSweep, BallSizeMatchesBfs) {
  std::mt19937_64 rng(GetParam() + 2000);
  const Graph g = random_graph(15, 0.25, rng);
  const auto keys = random_keys(15, rng);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (int r : {0, 1, 2, 3}) {
      const auto ball = core::extract_ball(g, keys, v, r);
      EXPECT_EQ(static_cast<std::size_t>(ball.size()),
                graph::ball(g, v, r).size());
      EXPECT_EQ(ball.original[ball.root], v);
    }
  }
}

TEST_P(RandomGraphSweep, OrderedTypesRefineUnorderedStructure) {
  // If two vertices have equal ordered types, their balls must be
  // isomorphic as rooted graphs (checked with the independent
  // isomorphism module).
  std::mt19937_64 rng(GetParam() + 3000);
  const Graph g = random_graph(10, 0.35, rng);
  const auto keys = random_keys(10, rng);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (Vertex u = v + 1; u < g.num_vertices(); ++u) {
      if (order::ordered_ball_type(g, keys, v, 1) !=
          order::ordered_ball_type(g, keys, u, 1))
        continue;
      const auto bv = core::extract_ball(g, keys, v, 1);
      const auto bu = core::extract_ball(g, keys, u, 1);
      EXPECT_TRUE(
          graph::are_rooted_isomorphic(bv.g, bv.root, bu.g, bu.root));
    }
  }
}

TEST_P(RandomGraphSweep, LiftGirthAtLeastBaseGirth) {
  std::mt19937_64 rng(GetParam() + 4000);
  const auto base = graph::directed_torus({3, 4});
  const auto lift = graph::random_lift(base, 3, rng);
  const int gb = graph::girth(base);
  const int gl = graph::girth(lift.graph);
  if (gl != graph::kInfiniteGirth && gb != graph::kInfiniteGirth) {
    EXPECT_GE(gl, gb);
  }
}

TEST_P(RandomGraphSweep, ViewTypesConstantOnFibres) {
  std::mt19937_64 rng(GetParam() + 5000);
  const auto base = graph::directed_torus({3, 3});
  const auto lift = graph::random_lift(base, 4, rng);
  for (Vertex v = 0; v < lift.graph.num_vertices(); ++v)
    EXPECT_EQ(core::view_type(core::view(lift.graph, v, 2)),
              core::view_type(core::view(base, lift.phi[v], 2)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- brute-force validation of the exact solvers ---

std::size_t brute_min_vertex_subset(
    const Graph& g, const problems::Problem& p) {
  const int n = g.num_vertices();
  std::size_t best = n + 1;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<bool> bits(n);
    std::size_t size = 0;
    for (int i = 0; i < n; ++i) {
      bits[i] = (mask >> i) & 1;
      size += bits[i];
    }
    if (size < best && p.feasible(g, problems::vertex_solution(bits)))
      best = size;
  }
  return best;
}

std::size_t brute_min_edge_subset(const Graph& g,
                                  const problems::Problem& p) {
  const std::size_t m = g.num_edges();
  std::size_t best = m + 1;
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    std::vector<bool> bits(m);
    std::size_t size = 0;
    for (std::size_t i = 0; i < m; ++i) {
      bits[i] = (mask >> i) & 1;
      size += bits[i];
    }
    if (size < best && p.feasible(g, problems::edge_solution(bits)))
      best = size;
  }
  return best;
}

class SolverSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SolverSweep, ExactSolversMatchBruteForce) {
  std::mt19937_64 rng(GetParam());
  const Graph g = random_graph(9, 0.35, rng);
  EXPECT_EQ(problems::min_vertex_cover_size(g),
            brute_min_vertex_subset(g, problems::vertex_cover()));
  EXPECT_EQ(problems::min_dominating_set_size(g),
            brute_min_vertex_subset(g, problems::dominating_set()));
  if (g.num_edges() <= 16) {
    EXPECT_EQ(problems::min_edge_dominating_set_size(g),
              brute_min_edge_subset(g, problems::edge_dominating_set()));
    // Seeds 15, 17, 19 and 20 draw isolated vertices, which edge_cover()
    // accepts uncovered.
    EXPECT_EQ(problems::min_edge_cover_size(g),
              brute_min_edge_subset(g, problems::edge_cover()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSweep,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u, 17u,
                                           18u, 19u, 20u));

// --- homogeneity laws on parameterized families ---

class CycleSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CycleSweep, HomogeneityFractionLaw) {
  const auto [n, r] = GetParam();
  const auto report = order::measure_homogeneity(
      graph::cycle(n), order::identity_keys(n), r);
  EXPECT_NEAR(report.fraction, static_cast<double>(n - 2 * r) / n, 1e-12);
  // Exactly 2r + 1 distinct types: the inner type plus one per seam slot.
  EXPECT_EQ(report.distinct_types, static_cast<std::size_t>(2 * r + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CycleSweep,
    ::testing::Values(std::pair{10, 1}, std::pair{10, 2}, std::pair{20, 1},
                      std::pair{20, 3}, std::pair{40, 2}, std::pair{40, 4},
                      std::pair{80, 3}));

// --- Cole-Vishkin maximal matching (O(log* n) on cycles) ---

TEST(ColeVishkinMatching, MaximalOnRandomIdAssignments) {
  std::mt19937_64 rng(31);
  for (int n : {5, 16, 100, 999}) {
    std::vector<std::int64_t> ids(n);
    std::iota(ids.begin(), ids.end(), 1);
    std::shuffle(ids.begin(), ids.end(), rng);
    const auto coloring = algorithms::cole_vishkin_3coloring(ids);
    int rounds = coloring.rounds;
    const auto matching =
        algorithms::maximal_matching_from_coloring(coloring.colors, &rounds);
    EXPECT_TRUE(algorithms::is_cycle_maximal_matching(matching)) << n;
    EXPECT_LE(rounds, coloring.rounds + 6);
    // A maximal matching is a 2-approximate EDS (the classical non-local
    // route); verify the containment numerically.
    std::size_t size = 0;
    for (bool b : matching) size += b;
    EXPECT_LE(problems::cycle_min_edge_dominating_set(n), size);
    EXPECT_LE(size, 2 * problems::cycle_min_edge_dominating_set(n));
  }
}

// --- failure injection: the library must reject malformed inputs ---

TEST(FailureInjection, ApiRejectsBadArguments) {
  EXPECT_THROW(graph::cycle(2), std::invalid_argument);
  EXPECT_THROW(graph::torus({2, 5}), std::invalid_argument);
  std::mt19937_64 rng_bad(1);
  EXPECT_THROW(graph::random_regular(5, 5, rng_bad), std::invalid_argument);
  EXPECT_THROW(graph::generalized_petersen(6, 3), std::invalid_argument);
  EXPECT_THROW(order::ranks_from_keys({3, 3}), std::invalid_argument);
  EXPECT_THROW(group::WreathGroup(1, 3), std::invalid_argument);  // odd m
  EXPECT_THROW(group::WreathGroup(0, 2), std::invalid_argument);
  const Graph g = graph::cycle(4);
  problems::Solution wrong_kind = problems::edge_solution(
      std::vector<bool>(4, true));
  EXPECT_THROW(problems::vertex_cover().feasible(g, wrong_kind),
               std::invalid_argument);
  problems::Solution wrong_size =
      problems::vertex_solution(std::vector<bool>(3, true));
  EXPECT_THROW(problems::vertex_cover().feasible(g, wrong_size),
               std::invalid_argument);
}

TEST(FailureInjection, LocalCheckersAreActuallyLocal) {
  // Perturbing the solution far from v must not change v's verdict.
  std::mt19937_64 rng(41);
  const Graph g = graph::cycle(12);
  for (const problems::Problem* p : problems::all_problems()) {
    const std::size_t size = p->kind == problems::Kind::kVertexSubset
                                 ? 12u
                                 : g.num_edges();
    std::bernoulli_distribution coin(0.5);
    for (int trial = 0; trial < 20; ++trial) {
      problems::Solution s;
      s.kind = p->kind;
      s.bits.resize(size);
      for (std::size_t i = 0; i < size; ++i) s.bits[i] = coin(rng);
      const Vertex v = 0;
      const bool verdict = p->local_check(g, s, v);
      // Flip a bit at distance > checker_radius + 1 from v (vertex 6 of the
      // 12-cycle, or an edge between vertices 6 and 7).
      problems::Solution far = s;
      const std::size_t far_index =
          p->kind == problems::Kind::kVertexSubset ? 6u
                                                   : g.edge_id(6, 7);
      far.bits[far_index] = !far.bits[far_index];
      EXPECT_EQ(p->local_check(g, far, v), verdict) << p->name;
    }
  }
}

}  // namespace
