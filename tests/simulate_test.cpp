// Tests for the ordered complete tree (T*, <*) and the Theorem 4.1
// OI -> PO simulation: agreement on homogeneous lifts, feasibility and
// approximation transfer to the base graph.

#include <gtest/gtest.h>

#include <random>

#include "lapx/algorithms/oi.hpp"
#include "lapx/core/simulate.hpp"
#include "lapx/core/tstar.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/properties.hpp"
#include "lapx/group/homogeneous.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/problems/exact.hpp"
#include "lapx/problems/problem.hpp"

namespace {

using namespace lapx::core;
using lapx::graph::directed_cycle;
using lapx::graph::directed_torus;
using lapx::graph::LDigraph;
using lapx::order::Keys;
using lapx::order::identity_keys;

TEST(TStar, SizeMatchesCompleteTree) {
  EXPECT_EQ(TStarOrder::abelian(1, 3).size(), complete_tree_size(1, 3));
  EXPECT_EQ(TStarOrder::abelian(2, 1).size(), complete_tree_size(2, 1));
}

TEST(TStar, AbelianRejectsUnsoundRadius) {
  EXPECT_THROW(TStarOrder::abelian(2, 2), std::invalid_argument);
}

TEST(TStar, CycleOrderIsPositionOnThePath) {
  // For k = 1 the T* of radius r is a path s^-r .. lambda .. s^r and the
  // cone order is the position along it.
  const auto ord = TStarOrder::abelian(1, 2);
  const Move fwd{true, 0}, bwd{false, 0};
  EXPECT_EQ(ord.rank({bwd, bwd}), 0);
  EXPECT_EQ(ord.rank({bwd}), 1);
  EXPECT_EQ(ord.rank({}), 2);
  EXPECT_EQ(ord.rank({fwd}), 3);
  EXPECT_EQ(ord.rank({fwd, fwd}), 4);
  EXPECT_THROW(ord.rank({fwd, fwd, fwd}), std::out_of_range);
}

TEST(TStar, WreathOrderIsConsistentWithAbelianOnK1) {
  // Level-1 U is Z itself, so the wreath construction at k = 1 must induce
  // the same ranks as the abelian one whenever the generator is "positive".
  lapx::group::HomogeneousSpec spec;
  spec.k = 1;
  spec.r = 2;
  spec.level = 1;
  spec.m = 0;
  spec.generators = {lapx::group::Elem{1}};
  const auto wreath = TStarOrder::wreath(spec);
  const auto abelian = TStarOrder::abelian(1, 2);
  const Move fwd{true, 0}, bwd{false, 0};
  for (const Word& w :
       {Word{}, Word{fwd}, Word{bwd}, Word{fwd, fwd}, Word{bwd, bwd}})
    EXPECT_EQ(wreath.rank(w), abelian.rank(w));
}

TEST(Simulate, ViewToOrderedBallIsATree) {
  const LDigraph g = directed_torus({5, 5});
  const auto ord = TStarOrder::abelian(2, 1);
  const Ball ball = view_to_ordered_ball(view(g, 0, 1), ord);
  EXPECT_EQ(ball.g.num_vertices(), 5);
  EXPECT_EQ(ball.g.num_edges(), 4u);
  EXPECT_TRUE(lapx::graph::is_forest(ball.g));
}

TEST(Simulate, OrderedProductLiftIsCoveringMap) {
  const LDigraph h = directed_cycle(24);
  const LDigraph g = directed_cycle(5);
  const auto lift = ordered_product_lift(h, identity_keys(24), g);
  std::string why;
  EXPECT_TRUE(is_covering_map(lift.graph, g, lift.phi, &why)) << why;
  // Keys are distinct.
  Keys sorted = lift.keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

TEST(Simulate, AgreementOnLiftedCycleIsHigh) {
  // Fact 4.2 on the cycle: B simulates A on all but the seam fraction.
  const int m = 60, r = 2;
  const LDigraph h = directed_cycle(m);
  const LDigraph g = directed_cycle(7);
  const auto lift = ordered_product_lift(h, identity_keys(m), g);
  const auto ord = TStarOrder::abelian(1, r);
  const auto report = measure_agreement(
      lift.graph, lift.keys, lapx::algorithms::local_min_is_oi(), ord, r);
  EXPECT_GE(report.agreement, 1.0 - 4.0 * r / m);
  EXPECT_LT(report.agreement, 1.0 + 1e-9);
}

TEST(Simulate, AgreementImprovesWithLargerTemplate) {
  const LDigraph g = directed_cycle(5);
  const auto ord = TStarOrder::abelian(1, 2);
  double prev = 0.0;
  for (int m : {12, 24, 96}) {
    const auto lift =
        ordered_product_lift(directed_cycle(m), identity_keys(m), g);
    const auto report = measure_agreement(
        lift.graph, lift.keys, lapx::algorithms::local_min_is_oi(), ord, 2);
    EXPECT_GE(report.agreement + 1e-9, prev);
    prev = report.agreement;
  }
  EXPECT_GT(prev, 0.9);
}

TEST(Simulate, TorusTemplateAgreement) {
  // |L| = 2, r = 1: the toroidal template (the degenerate abelian case of
  // the construction) fools OI algorithms on 2-labelled digraphs.
  const int m = 20;
  const LDigraph h = directed_torus({m, m});
  const LDigraph g = directed_torus({3, 4});
  const auto lift = ordered_product_lift(h, identity_keys(m * m), g);
  const auto ord = TStarOrder::abelian(2, 1);
  const auto report = measure_agreement(
      lift.graph, lift.keys, lapx::algorithms::local_min_is_oi(), ord, 1);
  // Inner fraction is (1 - 2/m)^2 = 0.81; agreement must beat it.
  EXPECT_GE(report.agreement, 0.81 - 1e-9);
}

TEST(Simulate, WreathTemplateAgreement) {
  // The paper's own template: k = 1, r = 2 via the wreath construction.
  std::mt19937_64 rng(3);
  auto spec = lapx::group::design_homogeneous(1, 2, 4, rng);
  ASSERT_TRUE(spec.has_value());
  spec->m = 4;
  const auto h =
      lapx::group::materialize_homogeneous(*spec, 1 << 20, /*component=*/true);
  const LDigraph g = directed_cycle(5);
  const auto lift = ordered_product_lift(h.digraph, h.keys, g);
  const auto ord = TStarOrder::wreath(*spec);
  const auto report = measure_agreement(
      lift.graph, lift.keys, lapx::algorithms::local_min_is_oi(), ord, 2);
  EXPECT_GT(report.agreement, 0.0);
  // The agreement is at least the tau*-fraction of the template.
  const auto homo = lapx::order::measure_homogeneity(h.digraph, h.keys, 2);
  EXPECT_GE(report.agreement + 1e-9, homo.fraction);
}

TEST(Simulate, PoOutputIsConstantOnSymmetricBase) {
  // B is a PO algorithm, so on the completely symmetric cycle its output is
  // the same at every node: the independent set collapses to empty --
  // the MaxIS inapproximability mechanism.
  const auto ord = TStarOrder::abelian(1, 2);
  const auto b = oi_to_po(lapx::algorithms::local_min_is_oi(), ord);
  const auto out = run_po(directed_cycle(9), b, 2);
  for (bool bit : out) EXPECT_EQ(bit, out[0]);
  EXPECT_FALSE(out[0]);  // lambda is never the cone-minimum of its ball
}

TEST(Simulate, FeasibilityTransfersToBase) {
  // Edge problems: B's output on the base graph is a feasible EDS.
  const auto ord = TStarOrder::abelian(1, 3);
  const auto b =
      oi_to_po_edges(lapx::algorithms::eds_greedy_fallback_oi(2), ord);
  const LDigraph g = directed_cycle(12);
  const auto bits = run_po_edges(g, b, 3);
  const auto underlying = g.underlying_graph();
  EXPECT_TRUE(lapx::problems::edge_dominating_set().feasible(
      underlying, lapx::problems::edge_solution(bits)));
}

}  // namespace
