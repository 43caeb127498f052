// Tests for the PO-algorithm synthesizer and the LCL framework: the
// paper's tight constants computed by exhaustive enumeration, and the
// classical locally checkable labellings validated.

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "lapx/algorithms/cole_vishkin.hpp"
#include "lapx/core/ramsey.hpp"
#include "lapx/core/synthesis.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/problems/lcl.hpp"
#include "lapx/problems/problem.hpp"

namespace {

using namespace lapx;

TEST(Synthesis, OptimalEdsOnSymmetricCyclesIsExactlyThree) {
  // The Theorem 1.6 constant for Delta' = 2, computed rather than asserted:
  // over ALL radius-2 PO algorithms on symmetric cycles, the optimum
  // worst-case ratio is exactly 3 = 4 - 2/2.
  std::vector<graph::LDigraph> instances;
  for (int n : {12, 18, 24}) instances.push_back(graph::directed_cycle(n));
  const auto result = core::synthesize_po_edges(
      problems::edge_dominating_set(), instances, 2);
  EXPECT_EQ(result.view_types.size(), 1u);  // symmetric: one type
  EXPECT_EQ(result.algorithms_enumerated, 4u);
  EXPECT_EQ(result.feasible_algorithms, 3u);
  EXPECT_DOUBLE_EQ(result.optimal_ratio, 3.0);
}

TEST(Synthesis, OptimalVertexCoverOnSymmetricCyclesIsExactlyTwo) {
  std::vector<graph::LDigraph> instances;
  for (int n : {12, 20}) instances.push_back(graph::directed_cycle(n));
  const auto result =
      core::synthesize_po_vertex(problems::vertex_cover(), instances, 1);
  EXPECT_EQ(result.view_types.size(), 1u);
  EXPECT_DOUBLE_EQ(result.optimal_ratio, 2.0);  // take-all is forced
}

TEST(Synthesis, IndependentSetIsUnboundedOnSymmetricCycles) {
  std::vector<graph::LDigraph> instances{graph::directed_cycle(12)};
  const auto result =
      core::synthesize_po_vertex(problems::independent_set(), instances, 2);
  // Only the empty set is feasible, and its maximisation ratio is infinite.
  EXPECT_TRUE(std::isinf(result.optimal_ratio));
}

TEST(Synthesis, DominatingSetOnSymmetricCycles) {
  // Forced all-or-nothing: the optimum PO dominating set on symmetric
  // cycles is everything, ratio n / ceil(n/3) -> 3 = Delta' + 1.
  std::vector<graph::LDigraph> instances{graph::directed_cycle(30)};
  const auto result =
      core::synthesize_po_vertex(problems::dominating_set(), instances, 1);
  EXPECT_DOUBLE_EQ(result.optimal_ratio, 3.0);
}

TEST(Synthesis, MixedOrientationsEnlargeTheSpace) {
  // An alternating-orientation cycle has several view types; the
  // synthesizer explores the larger space and can only do better.
  std::vector<graph::LDigraph> instances{graph::directed_cycle(12)};
  std::vector<graph::Arc> arcs;
  for (int i = 0; i < 12; i += 2) {
    arcs.push_back({i, (i + 1) % 12, 0});
    arcs.push_back({(i + 2) % 12, (i + 1) % 12, 1});
  }
  instances.push_back(graph::LDigraph::from_arcs(12, 2, arcs));
  const auto mixed = core::synthesize_po_vertex(problems::vertex_cover(),
                                                instances, 1);
  EXPECT_GE(mixed.view_types.size(), 3u);
  // Still at least the take-all ratio on the symmetric instance.
  EXPECT_GE(mixed.optimal_ratio, 2.0 - 1e-9);
}

TEST(Lcl, ProperColoringValidation) {
  const auto g = graph::cycle(6);
  const auto p = problems::proper_coloring_lcl(2);
  EXPECT_TRUE(problems::lcl_valid(p, g, {0, 1, 0, 1, 0, 1}));
  EXPECT_FALSE(problems::lcl_valid(p, g, {0, 1, 0, 1, 1, 1}));
  EXPECT_THROW(problems::lcl_valid(p, g, {0, 1, 2, 0, 1, 2}),
               std::invalid_argument);  // label out of range for k = 2
}

TEST(Lcl, WeakColoringIsWeakerThanProper) {
  const auto g = graph::cycle(6);
  const auto weak = problems::weak_coloring_lcl(2);
  // 001011 is not proper but weakly proper (every node has an opposite
  // neighbour).
  EXPECT_TRUE(problems::lcl_valid(weak, g, {0, 0, 1, 0, 1, 1}));
  EXPECT_FALSE(problems::lcl_valid(weak, g, {0, 0, 0, 0, 0, 0}));
}

TEST(Lcl, MisValidation) {
  const auto g = graph::cycle(6);
  const auto p = problems::mis_lcl();
  EXPECT_TRUE(problems::lcl_valid(p, g, {1, 0, 1, 0, 1, 0}));
  EXPECT_TRUE(problems::lcl_valid(p, g, {1, 0, 0, 1, 0, 0}));
  EXPECT_FALSE(problems::lcl_valid(p, g, {1, 1, 0, 1, 0, 0}));  // adjacent
  EXPECT_FALSE(problems::lcl_valid(p, g, {1, 0, 0, 0, 1, 0}));  // not maximal
}

TEST(Lcl, PointerMatchingValidation) {
  const auto g = graph::path(4);  // 0-1-2-3
  const auto p = problems::pointer_matching_lcl(2);
  // 0<->1 matched (0 points to its 1st neighbour = 1; 1 points to its 1st
  // neighbour = 0), 2<->3 matched (2's 2nd neighbour is 3; 3's 1st is 2).
  EXPECT_TRUE(problems::lcl_valid(p, g, {1, 1, 2, 1}));
  // Non-mutual pointer: 1 points at 2 but 2 points at 3.
  EXPECT_FALSE(problems::lcl_valid(p, g, {0, 2, 2, 1}));
  // Unmatched adjacent pair violates maximality.
  EXPECT_FALSE(problems::lcl_valid(p, g, {0, 0, 2, 1}));
}

TEST(Lcl, ColeVishkinSolvesProperColoringLcl) {
  // End-to-end: the ID-model algorithm produces a valid LCL solution.
  std::mt19937_64 rng(3);
  const int n = 60;
  std::vector<std::int64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 1);
  std::shuffle(ids.begin(), ids.end(), rng);
  const auto coloring = algorithms::cole_vishkin_3coloring(ids);
  std::vector<int> labels(coloring.colors.begin(), coloring.colors.end());
  EXPECT_TRUE(problems::lcl_valid(problems::proper_coloring_lcl(3),
                                  graph::cycle(n), labels));
}

TEST(Lcl, RamseyForcesLabellingAlgorithms) {
  // The Section 4.2 machinery applies verbatim to label-valued (not just
  // one-bit) ID algorithms: force "label = id mod 3" into an OI rule.
  const auto g = graph::cycle(8);
  order::Keys keys(8);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<core::Ball> structures;
  std::set<std::string> seen;
  for (graph::Vertex v = 0; v < 8; ++v) {
    core::Ball b = core::canonicalize_oi(core::extract_ball(g, keys, v, 1));
    if (seen.insert(core::oi_ball_type(b)).second) structures.push_back(b);
  }
  const core::VertexIdAlgorithm labeller = [](const core::Ball& b) {
    return static_cast<int>(b.keys[b.root] % 3);
  };
  const auto forcing =
      core::force_order_invariance(labeller, structures, 60, 12);
  ASSERT_TRUE(forcing.has_value());
  EXPECT_DOUBLE_EQ(core::forcing_agreement(*forcing, labeller, g, keys, 1),
                   1.0);
}

}  // namespace
