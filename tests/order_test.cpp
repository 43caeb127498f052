// Tests for ordered graphs and (alpha, r)-homogeneity, including the
// paper's exact quantitative claims in Figure 6(b).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "lapx/core/interner.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/runtime/parallel.hpp"

namespace {

using namespace lapx::order;
using lapx::graph::cycle;
using lapx::graph::directed_cycle;
using lapx::graph::Graph;
using lapx::graph::torus;

TEST(Order, RanksFromKeys) {
  EXPECT_EQ(ranks_from_keys({30, 10, 20}), (std::vector<int>{2, 0, 1}));
  EXPECT_THROW(ranks_from_keys({1, 1}), std::invalid_argument);
}

TEST(Order, BallTypeDetectsRootPosition) {
  // On an ordered path a-b-c the middle and end vertices have different
  // rooted types even though the graphs are isomorphic.
  const Graph p = lapx::graph::path(3);
  const Keys keys = identity_keys(3);
  EXPECT_NE(ordered_ball_type(p, keys, 0, 1), ordered_ball_type(p, keys, 1, 1));
}

TEST(Order, BallTypeInvariantUnderOrderPreservingRelabelling) {
  // Types depend on the *relative* order only.
  const Graph g = cycle(8);
  const Keys base = identity_keys(8);
  Keys stretched;
  for (auto k : base) stretched.push_back(1000 + 7 * k);
  for (lapx::graph::Vertex v = 0; v < 8; ++v)
    EXPECT_EQ(ordered_ball_type(g, base, v, 2),
              ordered_ball_type(g, stretched, v, 2));
}

TEST(Order, CycleHomogeneityFraction) {
  // An ordered n-cycle (order along the cycle) has exactly n - 2r vertices
  // with the common "inner" type: the 2r vertices nearest the seam differ.
  for (int n : {12, 24, 48}) {
    for (int r : {1, 2, 3}) {
      const auto report = measure_homogeneity(cycle(n), identity_keys(n), r);
      EXPECT_NEAR(report.fraction, static_cast<double>(n - 2 * r) / n, 1e-9)
          << "n=" << n << " r=" << r;
    }
  }
}

TEST(Order, FigureSixTorusClaims) {
  // Figure 6(b): the 6x6 toroidal grid (product of two *directed* 6-cycles)
  // under the lexicographic order is (4/9, 1)-homogeneous and
  // (1/9, 2)-homogeneous.  The figure's graph carries directions and
  // labels; the L-digraph type class of the inner nodes has exactly
  // (6-2r)^2 members.
  const auto d = lapx::graph::directed_torus({6, 6});
  const Keys keys = identity_keys(36);
  const auto r1 = measure_homogeneity(d, keys, 1);
  EXPECT_NEAR(r1.fraction, 4.0 / 9.0, 1e-9);
  const auto r2 = measure_homogeneity(d, keys, 2);
  EXPECT_NEAR(r2.fraction, 1.0 / 9.0, 1e-9);
  // Forgetting directions merges two corner vertices into the inner class
  // (their undirected ordered stars coincide), so the plain-graph fraction
  // is slightly *larger* -- measured 18/36 at r = 1.
  const auto undirected = measure_homogeneity(torus({6, 6}), keys, 1);
  EXPECT_GE(undirected.fraction + 1e-12, r1.fraction);
  EXPECT_NEAR(undirected.fraction, 0.5, 1e-9);
}

TEST(Order, TorusInnerFractionLaw) {
  // General law: the directed m x m torus has exactly (m - 2r)^2 inner
  // vertices of the common tau* type (for m > 4r); the undirected version
  // is at least as homogeneous.
  for (int m : {6, 8, 10}) {
    const auto d = lapx::graph::directed_torus({m, m});
    const auto report = measure_homogeneity(d, identity_keys(m * m), 1);
    EXPECT_NEAR(report.fraction,
                static_cast<double>((m - 2) * (m - 2)) / (m * m), 1e-9)
        << "m=" << m;
    const auto undirected =
        measure_homogeneity(torus({m, m}), identity_keys(m * m), 1);
    EXPECT_GE(undirected.fraction + 1e-12, report.fraction);
  }
}

TEST(Order, DigraphTypesSeeLabelsAndDirections) {
  // The L-digraph type distinguishes structures the plain type cannot:
  // reversing every arc of a directed cycle flips in/out at each node.
  const auto fwd = directed_cycle(8);
  lapx::graph::LDigraph bwd(8, 1);
  for (int i = 0; i < 8; ++i) bwd.add_arc((i + 1) % 8, i, 0);
  const Keys keys = identity_keys(8);
  // Node 3 is an inner node in both; its plain ordered ball type matches,
  // but the digraph types differ.
  EXPECT_EQ(ordered_ball_type(fwd.underlying_graph(), keys, 3, 1),
            ordered_ball_type(bwd.underlying_graph(), keys, 3, 1));
  EXPECT_NE(ordered_ball_type(fwd, keys, 3, 1),
            ordered_ball_type(bwd, keys, 3, 1));
}

TEST(Order, RandomOrderIsLessHomogeneous) {
  // A random order on a cycle should (with overwhelming probability) have a
  // much smaller largest type class than the aligned order.
  std::mt19937_64 rng(5);
  const int n = 60;
  Keys random_keys = identity_keys(n);
  std::shuffle(random_keys.begin(), random_keys.end(), rng);
  const auto aligned = measure_homogeneity(cycle(n), identity_keys(n), 2);
  const auto shuffled = measure_homogeneity(cycle(n), random_keys, 2);
  EXPECT_GT(aligned.fraction, shuffled.fraction);
}

TEST(Order, HistogramAccountsForAllVertices) {
  // The report counts classes by TypeId; the text spellings are the
  // oracle: their histogram accounts for every vertex and has the report's
  // class count and largest class, for both ball overloads.
  const Keys keys = identity_keys(36);
  auto check = [&](const auto& g) {
    const auto report = measure_homogeneity(g, keys, 1);
    std::map<std::string, std::size_t> histogram;
    for (lapx::graph::Vertex v = 0; v < 36; ++v)
      ++histogram[ordered_ball_type(g, keys, v, 1)];
    std::size_t total = 0, largest = 0;
    for (const auto& [type, count] : histogram) {
      total += count;
      largest = std::max(largest, count);
    }
    EXPECT_EQ(total, 36u);
    EXPECT_EQ(report.distinct_types, histogram.size());
    EXPECT_EQ(report.largest_class, largest);
    EXPECT_EQ(report.fraction, static_cast<double>(largest) / 36);
    EXPECT_GE(report.distinct_types, 2u);
  };
  check(torus({6, 6}));
  check(lapx::graph::directed_torus({6, 6}));
}

TEST(Order, IsHomogeneousThreshold) {
  const Graph g = cycle(20);
  EXPECT_TRUE(is_homogeneous(g, identity_keys(20), 0.8, 1));
  EXPECT_FALSE(is_homogeneous(g, identity_keys(20), 0.95, 1));
}

TEST(Order, HomogeneityInterningIsScheduleIndependent) {
  // ordered_ball_type_ids mints one ordered-ball id per distinct key
  // (~2.9K here); a fresh interner must map ids to keys identically
  // whatever the thread count -- the TypeId invariant every other interner
  // client keeps.  The Graph overload serves measure_homogeneity and
  // run_oi, the L-digraph one materialize_homogeneous.
  std::mt19937_64 rng(3);
  const Graph g = lapx::graph::random_regular(3000, 3, rng);
  const lapx::graph::LDigraph d = lapx::graph::to_ldigraph(g);
  const Keys keys = identity_keys(3000);
  const int old_threads = lapx::runtime::thread_count();
  for (const bool digraph : {false, true}) {
    std::vector<std::vector<std::string>> spellings;
    for (int threads : {1, 4, 8}) {
      lapx::runtime::set_thread_count(threads);
      lapx::core::TypeInterner interner;
      if (digraph)
        ordered_ball_type_ids(d, keys, 2, interner);
      else
        ordered_ball_type_ids(g, keys, 2, interner);
      std::vector<std::string>& ids = spellings.emplace_back();
      for (lapx::core::TypeId id = 0; id < interner.size(); ++id)
        ids.push_back(interner.spelling(id));
    }
    EXPECT_GT(spellings[0].size(), 2000u) << "digraph " << digraph;
    EXPECT_EQ(spellings[1], spellings[0]) << "4 threads vs 1, " << digraph;
    EXPECT_EQ(spellings[2], spellings[0]) << "8 threads vs 1, " << digraph;
  }
  lapx::runtime::set_thread_count(old_threads);
}

}  // namespace
