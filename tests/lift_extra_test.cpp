// Tests for the Proposition 4.5 connected-lift construction.

#include <gtest/gtest.h>

#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/properties.hpp"

namespace {

using namespace lapx::graph;

TEST(ConnectedLift, ProducesConnectedCoveringMaps) {
  for (int l : {2, 3, 7}) {
    for (int which = 0; which < 2; ++which) {
      const LDigraph base =
          which == 0 ? directed_cycle(6) : directed_torus({3, 4});
      const Lift lift = connected_lift(base, l);
      std::string why;
      EXPECT_TRUE(is_covering_map(lift.graph, base, lift.phi, &why)) << why;
      EXPECT_TRUE(is_connected(lift.graph.underlying_graph()))
          << "l=" << l << " which=" << which;
      for (int f : fibre_sizes(lift.phi, base.num_vertices()))
        EXPECT_EQ(f, l);
    }
  }
}

TEST(ConnectedLift, RejectsTrees) {
  const LDigraph tree = LDigraph::from_arcs(3, 2, {{0, 1, 0}, {0, 2, 1}});
  EXPECT_THROW(connected_lift(tree, 2), std::invalid_argument);
}

TEST(ConnectedLift, DisjointCopiesAreNotConnected) {
  // Sanity contrast: the trivial lift is disconnected, the rewired one is
  // not -- this is exactly the Remark 1.5 / Proposition 4.5 distinction.
  const LDigraph base = directed_cycle(5);
  EXPECT_FALSE(
      is_connected(disjoint_copies(base, 3).graph.underlying_graph()));
  EXPECT_TRUE(
      is_connected(connected_lift(base, 3).graph.underlying_graph()));
}

}  // namespace
