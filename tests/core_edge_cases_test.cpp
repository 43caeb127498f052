// Edge-case and contract tests for the core/view/ball APIs: boundary radii,
// degree-1 and isolated vertices, error paths, and small invariants not
// covered by the module suites.

#include <gtest/gtest.h>

#include <numeric>

#include "lapx/core/model.hpp"
#include "lapx/core/simulate.hpp"
#include "lapx/core/tstar.hpp"
#include "lapx/core/view.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/graph/properties.hpp"
#include "lapx/problems/problem.hpp"

namespace {

using namespace lapx;
using core::Move;

TEST(MoveContract, InverseIsInvolution) {
  for (bool outgoing : {false, true}) {
    for (graph::Label l : {0, 1, 5}) {
      const Move m{outgoing, l};
      EXPECT_EQ(m.inverse().inverse(), m);
      EXPECT_NE(m.inverse(), m);
    }
  }
}

TEST(PortLabels, EncodeDecodeRoundTrip) {
  for (int delta : {1, 2, 3, 7}) {
    for (int i = 0; i < delta; ++i) {
      for (int j = 0; j < delta; ++j) {
        const auto [di, dj] =
            graph::decode_port_label(graph::encode_port_label(i, j, delta),
                                     delta);
        EXPECT_EQ(di, i);
        EXPECT_EQ(dj, j);
      }
    }
  }
}

TEST(View, WordsRoundTripThroughMoves) {
  const auto g = graph::directed_torus({4, 4});
  const auto t = core::view(g, 3, 2);
  for (int i = 0; i < t.size(); ++i) {
    // Replaying the word from the root must land on the node's image.
    graph::Vertex cur = 3;
    for (const Move& m : t.word(i)) {
      const auto next = m.outgoing ? g.out_neighbor(cur, m.label)
                                   : g.in_neighbor(cur, m.label);
      ASSERT_TRUE(next.has_value());
      cur = *next;
    }
    EXPECT_EQ(cur, t.nodes[i].image);
  }
}

TEST(View, PathEndpointsHaveSmallerViews) {
  // A path's L-digraph: endpoints see strictly fewer walks than the middle.
  const auto g = graph::path(7);
  const auto ld = graph::to_ldigraph(g);
  const auto end = core::view(ld, 0, 2);
  const auto mid = core::view(ld, 3, 2);
  EXPECT_LT(end.size(), mid.size());
  EXPECT_FALSE(core::is_complete_view(end));
}

TEST(Ball, RadiusBeyondDiameterCoversEverything) {
  const auto g = graph::petersen();
  order::Keys keys(10);
  std::iota(keys.begin(), keys.end(), 0);
  const auto ball = core::extract_ball(g, keys, 0, 10);
  EXPECT_EQ(ball.size(), 10);
  EXPECT_EQ(ball.g.num_edges(), g.num_edges());
}

TEST(Ball, IsolatedVertex) {
  const graph::Graph g = graph::Graph::from_edges(3, {{0, 1}});
  order::Keys keys{10, 20, 30};
  const auto ball = core::extract_ball(g, keys, 2, 5);
  EXPECT_EQ(ball.size(), 1);
  EXPECT_EQ(ball.root, 0);
  EXPECT_EQ(ball.keys[0], 30);
}

TEST(Ball, IdAndOiTypesDifferInSensitivity) {
  const auto g = graph::cycle(5);
  order::Keys a{1, 2, 3, 4, 5}, b{10, 20, 30, 40, 50};
  const auto ball_a = core::extract_ball(g, a, 0, 1);
  const auto ball_b = core::extract_ball(g, b, 0, 1);
  // OI types agree (same order), ID types differ (different values).
  EXPECT_EQ(core::oi_ball_type(core::canonicalize_oi(ball_a)),
            core::oi_ball_type(core::canonicalize_oi(ball_b)));
  EXPECT_NE(core::id_ball_type(ball_a), core::id_ball_type(ball_b));
}

TEST(Runners, PoEdgeRunnerRejectsMissingArcs) {
  const auto g = graph::directed_cycle(5);
  const core::EdgePoAlgorithm bad = [](const core::ViewTree&) {
    core::EdgeMarksPo marks;
    marks.emplace_back(Move{true, 3}, true);  // label 3 does not exist
    return marks;
  };
  EXPECT_THROW(core::run_po_edges(g, bad, 1), std::logic_error);
}

TEST(Runners, OiEdgeRunnerRejectsNonIncidentMarks) {
  const auto g = graph::cycle(6);
  order::Keys keys(6);
  std::iota(keys.begin(), keys.end(), 0);
  const core::EdgeOiAlgorithm bad = [](const core::Ball& b) {
    core::EdgeMarksOi marks;
    // Mark a vertex that is in the ball but not adjacent to the root.
    for (graph::Vertex u = 0; u < b.g.num_vertices(); ++u)
      if (u != b.root && !b.g.has_edge(b.root, u)) {
        marks.emplace_back(u, true);
        break;
      }
    return marks;
  };
  EXPECT_THROW(core::run_oi_edges(g, keys, bad, 2), std::logic_error);
}

TEST(TStar, RanksAreAPermutation) {
  for (const auto& [k, r] : {std::pair{1, 4}, {2, 1}, {3, 1}}) {
    const auto ord = core::TStarOrder::abelian(k, r);
    // Collect all ranks by enumerating reduced words through the views of
    // a large enough torus/cycle template.
    graph::LDigraph g = k == 1 ? graph::directed_cycle(64)
                               : graph::directed_torus(
                                     std::vector<int>(k, 8));
    const auto t = core::view(g, 0, r);
    std::vector<std::int64_t> ranks;
    for (int i = 0; i < t.size(); ++i) ranks.push_back(ord.rank(t.word(i)));
    std::sort(ranks.begin(), ranks.end());
    for (std::size_t i = 0; i < ranks.size(); ++i)
      EXPECT_EQ(ranks[i], static_cast<std::int64_t>(i));
    EXPECT_EQ(static_cast<std::int64_t>(ranks.size()), ord.size());
  }
}

TEST(Simulate, OrderedLiftKeysFollowTemplateOrder) {
  const auto h = graph::directed_cycle(8);
  order::Keys h_keys(8);
  std::iota(h_keys.begin(), h_keys.end(), 0);
  const auto g = graph::directed_cycle(3);
  const auto lift = core::ordered_product_lift(h, h_keys, g);
  for (graph::Vertex v = 0; v < lift.graph.num_vertices(); ++v)
    for (graph::Vertex u = 0; u < lift.graph.num_vertices(); ++u)
      if (h_keys[lift.phi_h[v]] < h_keys[lift.phi_h[u]]) {
        EXPECT_LT(lift.keys[v], lift.keys[u]);
      }
}

TEST(Digraph, ComponentOfConnectedIsIdentity) {
  const auto g = graph::directed_torus({3, 4});
  auto [comp, members] = graph::component_of(g, 5);
  EXPECT_EQ(comp.num_vertices(), g.num_vertices());
  EXPECT_EQ(comp.num_arcs(), g.num_arcs());
  for (std::size_t i = 0; i < members.size(); ++i)
    EXPECT_EQ(members[i], static_cast<graph::Vertex>(i));
}

TEST(Solution, SizeCountsBits) {
  problems::Solution s = problems::vertex_solution({true, false, true, true});
  EXPECT_EQ(s.size(), 3u);
}

}  // namespace
