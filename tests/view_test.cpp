// Tests for view trees (Section 2.5): structure, canonical types, covering
// properties, lift invariance, and the complete tree (T*, lambda).

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "lapx/core/view.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/port_numbering.hpp"

namespace {

using namespace lapx::core;
using lapx::graph::directed_cycle;
using lapx::graph::directed_torus;
using lapx::graph::LDigraph;

TEST(View, DirectedCycleStructure) {
  const LDigraph g = directed_cycle(10);
  const ViewTree t = view(g, 0, 3);
  // A cycle view is a path: 2 nodes per level beyond the root.
  EXPECT_EQ(t.size(), 1 + 2 * 3);
  EXPECT_EQ(t.children[0].size(), 2u);  // one incoming, one outgoing move
  // All views on a symmetric cycle are pairwise isomorphic (Figure 2).
  const std::string type = view_type(t);
  for (lapx::graph::Vertex v = 1; v < 10; ++v)
    EXPECT_EQ(view_type(view(g, v, 3)), type);
}

TEST(View, RadiusZero) {
  const LDigraph g = directed_cycle(5);
  const ViewTree t = view(g, 2, 0);
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(view_type(t), "r=0;()");
}

TEST(View, WordsAreReducedAndUnique) {
  const LDigraph g = directed_torus({4, 5});
  const ViewTree t = view(g, 7, 2);
  std::set<Word> words;
  for (int i = 0; i < t.size(); ++i) {
    const Word w = t.word(i);
    EXPECT_EQ(static_cast<int>(w.size()), t.nodes[i].depth);
    for (std::size_t j = 1; j < w.size(); ++j)
      EXPECT_NE(w[j], w[j - 1].inverse()) << "non-reduced word";
    EXPECT_TRUE(words.insert(w).second) << "duplicate word";
  }
}

TEST(View, ImagesFormCoveringWalks) {
  // Every tree arc must project to an arc of G with the right label and
  // direction -- i.e. phi is a homomorphism on the tree.
  const LDigraph g = directed_torus({3, 4});
  const ViewTree t = view(g, 5, 3);
  for (int i = 1; i < t.size(); ++i) {
    const auto& node = t.nodes[i];
    const auto& parent = t.nodes[node.parent];
    if (node.via.outgoing) {
      EXPECT_EQ(g.out_neighbor(parent.image, node.via.label),
                std::optional<lapx::graph::Vertex>(node.image));
    } else {
      EXPECT_EQ(g.in_neighbor(parent.image, node.via.label),
                std::optional<lapx::graph::Vertex>(node.image));
    }
  }
}

TEST(View, CompleteTreeSize) {
  EXPECT_EQ(complete_tree_size(1, 3), 7);        // path: 1 + 2 + 2 + 2
  EXPECT_EQ(complete_tree_size(2, 1), 5);        // star with 4 children
  EXPECT_EQ(complete_tree_size(2, 2), 1 + 4 + 12);
  EXPECT_EQ(complete_tree_size(3, 2), 1 + 6 + 30);
}

TEST(View, TorusViewsAreComplete) {
  // A 2k-regular L-digraph where every label is present both ways at every
  // node realises the complete tree (girth permitting, subtrees repeat
  // images but the shape is complete).
  const LDigraph g = directed_torus({5, 5});
  const ViewTree t = view(g, 0, 2);
  EXPECT_TRUE(is_complete_view(t));
}

TEST(View, LiftInvariance) {
  // The defining property of PO information: views are invariant under
  // lifts, view(H, v) == view(G, phi(v)).
  std::mt19937_64 rng(17);
  const LDigraph g = directed_torus({3, 4});
  const auto lift = lapx::graph::random_lift(g, 4, rng);
  for (lapx::graph::Vertex v = 0; v < lift.graph.num_vertices(); v += 5) {
    EXPECT_EQ(view_type(view(lift.graph, v, 2)),
              view_type(view(g, lift.phi[v], 2)));
  }
}

TEST(View, DistinguishesOrientationPatterns) {
  // Two cycles with different orientation patterns have different views.
  const LDigraph consistent = directed_cycle(6);
  // Arcs 0->1, 2->1, 2->3, 4->3, 4->5, 0->5: alternating orientation.
  const LDigraph alternating = LDigraph::from_arcs(
      6, 2, {{0, 1, 0}, {2, 1, 1}, {2, 3, 0}, {4, 3, 1}, {4, 5, 0}, {0, 5, 1}});
  EXPECT_NE(view_type(view(consistent, 0, 2)),
            view_type(view(alternating, 0, 2)));
}

TEST(View, PortNumberedGraphViews) {
  // Views computed through a port numbering: check on the Petersen graph
  // that radius-1 views of all nodes are isomorphic only under a symmetric
  // structure (default ports are not symmetric, so types may differ), but
  // each node sees exactly its degree many children.
  const auto g = lapx::graph::petersen();
  const LDigraph d = lapx::graph::to_ldigraph(g);
  for (lapx::graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    const ViewTree t = view(d, v, 1);
    EXPECT_EQ(static_cast<int>(t.children[0].size()), g.degree(v));
  }
}

}  // namespace
