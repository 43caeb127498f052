// Unit tests for the graph substrate: Graph, LDigraph, port numberings,
// generators, structural properties and lifts.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph_corpus.hpp"
#include "lapx/graph/digraph.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/graph.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/mutation.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/graph/properties.hpp"

namespace {

using namespace lapx::graph;

TEST(Graph, NegativeVertexCountThrowsInvalidArgument) {
  // The documented error, not the vector's std::length_error: the count
  // is checked before anything is sized by it.
  EXPECT_THROW(Graph(-1), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(-2, {}), std::invalid_argument);
  EXPECT_THROW(LDigraph(-1, 2), std::invalid_argument);
  EXPECT_THROW(LDigraph::from_arcs(-1, 2, {}), std::invalid_argument);
}

TEST(Graph, BasicConstruction) {
  EXPECT_EQ(Graph(4).num_vertices(), 4);
  EXPECT_EQ(Graph(4).num_edges(), 0u);
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 1}});
  EXPECT_EQ(g.edge_id(0, 1), 0);
  EXPECT_EQ(g.edge_id(1, 2), 1);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.edge(1), (Edge{1, 2}));
  EXPECT_EQ(g.edge_id(2, 1), 1);
}

TEST(Graph, RejectsSelfLoopsAndParallelEdges) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {0, 5}}), std::invalid_argument);
}

TEST(Graph, NeighborsSorted) {
  const Graph g = Graph::from_edges(5, {{2, 4}, {2, 0}, {2, 3}});
  auto nb = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 3u);
}

TEST(Graph, IncidentEdges) {
  Graph g = cycle(5);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.incident_edges(v).size(), 2u);
}

TEST(Generators, CycleAndPath) {
  EXPECT_TRUE(cycle(7).is_regular(2));
  EXPECT_EQ(cycle(7).num_edges(), 7u);
  EXPECT_EQ(path(7).num_edges(), 6u);
  EXPECT_EQ(girth(cycle(7)), 7);
  EXPECT_EQ(girth(path(7)), kInfiniteGirth);
}

TEST(Generators, CompleteAndBipartite) {
  EXPECT_EQ(complete(5).num_edges(), 10u);
  EXPECT_EQ(girth(complete(4)), 3);
  EXPECT_EQ(complete_bipartite(3, 4).num_edges(), 12u);
  EXPECT_EQ(girth(complete_bipartite(2, 2)), 4);
  EXPECT_TRUE(is_bipartite(complete_bipartite(3, 4)));
  EXPECT_FALSE(is_bipartite(complete(3)));
}

TEST(Generators, Hypercube) {
  const Graph q3 = hypercube(3);
  EXPECT_EQ(q3.num_vertices(), 8);
  EXPECT_TRUE(q3.is_regular(3));
  EXPECT_EQ(girth(q3), 4);
  EXPECT_TRUE(is_bipartite(q3));
}

TEST(Generators, Petersen) {
  const Graph p = petersen();
  EXPECT_EQ(p.num_vertices(), 10);
  EXPECT_TRUE(p.is_regular(3));
  EXPECT_EQ(girth(p), 5);
  EXPECT_EQ(diameter(p), 2);
}

TEST(Generators, Torus) {
  const Graph t = torus({6, 6});
  EXPECT_EQ(t.num_vertices(), 36);
  EXPECT_TRUE(t.is_regular(4));
  EXPECT_EQ(girth(t), 4);
  EXPECT_TRUE(is_connected(t));
}

TEST(Generators, RandomRegularIsRegular) {
  std::mt19937_64 rng(42);
  for (int d : {2, 3, 4}) {
    const Graph g = random_regular(20, d, rng);
    EXPECT_TRUE(g.is_regular(d)) << "d=" << d;
  }
}

TEST(Generators, BinaryTreeIsForest) {
  const Graph t = binary_tree(4);
  EXPECT_EQ(t.num_vertices(), 15);
  EXPECT_TRUE(is_forest(t));
  EXPECT_TRUE(is_connected(t));
}

TEST(Properties, BfsAndBall) {
  const Graph g = cycle(10);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[5], 5);
  EXPECT_EQ(dist[9], 1);
  const auto b = ball(g, 0, 2);
  EXPECT_EQ(b.size(), 5u);  // 8, 9, 0, 1, 2
}

TEST(Properties, Components) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {2, 3}});
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_FALSE(is_connected(g));
}

// Girth by brute force: each edge {u, v} closes a cycle of length
// dist(u, v) + 1 in the graph without it; the shortest over all edges.
int brute_force_girth(const Graph& g) {
  int best = kInfiniteGirth;
  for (const auto& [a, b] : g.edges()) {
    std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
    std::vector<Vertex> queue{a};
    dist[a] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex u = queue[head];
      for (const Vertex w : g.neighbors(u))
        if (dist[w] == -1 && !(u == a && w == b)) {
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
    }
    if (dist[b] != -1 && (best == kInfiniteGirth || dist[b] + 1 < best))
      best = dist[b] + 1;
  }
  return best;
}

TEST(Properties, GirthAndForestMatchBruteForce) {
  // Seeded forests of several components on shuffled vertex ids, then the
  // same forest with one edge added: inside a component it closes exactly
  // one cycle, across two it leaves a forest.
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 60; ++trial) {
    const Vertex n = 2 + static_cast<Vertex>(rng() % 40);
    std::vector<Vertex> id(static_cast<std::size_t>(n));
    for (Vertex v = 0; v < n; ++v) id[v] = v;
    std::shuffle(id.begin(), id.end(), rng);
    std::vector<Edge> edges;
    for (Vertex v = 1; v < n; ++v)
      if (rng() % 5 != 0)  // else v roots a new component
        edges.emplace_back(id[v], id[rng() % v]);
    const Graph forest = Graph::from_edges(n, edges);
    EXPECT_TRUE(is_forest(forest)) << "trial " << trial;
    EXPECT_EQ(girth(forest), kInfiniteGirth) << "trial " << trial;

    if (forest.num_edges() == static_cast<std::size_t>(n) * (n - 1) / 2)
      continue;  // complete (n = 2): no edge left to add
    Vertex u = 0, w = 0;
    while (u == w || forest.has_edge(u, w)) {
      u = static_cast<Vertex>(rng() % n);
      w = static_cast<Vertex>(rng() % n);
    }
    edges.emplace_back(u, w);
    const Graph plus = Graph::from_edges(n, edges);
    const int expected = brute_force_girth(plus);
    EXPECT_EQ(girth(plus), expected) << "trial " << trial;
    EXPECT_EQ(is_forest(plus), expected == kInfiniteGirth)
        << "trial " << trial;
  }
}

TEST(Properties, GirthOfUnionsIsTheLeastComponentGirth) {
  // Seeded disjoint unions of cycles, paths, chorded cycles and small
  // cubic graphs on shuffled vertex ids.  The closed form settles the
  // cycles and paths, the BFS the components with a degree-3 vertex.
  std::mt19937_64 rng(1201);
  for (int trial = 0; trial < 80; ++trial) {
    std::vector<Graph> parts;
    for (int k = 1 + static_cast<int>(rng() % 5); k > 0; --k) {
      const auto size = static_cast<Vertex>(4 + rng() % 30);
      switch (rng() % 4) {
        case 0:
          parts.push_back(cycle(size - 1));
          break;
        case 1:
          parts.push_back(path(size - 3));
          break;
        case 2: {  // a cycle with one chord
          std::vector<Edge> edges = cycle(size).edges();
          edges.emplace_back(0, 2 + static_cast<Vertex>(rng() % (size - 3)));
          parts.push_back(Graph::from_edges(size, std::move(edges)));
          break;
        }
        default:
          parts.push_back(random_regular(size + size % 2, 3, rng));
      }
    }
    int expected = kInfiniteGirth;
    Vertex n = 0;
    for (const Graph& part : parts) {
      const int g = brute_force_girth(part);
      if (g != kInfiniteGirth && (expected == kInfiniteGirth || g < expected))
        expected = g;
      n += part.num_vertices();
    }
    std::vector<Vertex> id(static_cast<std::size_t>(n));
    std::iota(id.begin(), id.end(), 0);
    std::shuffle(id.begin(), id.end(), rng);
    std::vector<Edge> edges;
    Vertex base = 0;
    for (const Graph& part : parts) {
      for (const auto& [u, v] : part.edges())
        edges.emplace_back(id[base + u], id[base + v]);
      base += part.num_vertices();
    }
    EXPECT_EQ(girth(Graph::from_edges(n, std::move(edges))), expected)
        << "trial " << trial;
  }
}

TEST(Properties, InducedSubgraph) {
  const Graph g = complete(5);
  auto [sub, map] = induced_subgraph(g, {1, 2, 4});
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 3u);
  EXPECT_EQ(map[0], 1);
}

TEST(LDigraph, ProperLabelling) {
  const LDigraph d = LDigraph::from_arcs(3, 2, {{0, 1, 0}, {0, 2, 1}});
  // duplicate outgoing label at 0:
  EXPECT_THROW(LDigraph::from_arcs(3, 2, {{0, 1, 0}, {0, 2, 1}, {0, 1, 1}}),
               std::invalid_argument);
  // duplicate incoming label at 1:
  EXPECT_THROW(LDigraph::from_arcs(3, 2, {{0, 1, 0}, {0, 2, 1}, {2, 1, 0}}),
               std::invalid_argument);
  EXPECT_EQ(d.out_neighbor(0, 0), std::optional<Vertex>(1));
  EXPECT_EQ(d.in_neighbor(1, 0), std::optional<Vertex>(0));
  EXPECT_EQ(d.out_neighbor(1, 0), std::nullopt);
}

TEST(LDigraph, UnderlyingGraph) {
  const LDigraph d = directed_cycle(5);
  const Graph g = d.underlying_graph();
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_TRUE(d.is_k_in_k_out_regular(1));
}

TEST(LDigraph, GirthDetectsAntiparallelPairs) {
  const LDigraph d = LDigraph::from_arcs(2, 2, {{0, 1, 0}, {1, 0, 1}});
  EXPECT_EQ(girth(d), 2);
}

TEST(LDigraph, AccessorsThrowOutOfRangeOffTheVertexSet) {
  for (const LDigraph& d : {directed_cycle(5), LDigraph()}) {
    for (const Vertex v : {Vertex{-1}, d.num_vertices()}) {
      EXPECT_THROW(d.out_arcs(v), std::out_of_range) << v;
      EXPECT_THROW(d.in_arcs(v), std::out_of_range) << v;
      EXPECT_THROW(d.out_degree(v), std::out_of_range) << v;
      EXPECT_THROW(d.in_degree(v), std::out_of_range) << v;
    }
  }
}

TEST(PortNumbering, RoundTripLabels) {
  const Graph g = petersen();
  const auto pn = PortNumbering::default_for(g);
  EXPECT_TRUE(pn.valid_for(g));
  const LDigraph d = to_ldigraph(g);
  EXPECT_EQ(d.num_arcs(), g.num_edges());
  // Every arc label decodes to matching ports.
  for (const Arc& a : d.arcs()) {
    const auto [i, j] = decode_port_label(a.label, g.max_degree());
    EXPECT_EQ(pn.ports[a.from][i], a.to);
    EXPECT_EQ(pn.ports[a.to][j], a.from);
  }
  EXPECT_EQ(d.underlying_graph().num_edges(), g.num_edges());
}

TEST(PortNumbering, DirectedTorusMatchesTorus) {
  const LDigraph d = directed_torus({4, 4});
  EXPECT_TRUE(d.is_k_in_k_out_regular(2));
  EXPECT_EQ(d.underlying_graph().num_edges(), torus({4, 4}).num_edges());
}

void expect_same_digraph(const LDigraph& a, const LDigraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.alphabet_size(), b.alphabet_size());
  EXPECT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_TRUE(a.arcs() == b.arcs());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(a.out_arcs(v), b.out_arcs(v))) << v;
    EXPECT_TRUE(std::ranges::equal(a.in_arcs(v), b.in_arcs(v))) << v;
  }
}

// The sequential reference from_arcs answers to: arcs inserted one at a
// time, each checked against a set of (vertex, label) pairs per side and
// a set of (tail, head) pairs, throwing on whatever a proper L-digraph
// forbids.
struct SequentialReference {
  Vertex n;
  Label alphabet;
  std::set<std::pair<Vertex, Label>> out_labels, in_labels;
  std::set<std::pair<Vertex, Vertex>> tail_heads;

  void insert(const Arc& a) {
    for (const Vertex v : {a.from, a.to})
      if (v < 0 || v >= n) throw std::invalid_argument("vertex out of range");
    if (a.from == a.to) throw std::invalid_argument("self-loop");
    if (a.label < 0 || a.label >= alphabet)
      throw std::invalid_argument("label out of range");
    if (out_labels.contains({a.from, a.label}) ||
        in_labels.contains({a.to, a.label}) ||
        tail_heads.contains({a.from, a.to}))
      throw std::invalid_argument("improper arc");
    out_labels.insert({a.from, a.label});
    in_labels.insert({a.to, a.label});
    tail_heads.insert({a.from, a.to});
  }
};

TEST(LDigraph, FromArcsMatchesSequentialAddArc) {
  // Each case draws a proper arc list and, in every other case, inserts
  // one arc that may break it: a self-loop, an out-of-range endpoint or
  // label, a repeated out or in label, or a parallel arc.  from_arcs must
  // throw iff some sequential insert does, and otherwise keep the arcs in
  // the given order with every vertex's runs the input arcs grouped by
  // that vertex and sorted by label.
  std::mt19937_64 rng(21);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 420; ++trial) {
    const auto n = static_cast<Vertex>(1 + rng() % 12);
    const auto alphabet = static_cast<Label>(1 + rng() % 6);
    auto vertex = [&] { return static_cast<Vertex>(rng() % n); };
    auto label = [&] { return static_cast<Label>(rng() % alphabet); };
    std::vector<Arc> arcs;
    SequentialReference proper{n, alphabet, {}, {}, {}};
    for (int k = 0; k < 3 * n; ++k) {
      const Arc a{vertex(), vertex(), label()};
      try {
        proper.insert(a);
        arcs.push_back(a);
      } catch (const std::invalid_argument&) {
      }
    }
    const Arc base = arcs.empty() ? Arc{0, 0, 0} : arcs[rng() % arcs.size()];
    Arc extra{vertex(), vertex(), label()};
    const int defect = trial % 2 ? 1 + trial / 2 % 6 : 0;
    switch (defect) {
      case 0: break;
      case 1: extra.to = extra.from; break;
      case 2: (rng() % 2 ? extra.from : extra.to) = rng() % 2 ? n : -1; break;
      case 3: extra.label = rng() % 2 ? alphabet : -1; break;
      case 4: extra.from = base.from, extra.label = base.label; break;
      case 5: extra.to = base.to, extra.label = base.label; break;
      case 6: extra.from = base.from, extra.to = base.to; break;
    }
    if (defect != 0)
      arcs.insert(arcs.begin() + static_cast<std::ptrdiff_t>(
                                     rng() % (arcs.size() + 1)),
                  extra);
    SequentialReference sequential{n, alphabet, {}, {}, {}};
    bool sequential_ok = true;
    try {
      for (const Arc& a : arcs) sequential.insert(a);
    } catch (const std::invalid_argument&) {
      sequential_ok = false;
    }
    LDigraph bulk;
    bool bulk_ok = true;
    try {
      bulk = LDigraph::from_arcs(n, alphabet, arcs);
    } catch (const std::invalid_argument&) {
      bulk_ok = false;
    }
    ASSERT_EQ(bulk_ok, sequential_ok) << "trial " << trial;
    if (!sequential_ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(bulk.num_vertices(), n);
    EXPECT_EQ(bulk.alphabet_size(), alphabet);
    EXPECT_EQ(bulk.num_arcs(), arcs.size());
    EXPECT_TRUE(bulk.arcs() == arcs) << "trial " << trial;
    using Runs = std::vector<std::pair<Label, Vertex>>;
    std::vector<Runs> out(static_cast<std::size_t>(n)), in(out);
    for (const Arc& a : arcs) {
      out[static_cast<std::size_t>(a.from)].emplace_back(a.label, a.to);
      in[static_cast<std::size_t>(a.to)].emplace_back(a.label, a.from);
    }
    for (Vertex v = 0; v < n; ++v) {
      auto& o = out[static_cast<std::size_t>(v)];
      auto& i = in[static_cast<std::size_t>(v)];
      std::sort(o.begin(), o.end());
      std::sort(i.begin(), i.end());
      EXPECT_TRUE(std::ranges::equal(bulk.out_arcs(v), o)) << trial << " " << v;
      EXPECT_TRUE(std::ranges::equal(bulk.in_arcs(v), i)) << trial << " " << v;
    }
  }
  EXPECT_GT(accepted, 150);
  EXPECT_GT(rejected, 150);
}

TEST(PortNumbering, DefaultOverloadMatchesGeneralPath) {
  // The default overload reads ports straight off the sorted adjacency;
  // the general path, with default ports and orientation, is its oracle.
  for (const Graph& g : corpus::builder_graphs(7, 50)) {
    SCOPED_TRACE(g.summary());
    expect_same_digraph(
        to_ldigraph(g),
        to_ldigraph(g, PortNumbering::default_for(g),
                    Orientation::default_for(g), g.max_degree()));
  }
}

// Patches `ld` == to_ldigraph(g) through `edits`, as a session write
// does, and expects exactly to_ldigraph of the edited g; then moves both
// to the edited graph.  True when some frontier vertex's in- or
// out-degree moved under an unchanged alphabet, so that its runs changed
// length.
bool expect_patch_matches_fresh(Graph& g, LDigraph& ld,
                                const std::vector<EdgeEdit>& edits) {
  apply_edits(g, edits);
  const std::vector<Vertex> frontier = affected_frontier(g, edits, 1);
  LDigraph patched = to_ldigraph(g, ld, edits, frontier);
  expect_same_digraph(patched, to_ldigraph(g));
  bool flipped = false;
  if (patched.alphabet_size() == ld.alphabet_size())
    for (const Vertex v : frontier)
      flipped = flipped || patched.out_degree(v) != ld.out_degree(v) ||
                patched.in_degree(v) != ld.in_degree(v);
  ld = std::move(patched);
  return flipped;
}

TEST(PortNumbering, PatchedMatchesFreshBuild) {
  // The patched build against a fresh to_ldigraph, whose properness
  // checks the patch skips: seeded batches over the corpus -- 2-switches,
  // single adds and removes, isolated vertices, batches that raise the
  // maximum degree -- each patching the previous patch.
  std::mt19937_64 rng(29);
  int batches = 0;
  for (Graph g : corpus::builder_graphs(11, 30)) {
    SCOPED_TRACE(g.summary());
    LDigraph ld = to_ldigraph(g);
    for (int round = 0; round < 8 && g.num_vertices() > 0; ++round) {
      const std::vector<EdgeEdit> edits = corpus::random_edit_batch(g, rng);
      expect_patch_matches_fresh(g, ld, edits);
      batches += !edits.empty();
    }
  }
  EXPECT_GT(batches, 1000);

  // Removes that move the last edge into ids 0 and 3.
  Graph g = torus({4, 5});
  LDigraph ld = to_ldigraph(g);
  for (const EdgeId id : {0, 3}) {
    const auto [u, v] = g.edge(id);
    expect_patch_matches_fresh(g, ld, {{EdgeEdit::Kind::kRemove, u, v}});
  }
  // A 2-switch that keeps every degree but turns 3's edge to 2 (in at 3)
  // into one to 6 (out at 3): runs change length though no degree does.
  Graph c = cycle(8);
  LDigraph lc = to_ldigraph(c);
  EXPECT_TRUE(expect_patch_matches_fresh(c, lc,
                                         {{EdgeEdit::Kind::kRemove, 2, 3},
                                          {EdgeEdit::Kind::kRemove, 5, 6},
                                          {EdgeEdit::Kind::kAdd, 3, 6},
                                          {EdgeEdit::Kind::kAdd, 2, 5}}));
  // Isolating a vertex, then a chord that raises the maximum degree (a
  // fresh build) and one that keeps it.
  expect_patch_matches_fresh(c, lc,
                             {{EdgeEdit::Kind::kRemove, 0, 1},
                              {EdgeEdit::Kind::kRemove, 0, 7}});
  expect_patch_matches_fresh(c, lc, {{EdgeEdit::Kind::kAdd, 1, 4}});
  expect_patch_matches_fresh(c, lc, {{EdgeEdit::Kind::kAdd, 0, 7}});
}

TEST(PortNumbering, DeltaAboveDegreeCapThrows) {
  // delta * delta is an int: above kMaxGraphDegree it would overflow.
  const Graph g = path(3);
  const auto pn = PortNumbering::default_for(g);
  const auto orient = Orientation::default_for(g);
  EXPECT_THROW(to_ldigraph(g, pn, orient, kMaxGraphDegree + 1),
               std::invalid_argument);
  EXPECT_THROW(to_ldigraph(g, pn, orient, 70000), std::invalid_argument);
  const LDigraph d = to_ldigraph(g, pn, orient, kMaxGraphDegree);
  EXPECT_EQ(d.alphabet_size(), 2147395600);
  EXPECT_EQ(d.num_arcs(), 2u);
}

TEST(Lift, DisjointCopiesIsCoveringMap) {
  const LDigraph g = directed_cycle(5);
  const Lift lift = disjoint_copies(g, 3);
  std::string why;
  EXPECT_TRUE(is_covering_map(lift.graph, g, lift.phi, &why)) << why;
  const auto sizes = fibre_sizes(lift.phi, g.num_vertices());
  for (int s : sizes) EXPECT_EQ(s, 3);
}

TEST(Lift, RandomLiftIsCoveringMap) {
  std::mt19937_64 rng(7);
  const LDigraph g = directed_torus({3, 4});
  for (int l : {2, 3, 5}) {
    const Lift lift = random_lift(g, l, rng);
    std::string why;
    EXPECT_TRUE(is_covering_map(lift.graph, g, lift.phi, &why)) << why;
    EXPECT_TRUE(is_covering_map(lift.graph.underlying_graph(),
                                g.underlying_graph(), lift.phi, &why))
        << why;
  }
}

TEST(Lift, CoveringMapRejectsWrongMaps) {
  const LDigraph g = directed_cycle(4);
  const Lift lift = disjoint_copies(g, 2);
  std::vector<Vertex> bad = lift.phi;
  bad[0] = (bad[0] + 1) % 4;
  EXPECT_FALSE(is_covering_map(lift.graph, g, bad));
}

TEST(Lift, ProductLiftProjectsBothWays) {
  // Template: directed 6-cycle (complete on a 1-letter alphabet).
  const LDigraph h = directed_cycle(6);
  const LDigraph g = directed_cycle(4);
  const ProductLift product = product_lift(h, g);
  EXPECT_EQ(product.graph.num_vertices(), 24);
  std::string why;
  EXPECT_TRUE(is_covering_map(product.graph, g, product.phi, &why)) << why;
  // phi_h is a homomorphism: arcs project to arcs with equal labels.
  for (const Arc& a : product.graph.arcs()) {
    const auto to = h.out_neighbor(product.phi_h[a.from], a.label);
    ASSERT_TRUE(to.has_value());
    EXPECT_EQ(*to, product.phi_h[a.to]);
  }
}

TEST(Lift, FigureThreeExample) {
  // Figure 3 of the paper: a 2-lift of a 4-vertex graph; fibres of equal
  // size and the covering map checked structurally.
  // a--b, b--c, c--a (triangle) plus a--d
  const LDigraph g =
      LDigraph::from_arcs(4, 3, {{0, 1, 0}, {1, 2, 0}, {2, 0, 1}, {0, 3, 2}});
  std::mt19937_64 rng(3);
  const Lift lift = random_lift(g, 2, rng);
  std::string why;
  ASSERT_TRUE(is_covering_map(lift.graph, g, lift.phi, &why)) << why;
  for (int s : fibre_sizes(lift.phi, 4)) EXPECT_EQ(s, 2);
}

TEST(Properties, ComponentOfLDigraph) {
  const LDigraph g = directed_cycle(6);
  const Lift two_copies = disjoint_copies(g, 2);
  auto [comp, members] = component_of(two_copies.graph, 0);
  EXPECT_EQ(comp.num_vertices(), 6);
  EXPECT_EQ(members.size(), 6u);
}

// ------------------------------------------------------------- mutation --

void apply_one(Graph& g, EdgeEdit::Kind kind, Vertex u, Vertex v) {
  const EdgeEdit edit{kind, u, v};
  apply_edits(g, std::span(&edit, 1));
}

TEST(Mutation, RemoveEdgeKeepsIdsDense) {
  Graph g = path(5);  // ids 0..3 along the path
  apply_one(g, EdgeEdit::Kind::kRemove, 1, 2);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_FALSE(g.has_edge(1, 2));
  // The last edge {3,4} moved into the freed slot; ids stay 0..m-1 and
  // incident lists must reference the moved id, not the stale one.
  EXPECT_EQ(g.edges()[1], (Edge{3, 4}));
  EXPECT_EQ(g.edge_id(3, 4), 1);
  EXPECT_EQ(g.edge_id(0, 1), 0);
  for (Vertex v = 0; v < 5; ++v)
    for (EdgeId id : g.incident_edges(v)) EXPECT_LT(id, 3);
  // Removing the absent edge again is a typed error.
  EXPECT_THROW(apply_one(g, EdgeEdit::Kind::kRemove, 1, 2), MutationError);
  // Re-adding restores adjacency (with a fresh id).
  apply_one(g, EdgeEdit::Kind::kAdd, 1, 2);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(g.edge_id(1, 2), 3);
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(Mutation, AddEdgeHardeningMatchesReaderGuards) {
  Graph g = Graph::from_edges(3, {{0, 1}});
  // The same classes of corruption graph/io.cpp's reader rejects are
  // typed errors here: self-loops, duplicates, degree overflow.
  EXPECT_THROW(apply_one(g, EdgeEdit::Kind::kAdd, 1, 1), MutationError);
  EXPECT_THROW(apply_one(g, EdgeEdit::Kind::kAdd, 1, 0), MutationError);
  // MutationError stays catchable as std::invalid_argument for old call
  // sites.
  EXPECT_THROW(apply_one(g, EdgeEdit::Kind::kAdd, 2, 2),
               std::invalid_argument);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Mutation, ApplyEditsIsOrderedAndThrowsOnFirstBadEdit) {
  Graph g = cycle(5);
  const std::vector<EdgeEdit> ok{{EdgeEdit::Kind::kRemove, 0, 1},
                                 {EdgeEdit::Kind::kAdd, 0, 2}};
  apply_edits(g, ok);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  // In-order: the second edit sees the first's effect, so remove-then-
  // readd of the same pair is legal in one batch...
  Graph h = cycle(5);
  const std::vector<EdgeEdit> readd{{EdgeEdit::Kind::kRemove, 1, 2},
                                    {EdgeEdit::Kind::kAdd, 1, 2}};
  apply_edits(h, readd);
  EXPECT_TRUE(h.has_edge(1, 2));
  // ...while a bad edit throws at its position, leaving earlier edits
  // applied (callers wanting atomicity edit a copy, as the store does).
  Graph k = cycle(5);
  const std::vector<EdgeEdit> bad{{EdgeEdit::Kind::kRemove, 0, 1},
                                  {EdgeEdit::Kind::kAdd, 3, 3}};
  EXPECT_THROW(apply_edits(k, bad), MutationError);
  EXPECT_FALSE(k.has_edge(0, 1));
}

// The graph as one vector of sorted neighbours and one of incident ids
// per vertex, edited one edge at a time: the semantics from_edges and
// apply_edits reproduce, errors included.
struct ReferenceGraph {
  explicit ReferenceGraph(Vertex n)
      : adj(static_cast<std::size_t>(n)), inc(adj.size()) {}

  std::vector<std::vector<Vertex>> adj;
  std::vector<std::vector<EdgeId>> inc;
  std::vector<Edge> edges;

  void check_vertex(Vertex v) const {
    if (v < 0 || v >= static_cast<Vertex>(adj.size()))
      throw std::invalid_argument("vertex out of range: " + std::to_string(v));
  }
  bool has_edge(Vertex u, Vertex v) const {
    return std::ranges::binary_search(adj[u], v);
  }
  static std::string pair(Vertex u, Vertex v) {
    return "{" + std::to_string(u) + "," + std::to_string(v) + "}";
  }

  void add(Vertex u, Vertex v) {
    check_vertex(u);
    check_vertex(v);
    if (u == v) throw MutationError("self-loop at " + std::to_string(u));
    if (has_edge(u, v)) throw MutationError("parallel edge " + pair(u, v));
    if (edges.size() >= kMaxGraphEdges)
      throw MutationError("edge count would overflow EdgeId");
    for (Vertex x : {u, v})
      if (static_cast<int>(adj[x].size()) >= kMaxGraphDegree)
        throw MutationError("degree at " + std::to_string(x) +
                            " would overflow the port-label alphabet");
    adj[u].insert(std::ranges::lower_bound(adj[u], v), v);
    adj[v].insert(std::ranges::lower_bound(adj[v], u), u);
    if (u > v) std::swap(u, v);
    edges.emplace_back(u, v);
    inc[u].push_back(static_cast<EdgeId>(edges.size() - 1));
    inc[v].push_back(static_cast<EdgeId>(edges.size() - 1));
  }

  void remove(Vertex u, Vertex v) {
    check_vertex(u);
    check_vertex(v);
    if (!has_edge(u, v)) throw MutationError("no edge " + pair(u, v));
    adj[u].erase(std::ranges::lower_bound(adj[u], v));
    adj[v].erase(std::ranges::lower_bound(adj[v], u));
    if (u > v) std::swap(u, v);
    const auto id = static_cast<EdgeId>(
        std::ranges::find(edges, Edge{u, v}) - edges.begin());
    for (Vertex w : {u, v}) inc[w].erase(std::ranges::find(inc[w], id));
    const auto last = static_cast<EdgeId>(edges.size() - 1);
    if (id != last) {
      edges[id] = edges[last];
      for (Vertex w : {edges[id].first, edges[id].second})
        *std::ranges::find(inc[w], last) = id;
    }
    edges.pop_back();
  }

  void apply(const EdgeEdit& e) {
    if (e.kind == EdgeEdit::Kind::kAdd)
      add(e.u, e.v);
    else
      remove(e.u, e.v);
  }
};

// "ok", or the type and message of what f threw.
template <typename F>
std::string outcome(const F& f) {
  try {
    f();
    return "ok";
  } catch (const MutationError& e) {
    return std::string("MutationError: ") + e.what();
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument: ") + e.what();
  }
}

void expect_matches(const Graph& g, const ReferenceGraph& ref,
                    const std::string& where) {
  ASSERT_EQ(g.num_vertices(), static_cast<Vertex>(ref.adj.size())) << where;
  ASSERT_EQ(g.edges(), ref.edges) << where;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(std::ranges::equal(g.neighbors(v), ref.adj[v]))
        << where << ", vertex " << v;
    ASSERT_TRUE(std::ranges::equal(g.incident_edges(v), ref.inc[v]))
        << where << ", vertex " << v;
  }
}

// Builds g and its reference from `edges`; both must fail alike or match.
bool build_both(Vertex n, const std::vector<Edge>& edges, Graph& g,
                ReferenceGraph& ref, const std::string& where) {
  const std::string built =
      outcome([&] { g = Graph::from_edges(n, edges); });
  const std::string added = outcome([&] {
    for (const auto& [u, v] : edges) ref.add(u, v);
  });
  EXPECT_EQ(built, added) << where;
  if (built != "ok") return false;
  expect_matches(g, ref, where);
  return true;
}

// Six corpus batches on g and ref, every other one with a random edit
// inserted that may fail: both must throw alike and keep the same state.
int edit_both(Graph& g, ReferenceGraph& ref, std::mt19937_64& rng,
              const std::string& where) {
  int failed = 0;
  const auto n = static_cast<Vertex>(ref.adj.size());
  for (int round = 0; round < 6; ++round) {
    std::vector<EdgeEdit> batch = corpus::random_edit_batch(g, rng);
    if (round % 2 == 1) {
      const EdgeEdit extra{
          rng() % 2 ? EdgeEdit::Kind::kAdd : EdgeEdit::Kind::kRemove,
          static_cast<Vertex>(rng() % (n + 2)) - 1,
          static_cast<Vertex>(rng() % (n + 2)) - 1};
      batch.insert(batch.begin() + static_cast<std::ptrdiff_t>(
                                       rng() % (batch.size() + 1)),
                   extra);
    }
    const std::string applied = outcome([&] { apply_edits(g, batch); });
    const std::string replayed = outcome([&] {
      for (const EdgeEdit& e : batch) ref.apply(e);
    });
    const std::string at = where + ", round " + std::to_string(round);
    EXPECT_EQ(applied, replayed) << at;
    failed += applied != "ok";
    expect_matches(g, ref, at);
  }
  return failed;
}

TEST(Mutation, BuildersMatchOneByOneReference) {
  // Seeded edge lists, half with one defect inserted -- a self-loop, a
  // repeated edge in either order, or an endpoint out of range -- then
  // corpus graphs; every graph that builds then takes edit batches.
  std::mt19937_64 rng(27);
  int failed_builds = 0, failed_batches = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<Vertex>(2 + rng() % 30);
    std::vector<Edge> edges;
    for (int k = 0; k < 2 * n; ++k) {
      const Edge e = std::minmax(static_cast<Vertex>(rng() % n),
                                 static_cast<Vertex>(rng() % n));
      if (e.first != e.second && std::ranges::count(edges, e) == 0)
        edges.push_back(rng() % 2 ? e : Edge{e.second, e.first});
    }
    if (trial % 2 == 1) {
      const Vertex x = static_cast<Vertex>(rng() % n);
      Edge defect{x, x};
      if (!edges.empty() && trial % 3 == 0) {
        defect = edges[rng() % edges.size()];
        if (rng() % 2) std::swap(defect.first, defect.second);
      } else if (trial % 3 == 1) {
        defect.second = rng() % 2 ? n : -1;
      }
      edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(
                                       rng() % (edges.size() + 1)),
                   defect);
    }
    const std::string where = "trial " + std::to_string(trial);
    Graph g;
    ReferenceGraph ref(n);
    if (build_both(n, edges, g, ref, where))
      failed_batches += edit_both(g, ref, rng, where);
    else
      ++failed_builds;
  }
  for (const Graph& h : corpus::builder_graphs(3, 20)) {
    Graph g;
    ReferenceGraph ref(h.num_vertices());
    ASSERT_TRUE(build_both(h.num_vertices(), h.edges(), g, ref, h.summary()));
    failed_batches += edit_both(g, ref, rng, h.summary());
  }
  EXPECT_GT(failed_builds, 100);
  EXPECT_GT(failed_batches, 100);

  // The degree cap: a star whose centre is at it takes no further edge.
  const Vertex n = kMaxGraphDegree + 2;
  std::vector<Edge> star_edges;
  for (Vertex leaf = 1; leaf + 1 < n; ++leaf) star_edges.emplace_back(0, leaf);
  Graph star_at_cap;
  ReferenceGraph ref(n);
  ASSERT_TRUE(build_both(n, star_edges, star_at_cap, ref, "star"));
  const std::vector<EdgeEdit> over{{EdgeEdit::Kind::kAdd, n - 1, 0}};
  EXPECT_EQ(outcome([&] { apply_edits(star_at_cap, over); }),
            "MutationError: degree at 0 would overflow the port-label "
            "alphabet");
  star_edges.emplace_back(n - 1, 0);
  Graph over_cap;
  ReferenceGraph over_ref(n);
  EXPECT_FALSE(build_both(n, star_edges, over_cap, over_ref, "star + 1"));
}

TEST(Mutation, AffectedFrontierIsTheEditBall) {
  // On a long cycle the radius-r frontier of one removed edge is exactly
  // the set within distance r of its endpoints -- measured in the union
  // graph, i.e. THROUGH the removed edge as well.
  Graph g = cycle(20);
  std::vector<EdgeEdit> edits{{EdgeEdit::Kind::kRemove, 0, 1}};
  apply_edits(g, edits);
  const auto f1 = affected_frontier(g, edits, 1);
  EXPECT_EQ(f1, (std::vector<Vertex>{0, 1, 2, 19}));
  const auto f2 = affected_frontier(g, edits, 2);
  EXPECT_EQ(f2, (std::vector<Vertex>{0, 1, 2, 3, 18, 19}));
  const auto f0 = affected_frontier(g, edits, 0);
  EXPECT_EQ(f0, (std::vector<Vertex>{0, 1}));
}

TEST(Mutation, AffectedFrontierGoesGlobalWhenMaxDegreeMoves) {
  // Adding a chord to a cycle raises the max degree 2 -> 3: every port
  // label in the induced L-digraph is suspect, so the frontier must be
  // all vertices regardless of radius.
  Graph g = cycle(12);
  std::vector<EdgeEdit> edits{{EdgeEdit::Kind::kAdd, 0, 6}};
  apply_edits(g, edits);
  const auto f = affected_frontier(g, edits, 1);
  EXPECT_EQ(f.size(), 12u);
  // A degree-preserving rewire on a 4-regular torus stays local.
  Graph t = torus({5, 5});
  std::vector<EdgeEdit> rewire{{EdgeEdit::Kind::kRemove, 0, 1},
                               {EdgeEdit::Kind::kRemove, 12, 13},
                               {EdgeEdit::Kind::kAdd, 0, 13},
                               {EdgeEdit::Kind::kAdd, 12, 1}};
  apply_edits(t, rewire);
  const auto ft = affected_frontier(t, rewire, 1);
  EXPECT_LT(ft.size(), 25u);
  // Out-of-range endpoints are typed errors.
  std::vector<EdgeEdit> oob{{EdgeEdit::Kind::kAdd, 0, 99}};
  EXPECT_THROW(affected_frontier(t, oob, 1), MutationError);
}

TEST(Mutation, GrowLiftPreservesCoveringAndOldViews) {
  std::mt19937_64 rng(17);
  const LDigraph base = directed_torus({3, 3});
  auto lift = random_lift(base, 2, rng);
  const Vertex old_n = lift.graph.num_vertices();
  const auto old_arcs = lift.graph.arcs();
  const Vertex first = grow_lift(lift, base, 3, rng);
  EXPECT_EQ(first, old_n);
  EXPECT_EQ(lift.graph.num_vertices(), old_n + 3 * base.num_vertices());
  std::string why;
  EXPECT_TRUE(is_covering_map(lift.graph, base, lift.phi, &why)) << why;
  // Disjoint growth: every old arc is untouched, and no new arc touches
  // an old vertex.
  for (std::size_t i = 0; i < old_arcs.size(); ++i)
    EXPECT_EQ(lift.graph.arcs()[i], old_arcs[i]);
  for (std::size_t i = old_arcs.size(); i < lift.graph.arcs().size(); ++i) {
    EXPECT_GE(lift.graph.arcs()[i].from, first);
    EXPECT_GE(lift.graph.arcs()[i].to, first);
  }
  EXPECT_THROW(grow_lift(lift, base, 0, rng), std::invalid_argument);
}

}  // namespace
