// Tests for ordered graphs and (alpha, r)-homogeneity, including the
// paper's exact quantitative claims in Figure 6(b).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "lapx/core/interner.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/mutation.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/graph/properties.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/runtime/parallel.hpp"
#include "graph_corpus.hpp"

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
  std::vector<lapx::graph::Arc> reversed;
  for (int i = 0; i < 8; ++i) reversed.push_back({(i + 1) % 8, i, 0});
  const auto bwd = lapx::graph::LDigraph::from_arcs(8, 1, reversed);
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

// The naive reference of ordered-ball typing: graph::ball, a std::map from
// vertex to key rank, and the canonical tuple (size, root position, sorted
// edge or arc list over ranks), with labels 0 on a plain graph.
struct RefBall {
  int size = 0;
  int root = 0;
  std::vector<std::tuple<int, int, int>> edges;

  auto operator<=>(const RefBall&) const = default;
};

template <typename GraphT>
RefBall reference_ball(const GraphT& g, const Keys& keys,
                       lapx::graph::Vertex v, int r) {
  constexpr bool kArcs = std::is_same_v<GraphT, lapx::graph::LDigraph>;
  std::vector<lapx::graph::Vertex> members;
  if constexpr (kArcs)
    members = lapx::graph::ball(g.underlying_graph(), v, r);
  else
    members = lapx::graph::ball(g, v, r);
  std::map<std::int64_t, lapx::graph::Vertex> by_key;
  for (lapx::graph::Vertex w : members) by_key.emplace(keys[w], w);
  std::map<lapx::graph::Vertex, int> rank;
  for (const auto& [key, w] : by_key)
    rank.emplace(w, static_cast<int>(rank.size()));
  RefBall ref{static_cast<int>(members.size()), rank.at(v), {}};
  for (const auto& [w, i] : rank) {
    if constexpr (kArcs) {
      for (const auto& [l, x] : g.out_arcs(w))
        if (rank.count(x)) ref.edges.emplace_back(i, rank.at(x), l);
    } else {
      for (lapx::graph::Vertex x : g.neighbors(w))
        if (rank.count(x) && i < rank.at(x))
          ref.edges.emplace_back(i, rank.at(x), 0);
    }
  }
  std::sort(ref.edges.begin(), ref.edges.end());
  return ref;
}

// The spelling of a reference tuple: "b=<size>;root=<pos>", then `middle`,
// then the edge (a-b) or arc (a>b#label) list.
std::string reference_spelling(const RefBall& ref, bool arcs,
                               const std::string& middle = "") {
  std::string out = "b=" + std::to_string(ref.size) + ";root=" +
                    std::to_string(ref.root) + middle + (arcs ? ";a:" : ";e:");
  for (const auto& [a, b, l] : ref.edges)
    out += std::to_string(a) + (arcs ? ">" : "-") + std::to_string(b) +
           (arcs ? "#" + std::to_string(l) : "") + ",";
  return out;
}

// ordered_ball_type_ids must partition the vertices exactly as the
// reference tuples do, and ordered_ball_type must spell each tuple.
template <typename GraphT>
void expect_matches_reference(const GraphT& g, const Keys& keys, int r,
                              bool spellings) {
  constexpr bool kArcs = std::is_same_v<GraphT, lapx::graph::LDigraph>;
  lapx::core::TypeInterner interner;
  const auto ids = ordered_ball_type_ids(g, keys, r, interner);
  std::map<RefBall, lapx::core::TypeId> id_of;
  std::map<lapx::core::TypeId, RefBall> ball_of;
  for (lapx::graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    const RefBall ref = reference_ball(g, keys, v, r);
    ASSERT_EQ(id_of.emplace(ref, ids[v]).first->second, ids[v])
        << "vertex " << v << " r=" << r;
    ASSERT_TRUE(ball_of.emplace(ids[v], ref).first->second == ref)
        << "vertex " << v << " r=" << r;
    if (!spellings) continue;
    ASSERT_EQ(ordered_ball_type(g, keys, v, r), reference_spelling(ref, kArcs))
        << "vertex " << v << " r=" << r;
    if constexpr (!kArcs) {
      std::vector<std::int64_t> ball_keys;
      for (lapx::graph::Vertex w : lapx::graph::ball(g, v, r))
        ball_keys.push_back(keys[w]);
      std::sort(ball_keys.begin(), ball_keys.end());
      std::string ids = ";ids:";
      for (std::int64_t k : ball_keys) ids += std::to_string(k) + ",";
      ASSERT_EQ(unordered_ball_type_with_ids(g, keys, v, r),
                reference_spelling(ref, false, ids));
    }
  }
}

TEST(Order, BallTypesMatchNaiveReference) {
  std::mt19937_64 rng(17);
  auto random_keys = [&](lapx::graph::Vertex n) {
    // Distinct, sparse and partly negative, in random vertex order.
    Keys keys(static_cast<std::size_t>(n));
    std::int64_t next = -static_cast<std::int64_t>(rng() % 1000);
    for (auto& k : keys) k = next += 1 + static_cast<std::int64_t>(rng() % 9);
    std::shuffle(keys.begin(), keys.end(), rng);
    return keys;
  };
  const int old_threads = lapx::runtime::thread_count();
  for (int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    for (int round = 0; round < 6; ++round) {
      const auto n = static_cast<lapx::graph::Vertex>(20 + rng() % 60);
      const Graph g = lapx::graph::random_bounded_degree(
          n, static_cast<std::size_t>(n), 4, rng);
      const Graph regular = lapx::graph::random_regular(n + n % 2, 3, rng);
      const lapx::graph::LDigraph lift =
          lapx::graph::random_lift(lapx::graph::directed_torus({3, 3}),
                                   2 + static_cast<int>(rng() % 5), rng)
              .graph;
      const lapx::graph::LDigraph ported = lapx::graph::to_ldigraph(regular);
      for (int r = 0; r <= 3; ++r) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " round " +
                     std::to_string(round) + " r=" + std::to_string(r));
        for (const bool identity : {true, false}) {
          auto keys_for = [&](lapx::graph::Vertex size) {
            return identity ? identity_keys(size) : random_keys(size);
          };
          expect_matches_reference(g, keys_for(g.num_vertices()), r, true);
          expect_matches_reference(regular, keys_for(regular.num_vertices()),
                                   r, true);
          expect_matches_reference(lift, keys_for(lift.num_vertices()), r,
                                   true);
          expect_matches_reference(ported, keys_for(ported.num_vertices()), r,
                                   true);
        }
      }
    }
    // Large, then tiny, then large again on the same threads: a stale stamp
    // or position left by a bigger graph would show in the small one, and
    // the small one's in the second large pass.
    const Graph big = lapx::graph::random_regular(20000, 3, rng);
    const Keys big_keys = random_keys(big.num_vertices());
    const Graph tiny = cycle(10);
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " big/tiny pass " +
                   std::to_string(pass));
      expect_matches_reference(big, big_keys, 2, false);
      expect_matches_reference(tiny, random_keys(10), 3, true);
    }
  }
  lapx::runtime::set_thread_count(old_threads);
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
        ids.emplace_back(interner.spelling(id));
    }
    EXPECT_GT(spellings[0].size(), 2000u) << "digraph " << digraph;
    EXPECT_EQ(spellings[1], spellings[0]) << "4 threads vs 1, " << digraph;
    EXPECT_EQ(spellings[2], spellings[0]) << "8 threads vs 1, " << digraph;
  }
  lapx::runtime::set_thread_count(old_threads);
}

TEST(Order, NegativeRadiusThrows) {
  // A ball BFS stops at dist == r, which r < 0 never meets: unchecked, it
  // typed the whole component (on cycle(12), the r = 11 spelling).  Every
  // entry point taking a radius rejects it, on the empty graph as well.
  const Graph c = cycle(12);
  const Keys keys = identity_keys(12);
  const lapx::graph::LDigraph d = lapx::graph::directed_torus({3, 3});
  const Keys dkeys = identity_keys(9);
  const Graph empty(0);
  const Keys none;
  lapx::core::TypeInterner interner;
  const std::size_t interned = interner.size();
  using std::invalid_argument;
  EXPECT_THROW(ordered_ball_type(c, keys, 0, -1), invalid_argument);
  EXPECT_THROW(ordered_ball_type(d, dkeys, 0, -1), invalid_argument);
  EXPECT_THROW(unordered_ball_type_with_ids(c, keys, 0, -1), invalid_argument);
  EXPECT_THROW(ordered_ball_type_id(c, keys, 0, -1, interner),
               invalid_argument);
  EXPECT_THROW(ordered_ball_type_id(d, dkeys, 0, -1, interner),
               invalid_argument);
  EXPECT_THROW(ordered_ball_type_ids(c, keys, -1, interner), invalid_argument);
  EXPECT_THROW(ordered_ball_type_ids(d, dkeys, -1, interner),
               invalid_argument);
  EXPECT_THROW(measure_homogeneity(c, keys, -1, interner), invalid_argument);
  EXPECT_THROW(measure_homogeneity(d, dkeys, -1, interner), invalid_argument);
  EXPECT_THROW(is_homogeneous(c, keys, 0.5, -1), invalid_argument);
  EXPECT_THROW(OrderedBallClasses(c, keys, -1, interner), invalid_argument);
  EXPECT_THROW(ordered_ball_type(empty, none, 0, -1), invalid_argument);
  EXPECT_THROW(ordered_ball_type_ids(empty, none, -1, interner),
               invalid_argument);
  EXPECT_THROW(measure_homogeneity(empty, none, -1, interner),
               invalid_argument);
  EXPECT_THROW(OrderedBallClasses(empty, none, -1, interner),
               invalid_argument);
  EXPECT_EQ(interner.size(), interned);  // nothing was typed
  // r = 0 stays valid everywhere, the empty graph included.
  EXPECT_EQ(measure_homogeneity(empty, none, 0, interner).distinct_types, 0u);
  EXPECT_EQ(OrderedBallClasses(empty, none, 0, interner).report().fraction,
            0.0);
  EXPECT_EQ(measure_homogeneity(c, keys, 0, interner).distinct_types, 1u);
}

TEST(Order, BallClassesRetypeRejectsBadFrontiers) {
  const Graph c = cycle(6);
  const Keys keys = identity_keys(6);
  OrderedBallClasses classes(c, keys, 1);
  const std::vector<lapx::graph::Vertex> unsorted{2, 1}, repeated{1, 1},
      outside{6};
  using std::invalid_argument;
  EXPECT_THROW(classes.retype(c, keys, unsorted), invalid_argument);
  EXPECT_THROW(classes.retype(c, keys, repeated), invalid_argument);
  EXPECT_THROW(classes.retype(c, keys, outside), invalid_argument);
  EXPECT_THROW(classes.retype(cycle(7), identity_keys(7), {}),
               invalid_argument);
  EXPECT_THROW(classes.retype(c, identity_keys(5), {}), invalid_argument);
  // A rejected call leaves the state as it was.
  EXPECT_EQ(classes.ids(), ordered_ball_type_ids(c, keys, 1));
  EXPECT_EQ(classes.report().largest_class, 4u);  // the seam's 2 differ
}

TEST(Order, ForkedBallClassesMatchFromScratch) {
  // OrderedBallClasses re-typed on graph::ball_frontier after each seeded
  // edit batch must agree with a from-scratch typing of the edited graph:
  // ids id for id and the report field for field; and the frontier must
  // hold every vertex whose ordered_ball_type spelling changed.  The
  // batches include 2-switches, isolated vertices and maximum-degree
  // changes; the larger graphs give frontiers the pool splits.
  std::mt19937_64 rng(29);
  std::vector<Graph> graphs = lapx::graph::corpus::builder_graphs(29, 3);
  graphs.push_back(lapx::graph::lifted_torus(3, 3, 40, 11));
  graphs.push_back(lapx::graph::random_regular(400, 3, rng));
  std::size_t changed = 0, frontier = 0, typed = 0, degree_moves = 0;
  const int old_threads = lapx::runtime::thread_count();
  for (int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      for (const bool identity : {true, false}) {
        Graph g = graphs[gi];
        const auto n = g.num_vertices();
        Keys keys = identity_keys(n);
        if (!identity) {
          for (auto& k : keys) k = 3 * k - 50;
          std::shuffle(keys.begin(), keys.end(), rng);
        }
        lapx::core::TypeInterner interner;
        std::vector<OrderedBallClasses> states;
        for (int r = 0; r <= 3; ++r) states.emplace_back(g, keys, r, interner);
        for (int step = 0; step < 8; ++step) {
          const auto batch = lapx::graph::corpus::random_edit_batch(g, rng);
          if (batch.empty()) continue;
          Graph after = g;
          lapx::graph::apply_edits(after, batch);
          if (after.max_degree() != g.max_degree()) ++degree_moves;
          for (int r = 0; r <= 3; ++r) {
            SCOPED_TRACE("threads " + std::to_string(threads) + " graph " +
                         std::to_string(gi) + " step " + std::to_string(step) +
                         " r=" + std::to_string(r));
            const auto ball = lapx::graph::ball_frontier(after, batch, r);
            OrderedBallClasses& state = states[static_cast<std::size_t>(r)];
            state.retype(after, keys, ball);
            ASSERT_EQ(state.ids(),
                      ordered_ball_type_ids(after, keys, r, interner));
            const HomogeneityReport got = state.report();
            const HomogeneityReport want =
                measure_homogeneity(after, keys, r, interner);
            EXPECT_EQ(got.largest_class, want.largest_class);
            EXPECT_EQ(got.distinct_types, want.distinct_types);
            EXPECT_EQ(got.fraction, want.fraction);
            for (lapx::graph::Vertex v = 0; v < n; ++v)
              if (ordered_ball_type(g, keys, v, r) !=
                  ordered_ball_type(after, keys, v, r)) {
                ++changed;
                ASSERT_TRUE(std::binary_search(ball.begin(), ball.end(), v))
                    << "vertex " << v << " changed outside the frontier";
              }
            frontier += ball.size();
            typed += static_cast<std::size_t>(n);
          }
          g = std::move(after);
        }
      }
    }
  }
  lapx::runtime::set_thread_count(old_threads);
  EXPECT_GT(changed, 0u);
  EXPECT_GT(degree_moves, 0u);
  EXPECT_LT(frontier, typed / 4);  // frontiers stay local on the big graphs
}

}  // namespace
