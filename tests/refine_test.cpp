// Cross-validation of the whole-graph view-type refinement engine
// (core/refine.hpp) against the legacy per-vertex oracle
// view_type_id(view(g, v, r)): the engine must produce the *same TypeIds in
// the same interner* on every graph family the experiments use, at every
// radius, and independently of the thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "graph_corpus.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/core/view.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/mutation.hpp"
#include "lapx/graph/ooc.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/group/homogeneous.hpp"
#include "lapx/runtime/parallel.hpp"
#include "lapx/runtime/worklist.hpp"

namespace {

using namespace lapx::core;
using lapx::graph::Arc;
using lapx::graph::directed_cycle;
using lapx::graph::directed_torus;
using lapx::graph::LDigraph;
using lapx::graph::Vertex;

// Engine and oracle share one fresh interner, so agreement must be exact
// TypeId equality, not just equality as a partition.
void expect_engine_matches_legacy(const LDigraph& g, int max_r) {
  TypeInterner interner;
  RefineState refiner(g, interner);
  for (int r = 0; r <= max_r; ++r) {
    const auto& types = refiner.types_at(r);
    ASSERT_EQ(static_cast<Vertex>(types.size()), g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(types[static_cast<std::size_t>(v)],
                view_type_id(view(g, v, r), interner))
          << "vertex " << v << " radius " << r;
  }
}

TEST(Refine, DirectedCycle) {
  expect_engine_matches_legacy(directed_cycle(9), 4);
}

TEST(Refine, DirectedTori) {
  expect_engine_matches_legacy(directed_torus({6, 6}), 3);
  expect_engine_matches_legacy(directed_torus({3, 4}), 4);
  expect_engine_matches_legacy(directed_torus({3, 3, 3}), 3);
}

TEST(Refine, RandomLifts) {
  std::mt19937_64 rng(42);
  const LDigraph base = directed_torus({3, 4});
  for (int trial = 0; trial < 3; ++trial) {
    const auto lift = lapx::graph::random_lift(base, 4, rng);
    expect_engine_matches_legacy(lift.graph, 3);
  }
}

TEST(Refine, HighGirthConstruction) {
  // A Theorem 3.2 instance: 2-regular, girth > 5 -- deep stable refinement.
  std::mt19937_64 rng(11);
  auto spec = lapx::group::design_homogeneous(1, 2, 4, rng);
  ASSERT_TRUE(spec.has_value());
  spec->m = 4;
  const auto h = lapx::group::materialize_homogeneous(
      *spec, 1 << 20, /*take_component=*/true);
  expect_engine_matches_legacy(h.digraph, 3);
}

TEST(Refine, OneRegularMatching) {
  // Self-loop-free 1-regular digraph (a perfect matching of arcs): every
  // state has zero children, and root types split by arc direction.
  const LDigraph g =
      LDigraph::from_arcs(6, 1, {{0, 1, 0}, {2, 3, 0}, {5, 4, 0}});
  expect_engine_matches_legacy(g, 3);
}

TEST(Refine, DisconnectedMixedComponents) {
  // A cycle, an isolated vertex, and a path-ish fragment in one graph.
  // Vertex 3 is isolated.
  const LDigraph g = LDigraph::from_arcs(
      8, 2, {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}, {4, 5, 1}, {5, 6, 0}, {7, 5, 0}});
  expect_engine_matches_legacy(g, 4);
}

TEST(Refine, EmptyAndSingleVertex) {
  expect_engine_matches_legacy(LDigraph(0, 2), 2);
  expect_engine_matches_legacy(LDigraph(1, 2), 2);
}

TEST(Refine, DistinctCountsMatchPartition) {
  const LDigraph g = directed_torus({6, 6});
  TypeInterner interner;
  RefineState refiner(g, interner);
  for (int r : {0, 1, 2}) {
    const auto& types = refiner.types_at(r);
    std::vector<TypeId> sorted(types);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    EXPECT_EQ(refiner.distinct_at(r), sorted.size());
  }
  // The 6x6 torus has one radius-1 class of "interior" vertices plus the
  // wrap-affected ones; radius grows never merges classes.
  EXPECT_LE(refiner.distinct_at(1), refiner.distinct_at(2));
}

TEST(Refine, ThreadCountIndependentTypeIds) {
  // Rendezvous interning: the raw TypeId values (not just the partition)
  // must be identical at 1 and 8 threads.
  std::mt19937_64 rng(7);
  const auto lift = lapx::graph::random_lift(directed_torus({3, 4}), 3, rng);
  const int old_threads = lapx::runtime::thread_count();
  lapx::runtime::set_thread_count(1);
  TypeInterner interner1;
  const auto ids1 = bulk_view_type_ids(lift.graph, 3, interner1);
  lapx::runtime::set_thread_count(8);
  TypeInterner interner8;
  const auto ids8 = bulk_view_type_ids(lift.graph, 3, interner8);
  lapx::runtime::set_thread_count(old_threads);
  EXPECT_EQ(ids1, ids8);
}

TEST(Refine, RoundWiderThanInitialMapCapacity) {
  // The round-local id maps start at 64 slots and grow on demand: on a
  // random 3-regular graph every radius-3 view is distinct, so each round
  // holds thousands of ids and the maps rehash mid-round several times.
  std::mt19937_64 rng(1);
  const LDigraph g =
      lapx::graph::to_ldigraph(lapx::graph::random_regular(1500, 3, rng));
  const int old_threads = lapx::runtime::thread_count();
  for (int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    expect_engine_matches_legacy(g, 3);
    TypeInterner interner;
    RefineState refiner(g, interner);
    EXPECT_EQ(refiner.distinct_at(3), 1500u) << "threads=" << threads;
  }
  lapx::runtime::set_thread_count(old_threads);
}

TEST(Refine, PaddedInternerKeepsTypeIds) {
  // A state's scratch is sized by the ids its rounds hold, never by the
  // interner: 200K unrelated keys interned before a state is built change
  // nothing about the ids it returns -- on the interner the ids already
  // live in, and (shifted by the padding) on a fresh padded one.
  std::mt19937_64 rng(5);
  const LDigraph g =
      lapx::graph::random_lift(directed_torus({3, 4}), 64, rng).graph;
  constexpr TypeId kPad = 200000;
  const auto pad = [](TypeInterner& interner) {
    for (TypeId i = 0; i < kPad; ++i)
      interner.intern("pad:" + std::to_string(i));
  };
  TypeInterner interner;
  RefineState before(g, interner);
  before.types_at(3);
  pad(interner);
  RefineState after(g, interner);
  TypeInterner padded_first;
  pad(padded_first);
  RefineState shifted(g, padded_first);
  for (int r = 0; r <= 3; ++r) {
    EXPECT_EQ(after.types_at(r), before.types_at(r)) << "radius " << r;
    std::vector<TypeId> expect = before.types_at(r);
    for (TypeId& id : expect) id += kPad;
    EXPECT_EQ(shifted.types_at(r), expect) << "radius " << r;
  }
}

TEST(Refine, CompleteViewTypeId) {
  // complete_view_type_id must equal the legacy type exactly where
  // is_complete_view holds, and differ where it does not.
  const LDigraph torus = directed_torus({6, 6});  // 2-in-2-out regular
  TypeInterner interner;
  for (int r : {0, 1, 2, 3}) {
    const TypeId complete =
        complete_view_type_id(torus.alphabet_size(), r, interner);
    for (Vertex v = 0; v < torus.num_vertices(); v += 7) {
      const ViewTree t = view(torus, v, r);
      EXPECT_EQ(view_type_id(t, interner) == complete, is_complete_view(t));
    }
  }
  // On an irregular graph no view is complete.
  const LDigraph path = LDigraph::from_arcs(3, 1, {{0, 1, 0}, {1, 2, 0}});
  TypeInterner interner2;
  const TypeId complete = complete_view_type_id(1, 2, interner2);
  for (Vertex v = 0; v < 3; ++v)
    EXPECT_NE(view_type_id(view(path, v, 2), interner2), complete);
}

// complete_view_type_id as it was first written: every node interns its
// own 2k - 1 edge nodes.
TypeId complete_type_node_by_node(int k, int r, TypeInterner& interner) {
  const int moves = 2 * k;
  const auto move_tag = [k](int m) {
    return type_tag::kViewEdge | std::uint64_t{m >= k} << 32 |
           static_cast<std::uint64_t>(m % k);
  };
  const TypeId empty = interner.intern_node(type_tag::kViewNode, nullptr, 0);
  std::vector<TypeId> prev(static_cast<std::size_t>(moves), empty), cur(prev);
  std::vector<TypeId> edges;
  for (int depth = 1; depth < r; ++depth) {
    for (int m = 0; m < moves; ++m) {
      edges.clear();
      for (int j = 0; j < moves; ++j)
        if (j != (m + k) % moves)
          edges.push_back(interner.intern_node(move_tag(j), {prev[j]}));
      cur[m] = interner.intern_node(type_tag::kViewNode, edges.data(),
                                    edges.size());
    }
    prev.swap(cur);
  }
  edges.clear();
  if (r > 0)
    for (int j = 0; j < moves; ++j)
      edges.push_back(interner.intern_node(move_tag(j), {prev[j]}));
  const TypeId body =
      interner.intern_node(type_tag::kViewNode, edges.data(), edges.size());
  return interner.intern_node(
      type_tag::kViewRoot | static_cast<std::uint32_t>(r), {body});
}

TEST(Refine, CompleteViewTypeIdKeepsInternOrder) {
  // Each depth's edge nodes are interned once, yet fresh interners must
  // hand out the same ids to the same spellings as the node-by-node build.
  for (int k = 0; k <= 5; ++k)
    for (int r = 0; r <= 4; ++r) {
      TypeInterner once, node_by_node;
      EXPECT_EQ(complete_view_type_id(k, r, once),
                complete_type_node_by_node(k, r, node_by_node));
      ASSERT_EQ(once.size(), node_by_node.size()) << k << " " << r;
      for (TypeId id = 0; id < once.size(); ++id)
        EXPECT_EQ(once.spelling(id), node_by_node.spelling(id))
            << "k " << k << ", r " << r << ", id " << id;
    }
}

// The order in which a refine first interns its types.  One fresh
// interner types five fixtures at r = 3 in turn; the FNV-1a digest of its
// id -> spelling sequence and its size were taken while Phase B still
// deduplicated its serial interns within each round, so the pin holds the
// order that dedup produced, at 1 and at 8 threads.
TEST(Refine, FirstInternOrderIsPinned) {
  namespace graph = lapx::graph;
  std::mt19937_64 rng(2027);
  const std::vector<LDigraph> fixtures = {
      graph::to_ldigraph(graph::lifted_torus(3, 3, 40, 7)),
      graph::to_ldigraph(graph::random_regular(200, 3, rng)),
      graph::to_ldigraph(graph::torus({12, 12})),
      graph::to_ldigraph(graph::hypercube(6)),
      graph::to_ldigraph(graph::generalized_petersen(50, 7))};
  constexpr std::size_t kIds = 6881;
  constexpr std::uint64_t kDigest = 0xce3f18efb89e2788ull;
  const int old_threads = lapx::runtime::thread_count();
  for (const int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    TypeInterner interner;
    for (const LDigraph& g : fixtures) bulk_view_type_ids(g, 3, interner);
    std::uint64_t digest = graph::fnv1a64(nullptr, 0);
    for (TypeId id = 0; id < interner.size(); ++id) {
      const std::string_view spelling = interner.spelling(id);
      const std::uint64_t size = spelling.size();
      digest = graph::fnv1a64(&size, sizeof size, digest);
      digest = graph::fnv1a64(spelling.data(), spelling.size(), digest);
    }
    EXPECT_EQ(interner.size(), kIds) << "threads=" << threads;
    EXPECT_EQ(digest, kDigest) << "threads=" << threads;
  }
  lapx::runtime::set_thread_count(old_threads);
}

TEST(Refine, StabilityFastPathStaysExact) {
  // Push a high-girth-ish regular graph far past stabilization; the
  // per-class fast path must keep matching the oracle at every radius.
  const LDigraph g = directed_torus({5, 5});
  TypeInterner interner;
  RefineState refiner(g, interner);
  refiner.types_at(6);
  EXPECT_TRUE(refiner.stable());
  for (int r = 4; r <= 6; ++r) {
    const auto& types = refiner.types_at(r);
    for (Vertex v = 0; v < g.num_vertices(); v += 3)
      EXPECT_EQ(types[static_cast<std::size_t>(v)],
                view_type_id(view(g, v, r), interner))
          << "radius " << r << " vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// Incremental delta-refinement: a state derived for g' from its parent
// (RefineState(std::move(parent), g', candidates), or refine_delta(g') in
// place) must be indistinguishable -- exact TypeIds, same interner -- from
// a from-scratch RefineState(g') at every radius the parent computed.

// Compares the delta'd state against a scratch refinement in the SAME
// interner (hash-consing makes TypeId equality equivalent to structural
// equality there), then keeps advancing one extra radius to check the
// re-armed rendezvous machinery too.
void expect_delta_matches_scratch(RefineState& state, const LDigraph& g,
                                  int max_r, TypeInterner& interner) {
  ASSERT_GE(state.radius(), max_r);
  RefineState scratch(g, interner);
  for (int r = 0; r <= max_r + 1; ++r) {
    EXPECT_EQ(state.types_at(r), scratch.types_at(r)) << "radius " << r;
    EXPECT_EQ(state.distinct_at(r), scratch.distinct_at(r)) << "radius " << r;
  }
}

// Removes two random same-label arcs and re-adds them crosswise -- a
// degree-preserving rewiring whose only signature change is the successor
// vertex, the subtlest kind of edit -- and rebuilds `g` in place with
// from_arcs.  The arc list changes as a remove-then-append would change
// it: removed arcs leave, added ones go to the end.
void random_rewire(LDigraph& g, std::mt19937_64& rng) {
  ASSERT_GT(g.arcs().size(), 1u);
  std::vector<Arc> arcs = g.arcs();
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::uniform_int_distribution<std::size_t> pick(0, arcs.size() - 1);
    const Arc a = arcs[pick(rng)];
    const Arc b = arcs[pick(rng)];
    if (a.label != b.label) continue;
    if (a.from == b.from || a.to == b.to) continue;
    if (a.from == b.to || b.from == a.to) continue;  // would self-loop
    std::erase(arcs, a);
    std::erase(arcs, b);
    // The cross arcs cannot collide: the labels at all four endpoints were
    // just freed, and parallel arcs would have required a.from -> b.to
    // under another label -- put a and b back (at the end) and retry in
    // that rare case.
    const bool parallel = std::ranges::any_of(arcs, [&](const Arc& c) {
      return (c.from == a.from && c.to == b.to) ||
             (c.from == b.from && c.to == a.to);
    });
    if (parallel) {
      arcs.push_back(a);
      arcs.push_back(b);
      continue;
    }
    arcs.push_back({a.from, b.to, a.label});
    arcs.push_back({b.from, a.to, b.label});
    g = LDigraph::from_arcs(g.num_vertices(), g.alphabet_size(),
                            std::move(arcs));
    return;
  }
  FAIL() << "no legal rewire found";
}

TEST(RefineDelta, RandomizedRewiresMatchScratch) {
  // Tori, a random lift, and a high-girth wreath component, each taken
  // through several randomized degree-preserving rewires.
  std::mt19937_64 setup(3);
  std::vector<LDigraph> families;
  families.push_back(directed_torus({6, 6}));
  families.push_back(directed_torus({3, 4}));
  families.push_back(
      lapx::graph::random_lift(directed_torus({3, 4}), 4, setup).graph);
  {
    auto spec = lapx::group::design_homogeneous(1, 2, 4, setup);
    ASSERT_TRUE(spec.has_value());
    spec->m = 4;
    families.push_back(lapx::group::materialize_homogeneous(
                           *spec, 1 << 20, /*take_component=*/true)
                           .digraph);
  }
  const int max_r = 3;
  for (std::size_t f = 0; f < families.size(); ++f) {
    LDigraph g = families[f];
    TypeInterner interner;
    RefineState state(g, interner, /*keep_rounds=*/true);
    state.types_at(max_r);
    std::mt19937_64 rng(100 + f);
    for (int round = 0; round < 3; ++round) {
      LDigraph next = g;
      random_rewire(next, rng);
      const auto stats = state.refine_delta(next);
      EXPECT_GT(stats.dirty_vertices, 0u);
      EXPECT_GE(stats.frontier_vertices, stats.dirty_vertices);
      expect_delta_matches_scratch(state, next, max_r, interner);
      g = std::move(next);
      // state.types_at(max_r + 1) ran inside the matcher; shrink back to a
      // fresh state... not needed: keep refining the same state so later
      // rounds also exercise delta at radius max_r + 1.
      state.refine_delta(g);  // no-op edit set: nothing dirty
    }
  }
}

TEST(RefineDelta, NoopDeltaIsCleanAndExact) {
  const LDigraph g = directed_torus({6, 6});
  TypeInterner interner;
  RefineState state(g, interner, /*keep_rounds=*/true);
  state.types_at(3);
  LDigraph same = g;  // identical copy, different object
  const auto stats = state.refine_delta(same);
  EXPECT_EQ(stats.dirty_vertices, 0u);
  EXPECT_EQ(stats.frontier_vertices, 0u);
  expect_delta_matches_scratch(state, same, 3, interner);
}

TEST(RefineDelta, RemoveThenReaddRoundTrips) {
  // After removing an arc and adding it back, the types must return to
  // the original ids exactly (same interner, hash-consed).
  const LDigraph g0 = directed_torus({5, 5});
  TypeInterner interner;
  RefineState state(g0, interner, /*keep_rounds=*/true);
  const std::vector<TypeId> before = state.types_at(3);
  const Arc a = g0.arcs().front();
  const LDigraph g1 = LDigraph::from_arcs(
      g0.num_vertices(), g0.alphabet_size(),
      std::vector<Arc>(g0.arcs().begin() + 1, g0.arcs().end()));
  state.refine_delta(g1);
  expect_delta_matches_scratch(state, g1, 3, interner);
  std::vector<Arc> readded = g1.arcs();
  readded.push_back(a);
  const LDigraph g2 =
      LDigraph::from_arcs(g1.num_vertices(), g1.alphabet_size(), readded);
  state.refine_delta(g2);
  EXPECT_EQ(state.types_at(3), before);
}

TEST(RefineDelta, RequiresKeepRounds) {
  // The derivation's two preconditions, each checked before anything
  // moves out of the parent: kept rounds, and the parent's vertex set (a
  // session write never changes n).  A rejected derivation leaves the
  // parent's types as they were.
  std::mt19937_64 rng(21);
  const LDigraph base = directed_torus({3, 4});
  auto lift = lapx::graph::random_lift(base, 3, rng);
  TypeInterner interner;
  {
    RefineState state(lift.graph, interner);  // keep_rounds defaults to false
    const std::vector<TypeId> before = state.types_at(2);
    EXPECT_FALSE(state.keeps_rounds());
    EXPECT_THROW(state.refine_delta(lift.graph), std::logic_error);
    EXPECT_EQ(state.types_at(2), before);
  }
  RefineState state(lift.graph, interner, /*keep_rounds=*/true);
  const std::vector<TypeId> before = state.types_at(3);
  const LDigraph smaller = directed_torus({3, 3});
  EXPECT_THROW(state.refine_delta(smaller), std::invalid_argument);
  EXPECT_EQ(state.types_at(3), before);
  lapx::graph::grow_lift(lift, base, 2, rng);
  ASSERT_GT(lift.graph.num_vertices(), static_cast<Vertex>(before.size()));
  EXPECT_THROW(RefineState(std::move(state), lift.graph, {}),
               std::invalid_argument);
  EXPECT_EQ(state.types_at(3), before);
  EXPECT_EQ(state.radius(), 3);
}

TEST(RefineDelta, FrontierStopsWhereTypesStopChanging) {
  // A same-label rewire of a 2-in-2-out torus keeps every vertex
  // 2-in-2-out, so it changes no type: the replay recomputes the four
  // dirty endpoints in every round and never activates a neighbour.
  const LDigraph g = directed_torus({6, 6});
  TypeInterner interner;
  RefineState state(g, interner, /*keep_rounds=*/true);
  const std::vector<TypeId> before = state.types_at(3);
  LDigraph next = g;
  std::mt19937_64 rng(4);
  random_rewire(next, rng);
  const auto stats = state.refine_delta(next);
  EXPECT_EQ(stats.dirty_vertices, 4u);
  EXPECT_EQ(stats.frontier_vertices, stats.dirty_vertices);
  EXPECT_EQ(state.types_at(3), before);
  expect_delta_matches_scratch(state, next, 3, interner);
}

TEST(RefineDelta, AffectedFrontierIsSoundForViewTypes) {
  // graph::affected_frontier promises: vertices OUTSIDE the radius-r
  // frontier keep their radius-r view type across the edit.  Check it
  // against the engine on the port-numbered L-digraphs of both graphs.
  using lapx::graph::EdgeEdit;
  lapx::graph::Graph g = lapx::graph::torus({6, 6});
  std::vector<EdgeEdit> edits;
  const auto e0 = g.edges()[7];
  edits.push_back({EdgeEdit::Kind::kRemove, e0.first, e0.second});
  lapx::graph::Graph after = g;
  lapx::graph::apply_edits(after, edits);
  for (int r : {1, 2, 3}) {
    const auto frontier = lapx::graph::affected_frontier(after, edits, r);
    std::vector<char> in(static_cast<std::size_t>(g.num_vertices()), 0);
    for (Vertex v : frontier) in[static_cast<std::size_t>(v)] = 1;
    TypeInterner interner;
    const auto old_ids =
        bulk_view_type_ids(lapx::graph::to_ldigraph(g), r, interner);
    const auto new_ids =
        bulk_view_type_ids(lapx::graph::to_ldigraph(after), r, interner);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (in[static_cast<std::size_t>(v)]) continue;
      EXPECT_EQ(new_ids[static_cast<std::size_t>(v)],
                old_ids[static_cast<std::size_t>(v)])
          << "vertex " << v << " outside the radius-" << r << " frontier";
    }
  }
}

// ---------------------------------------------------------------------------
// Worklist scheduling: vertex retirement in the round kernel must be
// invisible in output -- raw TypeIds equal to the all-active reference
// rounds (RefineTestPeer), in the same interner allocation order, at
// every thread count.

// RAII guard: the worklist tests perturb the process-wide thread count;
// restore it even when an assertion throws.
struct ThreadGuard {
  int threads = lapx::runtime::thread_count();
  ~ThreadGuard() { lapx::runtime::set_thread_count(threads); }
};

// Random forest with arcs parent -> child: views truncate at the leaves and
// the root, so refinement stabilizes from the boundary inward -- the family
// where vertex retirement actually engages (tori go globally stable instead,
// which the per-class fast path already short-circuits).
LDigraph random_forest(Vertex n, int labels, std::mt19937_64& rng) {
  std::vector<Arc> arcs;
  std::vector<int> out(static_cast<std::size_t>(n), 0);  // next free port
  for (Vertex v = 1; v < n; ++v) {
    // Skew parents toward recent vertices for some depth; every ~16th
    // vertex starts a new tree.
    if (v % 16 == 0) continue;
    std::uniform_int_distribution<Vertex> parent(v > 8 ? v - 8 : 0, v - 1);
    for (int attempt = 0; attempt < 32; ++attempt) {
      const Vertex p = parent(rng);
      if (out[static_cast<std::size_t>(p)] >= labels) continue;  // ports full
      arcs.push_back({p, v, out[static_cast<std::size_t>(p)]++});
      break;
    }
  }
  return LDigraph::from_arcs(n, labels, std::move(arcs));
}

std::vector<LDigraph> worklist_families() {
  std::mt19937_64 setup(17);
  std::vector<LDigraph> families;
  families.push_back(directed_torus({6, 6}));
  families.push_back(
      lapx::graph::random_lift(directed_torus({3, 4}), 4, setup).graph);
  auto spec = lapx::group::design_homogeneous(1, 2, 4, setup);
  if (spec.has_value()) {
    spec->m = 4;
    families.push_back(lapx::group::materialize_homogeneous(
                           *spec, 1 << 20, /*take_component=*/true)
                           .digraph);
  }
  families.push_back(random_forest(300, 2, setup));
  return families;
}

TEST(RefineWorklist, MatchesLegacyAcrossThreadCounts) {
  const ThreadGuard guard;
  const int max_r = 4;
  for (const auto& g : worklist_families()) {
    // Reference: every round all-active, single thread.
    lapx::runtime::set_thread_count(1);
    TypeInterner ref_interner;
    RefineState ref(g, ref_interner);
    RefineTestPeer::set_all_active(ref, true);
    ref.types_at(max_r);
    for (int threads : {1, 8, 16}) {
      lapx::runtime::set_thread_count(threads);
      for (const bool all_active : {true, false}) {
        TypeInterner interner;
        RefineState refiner(g, interner);
        RefineTestPeer::set_all_active(refiner, all_active);
        for (int r = 0; r <= max_r; ++r) {
          EXPECT_EQ(refiner.types_at(r), ref.types_at(r))
              << "threads=" << threads << " all_active=" << all_active
              << " radius=" << r;
          EXPECT_EQ(refiner.distinct_at(r), ref.distinct_at(r));
        }
      }
    }
  }
}

TEST(RefineWorklist, MatchesOracleOnForest) {
  // The retirement path against the per-vertex oracle directly, on the
  // family where retirement engages.
  const ThreadGuard guard;
  std::mt19937_64 rng(23);
  for (int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    expect_engine_matches_legacy(random_forest(120, 2, rng), 5);
  }
}

TEST(RefineWorklist, RetirementEngagesOnForest) {
  // Scheduling observability: on a forest the active set must shrink below
  // n, routing rounds through for_each_index (visible in worklist_stats).
  const ThreadGuard guard;
  lapx::runtime::set_thread_count(8);
  std::mt19937_64 rng(29);
  const LDigraph g = random_forest(4000, 2, rng);
  const auto before = lapx::runtime::worklist_stats();
  TypeInterner interner;
  RefineState refiner(g, interner);
  refiner.types_at(8);
  const auto after = lapx::runtime::worklist_stats();
  EXPECT_GT(after.regions + after.inline_regions,
            before.regions + before.inline_regions)
      << "no refinement round ran on the sparse worklist path";
}

TEST(RefineWorklist, CopyAfterSplitRoundMatchesScratch) {
  // A fork taken right after a partial round must carry the live entries
  // of the state-id multiset: the copy's next partial round patches it,
  // and stability detection reads its size.
  const ThreadGuard guard;
  lapx::runtime::set_thread_count(8);
  std::mt19937_64 rng(29);
  const LDigraph g = random_forest(4000, 2, rng);
  TypeInterner interner;
  RefineState state(g, interner);
  state.types_at(2);
  const auto before = lapx::runtime::worklist_stats();
  state.types_at(3);
  const auto after = lapx::runtime::worklist_stats();
  ASSERT_GT(after.regions + after.inline_regions,
            before.regions + before.inline_regions)
      << "round 3 did not run on the split path";
  ASSERT_FALSE(state.stable());
  RefineState fork(state);
  RefineState scratch(g, interner);
  for (int r = 0; r <= 8; ++r) {
    EXPECT_EQ(fork.types_at(r), scratch.types_at(r)) << "radius " << r;
    EXPECT_EQ(fork.distinct_at(r), scratch.distinct_at(r)) << "radius " << r;
  }
  EXPECT_EQ(fork.state_classes(), scratch.state_classes());
  EXPECT_EQ(fork.stable(), scratch.stable());
}

TEST(RefineWorklist, DeltaRefinementOnWorklistPath) {
  // refine_delta must compose with worklist scheduling: the delta replay
  // leaves the next forward round all-active, after which further
  // retiring rounds must still match a from-scratch refinement.
  const ThreadGuard guard;
  lapx::runtime::set_thread_count(8);
  std::mt19937_64 rng(37);
  LDigraph g = random_forest(150, 2, rng);
  // Forests have degree-1 vertices; give random_rewire same-label arcs to
  // work with by rewiring the lift family instead when the forest resists.
  TypeInterner interner;
  RefineState state(g, interner, /*keep_rounds=*/true);
  state.types_at(4);
  LDigraph next = g;
  random_rewire(next, rng);
  state.refine_delta(next);
  expect_delta_matches_scratch(state, next, 4, interner);
}

TEST(RefineDelta, DerivingLeavesTheParentIntact) {
  // A child reads its parent's CSR and kept tables and writes neither,
  // and never reads the parent's graph (freed here before the
  // derivation): the parent keeps its radius and the ids of every
  // computed radius, then still advances one radius in step with a
  // scratch refine, and the child matches a scratch refine of g', at 1
  // and 8 threads.
  const ThreadGuard guard;
  std::mt19937_64 setup(43);
  const LDigraph g =
      lapx::graph::random_lift(directed_torus({3, 4}), 4, setup).graph;
  LDigraph next = g;
  std::mt19937_64 rng(7);
  random_rewire(next, rng);
  const int max_r = 3;
  for (const int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    TypeInterner interner;
    auto parent_graph = std::make_unique<LDigraph>(g);
    RefineState parent(*parent_graph, interner, /*keep_rounds=*/true);
    std::vector<std::vector<TypeId>> before;
    for (int r = 0; r <= max_r; ++r) before.push_back(parent.types_at(r));
    parent_graph.reset();
    RefineState child(parent);  // the derivation consumes the copy
    const RefineState::DeltaStats stats = child.refine_delta(next);
    EXPECT_GT(stats.dirty_vertices, 0u);
    EXPECT_EQ(stats.rounds, max_r);
    ASSERT_EQ(parent.radius(), max_r) << "threads=" << threads;
    for (int r = 0; r <= max_r; ++r)
      EXPECT_EQ(parent.types_at(r), before[static_cast<std::size_t>(r)])
          << "threads=" << threads << " radius=" << r;
    RefineState scratch(g, interner);
    EXPECT_EQ(parent.types_at(max_r + 1), scratch.types_at(max_r + 1))
        << "threads=" << threads;
    expect_delta_matches_scratch(child, next, max_r, interner);
  }
}

TEST(RefineDelta, RelabelledSpansMatchScratch) {
  // Relabelling an arc reorders both endpoints' step spans while their
  // other neighbours stay clean: a clean vertex's state at such an
  // endpoint moves to a new position, so the endpoint's kept values no
  // longer line up and must count as changed in every round.
  std::mt19937_64 rng(41);
  LDigraph g = random_forest(400, 3, rng);
  TypeInterner interner;
  RefineState state(g, interner, /*keep_rounds=*/true);
  state.types_at(4);
  for (int edit = 0; edit < 12; ++edit) {
    LDigraph next = g;
    const Arc a = next.arcs()[rng() % next.arcs().size()];
    for (lapx::graph::Label l = 0; l < next.alphabet_size(); ++l) {
      if (l == a.label || next.out_neighbor(a.from, l) ||
          next.in_neighbor(a.to, l))
        continue;
      // Remove a, then append it relabelled.
      std::vector<Arc> arcs = next.arcs();
      std::erase(arcs, a);
      arcs.push_back({a.from, a.to, l});
      next = LDigraph::from_arcs(next.num_vertices(), next.alphabet_size(),
                                 std::move(arcs));
      break;
    }
    state.refine_delta(next);
    expect_delta_matches_scratch(state, next, 4, interner);
    g = std::move(next);
  }
}

TEST(RefineDelta, PortRenumberingAfterMaxDegreeChange) {
  // Adding a degree-5 vertex to a 4-regular torus changes the port-label
  // alphabet, relabelling EVERY arc of to_ldigraph; the signature diff
  // must flag (essentially) everything dirty and still match scratch.
  lapx::graph::Graph g = lapx::graph::torus({4, 4});
  const LDigraph ld0 = lapx::graph::to_ldigraph(g);
  TypeInterner interner;
  RefineState state(ld0, interner, /*keep_rounds=*/true);
  state.types_at(2);
  std::vector<lapx::graph::EdgeEdit> edits;
  edits.push_back({lapx::graph::EdgeEdit::Kind::kAdd, 0, 5});
  lapx::graph::Graph after = g;
  lapx::graph::apply_edits(after, edits);
  // Max degree moved 4 -> 5: the frontier must be everything.
  const auto frontier = lapx::graph::affected_frontier(after, edits, 1);
  EXPECT_EQ(frontier.size(), static_cast<std::size_t>(g.num_vertices()));
  const LDigraph ld1 = lapx::graph::to_ldigraph(after);
  state.refine_delta(ld1);
  expect_delta_matches_scratch(state, ld1, 2, interner);
}

TEST(RefineDelta, SeededFromTheEditFrontierMatchesScratch) {
  // A session write seeds its derivation from affected_frontier(g', edits,
  // 1) instead of comparing every vertex's signature.  Over the corpus'
  // seeded batches, chained, at 1 and 8 threads: the seeded child mints
  // the ids the unseeded one mints in an interner of its own, in the same
  // order, reports the same stats, and equals a from-scratch refine.
  const ThreadGuard guard;
  for (const int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    std::mt19937_64 rng(31);
    int derived = 0;
    for (lapx::graph::Graph g : lapx::graph::corpus::builder_graphs(13, 8)) {
      TypeInterner seeded_ids, full_ids;
      LDigraph ld = lapx::graph::to_ldigraph(g);
      auto seeded = std::make_unique<RefineState>(ld, seeded_ids, true);
      auto full = std::make_unique<RefineState>(ld, full_ids, true);
      seeded->types_at(3);
      full->types_at(3);
      for (int round = 0; round < 4 && g.num_vertices() > 0; ++round) {
        const auto edits = lapx::graph::corpus::random_edit_batch(g, rng);
        lapx::graph::apply_edits(g, edits);
        const auto frontier = lapx::graph::affected_frontier(g, edits, 1);
        ld = lapx::graph::to_ldigraph(g);
        RefineState::DeltaStats seeded_stats;
        seeded = std::make_unique<RefineState>(RefineState(*seeded), ld,
                                               frontier, &seeded_stats);
        full = std::make_unique<RefineState>(*full);
        const RefineState::DeltaStats full_stats = full->refine_delta(ld);
        EXPECT_EQ(seeded_stats.dirty_vertices, full_stats.dirty_vertices);
        EXPECT_EQ(seeded_stats.frontier_vertices,
                  full_stats.frontier_vertices);
        RefineState scratch(ld, seeded_ids);
        for (int r = 0; r <= 4; ++r) {
          ASSERT_EQ(seeded->types_at(r), full->types_at(r))
              << g.summary() << " round " << round << " radius " << r
              << " threads " << threads;
          ASSERT_EQ(seeded->types_at(r), scratch.types_at(r))
              << g.summary() << " round " << round << " radius " << r
              << " threads " << threads;
        }
        ++derived;
      }
    }
    EXPECT_GT(derived, 150);
  }
}

TEST(RefineDelta, ThreadCountIndependentTypeIds) {
  // Ids a delta replay mints must not depend on LAPX_THREADS, exactly
  // like a from-scratch refine's: every RandomizedRewiresMatchScratch
  // family, a forest (where retirement engages), and the max-degree edit
  // that relabels every arc.
  std::mt19937_64 setup(3);
  std::vector<LDigraph> rewired;
  rewired.push_back(directed_torus({6, 6}));
  rewired.push_back(directed_torus({3, 4}));
  rewired.push_back(
      lapx::graph::random_lift(directed_torus({3, 4}), 4, setup).graph);
  {
    auto spec = lapx::group::design_homogeneous(1, 2, 4, setup);
    ASSERT_TRUE(spec.has_value());
    spec->m = 4;
    rewired.push_back(lapx::group::materialize_homogeneous(
                          *spec, 1 << 20, /*take_component=*/true)
                          .digraph);
  }
  rewired.push_back(random_forest(150, 2, setup));
  std::vector<std::pair<LDigraph, LDigraph>> edits;
  std::mt19937_64 rng(9);
  for (const LDigraph& g : rewired) {
    LDigraph next = g;
    random_rewire(next, rng);
    edits.emplace_back(g, std::move(next));
  }
  {
    const lapx::graph::Graph g = lapx::graph::torus({4, 4});
    lapx::graph::Graph after = g;
    const std::vector<lapx::graph::EdgeEdit> add = {
        {lapx::graph::EdgeEdit::Kind::kAdd, 0, 5}};
    lapx::graph::apply_edits(after, add);
    edits.emplace_back(lapx::graph::to_ldigraph(g),
                       lapx::graph::to_ldigraph(after));
  }
  const auto run = [](const std::pair<LDigraph, LDigraph>& edit) {
    TypeInterner interner;
    RefineState state(edit.first, interner, /*keep_rounds=*/true);
    state.types_at(3);
    state.refine_delta(edit.second);
    std::vector<std::vector<TypeId>> ids;
    for (int r = 0; r <= 4; ++r) ids.push_back(state.types_at(r));
    return ids;
  };
  const ThreadGuard guard;
  for (std::size_t e = 0; e < edits.size(); ++e) {
    lapx::runtime::set_thread_count(1);
    const auto ref = run(edits[e]);
    for (int threads : {1, 8, 16}) {
      lapx::runtime::set_thread_count(threads);
      EXPECT_EQ(run(edits[e]), ref) << "edit " << e << " threads=" << threads;
    }
  }
}

}  // namespace
