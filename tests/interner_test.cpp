// Tests for the type interner: TypeId equality must coincide exactly with
// canonical-string equality for every type domain (view trees, PN views,
// ordered balls in graphs and L-digraphs), and every parallel code path must
// produce identical results at any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "lapx/core/ball.hpp"
#include "lapx/core/interner.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/core/model.hpp"
#include "lapx/core/pn_view.hpp"
#include "lapx/core/synthesis.hpp"
#include "lapx/core/view.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/group/homogeneous.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/problems/problem.hpp"
#include "lapx/runtime/gather.hpp"
#include "lapx/runtime/parallel.hpp"

namespace {

using namespace lapx;
using core::TypeId;
using core::TypeInterner;
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

TEST(Interner, FlatKeysAreDeduplicated) {
  TypeInterner interner;
  const TypeId a = interner.intern("alpha");
  const TypeId b = interner.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("alpha"), a);
  EXPECT_EQ(interner.intern("beta"), b);
  EXPECT_EQ(interner.spelling(a), "alpha");
  EXPECT_EQ(interner.spelling(b), "beta");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(Interner, StructuralNodesAreDeduplicated) {
  TypeInterner interner;
  const TypeId leaf = interner.intern("leaf");
  const TypeId n1 = interner.intern_node(7, {leaf});
  const TypeId n2 = interner.intern_node(7, {leaf});
  const TypeId n3 = interner.intern_node(8, {leaf});
  const TypeId n4 = interner.intern_node(7, {leaf, leaf});
  EXPECT_EQ(n1, n2);
  EXPECT_NE(n1, n3);
  EXPECT_NE(n1, n4);
  // A structural key never collides with a text key, even one crafted to
  // look similar -- structural keys start with the '\x01' domain byte.
  const TypeId text = interner.intern(interner.spelling(n1).substr(1));
  EXPECT_NE(text, n1);
}

TEST(Interner, TryInternProbesWithoutInserting) {
  TypeInterner interner;
  const TypeId leaf = interner.intern("leaf");
  EXPECT_EQ(interner.try_intern("absent"), core::kNoType);
  EXPECT_EQ(interner.try_intern_node(7, &leaf, 1), core::kNoType);
  EXPECT_EQ(interner.size(), 1u);  // probes never insert
  const TypeId node = interner.intern_node(7, {leaf});
  EXPECT_EQ(interner.try_intern("leaf"), leaf);
  EXPECT_EQ(interner.try_intern_node(7, &leaf, 1), node);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(Interner, WideNodesSpillToHeapFramedKeys) {
  // Node keys above the stack-frame budget take the heap-fallback path;
  // both must land in the same table entry as a rebuilt identical tuple.
  TypeInterner interner;
  const TypeId leaf = interner.intern("leaf");
  std::vector<TypeId> children(300, leaf);
  const TypeId wide = interner.intern_node(9, children.data(), children.size());
  EXPECT_EQ(interner.intern_node(9, children.data(), children.size()), wide);
  EXPECT_EQ(interner.try_intern_node(9, children.data(), children.size()),
            wide);
  EXPECT_EQ(interner.spelling(wide).size(), 1 + 8 + 4 * children.size());
}

// Growth re-places the old table's slot words by their own tags: after
// many doublings every key must still probe to its id, and ids stay
// dense in insertion order.
TEST(Interner, GrowthKeepsEveryKeyReachable) {
  TypeInterner interner;
  constexpr TypeId kKeys = 100000;
  for (TypeId k = 0; k < kKeys; ++k) {
    ASSERT_EQ(interner.intern("grow:" + std::to_string(k)), 2 * k);
    ASSERT_EQ(interner.intern_node(7, &k, 1), 2 * k + 1);
  }
  EXPECT_EQ(interner.size(), 2u * kKeys);
  for (TypeId k = 0; k < kKeys; ++k) {
    ASSERT_EQ(interner.try_intern("grow:" + std::to_string(k)), 2 * k);
    ASSERT_EQ(interner.try_intern_node(7, &k, 1), 2 * k + 1);
  }
  EXPECT_EQ(interner.try_intern("grow:-1"), core::kNoType);
}

TEST(Interner, SpellingBoundsCheckThrows) {
  TypeInterner interner;
  EXPECT_THROW(interner.spelling(0), std::out_of_range);
  interner.intern("x");
  EXPECT_NO_THROW(interner.spelling(0));
  EXPECT_THROW(interner.spelling(1), std::out_of_range);
  EXPECT_THROW(interner.spelling(core::kNoType), std::out_of_range);
}

// --- the spelling arena ---
//
// Spellings are length-prefixed records in an append-only arena of 1 MiB
// chunks (interner.hpp); spelling() returns views into it that must stay
// valid, and byte-equal, for the interner's life.

constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
constexpr std::size_t kRecordPrefix = 4;  // the record's length field

TEST(SpellingArena, ViewsSurviveManyChunksAndGrowths) {
  TypeInterner interner;
  std::vector<std::string_view> views;
  std::vector<std::string> copies;
  for (TypeId k = 0; k < 64; ++k) {
    const TypeId id =
        interner.intern("first:" + std::to_string(k) + std::string(k, 'v'));
    views.push_back(interner.spelling(id));
    copies.emplace_back(views.back());
  }
  // 2^20 node keys of 1-4 children: about 23 MiB of records, so many
  // chunks, and slot-table growths from 128 to 2^21 slots.
  std::vector<TypeId> children(4);
  for (TypeId k = 0; k < (TypeId{1} << 20); ++k) {
    for (std::size_t c = 0; c < children.size(); ++c)
      children[c] = k + static_cast<TypeId>(c);
    ASSERT_EQ(interner.intern_node(5, children.data(), 1 + k % 4), 64 + k);
  }
  for (TypeId id = 0; id < 64; ++id) {
    EXPECT_EQ(views[id], copies[id]) << id;
    EXPECT_EQ(interner.spelling(id).data(), views[id].data()) << id;
    EXPECT_EQ(interner.try_intern(copies[id]), id) << id;
  }
}

TEST(SpellingArena, KeyLongerThanAChunkRoundTrips) {
  TypeInterner interner;
  const TypeId small = interner.intern("before");
  std::string big(2 * kChunkBytes + 3, '\0');
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<char>('a' + i % 23);
  const TypeId id = interner.intern(big);
  EXPECT_EQ(id, small + 1);
  EXPECT_EQ(interner.spelling(id), big);
  EXPECT_EQ(interner.intern(big), id);
  EXPECT_EQ(interner.try_intern(big), id);
  // The next small key still interns, and the keys before it still read.
  const TypeId after = interner.intern("after");
  EXPECT_EQ(after, id + 1);
  EXPECT_EQ(interner.spelling(after), "after");
  EXPECT_EQ(interner.spelling(small), "before");
  EXPECT_EQ(interner.intern("before"), small);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(SpellingArena, InternOfASpellingsViewOpeningANewChunk) {
  TypeInterner interner;
  const std::string text = "source:" + std::string(93, 's');
  const TypeId source = interner.intern(text);
  // A filler that leaves 50 bytes of the first chunk free, fewer than the
  // substring's record needs.
  const std::size_t used = kRecordPrefix + text.size();
  const TypeId filler = interner.intern(
      std::string(kChunkBytes - used - kRecordPrefix - 50, 'f'));
  const std::string_view view = interner.spelling(source).substr(1);
  const std::string copy(view);
  const TypeId got = interner.intern(view);
  EXPECT_EQ(got, filler + 1);
  // It opened a new chunk: the record does not follow the filler's.
  const std::string_view filled = interner.spelling(filler);
  ASSERT_NE(interner.spelling(got).data(),
            filled.data() + filled.size() + kRecordPrefix);
  EXPECT_EQ(interner.spelling(got), copy);
  EXPECT_EQ(interner.intern(copy), got);
  EXPECT_EQ(interner.spelling(source), text);
  // A second interner fed the copy hands out the same id.
  TypeInterner fresh;
  fresh.intern(text);
  fresh.intern(interner.spelling(filler));
  EXPECT_EQ(fresh.intern(copy), got);
}

// Raw threads read the spellings of ids they got from try_intern, and of
// every published id, while one thread inserts across chunks, slabs and
// table growths.  Runs under TSan in CI.
TEST(SpellingArena, ReadersRaceOneInserter) {
  constexpr TypeId kKeys = 1 << 17;
  const auto key = [](TypeId i) {
    return "race:" + std::to_string(i) +
           std::string(i % 97, static_cast<char>('a' + i % 26));
  };
  TypeInterner interner;
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::atomic<std::size_t> found{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(900 + t);
      std::size_t hits = 0;
      // At least 1 000 reads each, so a reader started late still hits.
      for (int reads = 0;
           reads < 1000 || !done.load(std::memory_order_acquire); ++reads) {
        const TypeId i = static_cast<TypeId>(rng() % kKeys);
        const std::string k = key(i);
        const TypeId id = interner.try_intern(k);
        if (id != core::kNoType) {
          ++hits;
          if (id != i || interner.spelling(id) != k) ++bad;
        }
        if (const std::size_t n = interner.size(); n > 0) {
          const TypeId last = static_cast<TypeId>(n - 1);
          if (interner.spelling(last) != key(last)) ++bad;
        }
      }
      found += hits;
    });
  }
  bool dense = true;
  for (TypeId i = 0; i < kKeys; ++i) dense &= interner.intern(key(i)) == i;
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_TRUE(dense);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(found.load(), 0u);
  for (TypeId i = 0; i < kKeys; i += 997)
    EXPECT_EQ(interner.spelling(i), key(i));
}

// --- the per-thread node memo ---
//
// A node of at most 6 children resolves from a per-thread memo of 1 024
// slots keyed by value and by the interner's serial.  It must never answer
// for another interner (a destroyed one's successor often reuses its
// address), and evicting entries must never change an answer.

// The framed spelling of a node key: '\x01', the tag and the child ids,
// little-endian.
std::string framed(std::uint64_t tag, const std::vector<TypeId>& children) {
  std::string out(1, '\x01');
  for (int b = 0; b < 8; ++b) out += static_cast<char>(tag >> (8 * b));
  for (const TypeId c : children)
    for (int b = 0; b < 4; ++b) out += static_cast<char>(c >> (8 * b));
  return out;
}

TEST(NodeMemo, NeverAnswersForADestroyedInterner) {
  const std::vector<TypeId> key = {3, 1, 4};
  auto a = std::make_unique<TypeInterner>();
  for (const char* flat : {"a0", "a1", "a2"}) a->intern(flat);
  const TypeId in_a = a->intern_node(77, key.data(), key.size());
  ASSERT_EQ(in_a, 3u);
  ASSERT_EQ(a->try_intern_node(77, key.data(), key.size()), in_a);
  a.reset();
  // B usually lands at A's address; only A's serial keys A's entries.
  auto b = std::make_unique<TypeInterner>();
  b->intern("b0");
  EXPECT_EQ(b->try_intern_node(77, key.data(), key.size()), core::kNoType);
  const TypeId in_b = b->intern_node(77, key.data(), key.size());
  EXPECT_EQ(in_b, 1u);
  EXPECT_EQ(b->spelling(in_b), framed(77, key));
  EXPECT_EQ(b->size(), 2u);
}

// Keys for the memo tests: `count` distinct node keys whose child counts
// cycle through 0..7, so both sides of the 6-child memo limit are hit.
struct NodeKey {
  std::uint64_t tag;
  std::vector<TypeId> children;
};
std::vector<NodeKey> node_keys(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<NodeKey> keys;
  for (std::size_t i = 0; i < count; ++i) {
    NodeKey key{core::type_tag::kind(9) | i, {}};
    for (std::size_t j = 0; j < i % 8; ++j)
      key.children.push_back(static_cast<TypeId>(rng() % 5000));
    keys.push_back(std::move(key));
  }
  return keys;
}

TEST(NodeMemo, TwoLiveInternersKeepTheirOwnIds) {
  const std::vector<NodeKey> keys = node_keys(400, 5);
  std::vector<std::size_t> order_a(keys.size()), order_b(keys.size());
  std::iota(order_a.begin(), order_a.end(), 0);
  order_b = order_a;
  std::mt19937_64 rng(6);
  std::shuffle(order_b.begin(), order_b.end(), rng);
  // What a lone interner hands out in each order.
  const auto lone = [&](const std::vector<std::size_t>& order) {
    TypeInterner interner;
    std::vector<TypeId> ids(keys.size());
    for (const std::size_t k : order)
      ids[k] = interner.intern_node(keys[k].tag, keys[k].children.data(),
                                    keys[k].children.size());
    return ids;
  };
  const std::vector<TypeId> want_a = lone(order_a), want_b = lone(order_b);
  ASSERT_NE(want_a, want_b);

  TypeInterner a, b;
  std::vector<TypeId> got_a(keys.size()), got_b(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const NodeKey& ka = keys[order_a[i]];
    const NodeKey& kb = keys[order_b[i]];
    got_a[order_a[i]] =
        a.intern_node(ka.tag, ka.children.data(), ka.children.size());
    got_b[order_b[i]] =
        b.intern_node(kb.tag, kb.children.data(), kb.children.size());
  }
  EXPECT_EQ(got_a, want_a);
  EXPECT_EQ(got_b, want_b);
  // Re-interns and probes, interleaved: every one a hit, in its own ids.
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const NodeKey& key = keys[k];
    const std::size_t n = key.children.size();
    ASSERT_EQ(a.try_intern_node(key.tag, key.children.data(), n), want_a[k]);
    ASSERT_EQ(b.try_intern_node(key.tag, key.children.data(), n), want_b[k]);
    ASSERT_EQ(b.intern_node(key.tag, key.children.data(), n), want_b[k]);
    ASSERT_EQ(a.intern_node(key.tag, key.children.data(), n), want_a[k]);
  }
  EXPECT_EQ(a.size(), keys.size());
  EXPECT_EQ(b.size(), keys.size());
}

TEST(NodeMemo, EvictionNeverChangesAnAnswer) {
  // 8x the memo's 1 024 slots, so most entries are evicted many times.
  const std::vector<NodeKey> keys = node_keys(8 * 1024, 7);
  TypeInterner interner;
  std::vector<TypeId> ids;
  for (const NodeKey& key : keys)
    ids.push_back(interner.intern_node(key.tag, key.children.data(),
                                       key.children.size()));
  for (const int threads : {1, 8}) {
    std::vector<int> bad(static_cast<std::size_t>(threads), 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::vector<std::size_t> order(keys.size());
        std::iota(order.begin(), order.end(), 0);
        std::mt19937_64 rng(100 + t);
        for (int pass = 0; pass < 2; ++pass) {
          std::shuffle(order.begin(), order.end(), rng);
          for (const std::size_t k : order) {
            const NodeKey& key = keys[k];
            const std::size_t n = key.children.size();
            const TypeId got =
                pass == 0
                    ? interner.try_intern_node(key.tag, key.children.data(), n)
                    : interner.intern_node(key.tag, key.children.data(), n);
            if (got != ids[k] ||
                interner.spelling(got) != framed(key.tag, key.children))
              ++bad[static_cast<std::size_t>(t)];
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    for (int t = 0; t < threads; ++t)
      EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0)
          << "threads=" << threads << " thread " << t;
    EXPECT_EQ(interner.size(), keys.size()) << "threads=" << threads;
  }
}

// The central contract: within one interner, equal TypeId <=> equal
// canonical string, across random ordered graphs.
class InternerSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(InternerSweep, OrderedBallIdsMatchStrings) {
  std::mt19937_64 rng(GetParam());
  const Graph g = random_graph(13, 0.3, rng);
  const auto keys = random_keys(13, rng);
  TypeInterner interner;
  for (int r : {0, 1, 2}) {
    std::vector<TypeId> ids(g.num_vertices());
    std::vector<std::string> types(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ids[v] = order::ordered_ball_type_id(g, keys, v, r, interner);
      types[v] = order::ordered_ball_type(g, keys, v, r);
    }
    for (Vertex u = 0; u < g.num_vertices(); ++u)
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        EXPECT_EQ(ids[u] == ids[v], types[u] == types[v])
            << "r=" << r << " u=" << u << " v=" << v;
  }
}

TEST_P(InternerSweep, LdigraphBallIdsMatchStrings) {
  std::mt19937_64 rng(GetParam() + 100);
  const Graph g = random_graph(12, 0.3, rng);
  const auto keys = random_keys(12, rng);
  const auto pn = graph::PortNumbering::default_for(g);
  const auto orient = graph::Orientation::default_for(g);
  const auto ld = graph::to_ldigraph(g, pn, orient, g.max_degree());
  TypeInterner interner;
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(order::ordered_ball_type_id(ld, keys, u, 2, interner) ==
                    order::ordered_ball_type_id(ld, keys, v, 2, interner),
                order::ordered_ball_type(ld, keys, u, 2) ==
                    order::ordered_ball_type(ld, keys, v, 2));
}

TEST_P(InternerSweep, OiBallIdsMatchStrings) {
  std::mt19937_64 rng(GetParam() + 200);
  const Graph g = random_graph(12, 0.3, rng);
  const auto keys = random_keys(12, rng);
  TypeInterner interner;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto bu = core::canonicalize_oi(core::extract_ball(g, keys, u, 2));
      const auto bv = core::canonicalize_oi(core::extract_ball(g, keys, v, 2));
      EXPECT_EQ(core::oi_ball_type_id(bu, interner) ==
                    core::oi_ball_type_id(bv, interner),
                core::oi_ball_type(bu) == core::oi_ball_type(bv));
    }
  }
}

TEST_P(InternerSweep, ViewIdsMatchStringsOnLifts) {
  std::mt19937_64 rng(GetParam() + 300);
  const auto base = graph::directed_torus({3, 3});
  const auto lift = graph::random_lift(base, 4, rng);
  TypeInterner interner;
  std::vector<TypeId> ids;
  std::vector<std::string> types;
  for (Vertex v = 0; v < lift.graph.num_vertices(); ++v) {
    const auto t = core::view(lift.graph, v, 2);
    ids.push_back(core::view_type_id(t, interner));
    types.push_back(core::view_type(t));
  }
  for (Vertex v = 0; v < base.num_vertices(); ++v) {
    const auto t = core::view(base, v, 2);
    ids.push_back(core::view_type_id(t, interner));
    types.push_back(core::view_type(t));
  }
  for (std::size_t a = 0; a < ids.size(); ++a)
    for (std::size_t b = 0; b < ids.size(); ++b)
      EXPECT_EQ(ids[a] == ids[b], types[a] == types[b]) << a << " " << b;
  // Fibre constancy at the TypeId level: v and phi(v) share one id.
  for (Vertex v = 0; v < lift.graph.num_vertices(); ++v)
    EXPECT_EQ(ids[static_cast<std::size_t>(v)],
              ids[lift.graph.num_vertices() + lift.phi[v]]);
}

TEST_P(InternerSweep, PnViewIdsMatchStrings) {
  std::mt19937_64 rng(GetParam() + 400);
  const Graph g = random_graph(11, 0.35, rng);
  const auto pn = graph::PortNumbering::default_for(g);
  TypeInterner interner;
  std::vector<TypeId> ids(g.num_vertices());
  std::vector<std::string> types(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto t = core::pn_view(g, pn, v, 2);
    ids[v] = core::pn_view_type_id(t, interner);
    types[v] = core::pn_view_type(t);
  }
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(ids[u] == ids[v], types[u] == types[v]);
}

TEST_P(InternerSweep, KnowledgeViewIdsMatchViewIds) {
  // The gathered-knowledge interning must land in the same equivalence
  // classes as interning the direct view of the L-digraph.
  std::mt19937_64 rng(GetParam() + 500);
  const Graph g = random_graph(10, 0.4, rng);
  const auto pn = graph::PortNumbering::default_for(g);
  const auto orient = graph::Orientation::default_for(g);
  const int delta = g.max_degree();
  const auto ld = graph::to_ldigraph(g, pn, orient, delta);
  const auto knowledge = runtime::gather_full_information(g, pn, orient, 2);
  TypeInterner interner;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(runtime::knowledge_view_type_id(knowledge[v], 2, delta, interner),
              core::view_type_id(core::view(ld, v, 2), interner));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternerSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- thread-count determinism ---
//
// Every result the library reports must be identical under any
// LAPX_THREADS; compare a 1-thread and an 8-thread execution in-process.

struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::set_thread_count(0); }
};

TEST(Determinism, HomogeneityReportIndependentOfThreadCount) {
  ThreadCountGuard guard;
  std::mt19937_64 rng(77);
  const Graph g = random_graph(40, 0.15, rng);
  const auto keys = random_keys(40, rng);
  runtime::set_thread_count(1);
  const auto serial = order::measure_homogeneity(g, keys, 2);
  runtime::set_thread_count(8);
  const auto parallel = order::measure_homogeneity(g, keys, 2);
  EXPECT_EQ(serial.fraction, parallel.fraction);
  EXPECT_EQ(serial.largest_class, parallel.largest_class);
  EXPECT_EQ(serial.distinct_types, parallel.distinct_types);
}

TEST(Determinism, RunPoAndRunPnIndependentOfThreadCount) {
  ThreadCountGuard guard;
  std::mt19937_64 rng(78);
  const Graph g = random_graph(50, 0.1, rng);
  const auto pn = graph::PortNumbering::default_for(g);
  const auto orient = graph::Orientation::default_for(g);
  const auto ld = graph::to_ldigraph(g, pn, orient, g.max_degree());
  const core::VertexPoAlgorithm po = [](const core::ViewTree& t) {
    return static_cast<int>(std::hash<std::string>{}(core::view_type(t)) % 2);
  };
  const core::VertexPnAlgorithm pa = [](const core::PnViewTree& t) {
    return static_cast<int>(std::hash<std::string>{}(core::pn_view_type(t)) %
                            2);
  };
  runtime::set_thread_count(1);
  const auto po1 = core::run_po(ld, po, 2);
  const auto pn1 = core::run_pn(g, pn, pa, 2);
  runtime::set_thread_count(8);
  EXPECT_EQ(core::run_po(ld, po, 2), po1);
  EXPECT_EQ(core::run_pn(g, pn, pa, 2), pn1);
}

// The id -> spelling sequence of `interner`: what a fresh interner holds
// after a call, which must not depend on the thread schedule.
std::vector<std::string> spellings(const TypeInterner& interner) {
  std::vector<std::string> out;
  for (TypeId id = 0; id < interner.size(); ++id)
    out.emplace_back(interner.spelling(id));
  return out;
}

TEST(Determinism, ParallelCallersInternInScheduleFreeOrder) {
  // Three calls that once interned from parallel loop bodies: the message
  // passing PO run, the sampled homogeneity estimate and PO synthesis.
  // Each fills a fresh interner identically at 1 and at 8 threads; the
  // 8-thread side runs twice, since a racy body shows only on some
  // schedules.
  ThreadCountGuard guard;
  std::mt19937_64 rng(600);
  const Graph regular = graph::random_regular(600, 3, rng);
  const auto pn = graph::PortNumbering::default_for(regular);
  const auto orient = graph::Orientation::default_for(regular);
  const core::VertexPoAlgorithm po = [](const core::ViewTree& t) {
    return static_cast<int>(t.children[0].size() % 2);
  };
  auto spec = group::design_homogeneous(2, 2, 4, rng);
  ASSERT_TRUE(spec.has_value());
  spec->m = 10;
  const std::vector<graph::LDigraph> instances{
      graph::to_ldigraph(graph::random_regular(14, 3, rng))};

  const auto check = [](const char* what, const auto& call) {
    std::vector<std::string> reference;
    for (const int threads : {1, 8, 8}) {
      runtime::set_thread_count(threads);
      TypeInterner interner;
      call(interner);
      if (threads == 1)
        reference = spellings(interner);
      else
        EXPECT_EQ(spellings(interner), reference) << what;
    }
  };
  check("run_po_via_messages", [&](TypeInterner& interner) {
    runtime::run_po_via_messages(regular, pn, orient, po, 3, 3, interner);
  });
  check("sampled_homogeneity", [&](TypeInterner& interner) {
    std::mt19937_64 draws(4000);
    group::sampled_homogeneity(*spec, 4000, draws, interner);
  });
  check("synthesize_po_vertex", [&](TypeInterner& interner) {
    core::synthesize_po_vertex(problems::vertex_cover(), instances, 2,
                               std::size_t{1} << 22, interner);
  });
}

TEST(Determinism, ParallelReduceChunkingIndependentOfThreadCount) {
  ThreadCountGuard guard;
  // Floating-point summation: the chunk grouping (and thus rounding) must
  // not change with the thread count.
  const auto sum = [] {
    return runtime::parallel_reduce(
        10000, 0.0, [](std::int64_t i) { return 1.0 / (1.0 + i); },
        [](double a, double b) { return a + b; });
  };
  runtime::set_thread_count(1);
  const double s1 = sum();
  runtime::set_thread_count(3);
  const double s3 = sum();
  runtime::set_thread_count(8);
  const double s8 = sum();
  EXPECT_EQ(s1, s3);
  EXPECT_EQ(s1, s8);
}

TEST(Determinism, NestedParallelForRunsInline) {
  ThreadCountGuard guard;
  runtime::set_thread_count(8);
  std::vector<int> out(64 * 64, 0);
  runtime::parallel_for(64, [&](std::int64_t i) {
    // Nested loop: must run serially inside the worker, not deadlock.
    runtime::parallel_for(64,
                          [&](std::int64_t j) { out[i * 64 + j] = 1; });
  });
  for (int x : out) EXPECT_EQ(x, 1);
}

// --- concurrent churn ---
//
// N raw threads hammer one interner with overlapping key universes: every
// key is interned by several threads concurrently (mixed hit/miss, flat and
// structural, lock-free probes racing inserts).  Invariants: equal keys got
// equal ids on every thread, ids are dense in [0, size), and every id maps
// back to the key that produced it.  Runs under TSan in CI.

TEST(InternerChurn, OverlappingInternsStayConsistent) {
  constexpr int kThreads = 8;
  constexpr int kUniverse = 512;  // distinct flat keys; every thread sees all
  TypeInterner interner;
  std::vector<std::vector<TypeId>> flat_ids(
      kThreads, std::vector<TypeId>(kUniverse, core::kNoType));
  std::vector<std::vector<TypeId>> node_ids(
      kThreads, std::vector<TypeId>(kUniverse, core::kNoType));
  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread visit order: overlapping but differently shuffled, so
      // the same key races hit-path and miss-path threads.
      std::vector<int> order(kUniverse);
      std::iota(order.begin(), order.end(), 0);
      std::mt19937_64 rng(1000 + t);
      std::shuffle(order.begin(), order.end(), rng);
      start.fetch_add(1);
      while (start.load() < kThreads) {}  // line up the stampede
      for (const int k : order) {
        const std::string key = "churn:" + std::to_string(k);
        const TypeId id = interner.intern(key);
        flat_ids[t][k] = id;
        // Structural churn on top of the flat id; try-probe then intern
        // exercises the miss path of the lock-free read.
        const TypeId probed = interner.try_intern_node(41, &id, 1);
        const TypeId node = interner.intern_node(41, &id, 1);
        if (probed != core::kNoType) {
          EXPECT_EQ(probed, node);
        }
        node_ids[t][k] = node;
        EXPECT_EQ(interner.intern(key), id);  // immediate re-intern: hit
      }
    });
  }
  for (auto& th : threads) th.join();
  // No duplicate ids: every thread agrees on every key's id.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(flat_ids[t], flat_ids[0]);
    EXPECT_EQ(node_ids[t], node_ids[0]);
  }
  // Density: exactly one id per distinct key, covering [0, size).
  EXPECT_EQ(interner.size(), 2u * kUniverse);
  std::vector<char> seen(interner.size(), 0);
  for (int k = 0; k < kUniverse; ++k) {
    ASSERT_LT(flat_ids[0][k], interner.size());
    ASSERT_LT(node_ids[0][k], interner.size());
    EXPECT_FALSE(seen[flat_ids[0][k]]++) << "duplicate id";
    EXPECT_FALSE(seen[node_ids[0][k]]++) << "duplicate id";
    // The spelling round-trips to the same id (reference-stable storage).
    EXPECT_EQ(interner.intern(interner.spelling(flat_ids[0][k])),
              flat_ids[0][k]);
    EXPECT_EQ(interner.spelling(flat_ids[0][k]),
              "churn:" + std::to_string(k));
  }
}

// --- the determinism oracle of the two-phase batch contract ---
//
// Refine TypeIds must be byte-identical at every LAPX_THREADS: Phase B
// interns novel types serially in canonical order whatever the worker
// count.  Compares the full id tables AND the interners' allocation order
// (id -> spelling) against the 1-thread reference.

TEST(Determinism, RefineIdsIndependentOfThreads) {
  ThreadCountGuard guard;
  std::mt19937_64 rng(91);
  const Graph g = random_graph(60, 0.08, rng);
  const auto pn = graph::PortNumbering::default_for(g);
  const auto orient = graph::Orientation::default_for(g);
  const auto ld = graph::to_ldigraph(g, pn, orient, g.max_degree());
  constexpr int kRadius = 4;

  struct Run {
    std::vector<std::vector<TypeId>> roots;
    std::vector<std::string> spellings;
  };
  const auto run = [&](int threads) {
    runtime::set_thread_count(threads);
    TypeInterner interner;
    core::RefineState refiner(ld, interner);
    Run out;
    for (int r = 0; r <= kRadius; ++r) out.roots.push_back(refiner.types_at(r));
    out.spellings.reserve(interner.size());
    for (TypeId id = 0; id < interner.size(); ++id)
      out.spellings.emplace_back(interner.spelling(id));
    return out;
  };

  const Run reference = run(1);
  for (const int threads : {1, 8, 16}) {
    const Run got = run(threads);
    EXPECT_EQ(got.roots, reference.roots) << "threads=" << threads;
    EXPECT_EQ(got.spellings, reference.spellings) << "threads=" << threads;
  }
}

}  // namespace
