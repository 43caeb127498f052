// SessionStore semantics: LRU eviction accounting, overwrite epochs, the
// pinning contract (shared_ptr holders survive eviction AND mutation),
// epoch consistency under concurrent get/mutate, and overwrite/drop/evict
// racing readers of other names -- the store-side half of the
// incremental-session design (DESIGN.md "Round kernel") -- plus content
// identity: the pinned ids and edge-list digests, the BLAKE2b vectors
// behind content_id, and an interner left untouched by put and mutate.
// Forked artifacts (the RefineState and the per-radius ordered-ball
// classes) must equal a from-scratch pass over the mutated graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph_corpus.hpp"
#include "lapx/core/interner.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/io.hpp"
#include "lapx/graph/mutation.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/runtime/parallel.hpp"
#include "lapx/service/blake2b.hpp"
#include "lapx/service/handlers.hpp"
#include "lapx/service/protocol.hpp"
#include "lapx/service/session_store.hpp"

namespace {

using lapx::graph::EdgeEdit;
using lapx::service::blake2b_256_hex;
using lapx::service::build_generated_graph;
using lapx::service::graph_content_id;
using lapx::service::GraphEntry;
using lapx::service::parse_uploaded_graph;
using lapx::service::Request;
using lapx::service::SessionStore;

SessionStore::Options capped(std::size_t max) {
  SessionStore::Options opt;
  opt.max_graphs = max;
  return opt;
}

TEST(SessionStore, LruEvictionOrderAndResidentAccounting) {
  SessionStore store(capped(2));
  store.put("a", lapx::graph::cycle(4));
  store.put("b", lapx::graph::cycle(5));
  // Touch "a" so "b" is now least recently used.
  ASSERT_NE(store.get("a"), nullptr);
  store.put("c", lapx::graph::cycle(6));
  EXPECT_EQ(store.get("b"), nullptr);
  EXPECT_NE(store.get("a"), nullptr);
  EXPECT_NE(store.get("c"), nullptr);
  const auto s = store.stats();
  EXPECT_EQ(s.inserted, 3u);
  EXPECT_EQ(s.evicted, 1u);
  // Eviction must be reflected in `resident` on every path, not just put.
  EXPECT_EQ(s.resident, 2u);
  EXPECT_EQ(s.overwritten, 0u);
}

TEST(SessionStore, OverwriteCountsAndAdvancesEpoch) {
  SessionStore store;
  const auto first = store.put("g", lapx::graph::cycle(4));
  EXPECT_EQ(first->epoch(), 1u);
  const auto second = store.put("g", lapx::graph::cycle(9));
  EXPECT_EQ(second->epoch(), 2u);
  EXPECT_NE(first->content_hex(), second->content_hex());
  const auto s = store.stats();
  EXPECT_EQ(s.inserted, 2u);
  EXPECT_EQ(s.overwritten, 1u);  // the silent drop is silent no more
  EXPECT_EQ(s.resident, 1u);
  // The first epoch's holder still has a fully usable entry.
  EXPECT_EQ(first->graph().num_vertices(), 4);
}

TEST(SessionStore, PinnedEntrySurvivesEviction) {
  SessionStore store(capped(1));
  const auto pin = store.put("victim", lapx::graph::cycle(7));
  store.put("usurper", lapx::graph::cycle(3));
  EXPECT_EQ(store.get("victim"), nullptr);
  // The pin keeps the evicted entry (and its derived artifacts) alive.
  EXPECT_EQ(pin->graph().num_vertices(), 7);
  EXPECT_EQ(pin->ldigraph().num_vertices(), 7);
  EXPECT_EQ(pin->view_types(2).size(), 7u);
}

TEST(SessionStore, MutateAdvancesEpochAndRoundTripsContent) {
  SessionStore store;
  const auto v1 = store.put("g", lapx::graph::torus({4, 4}));
  const std::string original = v1->content_hex();
  // Cut the highest-id edge: removing it is a pure pop (no swap-with-last
  // id churn), so healing it re-appends the same normalized pair at the
  // same slot and the edge array round-trips byte for byte.
  const auto [lu, lv] = v1->graph().edges().back();
  std::vector<EdgeEdit> cut{{EdgeEdit::Kind::kRemove, lu, lv}};
  const auto v2 = store.mutate("g", cut);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->epoch(), 2u);
  EXPECT_NE(v2->content_hex(), original);
  EXPECT_EQ(v2->graph().num_edges(), v1->graph().num_edges() - 1);
  // The old epoch is pinned by v1 and untouched by the mutation.
  EXPECT_EQ(v1->graph().num_edges(), 32u);
  std::vector<EdgeEdit> heal{{EdgeEdit::Kind::kAdd, lu, lv}};
  const auto v3 = store.mutate("g", heal);
  ASSERT_NE(v3, nullptr);
  EXPECT_EQ(v3->epoch(), 3u);
  // Content addressing is stable: undoing the edit restores the hash.
  EXPECT_EQ(v3->content_hex(), original);
  EXPECT_EQ(store.stats().mutated, 2u);
}

// The content ids pinned below come from Python's hashlib over the
// Merkle tree graph_content_id documents (blake2b.hpp), with n and the
// edges parsed from `lapx_cli generate FAMILY ARGS...` output (one "first
// second" line per edge, in edge-id order):
//   b2 = lambda d: hashlib.blake2b(d, digest_size=32)
//   e = b"".join(struct.pack("<II", u, v) for u, v in edges)
//   leaves = [b2(b"\0" + e[i:i + 8192]).digest()
//             for i in range(0, len(e), 8192)]
//   b2(b"\1" + struct.pack("<QQ", n, m) + b"".join(leaves)).hexdigest()
// The edge-list digests beside them are BLAKE2b-256 of to_edge_list(g):
// they pin each builder's edge order independently of the id encoding.

TEST(SessionStore, ContentHexIsPinned) {
  // content_hex is the first 16 hex digits of content_id: responses
  // surface the one and persisted fingerprints embed the other, so
  // neither may drift.
  SessionStore store;
  const auto entry = store.put("g", lapx::graph::torus({4, 4}));
  EXPECT_EQ(entry->content_id(),
            "46f6618727ef6a54a8ec2074e5bc51e697ba183facc7679e7f9f3b4b75a79b9e");
  EXPECT_EQ(entry->content_hex(), "46f6618727ef6a54");
  EXPECT_EQ(blake2b_256_hex(lapx::graph::to_edge_list(entry->graph())),
            "ebebcf178b5e846031498d57ae801aa11cae0b05e663540a579cba4728cdde09");
  // A lift also pins LDigraph::arcs() order: random_lift draws one
  // permutation per base arc in that order, and underlying_graph() numbers
  // the lifted edges in it.
  const auto lift = store.put("lift", lapx::graph::lifted_torus(3, 3, 40, 7));
  EXPECT_EQ(lift->content_id(),
            "be0510d5c5549efc7490fdf114c9f58d327ad8176756f63930c8b88121466980");
  EXPECT_EQ(lift->content_hex(), "be0510d5c5549efc");
  EXPECT_EQ(blake2b_256_hex(lapx::graph::to_edge_list(lift->graph())),
            "287ad27d0ffa665faf70ff4572df7e9c27c74f28a688429f0764b4058523edf7");
}

TEST(SessionStore, ContentIdPinsEdgeCases) {
  // No edges at two vertex counts (no leaf: the root's header alone,
  // which must still tell them apart), one edge, m = 14 and m = 1000 (one
  // partial leaf each), and m = 1024 and 1025: exactly one full leaf, and
  // a full leaf plus a leaf of one edge.
  struct Pin {
    lapx::graph::Graph g;
    const char* id;
  };
  const Pin pins[] = {
      {lapx::graph::Graph(0),
       "eb26d1099560e57f95908fda97dd2cda9ce88bab77962b8011f50c03473f15c9"},
      {lapx::graph::Graph(5),
       "4ebe5b70fd590e0f3e7049788fac776620d7e0012bfcc53480ff0e6d9a29668a"},
      {lapx::graph::path(2),
       "fafd346bb2f134984b9c0d53e5f6863a12919dc9ca7cbd336802e5960220b0c8"},
      {lapx::graph::cycle(14),
       "c99b0695807b427f6eeca2b7859ca5f3f69b171297b8118d9fdc0baf7949e937"},
      {lapx::graph::cycle(1000),
       "dba6cb38b2672cabffda8e2f05eda23247800cda0af5942e08f5cbe7303940cf"},
      {lapx::graph::cycle(1024),
       "3ea173c76c774a7a26f1e6c5c7276fd44aef12b61f23eeb2c32cd0f2f2c6f6d4"},
      {lapx::graph::cycle(1025),
       "00fcaed98b21b4cd5a8a8d158810518aab40c847b346eb9e29911274bca81667"},
  };
  SessionStore store;
  for (const Pin& p : pins) {
    EXPECT_EQ(graph_content_id(p.g), p.id) << p.g.summary();
    const auto entry = store.put("g", p.g);
    EXPECT_EQ(entry->content_id(), p.id) << p.g.summary();
    EXPECT_EQ(entry->content_hex(), std::string(p.id, 16)) << p.g.summary();
  }
  EXPECT_NE(graph_content_id(lapx::graph::Graph(0)),
            graph_content_id(lapx::graph::Graph(5)));
}

Request request(const std::string& line) {
  return lapx::service::parse_request(line);
}

TEST(SessionStore, GeneratedAndUploadedContentIsPinned) {
  // Edge ids and endpoint order feed both digests, so every generate
  // family, an upload in arbitrary edge order, and a mutate batch that
  // moves the last edge id and changes degrees pin what the graph
  // builders and apply_edits must reproduce.  `text` is the BLAKE2b-256
  // of the edge-list text, `id` the content id (see the note above).
  struct Pin {
    const char* family;
    const char* args;
    const char* text;
    const char* id;
  };
  const Pin pins[] = {
      {"cycle", "[50]",
       "ec369770b33f57ad62cfeb92de25431047747d70e9dca3e0364edef78bc10e88",
       "625acb63187390cca312b0ca95287823e39a19bc4333a6587b0468566eb324a1"},
      {"path", "[40]",
       "a0d4943421c09fcc9ac66c91a67dec11f0ea43af0b9c16417d73df5f93792d36",
       "d55099a863f48a3be517d1fcb67aaffeeff5c6fd758e8a2193e1b8b80de7bc58"},
      {"complete", "[12]",
       "f53c27e57b65b405d1f1ce1b6664283ecfbc8eee90220cb2c04db2c0e906e2f7",
       "afc9ad0cdf0069c6307cd6bc6629d0d30737b39d293610f5e3e2dcde60838c35"},
      {"torus", "[5,7]",
       "d50b665a117674d3b8bacdedaf02775aab240840b6862270044742264e6cd148",
       "a42963fc0326a1f242ac255aa9544f513a55d506a8e2824b17573522ad2d4946"},
      {"torus", "[3,3]",
       "d30df1176f37cf4ded5b2a2be6b26a632d6d88ebc6284f51570d301130775511",
       "24feba67f79b51f5614ee868a2b4ddd29367c5f5defc269404f96137012f65f5"},
      {"hypercube", "[6]",
       "cdd79f2e705efd578e2a899d6d7daa981243f8470d4aa1bd6b54a12e107cc962",
       "0330e5fe95106d77f0b6eb90f90e260a3ad184744d3b7e80db8ad26970d298d3"},
      {"petersen", "[]",
       "d1518a5aec23515a5e689e7dbec4391a610652d5ec9ffa50c5e929f7070bb567",
       "40fe912d1c823c524d0ccb4be9df543f2afa8e775eb4d5291b60beca65a111fb"},
      {"gp", "[8,3]",
       "31fbf68ca5a041084b0589edd580ca5c003e81496653822d8c278adfcdc8f736",
       "3ffee0776f0f167e355ba737c5cc6855c670e8ee80605f72c74eaf8c3fffcf4c"},
      {"grid", "[6,9]",
       "6a750ae02c21ed1c6f8de061000fa36135fe94bbd17ffaec7cdc2591bf2990be",
       "e43699a4c7939443400b895169c48b8e22f1872e8cba7e914df7d59dfc64caf1"},
      {"lift", "[3,3,50,7]",
       "50bbebe9760818f0988f48bbe04d6171939f645c87c3c8f564d5c5067c0358a5",
       "07ad16c45ea4fbcc667f430073410bcae22e74ef9647b28057e5521f44322602"},
      {"lift", "[3,4,20,11]",
       "35a6fcbe6e1c583abd8f290452d7c984708b5d6f1d24769262923acc37e3e323",
       "5fcfef32a257c3112b8af64786e7149f92bff010592eeb497521a1d5af42f936"},
      {"regular", "[200,3,1]",
       "31447e01e691510918201bca05ee21cb45eb02c88a7c00d747cd5064fcb0cf88",
       "cba461f99980f46fdebbe2d5e367ba3401946139e9bfbf56f42b3a37c7def73a"},
      {"regular", "[64,6,5]",
       "b1f168b16ae3ec6dd9e7fda6e4f82193ad3fef17eaf0284ead6e74a38d4b5a32",
       "7f21caceec86f9b182aa9a78172cf7df50ad2c03791a5760c350a1de1ac81957"},
      {"regular", "[101,4,9]",
       "24446a80d6ef983f27c4749f5983390f125112b7c419319bef3e83628fd311fa",
       "9c219b7cde5c63911f849ae73265f82235c5b883fe8393be134682ae81093681"},
      {"regular", "[500,5,3]",
       "a7582bee6ca9306716783dcb2a6715483580517f1e86739796fa302abe19e6b6",
       "746e406900e60d3ffc8ff9c516355913df82b671f885f6af6a5f0925f0cdc719"},
  };
  SessionStore store;
  for (const Pin& p : pins) {
    const auto entry = store.put(
        "g", build_generated_graph(request(
                 std::string(R"({"op":"generate","name":"g","family":")") +
                 p.family + R"(","args":)" + p.args + "}")));
    EXPECT_EQ(blake2b_256_hex(lapx::graph::to_edge_list(entry->graph())),
              p.text)
        << p.family << " " << p.args;
    EXPECT_EQ(entry->content_id(), p.id) << p.family << " " << p.args;
    EXPECT_EQ(entry->content_hex(), std::string(p.id, 16))
        << p.family << " " << p.args;
  }
  // A side of 2 would repeat every edge of its dimension; the generator
  // refuses it rather than dropping the repeats.
  try {
    build_generated_graph(request(
        R"({"op":"generate","name":"g","family":"torus","args":[2,5]})"));
    ADD_FAILURE() << "torus [2,5] built";
  } catch (const lapx::service::ServiceError& e) {
    EXPECT_STREQ(e.what(), "generate failed: torus side must be >= 3");
  }

  const auto upload = store.put(
      "u", parse_uploaded_graph(request(
               R"({"op":"upload","name":"u","edges":"7 9\n3 1\n0 6\n5 2\n)"
               R"(2 0\n4 3\n6 5\n1 0\n2 4\n6 3\n"})")));
  EXPECT_EQ(blake2b_256_hex(lapx::graph::to_edge_list(upload->graph())),
            "4bd49bc3d8a66be098fa5d28a62d8d99ca31dd7de1355affe425080c547f521d");
  EXPECT_EQ(upload->content_id(),
            "21169ec5aef67b13f7bd03b5ff49f873f43fe4dfada4c8391b7fda710078fba2");
  EXPECT_EQ(upload->content_hex(), "21169ec5aef67b13");

  const auto lift = store.put(
      "l", build_generated_graph(request(
               R"({"op":"generate","name":"l","family":"lift",)"
               R"("args":[3,3,20,7]})")));
  const auto& g = lift->graph();
  const auto [a, b] = g.edge(0);
  const auto [c, d] = g.edge(3);
  lapx::graph::Vertex w = 0;
  while (w == a || w == b || w == c || w == d || g.has_edge(b, w)) ++w;
  // Removing ids 0 and 3 moves the last edge into each; b keeps its
  // degree, a, c and d lose one and w reaches 5.
  const std::vector<EdgeEdit> batch{{EdgeEdit::Kind::kRemove, b, a},
                                    {EdgeEdit::Kind::kRemove, c, d},
                                    {EdgeEdit::Kind::kAdd, w, b}};
  const auto mutated = store.mutate("l", batch);
  ASSERT_NE(mutated, nullptr);
  EXPECT_EQ(mutated->graph().max_degree(), 5);
  EXPECT_EQ(blake2b_256_hex(lapx::graph::to_edge_list(mutated->graph())),
            "65e669237a6746d3ff60f9540aacddde13b15f8ecb3a7c9e914c177f95cf1b75");
  EXPECT_EQ(mutated->content_id(),
            "45df824336654a14199e7ee93492c251894ae1f3c7510e303f6355057e724b24");
  EXPECT_EQ(mutated->content_hex(), "45df824336654a14");
}

TEST(SessionStore, PatchedDigestMatchesScratchAcrossLeaves) {
  // The edit corpus of Service.MutateDifferentialMatchesFreshUpload on
  // graphs of several 1 024-edge leaves, and on a cycle whose edge count
  // crosses a leaf boundary both ways: after every accepted batch the
  // patched id is the one hashed from scratch, and a rejected batch
  // leaves the bound entry -- its id, leaf digests and refinement -- as it
  // was.
  using Kind = EdgeEdit::Kind;
  std::mt19937_64 rng(2026);
  std::vector<lapx::graph::Graph> graphs = {
      lapx::graph::lifted_torus(3, 3, 300, 5),
      lapx::graph::random_regular(700, 5, rng), lapx::graph::cycle(1025)};
  int accepted = 0, rejected = 0;
  for (lapx::graph::Graph g : graphs) {
    SessionStore store;
    store.put("g", g)->view_types(1);  // each epoch derives the next's
    for (int step = 0; step < 40; ++step) {
      std::vector<EdgeEdit> batch;
      if (g.num_edges() >= 1023 && g.num_edges() <= 1026 && step % 2 == 0) {
        // Across the boundary: m = 1 024 is exactly one full leaf.
        const auto [a, b] = g.edge(static_cast<lapx::graph::EdgeId>(
            rng() % g.num_edges()));
        batch = {{Kind::kRemove, a, b}};
      } else {
        batch = lapx::graph::corpus::random_edit_batch(g, rng);
      }
      if (batch.empty()) continue;
      const auto before = store.get("g");
      if (step % 5 == 4) {
        // A valid prefix, then a self-loop: the whole batch is refused.
        batch.push_back({Kind::kAdd, 0, 0});
        EXPECT_THROW(store.mutate("g", batch), lapx::graph::MutationError);
        EXPECT_EQ(store.get("g"), before);
        EXPECT_EQ(before->content_id(), graph_content_id(g));
        EXPECT_TRUE(before->has_refine_state()) << "step " << step;
        ++rejected;
        continue;
      }
      lapx::graph::apply_edits(g, batch);
      const auto entry = store.mutate("g", batch);
      ASSERT_NE(entry, nullptr);
      ASSERT_EQ(entry->content_id(), graph_content_id(g))
          << "step " << step << " m=" << g.num_edges();
      ++accepted;
    }
  }
  EXPECT_GT(accepted, 60);
  EXPECT_GT(rejected, 10);
}

TEST(SessionStore, PutAndMutateAddNoInternerIds) {
  // Content identity is a digest, not an interned text: binding and
  // mutating a session leave the global interner alone until a query
  // runs.  (cycle(29) is used by no other test in this binary.)
  const std::size_t before = lapx::core::TypeInterner::global().size();
  SessionStore store;
  const auto v1 = store.put("fresh", lapx::graph::cycle(29));
  const auto v2 = store.mutate(
      "fresh", std::vector<EdgeEdit>{{EdgeEdit::Kind::kRemove, 0, 1}});
  const auto v3 = store.mutate(
      "fresh", std::vector<EdgeEdit>{{EdgeEdit::Kind::kRemove, 5, 6}});
  ASSERT_NE(v3, nullptr);
  EXPECT_EQ(v3->epoch(), 3u);
  EXPECT_NE(v1->content_id(), v2->content_id());
  EXPECT_NE(v2->content_id(), v3->content_id());
  EXPECT_EQ(lapx::core::TypeInterner::global().size(), before);
}

TEST(Blake2b, MatchesHashlibVectors) {
  // hashlib.blake2b(data, digest_size=32).hexdigest(), with `pattern(n)`
  // = bytes(i % 251 for i in range(n)).  The multiples of 128 exercise
  // BLAKE2's rule that the last block is finalized even when it is full.
  auto pattern = [](std::size_t n) {
    std::string s(n, '\0');
    for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<char>(i % 251);
    return s;
  };
  EXPECT_EQ(blake2b_256_hex(""),
            "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8");
  EXPECT_EQ(blake2b_256_hex("abc"),
            "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319");
  const std::pair<std::size_t, const char*> vectors[] = {
      {127, "f2fe67ff342e21b8f45e8f2e0bcd1d9243245d50ee6c78042e9c491388791c72"},
      {128, "c3582f71ebb2be66fa5dd750f80baae97554f3b015663c8be377cfcb2488c1d1"},
      {129, "f7f3c46ba2564ff4c4c162da1f5b605f9f1c4aa6a20652a9f9a337c1a2f5b9c9"},
      {256, "582f782226018ec33076bd8d1c42413530ac7e1126260ffc0f306ba3befc3f24"},
      {std::size_t{1} << 20,
       "8a5a7a9dc3cf203ed374b0a1eea930601ad2acbfe2b4bc62cf83de4ee536528b"}};
  for (const auto& [n, hex] : vectors)
    EXPECT_EQ(blake2b_256_hex(pattern(n)), hex) << "length " << n;
}

TEST(Blake2b, IncrementalUpdatesMatchOneShot) {
  // Any split of the input into update() calls hashes the concatenation:
  // pieces that end inside, at, and beyond a 128-byte block boundary.
  std::string data(777, '\0');
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<char>((i * 131) % 256);
  const std::string whole = blake2b_256_hex(data);
  for (const std::size_t piece : {1, 7, 16, 127, 128, 129, 300, 776}) {
    lapx::service::Blake2b256 hash;
    for (std::size_t off = 0; off < data.size(); off += piece)
      hash.update(data.data() + off, std::min(piece, data.size() - off));
    EXPECT_EQ(hash.hex(), whole) << "piece " << piece;
  }
}

TEST(SessionStore, MutateForksRefineStateWithExactIds) {
  SessionStore store;
  const auto v1 = store.put("g", lapx::graph::torus({5, 5}));
  // Materialize the refinement on epoch 1 so the mutation takes the
  // delta-fork path rather than starting lazy.
  v1->view_types(3);
  ASSERT_TRUE(v1->has_refine_state());
  std::vector<EdgeEdit> cut{{EdgeEdit::Kind::kRemove, 0, 1}};
  const auto v2 = store.mutate("g", cut);
  ASSERT_NE(v2, nullptr);
  ASSERT_TRUE(v2->has_refine_state());  // forked, not lazy
  // The forked ids must be byte-identical to a from-scratch refinement of
  // the mutated graph in the same (global) interner.
  EXPECT_EQ(v2->view_types(3),
            lapx::core::bulk_view_type_ids(v2->ldigraph(), 3));
  // And the old epoch still answers for the old graph.
  EXPECT_EQ(v1->view_types(3),
            lapx::core::bulk_view_type_ids(
                lapx::graph::to_ldigraph(v1->graph()), 3));
}

void expect_same_report(const lapx::order::HomogeneityReport& got,
                        const lapx::order::HomogeneityReport& want) {
  EXPECT_EQ(got.largest_class, want.largest_class);
  EXPECT_EQ(got.distinct_types, want.distinct_types);
  EXPECT_EQ(got.fraction, want.fraction);
}

lapx::order::HomogeneityReport scratch_homogeneity(const lapx::graph::Graph& g,
                                                   int r) {
  return lapx::order::measure_homogeneity(
      g, lapx::order::identity_keys(g.num_vertices()), r);
}

TEST(SessionStore, MutateForksHomogeneityWithExactReports) {
  // Every radius the old epoch typed is forked and re-typed on the edit's
  // ball frontier; a radius whose frontier spans the graph (r = 3 on the
  // 8-cycle) is dropped and rebuilt on the next query, and r = 0, never
  // typed, is built then too.  Either way the report equals a
  // from-scratch measure_homogeneity of the mutated graph.
  for (const lapx::graph::Graph& g :
       {lapx::graph::lifted_torus(3, 3, 40, 5), lapx::graph::cycle(8)}) {
    SessionStore store;
    const auto v1 = store.put("g", g);
    for (int r = 1; r <= 3; ++r)
      expect_same_report(v1->homogeneity(r), scratch_homogeneity(g, r));
    const auto [u, v] = g.edge(0);
    const std::vector<EdgeEdit> cut{{EdgeEdit::Kind::kRemove, u, v}};
    const auto v2 = store.mutate("g", cut);
    ASSERT_NE(v2, nullptr);
    const lapx::graph::Graph& after = v2->graph();
    EXPECT_EQ(after.num_edges(), g.num_edges() - 1);
    for (int r = 0; r <= 3; ++r)
      expect_same_report(v2->homogeneity(r), scratch_homogeneity(after, r));
    // The old epoch still answers for the old graph.
    expect_same_report(v1->homogeneity(2), scratch_homogeneity(g, 2));
    EXPECT_THROW(v2->homogeneity(-1), std::invalid_argument);
  }
}

TEST(SessionStore, SupersededEpochRebuildsWhatItGaveUp) {
  // A mutate takes over epoch k's refinement and ordered-ball classes;
  // epoch k, still pinned, answers from lazily rebuilt ones exactly as a
  // fresh build of its graph does, below and above the radius it kept,
  // at 1 and 8 threads.
  const int old_threads = lapx::runtime::thread_count();
  for (const int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    SessionStore store;
    const auto k = store.put("g", lapx::graph::lifted_torus(3, 3, 30, 7));
    k->view_types(2);
    k->homogeneity(1);
    const auto [a, b] = k->graph().edge(4);
    const auto [c, d] = k->graph().edge(40);
    ASSERT_FALSE(k->graph().has_edge(a, c) || k->graph().has_edge(b, d));
    const std::vector<EdgeEdit> two_switch{{EdgeEdit::Kind::kRemove, a, b},
                                           {EdgeEdit::Kind::kRemove, c, d},
                                           {EdgeEdit::Kind::kAdd, a, c},
                                           {EdgeEdit::Kind::kAdd, b, d}};
    const auto next = store.mutate("g", two_switch);
    ASSERT_NE(next, nullptr);
    EXPECT_TRUE(next->has_refine_state());
    EXPECT_FALSE(k->has_refine_state());  // handed over
    const lapx::graph::LDigraph fresh = lapx::graph::to_ldigraph(k->graph());
    for (const int r : {1, 2, 3})
      EXPECT_EQ(k->view_types(r), lapx::core::bulk_view_type_ids(fresh, r))
          << "threads " << threads << " r=" << r;
    expect_same_report(k->homogeneity(1), scratch_homogeneity(k->graph(), 1));
    EXPECT_EQ(next->view_types(3),
              lapx::core::bulk_view_type_ids(next->ldigraph(), 3));
    expect_same_report(next->homogeneity(1),
                       scratch_homogeneity(next->graph(), 1));
  }
  lapx::runtime::set_thread_count(old_threads);
}

TEST(SessionStore, MutateAbsentNameAndBadEdit) {
  SessionStore store;
  std::vector<EdgeEdit> cut{{EdgeEdit::Kind::kRemove, 0, 1}};
  EXPECT_EQ(store.mutate("ghost", cut), nullptr);
  const auto v1 = store.put("g", lapx::graph::cycle(5));
  std::vector<EdgeEdit> bad{{EdgeEdit::Kind::kAdd, 0, 1}};  // already there
  EXPECT_THROW(store.mutate("g", bad), lapx::graph::MutationError);
  // Atomicity: the failed mutation left the binding (and epoch) alone.
  const auto cur = store.get("g");
  ASSERT_NE(cur, nullptr);
  EXPECT_EQ(cur->epoch(), 1u);
  EXPECT_EQ(cur.get(), v1.get());
  EXPECT_EQ(store.stats().mutated, 0u);
}

TEST(SessionStore, ConcurrentGetAndMutatePinEpochs) {
  // Readers resolve-and-pin while a writer streams mutations; every
  // reader must see an internally consistent epoch (the n/m the epoch was
  // created with), epochs must be strictly increasing per mutate, and
  // pinned entries must stay valid arbitrarily long after replacement.
  // Readers also advance the epochs' refinement while the writer derives
  // each successor from them.
  SessionStore store;
  store.put("g", lapx::graph::torus({4, 4}))->homogeneity(1);
  lapx::graph::Graph cut_graph = lapx::graph::torus({4, 4});
  const std::vector<EdgeEdit> cut_edit{{EdgeEdit::Kind::kRemove, 0, 1}};
  lapx::graph::apply_edits(cut_graph, cut_edit);
  const auto healed_report = scratch_homogeneity(lapx::graph::torus({4, 4}), 1);
  const auto cut_report = scratch_homogeneity(cut_graph, 1);
  constexpr int kMutations = 40;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::vector<EdgeEdit> cut{{EdgeEdit::Kind::kRemove, 0, 1}};
    std::vector<EdgeEdit> heal{{EdgeEdit::Kind::kAdd, 0, 1}};
    std::uint64_t last = 1;
    for (int i = 0; i < kMutations; ++i) {
      const auto e = store.mutate("g", i % 2 == 0 ? cut : heal);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->epoch(), last + 1);
      last = e->epoch();
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      // Pin an epoch up front: the writer may finish all its mutations
      // before this thread gets scheduled, so the loop below can be empty.
      const std::shared_ptr<const GraphEntry> oldest = store.get("g");
      ASSERT_NE(oldest, nullptr);
      std::uint64_t seen = oldest->epoch();
      while (!done.load()) {
        const auto e = store.get("g");
        ASSERT_NE(e, nullptr);
        // Epochs only move forward under a single writer.
        EXPECT_GE(e->epoch(), seen);
        seen = e->epoch();
        // Entry-internal consistency: epoch parity decides whether the
        // {0,1} edge is present (writer alternates cut/heal from epoch 2).
        const std::size_t m = e->graph().num_edges();
        EXPECT_EQ(m, e->epoch() % 2 == 0 ? 31u : 32u);
        EXPECT_EQ(e->view_types(1).size(), 16u);
        // One radius past what this epoch can hold (its parent was asked
        // for at most radius epoch()): the query advances the epoch while
        // the writer may be deriving the next one from it.
        const int deeper = static_cast<int>(e->epoch()) + 1;
        EXPECT_EQ(e->view_types(deeper),
                  lapx::core::bulk_view_type_ids(e->ldigraph(), deeper));
        // Homogeneity reads the classes the writer forks from this epoch.
        expect_same_report(e->homogeneity(1),
                           e->epoch() % 2 == 0 ? cut_report : healed_report);
      }
      // The first pinned epoch is still fully usable after ~kMutations
      // replacements.
      EXPECT_EQ(oldest->graph().num_vertices(), 16);
      EXPECT_EQ(oldest->view_types(1).size(), 16u);
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(store.stats().mutated, static_cast<std::uint64_t>(kMutations));
}

TEST(SessionStore, ConcurrentMutatesOfOneNameGetConsecutiveEpochs) {
  // Mutations serialize per session: writers racing on one name must each
  // derive from the latest epoch (a writer that waited while the binding
  // moved on retries), so the epochs they get back are exactly
  // 2..1+writers*kMutations with no sibling installed twice.
  SessionStore store;
  store.put("g", lapx::graph::torus({4, 4}));
  constexpr int kMutations = 24;  // even: each writer ends on a remove
  // One absent edge per writer; each toggles only its own, so every edit
  // is valid in any interleaving.
  const std::vector<std::pair<int, int>> edges = {
      {0, 10}, {1, 11}, {2, 8}, {3, 9}};
  std::vector<std::vector<std::uint64_t>> epochs(edges.size());
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < edges.size(); ++w) {
    writers.emplace_back([&, w] {
      const auto [u, v] = edges[w];
      for (int i = 0; i < kMutations; ++i) {
        const EdgeEdit::Kind kind =
            i % 2 == 0 ? EdgeEdit::Kind::kAdd : EdgeEdit::Kind::kRemove;
        const std::vector<EdgeEdit> edit{{kind, u, v}};
        const auto e = store.mutate("g", edit);
        ASSERT_NE(e, nullptr);
        epochs[w].push_back(e->epoch());
      }
    });
  }
  for (auto& w : writers) w.join();
  std::vector<std::uint64_t> all;
  for (const auto& e : epochs) all.insert(all.end(), e.begin(), e.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), edges.size() * kMutations);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i + 2);
  // Every writer ended on a remove, so the final epoch is the torus again.
  EXPECT_EQ(store.get("g")->graph().num_edges(), 32u);
  EXPECT_EQ(store.get("g")->epoch(), 1 + all.size());
}

TEST(SessionStore, PutDuringMutateIsNotLost) {
  // A put that lands while a mutate of the same name derives its next
  // epoch must survive: the mutate re-checks the binding at install and
  // rederives from the put's entry (or fails with MutationError when its
  // batch is invalid there).  A 9000-vertex lift with materialized
  // radius-3 views makes every derive -- graph copy, edge-list text,
  // state fork and delta -- take milliseconds, so puts land inside that
  // window.  Every successful call must own its own epoch: exactly 1..N.
  SessionStore store;
  const lapx::graph::Graph lift = lapx::graph::lifted_torus(3, 3, 1000, 1);
  const auto [u, v] = lift.edges().front();
  constexpr int kPuts = 12;
  std::mutex epochs_mu;
  std::vector<std::uint64_t> epochs;
  const auto record = [&](std::uint64_t epoch) {
    std::lock_guard<std::mutex> lock(epochs_mu);
    epochs.push_back(epoch);
  };
  const auto first = store.put("g", lift);
  first->view_types(3);
  record(first->epoch());
  std::atomic<bool> done{false};
  std::thread putter([&] {
    for (int i = 0; i < kPuts; ++i) {
      const auto e = store.put("g", lift);
      e->view_types(3);
      record(e->epoch());
    }
    done.store(true);
  });
  std::thread mutator([&] {
    const std::vector<EdgeEdit> cut{{EdgeEdit::Kind::kRemove, u, v}};
    const std::vector<EdgeEdit> heal{{EdgeEdit::Kind::kAdd, u, v}};
    for (int i = 0; !done.load(); ++i) {
      try {
        const auto e = store.mutate("g", i % 2 == 0 ? cut : heal);
        ASSERT_NE(e, nullptr);
        record(e->epoch());
      } catch (const lapx::graph::MutationError&) {
        // A put restored the edge this heal adds: the batch is invalid
        // on the new binding.
      }
    }
  });
  putter.join();
  mutator.join();
  std::sort(epochs.begin(), epochs.end());
  std::vector<std::uint64_t> expected(epochs.size());
  std::iota(expected.begin(), expected.end(), std::uint64_t{1});
  EXPECT_EQ(epochs, expected) << "an epoch was issued twice or skipped";
  EXPECT_EQ(store.get("g")->epoch(), epochs.size());
}

TEST(SessionStore, ConcurrentOverwriteDropAndEvictionBesideReaders) {
  // Writers overwrite, drop and LRU-evict their own sessions -- each
  // displaced entry carrying a materialized RefineState, so its release
  // frees real memory -- while readers resolve other names.  The store
  // releases displaced entries after dropping its mutex; under TSan this
  // runs at full pool width.  Readers check that whatever they resolve is
  // internally consistent and stays usable while pinned.
  constexpr std::size_t kCap = 6;
  SessionStore store(capped(kCap));
  const std::vector<std::string> readers_names = {"r0", "r1"};
  for (const auto& name : readers_names)
    store.put(name, lapx::graph::torus({4, 4}))->view_types(1);
  constexpr int kWriters = 3;
  constexpr int kRounds = 200;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string mine = "w" + std::to_string(w);
      for (int i = 0; i < kRounds; ++i) {
        // Overwrite: a new epoch of `mine` displaces the previous one.
        store.put(mine, lapx::graph::cycle(8 + i % 4))->view_types(2);
        store.put(mine, lapx::graph::torus({3, 4 + i % 3}))->view_types(2);
        // Fresh names push the least recently used bindings out.
        const std::string extra = mine + "-" + std::to_string(i);
        store.put(extra, lapx::graph::cycle(5 + i % 6))->view_types(1);
        if (i % 3 == 0) store.drop(mine);
        if (i % 2 == 0) store.drop(extra);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (const auto& name : readers_names) {
    threads.emplace_back([&, name] {
      std::shared_ptr<const GraphEntry> pinned;
      while (writers_left.load() > 0) {
        // A reader's name may itself fall off the LRU tail; an entry it
        // does resolve is the torus it was bound to.
        const auto e = store.get(name);
        if (e == nullptr) continue;
        EXPECT_EQ(e->graph().num_vertices(), 16);
        EXPECT_EQ(e->view_types(1).size(), 16u);
        if (!pinned) pinned = e;
      }
      if (pinned) {
        EXPECT_EQ(pinned->view_types(2).size(), 16u);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto s = store.stats();
  EXPECT_LE(s.resident, kCap);
  EXPECT_EQ(s.resident, store.names().size());
  // Every binding ever made is resident or left exactly one way.
  EXPECT_EQ(s.inserted, s.resident + s.evicted + s.dropped + s.overwritten);
  EXPECT_GT(s.evicted, 0u);
  EXPECT_GT(s.overwritten, 0u);
  EXPECT_GT(s.dropped, 0u);
}

}  // namespace
