// Tests for the synchronous message-passing engine and the full-information
// protocol, including the central equivalence: r rounds of full-information
// exchange reconstruct exactly the truncated view tau(T(G, v)).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "lapx/algorithms/cole_vishkin.hpp"
#include "lapx/core/model.hpp"
#include "lapx/core/view.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/runtime/engine.hpp"
#include "lapx/runtime/gather.hpp"
#include "lapx/runtime/parallel.hpp"

namespace {

using namespace lapx::runtime;
using lapx::graph::Graph;
using lapx::graph::Orientation;
using lapx::graph::PortNumbering;

// A toy program: floods the minimum input seen so far.
class MinFlood : public NodeProgram {
 public:
  void init(const NodeEnv& env) override { min_ = env.input; }
  Message message_for_port(int) const override { return std::to_string(min_); }
  void receive(const std::vector<Message>& inbox) override {
    for (const Message& m : inbox)
      min_ = std::min(min_, static_cast<std::int64_t>(std::stoll(m)));
  }
  std::int64_t output() const override { return min_; }

 private:
  std::int64_t min_ = 0;
};

TEST(Engine, MinFloodConvergesInDiameterRounds) {
  const Graph g = lapx::graph::cycle(10);
  const auto pn = PortNumbering::default_for(g);
  const auto orient = Orientation::default_for(g);
  std::vector<std::int64_t> inputs{9, 4, 7, 1, 8, 6, 2, 5, 3, 0};
  const auto result = run_synchronous(
      g, pn, orient, [] { return std::make_unique<MinFlood>(); }, inputs, 5);
  EXPECT_EQ(result.rounds, 5);
  // diameter of C10 is 5: everyone must know the global minimum 0.
  for (auto out : result.outputs) EXPECT_EQ(out, 0);
  EXPECT_EQ(result.messages_delivered, 10u * 2u * 5u);
}

TEST(Engine, ZeroRoundsMeansLocalInputOnly) {
  const Graph g = lapx::graph::path(4);
  const auto result = run_synchronous(
      g, PortNumbering::default_for(g), Orientation::default_for(g),
      [] { return std::make_unique<MinFlood>(); }, {3, 2, 1, 0}, 0);
  EXPECT_EQ(result.outputs, (std::vector<std::int64_t>{3, 2, 1, 0}));
}

TEST(Knowledge, SerializationRoundTrip) {
  Knowledge k = Knowledge::initial(2, {true, false});
  k.set_root_link(0, 1, Knowledge::initial(1, {false}));
  const Knowledge parsed = Knowledge::parse(k.serialize());
  EXPECT_EQ(parsed.serialize(), k.serialize());
  const auto root = parsed.root();
  EXPECT_EQ(root.degree(), 2);
  EXPECT_TRUE(root.outgoing(0));
  EXPECT_FALSE(root.outgoing(1));
  EXPECT_EQ(root.remote_port(0), 1);
  EXPECT_EQ(root.remote_port(1), -1);
  ASSERT_TRUE(root.has_neighbor(0));
  EXPECT_FALSE(root.has_neighbor(1));
  EXPECT_EQ(root.neighbor(0).degree(), 1);
}

// The headline equivalence of experiment E11.
class FullInfoEquivalence
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

TEST_P(FullInfoEquivalence, KnowledgeEqualsView) {
  const auto [family, r] = GetParam();
  std::mt19937_64 rng(101);
  Graph g = std::string(family) == "cycle"   ? lapx::graph::cycle(11)
            : std::string(family) == "petersen" ? lapx::graph::petersen()
                                               : lapx::graph::random_regular(
                                                     14, 3, rng);
  const auto pn = PortNumbering::default_for(g);
  const auto orient = Orientation::default_for(g);
  const int delta = g.max_degree();
  const auto ld = lapx::graph::to_ldigraph(g, pn, orient, delta);
  const auto knowledge = gather_full_information(g, pn, orient, r);
  for (lapx::graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(knowledge_view_type(knowledge[v], r, delta),
              lapx::core::view_type(lapx::core::view(ld, v, r)))
        << family << " v=" << v << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndRadii, FullInfoEquivalence,
    ::testing::Values(std::pair{"cycle", 0}, std::pair{"cycle", 1},
                      std::pair{"cycle", 3}, std::pair{"petersen", 1},
                      std::pair{"petersen", 2}, std::pair{"random", 1},
                      std::pair{"random", 2}, std::pair{"random", 3}));

TEST(ColeVishkin, ProducesProper3Coloring) {
  std::mt19937_64 rng(5);
  for (int n : {3, 10, 100, 1000}) {
    std::vector<std::int64_t> ids(n);
    std::iota(ids.begin(), ids.end(), 1);
    std::shuffle(ids.begin(), ids.end(), rng);
    const auto result = lapx::algorithms::cole_vishkin_3coloring(ids);
    EXPECT_TRUE(lapx::algorithms::is_proper_cycle_coloring(result.colors))
        << n;
    for (int c : result.colors) EXPECT_LT(c, 3);
  }
}

TEST(ColeVishkin, RoundsGrowAsLogStar) {
  // The bit trick halves the bit length each round: rounds stay tiny even
  // for huge identifier spaces.
  std::mt19937_64 rng(9);
  std::vector<std::int64_t> ids(1 << 14);
  std::iota(ids.begin(), ids.end(), 1);
  for (auto& id : ids) id *= 1000003;  // spread over ~44 bits
  std::shuffle(ids.begin(), ids.end(), rng);
  const auto result = lapx::algorithms::cole_vishkin_3coloring(ids);
  EXPECT_TRUE(lapx::algorithms::is_proper_cycle_coloring(result.colors));
  EXPECT_LE(result.rounds, 10);  // ~ log* + constant
}

TEST(ColeVishkin, MisFromColoringIsMaximalIndependent) {
  std::mt19937_64 rng(13);
  std::vector<std::int64_t> ids(200);
  std::iota(ids.begin(), ids.end(), 7);
  std::shuffle(ids.begin(), ids.end(), rng);
  const auto coloring = lapx::algorithms::cole_vishkin_3coloring(ids);
  int rounds = coloring.rounds;
  const auto mis =
      lapx::algorithms::mis_from_coloring(coloring.colors, &rounds);
  EXPECT_TRUE(lapx::algorithms::is_cycle_mis(mis));
  EXPECT_EQ(rounds, coloring.rounds + 3);
}

TEST(ColeVishkin, LogStarValues) {
  EXPECT_EQ(lapx::algorithms::log_star(1), 0);
  EXPECT_EQ(lapx::algorithms::log_star(2), 1);
  EXPECT_EQ(lapx::algorithms::log_star(4), 2);
  EXPECT_EQ(lapx::algorithms::log_star(16), 3);
  EXPECT_EQ(lapx::algorithms::log_star(65536), 4);
}

}  // namespace

namespace {

// run_po_via_messages must equal run_po on the corresponding L-digraph for
// any PO algorithm -- message passing and the neighbourhood oracle are the
// same model (Section 2).
TEST(RunPoViaMessages, EqualsOracleEvaluation) {
  std::mt19937_64 rng(303);
  for (int which = 0; which < 3; ++which) {
    const Graph g = which == 0   ? lapx::graph::cycle(12)
                    : which == 1 ? lapx::graph::petersen()
                                 : lapx::graph::random_regular(16, 3, rng);
    const auto pn = PortNumbering::default_for(g);
    const auto orient = Orientation::default_for(g);
    const int delta = g.max_degree();
    const auto ld = lapx::graph::to_ldigraph(g, pn, orient, delta);
    // A discriminating PO algorithm: hash of the canonical view type.
    const lapx::core::VertexPoAlgorithm algo =
        [](const lapx::core::ViewTree& t) {
          return static_cast<int>(
              std::hash<std::string>{}(lapx::core::view_type(t)) % 2);
        };
    for (int r : {0, 1, 2, 3}) {
      EXPECT_EQ(run_po_via_messages(g, pn, orient, algo, r, delta),
                lapx::core::run_po(ld, algo, r))
          << "which=" << which << " r=" << r;
    }
  }
}

// The gather entry points validate the port numbering as run_synchronous
// does: a duplicated port and a port naming a non-neighbour throw
// invalid_argument instead of gathering garbage or escaping as
// std::out_of_range.
TEST(RunPoViaMessages, RejectsInvalidPortNumberings) {
  const Graph g = lapx::graph::cycle(6);
  const auto orient = Orientation::default_for(g);
  const lapx::core::VertexPoAlgorithm algo =
      [](const lapx::core::ViewTree&) { return 0; };
  PortNumbering duplicated = PortNumbering::default_for(g);
  duplicated.ports[0][1] = duplicated.ports[0][0];
  PortNumbering non_neighbour = PortNumbering::default_for(g);
  non_neighbour.ports[0][1] = 3;  // vertex 0's neighbours in C6 are 1 and 5
  for (const PortNumbering* pn : {&duplicated, &non_neighbour}) {
    EXPECT_THROW(gather_full_information(g, *pn, orient, 1),
                 std::invalid_argument);
    EXPECT_THROW(run_po_via_messages(g, *pn, orient, algo, 1, 2),
                 std::invalid_argument);
  }
}

// Shared environment-integer parser (runtime/parallel.hpp): the strict
// replacement for the atoi calls that silently truncated LAPX_THREADS=8x
// to 8.  Full consumption, range check, no partial writes on failure.
TEST(ParseEnvInt, AcceptsExactIntegersInRange) {
  long long v = -1;
  EXPECT_TRUE(detail::parse_env_int("8", 1, 1024, &v));
  EXPECT_EQ(v, 8);
  EXPECT_TRUE(detail::parse_env_int("1", 1, 1024, &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(detail::parse_env_int("1024", 1, 1024, &v));
  EXPECT_EQ(v, 1024);
  EXPECT_TRUE(detail::parse_env_int("-3", -10, 10, &v));
  EXPECT_EQ(v, -3);
  EXPECT_TRUE(detail::parse_env_int("0", 0, 0, &v));
  EXPECT_EQ(v, 0);
}

TEST(ParseEnvInt, RejectsJunkWithoutWriting) {
  const auto rejected = [](const char* s, long long lo, long long hi) {
    long long v = 12345;  // sentinel: must be untouched on failure
    const bool ok = detail::parse_env_int(s, lo, hi, &v);
    EXPECT_EQ(v, 12345) << "parse_env_int wrote on failure for \"" << s
                        << "\"";
    return ok;
  };
  EXPECT_FALSE(rejected("8x", 1, 1024));     // trailing junk
  EXPECT_FALSE(rejected("x8", 1, 1024));     // leading junk
  EXPECT_FALSE(rejected("", 1, 1024));       // empty
  EXPECT_FALSE(rejected(nullptr, 1, 1024));  // unset
  EXPECT_FALSE(rejected("8 ", 1, 1024));     // trailing space
  EXPECT_FALSE(rejected(" 8", 1, 1024));     // leading space
  EXPECT_FALSE(rejected("\t8", 1, 1024));    // leading tab
  EXPECT_FALSE(rejected(" ", 1, 1024));      // whitespace only
  EXPECT_FALSE(rejected("2.5", 1, 1024));    // not an integer
  EXPECT_FALSE(rejected("1e3", 1, 1024));    // no scientific notation
  EXPECT_FALSE(rejected("0x10", 1, 1024));   // no hex
  EXPECT_FALSE(rejected("0", 1, 1024));      // below range
  EXPECT_FALSE(rejected("1025", 1, 1024));   // above range
  EXPECT_FALSE(rejected("99999999999999999999", 1,  // overflows long long
                        std::numeric_limits<long long>::max()));
  EXPECT_FALSE(rejected("-1", 0, 10));
}

// Back-to-back small jobs at 8 threads: a worker's last reads of job N
// (the chunk count, the caller's function object) must happen-before job
// N+1's coordinator rewrites them -- whether that is the same caller or
// another one that won the pool.  TSan (the sanitizer ctest leg) checks
// the ordering; the sums check every chunk ran exactly once.  Sizes cycle
// so consecutive jobs publish different chunk counts.
void hammer_small_jobs(int jobs, std::int64_t salt, std::atomic<int>* wrong) {
  for (int j = 0; j < jobs; ++j) {
    const std::int64_t n = 32 + (j % 9) * 29;  // 32..264 -> 32..256 chunks
    std::vector<std::int64_t> out(static_cast<std::size_t>(n), -1);
    parallel_for(n, [&](std::int64_t i) {
      out[static_cast<std::size_t>(i)] = i * salt + j;
    });
    const auto value = [&](std::int64_t i) {
      return out[static_cast<std::size_t>(i)];
    };
    const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };
    const std::int64_t sum = parallel_reduce(n, std::int64_t{0}, value, add);
    if (sum != salt * n * (n - 1) / 2 + n * j) wrong->fetch_add(1);
  }
}

TEST(PoolStress, BackToBackSmallJobsOneCaller) {
  set_thread_count(8);
  std::atomic<int> wrong{0};
  hammer_small_jobs(30000, 3, &wrong);
  set_thread_count(0);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(PoolStress, BackToBackSmallJobsTwoRacingCallers) {
  set_thread_count(8);
  std::atomic<int> wrong{0};
  std::thread other([&] { hammer_small_jobs(20000, 5, &wrong); });
  hammer_small_jobs(20000, 7, &wrong);
  other.join();
  set_thread_count(0);
  EXPECT_EQ(wrong.load(), 0);
}

// parallel_reduce<bool> at 8 threads over 256 one-element chunks: chunk
// partials written from different threads must never share a word (a
// std::vector<bool> would pack 64 of them into one), or one chunk's false
// can be lost under a neighbour's read-modify-write.  TSan flags the
// shared word on any run; the result check catches a lost write.
TEST(PoolStress, BoolReducePartialsNeverShareAWord) {
  set_thread_count(8);
  int wrong = 0;
  for (int round = 0; round < 20; ++round)
    for (std::int64_t p = 0; p < 256; ++p) {
      const bool all = parallel_reduce(
          256, true, [&](std::int64_t i) { return i != p; },
          [](bool a, bool b) { return a && b; });
      if (all) ++wrong;
    }
  set_thread_count(0);
  EXPECT_EQ(wrong, 0);
}

// The pool never shrinks, so after a job at 8 threads seven workers stay
// alive; a job at thread_count() 2 must still run on at most 2 threads.
// Each chunk sleeps, so any surplus worker that joined would win some.
TEST(PoolStress, LoweredThreadCountCapsParticipants) {
  set_thread_count(8);
  parallel_for(256, [](std::int64_t) {});
  set_thread_count(2);
  std::vector<std::thread::id> ran(256);
  parallel_for(256, [&](std::int64_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    ran[static_cast<std::size_t>(i)] = std::this_thread::get_id();
  });
  set_thread_count(0);
  std::sort(ran.begin(), ran.end());
  const auto distinct = std::unique(ran.begin(), ran.end()) - ran.begin();
  EXPECT_LE(distinct, 2) << "thread_count()=2 but the job ran on "
                         << distinct << " threads";
}

TEST(RunPoViaMessages, ReconstructedViewsAreExact) {
  const Graph g = lapx::graph::petersen();
  const auto pn = PortNumbering::default_for(g);
  const auto orient = Orientation::default_for(g);
  const auto ld = lapx::graph::to_ldigraph(g, pn, orient, 3);
  const auto knowledge = gather_full_information(g, pn, orient, 2);
  for (lapx::graph::Vertex v = 0; v < 10; ++v) {
    const auto reconstructed = knowledge_to_view(knowledge[v], 2, 3);
    EXPECT_EQ(lapx::core::view_type(reconstructed),
              lapx::core::view_type(lapx::core::view(ld, v, 2)));
  }
}

}  // namespace
