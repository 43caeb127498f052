// LAPXOOC1 out-of-core graphs (graph/ooc.hpp): round-trip fidelity on the
// experiment families, fail-closed validation on every corruption we can
// craft (truncation, bad magic, checksum mismatches, foreign versions, a
// file shorter than its own header claims, well-checksummed step CSRs
// that describe no valid L-digraph, seeded generated damage), TypeId-identical
// streaming refinement, and the service `open` op (seeded request streams
// byte-identical to the in-memory path, non-regular paths refused without
// blocking, the mutate rejection, and the materialization cap).

#include <gtest/gtest.h>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "lapx/core/refine.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/ooc.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/group/homogeneous.hpp"
#include "lapx/runtime/parallel.hpp"
#include "lapx/service/service.hpp"

namespace {

using lapx::core::RefineState;
using lapx::core::TypeId;
using lapx::core::TypeInterner;
using lapx::graph::LDigraph;
using lapx::graph::OocError;
using lapx::graph::OocGraph;
using lapx::graph::StepCsr;
using lapx::graph::Vertex;

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/lapx-ooc-XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (DIR* d = ::opendir(path.c_str())) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..")
          ::unlink((path + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
  std::string path;
};

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Recomputes the payload checksum (byte 56) and then the header checksum
// (byte 64), so crafted payload bytes reach the structural checks.
void reseal(std::vector<unsigned char>& bytes) {
  if (bytes.size() < 128) return;
  const std::uint64_t payload =
      lapx::graph::fnv1a64(bytes.data() + 128, bytes.size() - 128);
  std::memcpy(bytes.data() + 56, &payload, 8);
  const std::uint64_t header = lapx::graph::fnv1a64(bytes.data(), 64);
  std::memcpy(bytes.data() + 64, &header, 8);
}

// Writes `ld` to `path`, then replaces the file's step CSR with `csr`
// (same vertex and step counts) and reseals it: a crafted payload that
// reaches the structural checks.
void write_crafted(const std::string& path, const LDigraph& ld,
                   const StepCsr& csr) {
  lapx::graph::write_ooc_graph(path, ld);
  auto bytes = read_file(path);
  std::size_t at = 128;
  for (const auto* seg : {&csr.off, &csr.succ, &csr.nbr, &csr.move_bits}) {
    std::memcpy(bytes.data() + at, seg->data(), seg->size() * 4);
    at += (seg->size() * 4 + 7) / 8 * 8;
  }
  reseal(bytes);
  write_file(path, bytes);
}

// Swaps steps a and b of one span and re-points their inverse steps, so
// the only broken invariant is the span's move order.
void swap_steps(StepCsr& csr, std::uint32_t a, std::uint32_t b) {
  std::swap(csr.succ[a], csr.succ[b]);
  std::swap(csr.nbr[a], csr.nbr[b]);
  std::swap(csr.move_bits[a], csr.move_bits[b]);
  csr.succ[csr.succ[a]] = a;
  csr.succ[csr.succ[b]] = b;
}

// Opening `path` must throw OocError naming `why`.
void expect_refused(const std::string& path, const std::string& why) {
  try {
    OocGraph g(path);
    ADD_FAILURE() << "accepted a file that should fail with: " << why;
  } catch (const OocError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

LDigraph lifted_torus_ld(int layers, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return lapx::graph::random_lift(
             lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})), layers, rng)
      .graph;
}

// Write + reopen must reproduce the labelled digraph arc for arc and carry
// the exact step CSR the in-memory engine would build.
void expect_round_trip(const LDigraph& ld, const std::string& path) {
  lapx::graph::write_ooc_graph(path, ld);
  const OocGraph g(path);
  ASSERT_EQ(g.num_vertices(), ld.num_vertices());
  ASSERT_EQ(g.num_arcs(), ld.num_arcs());
  ASSERT_EQ(g.alphabet_size(), ld.alphabet_size());
  ASSERT_EQ(g.num_steps(), 2 * ld.num_arcs());
  const LDigraph back = g.materialize();
  for (Vertex v = 0; v < ld.num_vertices(); ++v) {
    const auto a_out = ld.out_arcs(v), b_out = back.out_arcs(v);
    const auto a_in = ld.in_arcs(v), b_in = back.in_arcs(v);
    ASSERT_TRUE(
        std::equal(a_out.begin(), a_out.end(), b_out.begin(), b_out.end()))
        << "out-arcs differ at vertex " << v;
    ASSERT_TRUE(std::equal(a_in.begin(), a_in.end(), b_in.begin(), b_in.end()))
        << "in-arcs differ at vertex " << v;
  }
  const StepCsr csr = lapx::graph::build_step_csr(ld);
  const auto span_eq = [](auto span, const auto& vec) {
    return span.size() == vec.size() &&
           std::equal(span.begin(), span.end(), vec.begin());
  };
  EXPECT_TRUE(span_eq(g.step_off(), csr.off));
  EXPECT_TRUE(span_eq(g.step_succ(), csr.succ));
  EXPECT_TRUE(span_eq(g.step_nbr(), csr.nbr));
  EXPECT_TRUE(span_eq(g.step_move_bits(), csr.move_bits));
}

TEST(OocFormat, Fnv1a64SeedIsPinned) {
  // Every LAPXOOC1 checksum starts from this seed (one digit short of the
  // reference offset basis; see ooc.hpp).
  EXPECT_EQ(lapx::graph::fnv1a64("", 0), 1469598103934665603ull);
}

TEST(OocService, ContentIdIsThePayloadDigest) {
  // An ooc session's id is "ooc:" + BLAKE2b-256 of the file's payload,
  // pinned from Python's hashlib over what `lapx_cli graph-convert F
  // --family torus 3 3` writes:
  //   hashlib.blake2b(open(F, "rb").read()[128:],
  //                   digest_size=32).hexdigest()
  TempDir dir;
  const std::string path = dir.path + "/torus.lapxooc";
  lapx::graph::write_ooc_graph(
      path, lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})));
  lapx::service::SessionStore store;
  const auto entry = store.open_ooc("t", path);
  EXPECT_EQ(entry->content_id(),
            "ooc:e53120d3a03f945ce4455fdbbaecbf6bc387ae7883800a2892151ef220b3"
            "17c5");
  EXPECT_EQ(entry->content_hex(), "e53120d3a03f945c");
}

TEST(OocFormat, RoundTripTorus) {
  TempDir dir;
  expect_round_trip(lapx::graph::to_ldigraph(lapx::graph::torus({4, 5})),
                    dir.path + "/torus.lapxooc");
}

TEST(OocFormat, RoundTripRandomLift) {
  TempDir dir;
  expect_round_trip(lifted_torus_ld(7, 42), dir.path + "/lift.lapxooc");
}

TEST(OocFormat, RoundTripHighGirthWreath) {
  // A Theorem 3.2 homogeneous instance: non-trivial alphabet, asymmetric
  // in/out degrees per label -- the step CSR's hardest ordering case.
  std::mt19937_64 rng(11);
  auto spec = lapx::group::design_homogeneous(1, 2, 4, rng);
  ASSERT_TRUE(spec.has_value());
  spec->m = 4;
  const auto h = lapx::group::materialize_homogeneous(
      *spec, 1 << 20, /*take_component=*/true);
  TempDir dir;
  expect_round_trip(h.digraph, dir.path + "/wreath.lapxooc");
}

TEST(OocFormat, RoundTripEmptyAndIsolated) {
  TempDir dir;
  expect_round_trip(LDigraph(0, 2), dir.path + "/empty.lapxooc");
  expect_round_trip(LDigraph(5, 3), dir.path + "/isolated.lapxooc");
}

// ------------------------------------------------- fail-closed reader --

TEST(OocFormat, MissingFileFailsClosed) {
  EXPECT_THROW(OocGraph{"/nonexistent/nope.lapxooc"}, OocError);
}

TEST(OocFormat, TruncatedHeaderFailsClosed) {
  TempDir dir;
  const std::string path = dir.path + "/short.lapxooc";
  write_file(path, std::vector<unsigned char>(64, 0));
  EXPECT_THROW(OocGraph{path}, OocError);
}

TEST(OocFormat, BadMagicFailsClosed) {
  TempDir dir;
  const std::string path = dir.path + "/g.lapxooc";
  lapx::graph::write_ooc_graph(
      path, lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})));
  auto bytes = read_file(path);
  bytes[0] ^= 0xff;
  write_file(path, bytes);
  EXPECT_THROW(OocGraph{path}, OocError);
}

TEST(OocFormat, HeaderChecksumMismatchFailsClosed) {
  TempDir dir;
  const std::string path = dir.path + "/g.lapxooc";
  lapx::graph::write_ooc_graph(
      path, lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})));
  auto bytes = read_file(path);
  bytes[16] ^= 0x01;  // n field; header checksum now stale
  write_file(path, bytes);
  EXPECT_THROW(OocGraph{path}, OocError);
}

TEST(OocFormat, UnknownVersionFailsClosed) {
  // Version 1 (which also stored the adjacency) and a future version 3.
  TempDir dir;
  const std::string path = dir.path + "/g.lapxooc";
  for (const std::uint32_t version : {1u, 3u}) {
    lapx::graph::write_ooc_graph(
        path, lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})));
    auto bytes = read_file(path);
    std::memcpy(bytes.data() + 8, &version, 4);
    // Recompute the header checksum so the version check itself fires.
    const std::uint64_t sum = lapx::graph::fnv1a64(bytes.data(), 64);
    std::memcpy(bytes.data() + 64, &sum, 8);
    write_file(path, bytes);
    expect_refused(path, "unsupported version " + std::to_string(version));
  }
}

TEST(OocFormat, PayloadCorruptionFailsClosed) {
  TempDir dir;
  const std::string path = dir.path + "/g.lapxooc";
  lapx::graph::write_ooc_graph(
      path, lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})));
  auto bytes = read_file(path);
  bytes[200] ^= 0x04;  // inside the payload
  write_file(path, bytes);
  EXPECT_THROW(OocGraph{path}, OocError);
}

TEST(OocFormat, TruncatedPayloadFailsClosed) {
  // A file shorter than its own header claims must be rejected up front --
  // a short mmap would otherwise SIGBUS on first access past EOF.
  TempDir dir;
  const std::string path = dir.path + "/g.lapxooc";
  lapx::graph::write_ooc_graph(path, lifted_torus_ld(3, 1));
  auto bytes = read_file(path);
  bytes.resize(bytes.size() / 2);
  write_file(path, bytes);
  EXPECT_THROW(OocGraph{path}, OocError);
}

// A torus file whose first vertex with two out-steps gives the second
// the first one's label, with both checksums recomputed: every range
// check passes, but LDigraph::from_arcs would reject the graph.
void write_repeated_out_label(const std::string& path) {
  const LDigraph ld = lapx::graph::to_ldigraph(lapx::graph::torus({3, 3}));
  StepCsr csr = lapx::graph::build_step_csr(ld);
  for (Vertex v = 0; v < ld.num_vertices(); ++v) {
    if (ld.out_degree(v) < 2) continue;
    const std::uint32_t first = csr.off[v + 1] - 2;  // out-steps end a span
    csr.move_bits[first + 1] = csr.move_bits[first];
    break;
  }
  write_crafted(path, ld, csr);
}

TEST(OocFormat, RepeatedOutLabelFailsClosed) {
  TempDir dir;
  const std::string path = dir.path + "/dup.lapxooc";
  write_repeated_out_label(path);
  EXPECT_THROW(OocGraph{path}, OocError);
}

// Each crafted step CSR below breaks one invariant of the files the
// writer emits, with both checksums resealed, and must fail closed.

TEST(OocFormat, NonInvolutiveSuccFailsClosed) {
  // Out-steps 0 -> 2 and 1 -> 2 both lead to vertex 2's one in-step,
  // which leads back to 1 (likewise 3 -> 4 <- 5): every successor is in
  // the right span with the inverse move, but succ is not an involution,
  // and the out-steps would repeat an in-label.  The file is written for
  // the valid arcs 0 -> 2, 1 -> 3 and 4 -> 5 (same counts).
  TempDir dir;
  const std::string path = dir.path + "/succ.lapxooc";
  StepCsr csr;
  csr.off = {0, 1, 2, 3, 4, 5, 6};
  csr.succ = {2, 2, 1, 4, 5, 4};
  csr.nbr = {2, 2, 1, 4, 5, 4};
  csr.move_bits = {0x80000000u, 0x80000000u, 0, 0x80000000u, 0, 0x80000000u};
  write_crafted(path,
                LDigraph::from_arcs(6, 1, {{0, 2, 0}, {1, 3, 0}, {4, 5, 0}}),
                csr);
  expect_refused(path, "not the inverse step");
}

TEST(OocFormat, BadStepOffsetsFailClosed) {
  // Offsets that start above zero, decrease, or stop short of the steps
  // would leave steps outside every span or read past the segments.
  TempDir dir;
  const std::string path = dir.path + "/off.lapxooc";
  const LDigraph ld = lapx::graph::to_ldigraph(lapx::graph::torus({3, 3}));
  const StepCsr good = lapx::graph::build_step_csr(ld);
  const auto steps = static_cast<std::uint32_t>(good.succ.size());
  for (const auto& [at, value, why] :
       {std::tuple<std::size_t, std::uint32_t, std::string>{
            0, 1, "do not start at zero"},
        {1, steps + 1, "non-monotone"},
        {9, steps - 1, "do not cover"}}) {
    StepCsr csr = good;
    csr.off[at] = value;
    write_crafted(path, ld, csr);
    expect_refused(path, why);
  }
}

TEST(OocFormat, OutOfRangeNeighbourFailsClosed) {
  TempDir dir;
  const std::string path = dir.path + "/nbr.lapxooc";
  const LDigraph ld = lapx::graph::to_ldigraph(lapx::graph::torus({3, 3}));
  StepCsr csr = lapx::graph::build_step_csr(ld);
  csr.nbr[5] = static_cast<std::uint32_t>(ld.num_vertices());
  write_crafted(path, ld, csr);
  expect_refused(path, "out of range");
}

TEST(OocFormat, SelfLoopStepFailsClosed) {
  // Vertex 0's first step returns to vertex 0; vertex 0 is checked first,
  // so the self-loop is the first invariant found broken.
  TempDir dir;
  const std::string path = dir.path + "/loop.lapxooc";
  const LDigraph ld = lapx::graph::to_ldigraph(lapx::graph::torus({3, 3}));
  StepCsr csr = lapx::graph::build_step_csr(ld);
  csr.nbr[0] = 0;
  write_crafted(path, ld, csr);
  expect_refused(path, "self-loop");
}

TEST(OocFormat, TwoOutStepsToOneNeighbourFailClosed) {
  // Arcs 0 -> 1 labelled 0 and 1: a step CSR consistent in every other
  // respect (each step's successor is its inverse), of a file written for
  // the valid arcs 0 -> 1 and 1 -> 0 (same counts).
  TempDir dir;
  const std::string path = dir.path + "/parallel.lapxooc";
  StepCsr csr;
  csr.off = {0, 2, 4};
  csr.succ = {2, 3, 0, 1};
  csr.nbr = {1, 1, 0, 0};
  csr.move_bits = {0x80000000u, 0x80000001u, 0, 1};
  write_crafted(path,
                LDigraph::from_arcs(2, 2, {{0, 1, 0}, {1, 0, 1}}), csr);
  expect_refused(path, "parallel arcs");
}

TEST(OocFormat, OutStepBeforeInStepFailsClosed) {
  // Vertex 0 of 2 -> 0 -> 1 has an in-step and then an out-step; swapped
  // (inverse steps re-pointed), only the span's move order is wrong.
  TempDir dir;
  const std::string path = dir.path + "/order.lapxooc";
  const LDigraph ld = LDigraph::from_arcs(3, 1, {{0, 1, 0}, {2, 0, 0}});
  StepCsr csr = lapx::graph::build_step_csr(ld);
  ASSERT_EQ(csr.off[1], 2u);
  swap_steps(csr, 0, 1);
  write_crafted(path, ld, csr);
  expect_refused(path, "repeat or are unsorted");
}

// Generated inputs: seeded bit flips and length-field overwrites of a
// small lift's file, ~1000 with both checksums recomputed (so they reach
// the structural checks) and ~200 without.  Each either fails at open with
// OocError, or opens and then materializes, and streams radius-2 types
// equal to the materialized graph's.
TEST(OocFormat, GeneratedDamageFailsClosedOrDescribesOneGraph) {
  TempDir dir;
  const std::string path = dir.path + "/fuzz.lapxooc";
  lapx::graph::write_ooc_graph(path, lifted_torus_ld(2, 3));
  const std::vector<unsigned char> pristine = read_file(path);
  std::uint64_t n = 0, m = 0;
  std::memcpy(&n, pristine.data() + 16, 8);
  std::memcpy(&m, pristine.data() + 24, 8);
  std::mt19937_64 rng(20261017);
  const auto pick = [&rng](std::uint64_t k) { return rng() % k; };
  // A replacement for a count or offset: near the old value, one of the
  // file's own counts, a 2^31 / 2^32 boundary, or a small random value.
  const auto length_value = [&](std::uint64_t old) {
    const std::uint64_t choices[] = {
        0, old + 1, old - 1, n, m, 2 * m, std::uint64_t{1} << (31 + pick(2)),
        pick(4 * m + 2)};
    return choices[pick(8)];
  };
  int opened = 0;
  for (int iter = 0; iter < 1200; ++iter) {
    std::vector<unsigned char> bytes = pristine;
    const std::size_t payload = bytes.size() - 128;
    for (std::uint64_t k = 1 + pick(3); k > 0; --k) {
      switch (pick(4)) {
        case 0:  // flip one payload bit
          bytes[128 + pick(payload)] ^=
              static_cast<unsigned char>(1u << pick(8));
          break;
        case 1: {  // overwrite a 64-bit payload word (offsets, arcs, tags)
          const std::size_t at = 128 + 8 * pick(payload / 8);
          std::uint64_t w = 0;
          std::memcpy(&w, bytes.data() + at, 8);
          w = length_value(w);
          std::memcpy(bytes.data() + at, &w, 8);
          break;
        }
        case 2: {  // overwrite a 32-bit payload word (step segments)
          const std::size_t at = 128 + 4 * pick(payload / 4);
          std::uint32_t w = 0;
          std::memcpy(&w, bytes.data() + at, 4);
          w = static_cast<std::uint32_t>(length_value(w));
          std::memcpy(bytes.data() + at, &w, 4);
          break;
        }
        default: {  // overwrite a header count: n, m, alphabet, steps, bytes
          static constexpr std::size_t kFields[] = {16, 24, 32, 40, 48};
          const std::size_t at = kFields[pick(5)];
          const std::size_t width = at == 32 ? 4 : 8;
          std::uint64_t w = 0;
          std::memcpy(&w, bytes.data() + at, width);
          w = length_value(w);
          std::memcpy(bytes.data() + at, &w, width);
        }
      }
    }
    if (iter < 1000) reseal(bytes);
    // Same length every time: overwrite in place, since truncating a file
    // costs far more than opening it on some filesystems.
    std::fstream(path, std::ios::binary | std::ios::in | std::ios::out)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    std::unique_ptr<OocGraph> g;
    try {
      g = std::make_unique<OocGraph>(path);
    } catch (const OocError&) {
      continue;
    }
    ++opened;
    LDigraph ld;
    ASSERT_NO_THROW(ld = g->materialize()) << "iteration " << iter;
    TypeInterner interner;
    RefineState stream(*g, interner);
    RefineState mem(ld, interner);
    EXPECT_EQ(stream.types_at(2), mem.types_at(2)) << "iteration " << iter;
  }
  // Some mutations are benign (a bit flip in padding, a larger alphabet),
  // so the opened branch runs too.
  EXPECT_GT(opened, 0);
}

// ------------------------------------------------ streaming refinement --

TEST(OocRefine, StreamingMatchesInMemory) {
  // Rounds streamed over the mmap'd step segments must produce exactly the
  // in-memory engine's TypeIds (same interner, hash-consed), at 1 and at 8
  // threads.
  TempDir dir;
  const std::string path = dir.path + "/big.lapxooc";
  const LDigraph ld = lifted_torus_ld(800, 9);
  lapx::graph::write_ooc_graph(path, ld);
  const OocGraph g(path);
  const int old_threads = lapx::runtime::thread_count();
  for (const int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    TypeInterner interner;
    RefineState mem(ld, interner);
    RefineState stream(g, interner);
    for (int r = 0; r <= 3; ++r)
      EXPECT_EQ(stream.types_at(r), mem.types_at(r))
          << "radius " << r << " threads " << threads;
    EXPECT_EQ(stream.distinct_at(3), mem.distinct_at(3));
  }
  lapx::runtime::set_thread_count(old_threads);
}

// ------------------------------------------------------ service `open` --

// One query line on session "g", drawn from the ops an ooc session
// answers -- including radii outside [0, 8] and an unknown algorithm, which
// both paths must refuse with the same bad_request bytes.  `with_run`
// false leaves `run` out.
std::string random_query(std::mt19937_64& rng, int id, bool with_run) {
  static const int kViewRadii[] = {-1, 0, 1, 2, 3, 4, 9};
  static const char* const kAlgorithms[] = {"eds-mark-first", "edge-cover",
                                            "take-all-ds", "no-such-algo"};
  const std::string head =
      R"({"id":)" + std::to_string(id) + R"(,"graph":"g","op":)";
  switch (rng() % (with_run ? 4 : 3)) {
    case 0:
      return head + R"("views","radius":)" +
             std::to_string(kViewRadii[rng() % 7]) + "}";
    case 1:
      return head + R"("homogeneity","radius":)" + std::to_string(rng() % 3) +
             "}";
    case 2:
      return head + R"("analyze"})";
    default:
      return head + R"("run","algorithm":")" + kAlgorithms[rng() % 4] +
             R"("})";
  }
}

TEST(OocService, OpenMatchesInMemoryGenerateByteForByte) {
  // The CI smoke check as a differential property: seeded request streams
  // served on a session `open`ed from a LAPXOOC1 file and on one
  // `generate`d in memory answer with identical bytes, binding responses
  // included, at 1 and 8 threads.  write_ooc_graph(to_ldigraph(
  // lifted_torus(a, b, L, s))) is graph-convert's --family torus a b
  // --lift L --seed S, and the service's `lift` family is the same
  // generator.
  TempDir dir;
  const int old_threads = lapx::runtime::thread_count();
  std::mt19937_64 rng(2012);
  for (int instance = 0; instance < 24; ++instance) {
    const int a = 3 + static_cast<int>(rng() % 3);
    const int b = 3 + static_cast<int>(rng() % 3);
    const int layers = 1 + static_cast<int>(rng() % 40);
    const int seed = static_cast<int>(rng() % 1000);
    const std::string path =
        dir.path + "/lift" + std::to_string(instance) + ".lapxooc";
    const auto lift = lapx::graph::lifted_torus(a, b, layers, seed);
    lapx::graph::write_ooc_graph(path, lapx::graph::to_ldigraph(lift));
    const std::string args = std::to_string(a) + "," + std::to_string(b) +
                             "," + std::to_string(layers) + "," +
                             std::to_string(seed);
    const std::string generate =
        R"({"id":0,"op":"generate","name":"g","family":"lift","args":[)" +
        args + "]}";
    // On n <= 64 `run` also reports an exact optimum, found by exhaustive
    // search of the materialized graph (9 s for one 60-vertex instance in
    // a Release build) -- the same code on both paths -- so those
    // instances draw no `run`.
    const bool with_run = a * b * layers > 64;
    std::vector<std::string> stream;
    for (int id = 1; id <= 20; ++id)
      stream.push_back(random_query(rng, id, with_run));
    for (const int threads : {1, 8}) {
      lapx::runtime::set_thread_count(threads);
      lapx::service::Service ooc, mem;
      const std::string opened = ooc.handle(
          R"({"id":0,"op":"open","name":"g","path":")" + path + R"("})");
      EXPECT_NE(opened.find("\"ok\":true"), std::string::npos) << opened;
      EXPECT_EQ(opened, mem.handle(generate));
      for (const std::string& line : stream)
        EXPECT_EQ(ooc.handle(line), mem.handle(line))
            << line << " on lift [" << args << "] at threads " << threads;
    }
  }
  lapx::runtime::set_thread_count(old_threads);
}

TEST(OocService, OpenOfInvalidDigraphIsBadRequest) {
  // The repeated-label file must never bind a session: once bound, views
  // streamed the step segments while analyze and PO runs failed to
  // materialize, answering "internal".
  TempDir dir;
  const std::string path = dir.path + "/dup.lapxooc";
  write_repeated_out_label(path);
  lapx::service::Service svc;
  const std::string open =
      svc.handle(R"({"op":"open","name":"g","path":")" + path + R"("})");
  EXPECT_NE(open.find("\"code\":\"bad_request\""), std::string::npos)
      << open;
  const std::string views =
      svc.handle(R"({"op":"views","graph":"g","radius":2})");
  EXPECT_NE(views.find("\"code\":\"not_found\""), std::string::npos)
      << views;
}

TEST(OocService, OpenMissingOrCorruptFileIsBadRequest) {
  lapx::service::Service svc;
  const std::string missing = svc.handle(
      R"({"op":"open","name":"g","path":"/nonexistent/g.lapxooc"})");
  EXPECT_NE(missing.find("\"code\":\"bad_request\""), std::string::npos)
      << missing;
  TempDir dir;
  const std::string path = dir.path + "/junk.lapxooc";
  write_file(path, std::vector<unsigned char>(256, 0x5a));
  const std::string corrupt =
      svc.handle(R"({"op":"open","name":"g","path":")" + path + R"("})");
  EXPECT_NE(corrupt.find("\"code\":\"bad_request\""), std::string::npos)
      << corrupt;
}

TEST(OocService, OpenOfNonRegularFileIsBadRequest) {
  // open(2) of a FIFO for reading waits for a writer; an `open` naming one
  // must answer bad_request at once, as a directory does.  A blocked
  // handler is released through the FIFO's write end, so a regression
  // fails the test instead of hanging it.
  TempDir dir;
  const std::string fifo = dir.path + "/f";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  lapx::service::Service svc;
  auto reply = std::async(std::launch::async, [&] {
    return svc.handle(R"({"op":"open","name":"f","path":")" + fifo + R"("})");
  });
  if (reply.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    int writer = -1;
    while (reply.wait_for(std::chrono::milliseconds(10)) !=
           std::future_status::ready)
      if (writer < 0) writer = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (writer >= 0) ::close(writer);
    FAIL() << "open of a FIFO blocked: " << reply.get();
  }
  const std::string fifo_open = reply.get();
  EXPECT_NE(fifo_open.find("\"code\":\"bad_request\""), std::string::npos)
      << fifo_open;
  EXPECT_NE(fifo_open.find("not a regular file"), std::string::npos)
      << fifo_open;
  const std::string directory =
      svc.handle(R"({"op":"open","name":"d","path":")" + dir.path + R"("})");
  EXPECT_NE(directory.find("\"code\":\"bad_request\""), std::string::npos)
      << directory;
  EXPECT_NE(directory.find("not a regular file"), std::string::npos)
      << directory;
}

TEST(OocService, MutateOnOocSessionIsRejected) {
  TempDir dir;
  const std::string path = dir.path + "/g.lapxooc";
  lapx::graph::write_ooc_graph(
      path, lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})));
  lapx::service::Service svc;
  svc.handle(R"({"op":"open","name":"g","path":")" + path + R"("})");
  const std::string mut = svc.handle(
      R"({"op":"mutate","name":"g","edits":[{"op":"remove","u":0,"v":1}]})");
  EXPECT_NE(mut.find("\"ok\":false"), std::string::npos) << mut;
  EXPECT_NE(mut.find("\"code\":\"bad_request\""), std::string::npos) << mut;
}

TEST(OocService, MaterializationCapGatesNonStreamingOps) {
  // Above the cap, ops that need the materialized graph (analyze) fail
  // with too_large while streaming ops (views) keep working.
  TempDir dir;
  const std::string path = dir.path + "/g.lapxooc";
  lapx::graph::write_ooc_graph(
      path, lapx::graph::to_ldigraph(lapx::graph::lifted_torus(3, 3, 4, 2)));
  lapx::service::Service::Options sopt;
  sopt.store.ooc_materialize_max_vertices = 8;  // n = 36 > 8
  lapx::service::Service svc(sopt);
  svc.handle(R"({"op":"open","name":"g","path":")" + path + R"("})");
  // A PO run reads the streaming state but needs the graph for edge ids
  // and feasibility: it answers too_large before any refinement starts.
  for (const char* line :
       {R"({"op":"run","graph":"g","algorithm":"eds-mark-first"})",
        R"({"op":"run","graph":"g","algorithm":"edge-cover"})",
        R"({"op":"run","graph":"g","algorithm":"take-all-ds"})"}) {
    const std::string run = svc.handle(line);
    EXPECT_NE(run.find("\"code\":\"too_large\""), std::string::npos) << run;
  }
  EXPECT_FALSE(svc.store().get("g")->has_refine_state());
  const std::string views =
      svc.handle(R"({"op":"views","graph":"g","radius":1})");
  EXPECT_NE(views.find("\"ok\":true"), std::string::npos) << views;
  const std::string analyze = svc.handle(R"({"op":"analyze","graph":"g"})");
  EXPECT_NE(analyze.find("\"code\":\"too_large\""), std::string::npos)
      << analyze;
}

}  // namespace
