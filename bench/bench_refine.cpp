// E17 -- whole-graph view-type refinement.  The engine in core/refine.hpp
// computes every radius-r view type in r synchronous rounds over the
// non-backtracking edge-states -- O(n * k * r) state updates -- instead of
// materializing n per-vertex view trees of up to (2k)(2k-1)^(r-1) nodes.
// The table times both paths on the experiment graph families and verifies
// they induce the identical type partition; the speedup check is
// hardware-gated (the engine parallelizes across LAPX_THREADS, but it wins
// algorithmically even on one core).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench_common.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/core/view.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/runtime/parallel.hpp"

namespace {

using namespace lapx;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// First-occurrence class index per vertex: two type vectors over different
// interners induce the same partition iff these agree exactly.
std::vector<std::uint32_t> partition_of(const std::vector<core::TypeId>& t) {
  std::vector<std::uint32_t> cls(t.size());
  std::unordered_map<core::TypeId, std::uint32_t> index;
  for (std::size_t v = 0; v < t.size(); ++v)
    cls[v] = index.try_emplace(t[v], static_cast<std::uint32_t>(index.size()))
                 .first->second;
  return cls;
}

struct CaseResult {
  double legacy_s = 0.0;
  double engine_s = 0.0;
  std::size_t distinct = 0;
  bool same_partition = false;
};

CaseResult run_case(const graph::LDigraph& g, int r) {
  CaseResult res;
  core::TypeInterner legacy_interner;
  core::TypeInterner engine_interner;

  bench::phase("legacy_per_vertex");
  std::vector<core::TypeId> legacy(g.num_vertices());
  const auto t0 = std::chrono::steady_clock::now();
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v)
    legacy[v] = core::view_type_id(core::view(g, v, r), legacy_interner);
  res.legacy_s = seconds_since(t0);

  bench::phase("engine_refinement");
  const auto t1 = std::chrono::steady_clock::now();
  const auto engine = core::bulk_view_type_ids(g, r, engine_interner);
  res.engine_s = seconds_since(t1);

  bench::phase("verify_partition");
  res.same_partition = partition_of(legacy) == partition_of(engine);
  auto sorted = engine;
  std::sort(sorted.begin(), sorted.end());
  res.distinct = static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  return res;
}

void print_worklist_table();
void print_interner_size_table();

void print_tables() {
  bench::print_header(
      "E17: whole-graph type refinement vs per-vertex view materialization",
      "refinement computes all radius-r types in O(n*k*r) state updates; "
      "the per-vertex path re-interns n trees of ~(2k)(2k-1)^(r-1) nodes");

  struct Case {
    std::string name;
    graph::LDigraph g;
    int r;
  };
  std::mt19937_64 rng(17);
  std::vector<Case> cases;
  cases.push_back({"torus 24x24, r=5", graph::directed_torus({24, 24}), 5});
  cases.push_back(
      {"torus 10x10x10, r=4", graph::directed_torus({10, 10, 10}), 4});
  cases.push_back({"lift(torus 3x4)x256, r=6",
                   graph::random_lift(graph::directed_torus({3, 4}), 256, rng)
                       .graph,
                   6});
  {
    // Directed path: boundary effects give ~2r+1 type classes.
    std::vector<graph::Arc> path;
    for (graph::Vertex v = 0; v + 1 < 4096; ++v) path.push_back({v, v + 1, 0});
    cases.push_back(
        {"path 4096, r=8", graph::LDigraph::from_arcs(4096, 1, path), 8});
  }
  {
    // Irregular two-label graph: path plus an affine-permutation chord
    // layer (proper by bijectivity; 4v = -1 and 4v = -2 have no solutions
    // mod 2048, so no self-loops or parallel (u,v) pairs).  The path
    // boundary spread through the chords yields many type classes.
    std::vector<graph::Arc> chords;
    for (graph::Vertex v = 0; v + 1 < 2048; ++v)
      chords.push_back({v, v + 1, 0});
    for (graph::Vertex v = 0; v < 2048; ++v)
      chords.push_back({v, (5 * v + 2) % 2048, 1});
    cases.push_back({"path+chords 2048, r=4",
                     graph::LDigraph::from_arcs(2048, 2, chords), 4});
  }

  bench::print_row({"graph", "n", "r", "distinct", "partition equal"});
  double legacy_total = 0.0;
  double engine_total = 0.0;
  bool all_equal = true;
  for (auto& c : cases) {
    const auto res = run_case(c.g, c.r);
    legacy_total += res.legacy_s;
    engine_total += res.engine_s;
    all_equal = all_equal && res.same_partition;
    bench::print_row({c.name, std::to_string(c.g.num_vertices()),
                      std::to_string(c.r), std::to_string(res.distinct),
                      res.same_partition ? "yes" : "NO"});
    std::string key = "distinct_" + c.name;
    for (char& ch : key)
      if (ch == ' ' || ch == ',' || ch == '(' || ch == ')') ch = '_';
    bench::value(key, static_cast<double>(res.distinct));
  }

  // Timings are informational (machine-dependent): printed here and recorded
  // in the JSON "phases" section, never in "values".
  std::printf("\nlegacy total %.3fs, engine total %.3fs, speedup %.1fx\n",
              legacy_total, engine_total,
              engine_total > 0 ? legacy_total / engine_total : 0.0);

  bench::check(all_equal,
               "engine type partition matches legacy view_type_id on every "
               "family");
  const double speedup =
      engine_total > 0 ? legacy_total / engine_total : 0.0;
  const bool enough_cores = std::thread::hardware_concurrency() >= 4;
  bench::check(enough_cores ? speedup >= 2.0 : speedup >= 1.2,
               "refinement engine >= 2x faster than per-vertex "
               "materialization (hardware-gated)");

  print_worklist_table();
  print_interner_size_table();
}

// A stabilizing workload: component diameters spread over two orders of
// magnitude.  The many small trees refine to fixpoint within ~5 rounds and
// retire; the long chains stay active until the boundary effect reaches
// them (~round 1500).  The dense schedule pays O(n) every round regardless;
// the worklist schedule pays O(active).  Deterministic by construction.
graph::LDigraph stabilizing_forest() {
  constexpr graph::Vertex kChains = 2, kChainLen = 3000;
  constexpr graph::Vertex kTrees = 1800, kTreeSize = 12;
  std::vector<graph::Arc> arcs;
  graph::Vertex next = 0;
  for (graph::Vertex c = 0; c < kChains; ++c) {
    for (graph::Vertex v = 0; v + 1 < kChainLen; ++v)
      arcs.push_back({next + v, next + v + 1, 0});
    next += kChainLen;
  }
  for (graph::Vertex t = 0; t < kTrees; ++t) {
    // Complete-ish binary tree: child 2p+1 on port 1, child 2p+2 on port 0.
    for (graph::Vertex v = 1; v < kTreeSize; ++v)
      arcs.push_back({next + (v - 1) / 2, next + v, v % 2});
    next += kTreeSize;
  }
  return graph::LDigraph::from_arcs(next, 2, std::move(arcs));
}

void print_worklist_table() {
  bench::print_header(
      "E17b: worklist scheduling (active-vertex retirement) vs dense rounds",
      "once a vertex's neighbourhood stops changing it retires from the "
      "round worklist; on stabilizing workloads later rounds touch only "
      "the still-active region (runtime/worklist.hpp chunks)");

  const graph::LDigraph g = stabilizing_forest();
  constexpr int kR = 48;
  const int old_threads = lapx::runtime::thread_count();
  // Radius-kR ids; all_active pins every round to the dense reference (no
  // retirement).
  const auto ids = [&](core::TypeInterner& interner, bool all_active) {
    core::RefineState state(g, interner);
    core::RefineTestPeer::set_all_active(state, all_active);
    return state.types_at(kR);
  };

  // Reference ids: dense schedule, one thread.
  lapx::runtime::set_thread_count(1);
  core::TypeInterner ref_interner;
  const auto ref_ids = ids(ref_interner, true);

  bench::print_row(
      {"threads", "legacy s", "worklist s", "speedup", "ids identical"});
  bool all_identical = true;
  double legacy_1t = 0.0, worklist_1t = 0.0;
  double legacy_8t = 0.0, worklist_8t = 0.0;
  for (const int threads : {1, 2, 4, 8, 16}) {
    lapx::runtime::set_thread_count(threads);
    bench::phase("worklist_sweep_legacy");
    core::TypeInterner li;
    auto t0 = std::chrono::steady_clock::now();
    const auto legacy_ids = ids(li, true);
    const double legacy_s = seconds_since(t0);
    bench::phase("worklist_sweep_worklist");
    core::TypeInterner wi;
    t0 = std::chrono::steady_clock::now();
    const auto worklist_ids = ids(wi, false);
    const double worklist_s = seconds_since(t0);
    // Raw TypeId equality (not just partitions): the retirement fast path
    // must intern in the identical allocation order.
    const bool identical = legacy_ids == ref_ids && worklist_ids == ref_ids;
    all_identical = all_identical && identical;
    if (threads == 1) legacy_1t = legacy_s, worklist_1t = worklist_s;
    if (threads == 8) legacy_8t = legacy_s, worklist_8t = worklist_s;
    bench::print_row(
        {std::to_string(threads), bench::fmt(legacy_s, 3),
         bench::fmt(worklist_s, 3),
         bench::fmt(worklist_s > 0 ? legacy_s / worklist_s : 0.0, 2) + "x",
         identical ? "yes" : "NO"});
  }
  lapx::runtime::set_thread_count(old_threads);

  auto sorted = ref_ids;
  std::sort(sorted.begin(), sorted.end());
  const auto distinct = static_cast<double>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  bench::value("distinct_stabilizing_forest_r=48", distinct);
  bench::check(all_identical,
               "worklist TypeIds byte-identical to the dense schedule at "
               "every thread count (raw ids, fresh interners)");
  // Wall-time gate: strict only with >= 8 real cores (timings on an
  // oversubscribed or single-core runner measure the scheduler, not the
  // algorithm); elsewhere gate the serial algorithmic win, which the
  // retirement path delivers with no parallelism at all.
  const bool eight_cores = std::thread::hardware_concurrency() >= 8;
  const double gated_speedup = eight_cores
                                   ? (worklist_8t > 0 ? legacy_8t / worklist_8t
                                                      : 0.0)
                                   : (worklist_1t > 0 ? legacy_1t / worklist_1t
                                                      : 0.0);
  bench::check(eight_cores ? gated_speedup >= 1.9 : gated_speedup >= 1.2,
               "worklist >= 1.9x faster than dense rounds on the "
               "stabilizing workload at 8 threads (hardware-gated)");
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// E17c: a daemon's interner only ever grows (each fresh session adds
// thousands of ids), so a RefineState's per-round scratch must be sized by
// the graph, not by interner.size().  Times the two lapxd cold-session
// graphs and the mutate fork against one private interner padded with
// 1M unrelated keys and one without, interleaved per rep.
void print_interner_size_table() {
  bench::print_header(
      "E17c: refine scratch vs interner size (+0 vs +1M ids)",
      "a state's scratch is O(distinct ids per round), whatever the "
      "interner holds: padding the interner leaves build and fork time flat");

  constexpr int kReps = 15;
  constexpr core::TypeId kPad = 1'000'000;
  bench::phase("interner_size_setup");
  const graph::LDigraph lift =
      graph::to_ldigraph(graph::lifted_torus(3, 3, 1000, 1));
  std::mt19937_64 rng(1);
  const graph::LDigraph regular =
      graph::to_ldigraph(graph::random_regular(1500, 3, rng));
  core::TypeInterner unpadded;
  core::TypeInterner padded;
  for (core::TypeId i = 0; i < kPad; ++i)
    padded.intern("pad:" + std::to_string(i));

  // Op 0: lift build + types_at(3); op 1: the same for the regular graph;
  // op 2: copy of the lift's kept-rounds radius-3 state (the mutate fork).
  struct Side {
    core::TypeInterner* interner = nullptr;
    std::vector<core::TypeId> lift_ids, regular_ids;
    std::unique_ptr<core::RefineState> kept;
    std::vector<double> ms[3];
  };
  Side sides[2];
  sides[0].interner = &unpadded;
  sides[1].interner = &padded;
  const auto ms_since = [](std::chrono::steady_clock::time_point t0) {
    return 1e3 * seconds_since(t0);
  };
  for (Side& side : sides) {  // warm-up: first interning of every type
    side.lift_ids = core::bulk_view_type_ids(lift, 3, *side.interner);
    side.regular_ids = core::bulk_view_type_ids(regular, 3, *side.interner);
    side.kept = std::make_unique<core::RefineState>(lift, *side.interner,
                                                    /*keep_rounds=*/true);
    side.kept->types_at(3);
  }
  bench::phase("interner_size_reps");
  // Each rep times every op on both sides back to back, alternating which
  // side goes first, so drift in the host's load lands on both alike.
  const auto time_op = [&](int op, Side& side) {
    const auto t0 = std::chrono::steady_clock::now();
    if (op == 2) {
      const core::RefineState fork(*side.kept);
      side.ms[op].push_back(ms_since(t0));
      return;
    }
    core::RefineState st(op == 0 ? lift : regular, *side.interner);
    st.types_at(3);
    side.ms[op].push_back(ms_since(t0));
  };
  for (int rep = 0; rep < kReps; ++rep)
    for (int op = 0; op < 3; ++op)
      for (int k = 0; k < 2; ++k) time_op(op, sides[(rep + k) % 2]);

  const char* names[3] = {"lift build + r=3", "regular build + r=3",
                          "lift fork (kept)"};
  bench::print_row({"operation", "+0 ids ms", "+1M ids ms", "ratio"});
  double ratio[3];
  for (int op = 0; op < 3; ++op) {
    const double base = median(sides[0].ms[op]);
    const double pad = median(sides[1].ms[op]);
    ratio[op] = base > 0 ? pad / base : 0.0;
    bench::print_row({names[op], bench::fmt(base, 2), bench::fmt(pad, 2),
                      bench::fmt(ratio[op], 2) + "x"});
  }
  std::printf("(medians of %d interleaved reps)\n", kReps);

  // Ids are dense in insertion order, and the padding keys (printable
  // text) never collide with node keys: the padded interner hands out the
  // same ids shifted by kPad.
  bool shifted = true;
  for (int g = 0; g < 2; ++g) {
    const auto& base = g == 0 ? sides[0].lift_ids : sides[0].regular_ids;
    const auto& pad = g == 0 ? sides[1].lift_ids : sides[1].regular_ids;
    for (std::size_t v = 0; v < base.size(); ++v)
      shifted = shifted && pad[v] == base[v] + kPad;
  }
  const auto distinct = [](std::vector<core::TypeId> t) {
    std::sort(t.begin(), t.end());
    return static_cast<double>(std::unique(t.begin(), t.end()) - t.begin());
  };
  bench::value("e17c_distinct_lift_3x3x1000_r=3", distinct(sides[0].lift_ids));
  bench::value("e17c_distinct_regular_1500x3_r=3",
               distinct(sides[0].regular_ids));
  bench::check(shifted,
               "E17c TypeIds on the +1M-id interner equal the unpadded ids "
               "shifted by the padding");
  bench::check(ratio[1] <= 2.0,
               "E17c regular 1500x3 build + types_at(3): +1M-id interner "
               "<= 2x the unpadded time (median of 15 interleaved reps)");
  bench::check(ratio[2] <= 2.0,
               "E17c fork of the lift's kept-rounds state: +1M-id interner "
               "<= 2x the unpadded time (median of 15 interleaved reps)");
}

void BM_LegacyViewTypes(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto g = graph::directed_torus({m, m});
  for (auto _ : state) {
    core::TypeInterner interner;
    std::vector<core::TypeId> t(g.num_vertices());
    for (graph::Vertex v = 0; v < g.num_vertices(); ++v)
      t[v] = core::view_type_id(core::view(g, v, 4), interner);
    benchmark::DoNotOptimize(t);
  }
  state.SetComplexityN(m * m);
}
BENCHMARK(BM_LegacyViewTypes)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_BulkViewTypes(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto g = graph::directed_torus({m, m});
  for (auto _ : state) {
    core::TypeInterner interner;
    benchmark::DoNotOptimize(core::bulk_view_type_ids(g, 4, interner));
  }
  state.SetComplexityN(m * m);
}
BENCHMARK(BM_BulkViewTypes)->Arg(8)->Arg(16)->Arg(32)->Complexity();

}  // namespace

LAPX_BENCH_MAIN(print_tables)
