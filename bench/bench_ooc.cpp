// E20: out-of-core refinement -- streaming over an mmap'd LAPXOOC1 file
// vs the in-memory engine at equal hardware.
//
// The lower-bound experiments scale with the lift order, and the instance
// eventually outgrows RAM.  The ooc format (graph/ooc.hpp) persists the
// graph as its step CSR, so RefineState can run the universal-cover
// recurrence straight off the read-only mapping; the kernel's page cache
// decides which of its clean pages stay resident.
// This bench writes a lift, streams refinement over it at 1 and 8
// threads, and gates on what the design promises:
//
//   * TypeIds byte-identical to the in-memory engine (same interner) at
//     every radius and thread count -- the format IS the engine's layout;
//   * worklist and dense scheduling agree id-for-id on the streaming path;
//   * distinct-type counts (deterministic paper-facing quantities) match.
//
// Throughput (write, open+validate, stream vs in-memory refine) is
// recorded as phases -- informational, never gated.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/ooc.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/runtime/parallel.hpp"

namespace {

using lapx::bench::check;
using lapx::bench::fmt;
using lapx::bench::phase;
using lapx::bench::print_header;
using lapx::bench::print_row;
using lapx::bench::seconds_since;
using lapx::bench::value;
using lapx::core::RefineState;
using lapx::core::TypeId;
using lapx::core::TypeInterner;
using lapx::graph::LDigraph;
using lapx::graph::OocGraph;

constexpr int kRadius = 3;
constexpr int kLayers = 7000;  // 3x3 torus lift: n = 63000, 252000 steps

void print_tables() {
  print_header(
      "E20  out-of-core refinement: mmap'd LAPXOOC1 vs in-memory",
      "streaming the universal-cover recurrence over an mmap'd on-disk step "
      "CSR yields byte-identical TypeIds at 1 and 8 threads");

  phase("build-instance");
  std::mt19937_64 rng(2012);
  const LDigraph ld =
      lapx::graph::random_lift(
          lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})), kLayers, rng)
          .graph;

  const std::string path =
      "/tmp/lapx-bench-ooc." + std::to_string(::getpid()) + ".lapxooc";
  phase("write-ooc");
  auto t0 = std::chrono::steady_clock::now();
  lapx::graph::write_ooc_graph(path, ld);
  const double write_s = seconds_since(t0);

  phase("open-validate");
  t0 = std::chrono::steady_clock::now();
  const OocGraph g(path);
  const double open_s = seconds_since(t0);

  const double file_mb =
      static_cast<double>(std::filesystem::file_size(path)) / (1 << 20);
  std::printf("instance: lift %dx(3x3), n=%d, arcs=%zu, file %.1f MiB "
              "(write %.2fs, open+validate %.2fs)\n\n",
              kLayers, g.num_vertices(), g.num_arcs(), file_mb, write_s,
              open_s);

  print_row({"threads", "in-memory s", "streaming s", "ratio"});
  bool ids_identical = true;
  std::size_t distinct = 0;
  const int old_threads = lapx::runtime::thread_count();
  for (const int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    TypeInterner interner;

    phase("refine-in-memory");
    t0 = std::chrono::steady_clock::now();
    RefineState mem(ld, interner);
    const std::vector<TypeId> mem_ids = mem.types_at(kRadius);
    const double mem_s = seconds_since(t0);

    phase("refine-streaming");
    t0 = std::chrono::steady_clock::now();
    RefineState stream(g, interner);
    const std::vector<TypeId> stream_ids = stream.types_at(kRadius);
    const double stream_s = seconds_since(t0);

    for (int r = 0; r < kRadius; ++r)
      ids_identical = ids_identical && stream.types_at(r) == mem.types_at(r);
    ids_identical = ids_identical && stream_ids == mem_ids;
    distinct = mem.distinct_at(kRadius);

    print_row({std::to_string(threads), fmt(mem_s, 3), fmt(stream_s, 3),
               fmt(mem_s > 0 ? stream_s / mem_s : 0.0, 2) + "x"});
  }
  lapx::runtime::set_thread_count(old_threads);
  std::printf("\n");

  check(ids_identical,
        "streaming TypeIds byte-identical to in-memory at radius 0.." +
            std::to_string(kRadius) + ", threads 1 and 8");
  // Scheduling parity on the STREAMING path: the worklist's active-vertex
  // retirement must not change a single raw TypeId when entry states
  // stream from the mmap'd file.  Fresh interner per run; equality is
  // id-for-id, not just as partitions.
  phase("refine-streaming-sched-parity");
  TypeInterner li;
  RefineState legacy_sched(g, li);
  lapx::core::RefineTestPeer::set_all_active(legacy_sched, true);
  const std::vector<TypeId> legacy_ids = legacy_sched.types_at(kRadius);
  TypeInterner wi;
  RefineState worklist_sched(g, wi);
  const std::vector<TypeId> worklist_ids = worklist_sched.types_at(kRadius);
  check(legacy_ids == worklist_ids,
        "worklist and dense scheduling agree id-for-id on the streaming "
        "path");


  // Deterministic paper-facing quantities for the regression gate; the
  // timings above stay in phases (informational).
  value("n", static_cast<double>(g.num_vertices()));
  value("arcs", static_cast<double>(g.num_arcs()));
  value("distinct_r3", static_cast<double>(distinct));
  ::unlink(path.c_str());
  std::printf("\n");
}

void BM_StreamingRefine(benchmark::State& state) {
  std::mt19937_64 rng(2012);
  const LDigraph ld =
      lapx::graph::random_lift(
          lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})), 800, rng)
          .graph;
  const std::string path =
      "/tmp/lapx-bm-ooc." + std::to_string(::getpid()) + ".lapxooc";
  lapx::graph::write_ooc_graph(path, ld);
  const OocGraph g(path);
  TypeInterner interner;
  RefineState(ld, interner).types_at(kRadius);  // warm the interner once
  for (auto _ : state) {
    RefineState stream(g, interner);
    benchmark::DoNotOptimize(stream.types_at(kRadius));
  }
  ::unlink(path.c_str());
}
BENCHMARK(BM_StreamingRefine);

void BM_InMemoryRefine(benchmark::State& state) {
  std::mt19937_64 rng(2012);
  const LDigraph ld =
      lapx::graph::random_lift(
          lapx::graph::to_ldigraph(lapx::graph::torus({3, 3})), 800, rng)
          .graph;
  TypeInterner interner;
  RefineState(ld, interner).types_at(kRadius);  // warm the interner once
  for (auto _ : state) {
    RefineState fresh(ld, interner);
    benchmark::DoNotOptimize(fresh.types_at(kRadius));
  }
}
BENCHMARK(BM_InMemoryRefine);

}  // namespace

LAPX_BENCH_MAIN(print_tables)
