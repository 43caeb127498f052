#pragma once
// Chunked worklist over sparse index sets.
//
// parallel_for (parallel.hpp) sweeps a dense range [0, n).  The refinement
// engine's active-vertex rounds instead operate on a *sparse* list of
// vertex ids whose per-item cost is irregular (degree-dependent), so
// for_each_index splits the list into many small chunks and hands them
// straight to the pool, whose shared chunk counter gives each free
// participant the next chunk (dynamic load balancing without per-thread
// queues):
//
//  * Chunk boundaries depend on the list length ONLY (never the thread
//    count), exactly like parallel_for's.
//  * Determinism contract: identical to parallel_for.  fn must write only
//    per-index slots (or otherwise synchronized state); which thread runs
//    an item, and in what order, is unspecified and varies run to run --
//    outputs must not depend on it.  The refinement engine guarantees this
//    with the interner's two-phase batch pattern: workers only resolve
//    already-interned types lock-free (try_intern_node); anything novel is
//    interned in a serial pass, never from worker threads (DESIGN.md,
//    "Round kernel").
//
// Nested calls and the 1-thread pool degrade to inline serial execution of
// the same chunks, exactly like parallel_for.

#include <cstdint>
#include <functional>
#include <span>

namespace lapx::runtime {

/// Process-wide worklist counters (monotone): scheduling observability for
/// benches and the stress tests, never consulted on result paths.
struct WorklistStats {
  std::uint64_t regions = 0;   ///< for_each_index calls that fanned out
  std::uint64_t chunks = 0;    ///< chunks handed to the pool
  /// Always 0: chunks come from the pool's one shared counter, so no chunk
  /// is ever taken from another participant's queue.  Kept because the
  /// lapxbench traced replay still reports steals / chunks.
  std::uint64_t steals = 0;
  std::uint64_t inline_regions = 0;  ///< degraded to serial (small/nested/1T)
};
WorklistStats worklist_stats();

/// Executes fn(v) exactly once for every v in items, in chunks shared
/// across the pool.  Blocks until all items completed; first exception
/// rethrown.
void for_each_index(std::span<const std::uint32_t> items,
                    const std::function<void(std::uint32_t)>& fn);

}  // namespace lapx::runtime
