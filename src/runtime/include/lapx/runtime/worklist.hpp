#pragma once
// Chunked work-stealing worklist over sparse index sets, plus the arrival
// tree the pool uses as its round barrier.
//
// parallel_for (parallel.hpp) sweeps a dense range [0, n).  The refinement
// engine's active-vertex rounds instead operate on a *sparse* list of
// vertex ids whose per-item cost is irregular (degree-dependent) and whose
// clustering drifts as vertices retire, so static chunk assignment
// imbalances.  for_each_index schedules such a list with per-participant
// chunk queues and randomized-victim stealing:
//
//  * The item list is split into chunks whose boundaries depend on the
//    list length ONLY (never the thread count) and each participant is
//    seeded with a contiguous block of chunks (locality).
//  * A participant that drains its own queue steals whole chunks from
//    victims visited in pseudo-random order; a full sweep that finds every
//    queue empty terminates it.  Queues only drain, so the sweep is exact.
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

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace lapx::runtime {

/// Process-wide worklist counters (monotone): scheduling observability for
/// benches and the stress tests, never consulted on result paths.
struct WorklistStats {
  std::uint64_t regions = 0;   ///< for_each_index calls that fanned out
  std::uint64_t chunks = 0;    ///< chunks executed (own + stolen)
  std::uint64_t steals = 0;    ///< chunks claimed from another queue
  std::uint64_t inline_regions = 0;  ///< degraded to serial (small/nested/1T)
};
WorklistStats worklist_stats();

/// Executes fn(v) exactly once for every v in items, work-stealing across
/// the pool.  Blocks until all items completed; first exception rethrown.
void for_each_index(std::span<const std::uint32_t> items,
                    const std::function<void(std::uint32_t)>& fn);

namespace detail {

/// Fan-in-4 combining arrival tree: the pool's round barrier.  Workers are
/// pinned to leaf slots; joining and leaving propagate 0<->1 transitions
/// toward the root, so a completion wait spins on one root cache line while
/// arrivals touch only their own leaf line (topology-aware fan-in in the
/// style of katana's Barrier_Topo / MCS barriers).
///
/// Concurrency contract: join(slot) calls must be serialized by the caller
/// (the pool joins under its job mutex); leave(slot) is lock-free.  Because
/// a join's upward propagation is not atomic with respect to concurrent
/// leaves, quiescent() may transiently report true while a participant is
/// still joined -- callers must revalidate against an exact count under
/// their own lock before declaring the round over.  leave() returns true on
/// the root's 1->0 edge so the last arriver can wake a parked waiter.
class ArrivalTree {
 public:
  explicit ArrivalTree(int slots);

  void join(int slot);        // externally serialized
  bool leave(int slot);       // lock-free; true when the root hit zero
  bool quiescent() const;     // acquire-load of the root; may be transient
  int slots() const { return slots_; }

 private:
  static constexpr int kFanIn = 4;
  int slots_ = 0;
  int leaf_base_ = 0;  // index of the first leaf node; root is node 0
  // Node i's parent is (i - 1) / kFanIn; each node counts children (or,
  // at a leaf, participants) with nonzero count.  Padded to a cache line
  // so arrivals at distinct leaves never share a line.
  struct alignas(64) Node {
    std::atomic<std::uint32_t> count{0};
  };
  std::vector<Node> nodes_;
};

}  // namespace detail

}  // namespace lapx::runtime
