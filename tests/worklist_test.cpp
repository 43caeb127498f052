// Runtime-layer correctness of the chunked worklist
// (runtime/worklist.hpp): every item runs exactly once at every thread
// count, nesting degrades inline, exceptions propagate, and the scheduling
// counters move.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "lapx/runtime/parallel.hpp"
#include "lapx/runtime/worklist.hpp"

namespace {

using lapx::runtime::for_each_index;
using lapx::runtime::worklist_stats;

struct ThreadGuard {
  int threads = lapx::runtime::thread_count();
  ~ThreadGuard() { lapx::runtime::set_thread_count(threads); }
};

// Sparse item lists (strided vertex ids, as the refinement engine produces
// after retirement) across the inline (<=1 participant), small, and
// multi-chunk regimes.
TEST(Worklist, RunsEveryItemExactlyOnce) {
  const ThreadGuard guard;
  for (const int threads : {1, 8, 16}) {
    lapx::runtime::set_thread_count(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{31}, std::size_t{100},
                                std::size_t{5000}, std::size_t{100000}}) {
      std::vector<std::uint32_t> items(n);
      for (std::size_t i = 0; i < n; ++i)
        items[i] = static_cast<std::uint32_t>(3 * i + 1);
      std::vector<std::atomic<int>> hits(n == 0 ? 1 : 3 * n + 1);
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      for_each_index(items, [&](std::uint32_t v) {
        hits[v].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[3 * i + 1].load(), 1)
            << "item " << i << " n=" << n << " threads=" << threads;
      long long total = 0;
      for (auto& h : hits) total += h.load();
      EXPECT_EQ(total, static_cast<long long>(n)) << "stray hit";
    }
  }
}

TEST(Worklist, NestedCallRunsInline) {
  const ThreadGuard guard;
  lapx::runtime::set_thread_count(8);
  std::vector<std::uint32_t> outer(64);
  std::iota(outer.begin(), outer.end(), 0u);
  std::vector<std::uint32_t> inner(200);
  std::iota(inner.begin(), inner.end(), 0u);
  std::vector<std::atomic<int>> hits(outer.size() * inner.size());
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  const auto before = worklist_stats();
  lapx::runtime::parallel_for(
      static_cast<std::int64_t>(outer.size()), [&](std::int64_t o) {
        for_each_index(inner, [&](std::uint32_t v) {
          hits[static_cast<std::size_t>(o) * inner.size() + v].fetch_add(
              1, std::memory_order_relaxed);
        });
      });
  const auto after = worklist_stats();
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  // Every nested call must have degraded to the serial inline path (the
  // pool is busy with the outer loop; re-entering it would deadlock).
  EXPECT_GE(after.inline_regions,
            before.inline_regions + outer.size());
}

TEST(Worklist, ExceptionPropagates) {
  const ThreadGuard guard;
  for (const int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    std::vector<std::uint32_t> items(10000);
    std::iota(items.begin(), items.end(), 0u);
    EXPECT_THROW(for_each_index(items,
                                [&](std::uint32_t v) {
                                  if (v == 7777)
                                    throw std::runtime_error("boom");
                                }),
                 std::runtime_error)
        << "threads=" << threads;
    // The pool must remain usable after the failed region.
    std::atomic<int> ran{0};
    for_each_index(items, [&](std::uint32_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), static_cast<int>(items.size()));
  }
}

TEST(Worklist, StatsCountRegionsAndChunks) {
  const ThreadGuard guard;
  lapx::runtime::set_thread_count(8);
  std::vector<std::uint32_t> items(50000);
  std::iota(items.begin(), items.end(), 0u);
  const auto before = worklist_stats();
  std::atomic<long long> sum{0};
  for_each_index(items, [&](std::uint32_t v) {
    sum.fetch_add(v, std::memory_order_relaxed);
  });
  const auto after = worklist_stats();
  EXPECT_EQ(sum.load(), 50000LL * 49999 / 2);
  // 50000 items is far above the fan-out threshold: one region, several
  // chunks.  Chunks come from the pool's one shared counter, so nothing is
  // ever stolen.
  EXPECT_EQ(after.regions, before.regions + 1);
  EXPECT_GT(after.chunks, before.chunks + 1);
  EXPECT_EQ(after.steals, 0u);
}

TEST(Worklist, PoolStatsObservable) {
  // Satellite of the contended-degradation fix: the pool's scheduling
  // counters are exported and move when jobs run.
  const ThreadGuard guard;
  lapx::runtime::set_thread_count(8);
  const auto before = lapx::runtime::pool_stats();
  std::vector<std::atomic<int>> slots(10000);
  for (auto& s : slots) s.store(0, std::memory_order_relaxed);
  lapx::runtime::parallel_for(10000, [&](std::int64_t i) {
    slots[static_cast<std::size_t>(i)].fetch_add(1,
                                                 std::memory_order_relaxed);
  });
  const auto after = lapx::runtime::pool_stats();
  EXPECT_GT(after.jobs_coordinated, before.jobs_coordinated);
  lapx::runtime::set_thread_count(1);
  lapx::runtime::parallel_for(100, [&](std::int64_t) {});
  EXPECT_GT(lapx::runtime::pool_stats().jobs_serial, after.jobs_serial);
}

}  // namespace
