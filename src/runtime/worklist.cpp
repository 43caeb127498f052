#include "lapx/runtime/worklist.hpp"

#include <algorithm>
#include <atomic>

#include "lapx/runtime/parallel.hpp"

namespace lapx::runtime {

namespace {

struct WorklistCounters {
  std::atomic<std::uint64_t> regions{0};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> inline_regions{0};
};
WorklistCounters g_wl;

}  // namespace

WorklistStats worklist_stats() {
  WorklistStats s;
  s.regions = g_wl.regions.load(std::memory_order_relaxed);
  s.chunks = g_wl.chunks.load(std::memory_order_relaxed);
  s.inline_regions = g_wl.inline_regions.load(std::memory_order_relaxed);
  return s;
}

void for_each_index(std::span<const std::uint32_t> items,
                    const std::function<void(std::uint32_t)>& fn) {
  const std::int64_t m = static_cast<std::int64_t>(items.size());
  if (m == 0) return;
  // Chunk boundaries depend on m ONLY -- same discipline as chunks_for.
  std::int64_t grain = m / 1024;
  grain = std::clamp<std::int64_t>(grain, 32, 8192);
  const std::int64_t chunks = (m + grain - 1) / grain;
  if (chunks <= 1 || thread_count() <= 1 || detail::in_parallel()) {
    g_wl.inline_regions.fetch_add(1, std::memory_order_relaxed);
    for (std::int64_t i = 0; i < m; ++i) fn(items[static_cast<std::size_t>(i)]);
    return;
  }
  g_wl.regions.fetch_add(1, std::memory_order_relaxed);
  g_wl.chunks.fetch_add(static_cast<std::uint64_t>(chunks),
                        std::memory_order_relaxed);
  detail::run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t lo = c * grain;
    const std::int64_t hi = std::min(m, lo + grain);
    for (std::int64_t i = lo; i < hi; ++i)
      fn(items[static_cast<std::size_t>(i)]);
  });
}

}  // namespace lapx::runtime
