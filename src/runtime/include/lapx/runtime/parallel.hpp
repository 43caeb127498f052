#pragma once
// Parallel execution substrate: a small persistent thread pool with
// deterministic parallel_for / parallel_reduce.
//
// Design constraints (see DESIGN.md, "Canonical types & parallel runtime"):
//  * Determinism.  Every experiment table must be byte-identical whatever
//    LAPX_THREADS is.  parallel_for writes to per-index slots only;
//    parallel_reduce splits [0, n) into chunks whose boundaries depend on n
//    alone (never on the thread count) and combines chunk partials in chunk
//    order, so even non-associative combines (floating point) give the same
//    result at every thread count -- including the serial fallback, which
//    walks the identical chunk sequence.
//  * Serial fallback.  With LAPX_THREADS=1 (or set_thread_count(1)) no
//    worker threads are used at all.
//  * No nesting.  A body that itself calls parallel_for runs that inner
//    loop serially; the pool never deadlocks on recursive use.
//  * Concurrent callers.  Independent threads (lapxd scheduler executors)
//    may enter parallel loops simultaneously: one caller at a time
//    coordinates the worker pool, the others run their loop inline on
//    their own thread.  Either way the chunk sequence -- and therefore
//    the result -- is identical, so concurrency never shows in output.
//
// The thread count comes from the LAPX_THREADS environment variable
// (default: hardware concurrency); set_thread_count overrides it at run
// time, which the determinism tests use to compare 1-thread and 8-thread
// executions inside one process.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace lapx::runtime {

/// Number of threads parallel loops currently run with (>= 1).
int thread_count();

/// Overrides the thread count; n < 1 restores the LAPX_THREADS/hardware
/// default.  Every later job runs on at most this many participants, even
/// when an earlier, larger setting left more worker threads alive.  Not
/// safe to call concurrently with running loops.
void set_thread_count(int n);

/// Process-wide pool scheduling counters (monotone).  These make scheduling
/// degradation observable: a lapxd executor that loses the pool to a
/// concurrent job runs its loop inline on its own thread -- correct (chunk
/// boundaries depend on n alone) but single-threaded, so E15 and the
/// stress tests can watch `jobs_inline_contended` to assert the degradation
/// stays bounded.
struct PoolStats {
  std::uint64_t jobs_coordinated = 0;      ///< ran on the worker pool
  std::uint64_t jobs_serial = 0;           ///< 1 thread or 1 chunk: inline
  std::uint64_t jobs_inline_nested = 0;    ///< nested loop: inline by design
  std::uint64_t jobs_inline_contended = 0; ///< lost the pool: degraded inline
  std::uint64_t contended_acquires = 0;    ///< lost once, won after retries
};
PoolStats pool_stats();

namespace detail {

/// Parses a base-10 integer with full consumption and range check: returns
/// true and writes *out only when `s` is wholly an integer in [lo, hi].
/// Leading/trailing whitespace, trailing junk ("8x"), empty strings and
/// out-of-range values all return false.  Shared by LAPX_THREADS and the
/// LAPXD_* environment parsers so malformed values fail loudly instead of
/// being silently truncated by atoi.
bool parse_env_int(const char* s, long long lo, long long hi, long long* out);

/// True while the calling thread is executing chunks of a pool job (such a
/// thread must run further parallel constructs inline).
bool in_parallel();

/// Executes fn(0) .. fn(chunks-1) on the pool (or inline when the pool is
/// serial / the call is nested).  Blocks until all chunks completed; the
/// first exception thrown by any chunk is rethrown.
void run_chunks(std::int64_t chunks,
                const std::function<void(std::int64_t)>& fn);

/// Chunk count for an n-element loop: depends on n ONLY (determinism).
inline std::int64_t chunks_for(std::int64_t n) {
  if (n < 32) return 1;
  return std::min<std::int64_t>(n, 256);
}

}  // namespace detail

/// Calls f(i) for every i in [0, n).  f must only touch state owned by
/// index i (or otherwise synchronized); iteration order is unspecified.
template <typename F>
void parallel_for(std::int64_t n, F&& f) {
  if (n <= 0) return;
  const std::int64_t chunks = detail::chunks_for(n);
  const std::int64_t step = (n + chunks - 1) / chunks;
  detail::run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t lo = c * step;
    const std::int64_t hi = std::min(n, lo + step);
    for (std::int64_t i = lo; i < hi; ++i) f(i);
  });
}

/// Deterministic reduction: result = combine(..., map(i), ...) folded left
/// to right within each chunk, chunks folded in chunk order.  The grouping
/// depends only on n, so the value is independent of the thread count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::int64_t n, T init, Map&& map, Combine&& combine) {
  if (n <= 0) return init;
  const std::int64_t chunks = detail::chunks_for(n);
  const std::int64_t step = (n + chunks - 1) / chunks;
  // One object per chunk: a bare std::vector<bool> would pack neighbouring
  // chunks' partials into one word, and their concurrent writes would race.
  struct Partial {
    T value;
  };
  std::vector<Partial> partial(static_cast<std::size_t>(chunks), {init});
  detail::run_chunks(chunks, [&](std::int64_t c) {
    const std::int64_t lo = c * step;
    const std::int64_t hi = std::min(n, lo + step);
    T acc = init;
    for (std::int64_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
    partial[static_cast<std::size_t>(c)].value = acc;
  });
  T result = init;
  for (std::int64_t c = 0; c < chunks; ++c)
    result = combine(result, partial[static_cast<std::size_t>(c)].value);
  return result;
}

}  // namespace lapx::runtime
