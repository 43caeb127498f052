#include "lapx/runtime/parallel.hpp"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace lapx::runtime {

namespace detail {

bool parse_env_int(const char* s, long long lo, long long hi, long long* out) {
  if (!s || !*s) return false;
  // strtoll silently skips leading whitespace; the contract is full
  // consumption, so " 8" must fail the same way "8 " does.
  if (std::isspace(static_cast<unsigned char>(*s))) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace detail

namespace {

// Pause instruction for spin loops; yields every so often so oversubscribed
// configurations (more spinners than cores) still make progress.
inline void spin_pause(int i) {
  if ((i & 63) == 63) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

int default_threads() {
  if (const char* s = std::getenv("LAPX_THREADS")) {
    long long v = 0;
    if (detail::parse_env_int(s, 1, 1024, &v)) return static_cast<int>(v);
    std::fprintf(stderr,
                 "lapx: ignoring invalid LAPX_THREADS=\"%s\" (expected an "
                 "integer in [1, 1024]); falling back to hardware "
                 "concurrency\n",
                 s);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// True while the current thread executes chunks of some job: nested
// parallel loops on such a thread run inline instead of re-entering the
// pool (which would deadlock waiting for workers busy in the outer job).
thread_local bool in_parallel_region = false;

struct StatCounters {
  std::atomic<std::uint64_t> coordinated{0};
  std::atomic<std::uint64_t> serial{0};
  std::atomic<std::uint64_t> inline_nested{0};
  std::atomic<std::uint64_t> inline_contended{0};
  std::atomic<std::uint64_t> contended_acquires{0};
};
StatCounters g_stats;

class Pool {
 public:
  static Pool& instance() {
    static Pool* pool = new Pool;  // leaked: workers may outlive statics
    return *pool;
  }

  int threads() const { return threads_.load(std::memory_order_relaxed); }

  void set_threads(int n) {
    threads_.store(n < 1 ? default_threads() : n, std::memory_order_relaxed);
  }

  void run(std::int64_t chunks, const std::function<void(std::int64_t)>& fn) {
    const int want = static_cast<int>(
        std::min<std::int64_t>(threads(), chunks));
    if (want <= 1 || in_parallel_region) {
      (in_parallel_region ? g_stats.inline_nested : g_stats.serial)
          .fetch_add(1, std::memory_order_relaxed);
      for (std::int64_t c = 0; c < chunks; ++c) fn(c);
      return;
    }
    // The pool coordinates one job at a time (fn_/chunks_/next_ are a
    // single broadcast slot).  Concurrent callers -- lapxd executors
    // computing independent requests -- must not stomp an active job, so
    // only one caller becomes the coordinator; the rest retry briefly and
    // then degrade to inline execution on their own thread.  Results are
    // unaffected: chunk boundaries depend on n alone and inline execution
    // walks the same chunk sequence, so this is a scheduling choice, not a
    // semantic one -- but it is a *visible* one: jobs_inline_contended in
    // pool_stats() counts every degradation so benches and the scheduler
    // stress test can assert it stays bounded.
    std::unique_lock<std::mutex> job(job_mu_, std::try_to_lock);
    if (!job.owns_lock()) {
      for (int i = 0; i < kAcquireRetries && !job.owns_lock(); ++i) {
        spin_pause(i);
        (void)job.try_lock();
      }
      if (!job.owns_lock()) {
        g_stats.inline_contended.fetch_add(1, std::memory_order_relaxed);
        for (std::int64_t c = 0; c < chunks; ++c) fn(c);
        return;
      }
      g_stats.contended_acquires.fetch_add(1, std::memory_order_relaxed);
    }
    g_stats.coordinated.fetch_add(1, std::memory_order_relaxed);
    ensure_workers(want - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      helpers_ = want - 1;
      chunks_ = chunks;
      next_.store(0, std::memory_order_relaxed);
      error_ = nullptr;
      joined_.store(0, std::memory_order_relaxed);
      left_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
    drain(fn);  // the calling thread participates
    wait_workers();
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  Pool() = default;

  static constexpr int kAcquireRetries = 64;
  static constexpr int kWorkerSpins = 2048;    // pre-sleep pickup window
  static constexpr int kCoordinatorSpins = 4096;

  // The pool only grows; a job caps its own participants instead (a
  // worker whose spawn slot is >= helpers_ sits the job out).
  void ensure_workers(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < n) {
      const int slot = static_cast<int>(workers_.size());
      workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
  }

  void drain(const std::function<void(std::int64_t)>& fn) {
    in_parallel_region = true;
    while (true) {
      const std::int64_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks_) break;
      try {
        fn(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
    }
    in_parallel_region = false;
  }

  // Round barrier, completion side.  Workers join under mu_ and leave with
  // one lock-free increment of left_; the coordinator spins on the counts
  // with backoff and only then parks on the condvar.  An unlocked
  // joined_ == left_ can hold transiently (a worker may be about to join),
  // so quiescence is always revalidated under mu_ before the job is
  // declared over -- the same serialization that keeps late-waking workers
  // from joining a finished job (they recheck fn_ under mu_).
  //
  // left_ is loaded with acquire: a worker that leaves without taking mu_
  // publishes its last unlocked read (chunks_ in drain()) only through its
  // acq_rel increment, and the next job's coordinator -- this thread or
  // the next job_mu_ holder -- rewrites it.  The increments form one
  // release sequence, so reading the final count synchronizes with every
  // leaver.
  bool workers_left() const {
    return joined_.load(std::memory_order_relaxed) ==
           left_.load(std::memory_order_acquire);
  }

  void wait_workers() {
    for (int i = 0; i < kCoordinatorSpins; ++i) {
      if (workers_left()) break;
      spin_pause(i);
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (!workers_left()) {
      parked_ = true;
      done_cv_.wait(lock, [&] { return workers_left(); });
      parked_ = false;
    }
    fn_ = nullptr;
  }

  void worker_loop(int slot) {
    std::uint64_t seen = 0;
    while (true) {
      // Spin-then-sleep pickup: round-heavy callers (the refinement
      // engine) publish the next job microseconds after the last one, so
      // a short spin on the atomic generation dodges the condvar syscall
      // on the hot path; idle workers still sleep.
      for (int i = 0; i < kWorkerSpins; ++i) {
        if (generation_.load(std::memory_order_acquire) != seen) break;
        spin_pause(i);
      }
      const std::function<void(std::int64_t)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return generation_.load(std::memory_order_relaxed) != seen;
        });
        seen = generation_.load(std::memory_order_relaxed);
        // The job already finished before we woke, or it runs on fewer
        // helpers than the pool holds (set_thread_count lowered the cap).
        if (!fn_ || slot >= helpers_) continue;
        fn = fn_;
        joined_.fetch_add(1, std::memory_order_relaxed);
      }
      drain(*fn);
      // Wakeup rule: any worker whose increment makes left_ catch up to
      // joined_ takes the lock.  The acq_rel RMW on left_ chains all
      // leavers, so the worker that completes the round observes the final
      // joined_ value (every join is sequenced before that joiner's own
      // leave), locks, and notifies; the predicate is still revalidated
      // under mu_, so a stale-joined_ spurious notify is harmless.
      const std::uint64_t nleft =
          left_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (nleft == joined_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(mu_);
        if (parked_ && joined_.load(std::memory_order_relaxed) ==
                           left_.load(std::memory_order_relaxed))
          done_cv_.notify_one();
      }
    }
  }

  std::mutex job_mu_;  // held by the coordinating caller for a whole job
  std::mutex mu_;
  std::condition_variable cv_, done_cv_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> joined_{0};  // modified under mu_ only
  std::atomic<std::uint64_t> left_{0};
  bool parked_ = false;                   // guarded by mu_
  const std::function<void(std::int64_t)>* fn_ = nullptr;
  int helpers_ = 0;                       // guarded by mu_
  std::int64_t chunks_ = 0;
  std::atomic<std::int64_t> next_{0};
  std::exception_ptr error_;
  std::atomic<int> threads_{default_threads()};
};

}  // namespace

int thread_count() { return Pool::instance().threads(); }

void set_thread_count(int n) { Pool::instance().set_threads(n); }

PoolStats pool_stats() {
  PoolStats s;
  s.jobs_coordinated = g_stats.coordinated.load(std::memory_order_relaxed);
  s.jobs_serial = g_stats.serial.load(std::memory_order_relaxed);
  s.jobs_inline_nested =
      g_stats.inline_nested.load(std::memory_order_relaxed);
  s.jobs_inline_contended =
      g_stats.inline_contended.load(std::memory_order_relaxed);
  s.contended_acquires =
      g_stats.contended_acquires.load(std::memory_order_relaxed);
  return s;
}

namespace detail {

void run_chunks(std::int64_t chunks,
                const std::function<void(std::int64_t)>& fn) {
  Pool::instance().run(chunks, fn);
}

bool in_parallel() { return in_parallel_region; }

}  // namespace detail

}  // namespace lapx::runtime
