#pragma once
// Batch scheduler: bounded admission in front of the parallel runtime.
//
// Connection threads do not compute; they submit work here and wait on a
// shared_future.  The scheduler provides the three service guarantees the
// raw thread pool cannot:
//
//  * Backpressure.  The queue is bounded; submit() on a full queue fails
//    fast with Outcome::Status::kBusy (the protocol's `busy` error, the
//    429 analogue) instead of growing memory without bound.
//  * Coalescing.  Concurrent requests with the same cache fingerprint
//    share ONE execution: the second submitter gets the first job's
//    future.  Combined with the result cache this makes a thundering herd
//    of identical queries cost one computation.
//  * Deadlines.  A request may carry a queue-wait budget; jobs whose
//    budget expired before an executor picked them up complete with
//    kDeadline and are never run.
//
// Executors default to a single thread: requests are *serialized* onto
// runtime/parallel (which parallelizes inside each request via
// parallel_for), so per-request work is never interleaved and responses
// stay deterministic.  With executors > 1 independent requests compute
// concurrently and may COMPLETE out of order; the response-ordering layer
// (service/ordering.hpp) releases each connection's responses in the order
// it enqueued them, so parallelism is observationally invisible to any
// single connection.
//
// Shutdown contract: every accepted job resolves.  Executors that observe
// `stopping_` drain the queue, resolving still-queued jobs as kBusy,
// before exiting; the destructor keeps a final sweep as a backstop.  No
// future returned by submit() can hang across destruction.
//
// Completion notification: a submission may carry a Notify callback,
// which joins the job's waiter list (a coalesced join appends to the
// running job's list).  Every path that resolves a queued job -- executed,
// deadline-expired, drained as busy at shutdown -- runs each waiter once,
// strictly AFTER setting the promise, so a waiter woken by it always finds
// its future ready.  Submissions returned already resolved (queue full,
// stopping) never notify: the caller can see that without waiting.  The
// socket front ends use this to sleep on a per-connection eventfd instead
// of polling futures on a timer.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lapx/core/interner.hpp"
#include "lapx/service/protocol.hpp"

namespace lapx::service {

/// What a scheduled job produced.
struct Outcome {
  enum class Status { kOk, kError, kBusy, kDeadline };
  Status status = Status::kOk;
  std::string payload;  ///< serialized result (kOk) or message (kError)
  /// The error code a kError response carries: a handler's ServiceError
  /// sets it, and any other exception keeps kInternal.
  ErrorCode code = ErrorCode::kInternal;
};

class BatchScheduler {
 public:
  struct Options {
    std::size_t queue_capacity = 128;
    int executors = 1;
  };
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t rejected_busy = 0;
    std::uint64_t expired = 0;
    std::uint64_t executed = 0;   ///< jobs an executor started running
    std::uint64_t completed = 0;  ///< jobs that ran and resolved
    /// Gauge (not a counter): jobs waiting in the queue at stats() time.
    /// Surfaced in `stats` so an operator can see how close the bounded
    /// queue is to emitting `busy` backpressure.
    std::uint64_t queued = 0;
  };
  // Conservation invariant, once every returned future is ready:
  //   submitted == completed + rejected_busy + coalesced + expired
  // (jobs resolved kBusy at shutdown count under rejected_busy).

  using Work = std::function<Outcome()>;
  /// Completion callback: runs once, on the resolving thread and outside
  /// the scheduler lock, after the submission's future became ready.  Must
  /// be cheap and must not throw.
  using Notify = std::function<void()>;

  /// One submit()'s outcome, always valid (see submit()).
  struct Submission {
    std::shared_future<Outcome> future;
  };

  BatchScheduler() : BatchScheduler(Options{}) {}
  explicit BatchScheduler(Options opt);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueues work (or joins an identical in-flight job when `fingerprint`
  /// != core::kNoType).  The returned future is always valid; a full queue
  /// yields an already-resolved kBusy outcome.  `deadline_ms < 0` means no
  /// deadline.  A non-empty `on_ready` runs once when the returned future
  /// becomes ready -- unless submit() returns it already resolved.
  Submission submit(core::TypeId fingerprint, Work work,
                    std::int64_t deadline_ms = -1, Notify on_ready = {});

  Stats stats() const;

  int executors() const { return opt_.executors; }

 private:
  struct Job {
    core::TypeId fingerprint = core::kNoType;
    Work work;
    std::promise<Outcome> promise;
    std::shared_future<Outcome> future;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    std::vector<Notify> waiters;  ///< guarded by mu_ until detached
  };

  void executor_loop();
  // Pops and resolves every queued job as kBusy; requires mu_ NOT held.
  void drain_queue_resolving();
  // Requires mu_: removes the job from inflight_ (no later submission can
  // join it) and hands back its waiters for resolve().
  std::vector<Notify> detach_locked(Job& job);
  // Requires mu_ NOT held: sets the outcome, then runs the waiters.
  static void resolve(Job& job, std::vector<Notify> waiters, Outcome out);

  Options opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  // Queued or running jobs by fingerprint, for coalescing.
  std::unordered_map<core::TypeId, std::shared_ptr<Job>> inflight_;
  Stats stats_;
  bool stopping_ = false;
  std::vector<std::thread> executors_;
};

}  // namespace lapx::service
