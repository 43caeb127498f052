#pragma once
// The lapxd service core: protocol dispatch over store + cache + scheduler.
//
// This is the whole daemon minus the socket: Service::handle maps one
// request line to one response line.  The socket server (service/server.hpp)
// and the in-process load generator (bench_service) both drive exactly
// this object, so what the bench measures is what the daemon serves.
//
// Request flow for a query op:
//   parse -> resolve graph entry (shared_ptr pins it against eviction)
//         -> fingerprint (content-addressed; protocol.hpp)
//         -> result cache probe  ..................... warm: O(lookup)
//         -> batch scheduler (bounded queue, coalescing, deadline)
//         -> handler on runtime/parallel -> cache fill (first writer wins)
// Mutating/admin ops (generate, upload, open, mutate, drop, list, stats,
// session_info, ping, cache_save, cache_info, shutdown) run inline on the
// calling thread; they only touch the mutex-guarded store/cache/
// persistence layers.  `mutate` edits a stored graph in place (next
// epoch of the same session); running inline in submission order is what
// makes the epoch sequence -- and with it every later response -- a pure
// function of the request sequence.
//
// With Options::cache_dir set, the result cache is durable: construction
// replays the snapshot + journal from that directory (re-interning each
// fingerprint, so warm-restart responses stay byte-identical to cold
// ones), every first-writer-wins fill is journaled, and destruction (or
// `cache_save`) writes a fresh snapshot and truncates the journal.  A
// SIGKILL at any point leaves the directory loadable -- the journal's
// torn tail is discarded on the next start (service/persist.hpp).
//
// Two entry points share that flow:
//   handle(line)  -- synchronous: one request line in, one response out.
//   submit(line)  -- pipelined: everything order-sensitive (parsing,
//     admin mutation, entry resolution, fingerprinting, cache probe) runs
//     inline in submission order; only the PURE compute of a query miss is
//     deferred to the scheduler.  A ResponseSequencer (service/ordering.hpp)
//     emits the returned Pendings in the order they were submitted, however
//     their computations complete.  Pipelined submission is therefore
//     observationally identical to a synchronous loop -- byte for byte --
//     at any executor count.
//
// Determinism invariant: for every request except `stats` and `list`
// (whose results reflect service state, not graph content), the response
// is byte-identical across LAPX_THREADS values, across cold vs. warm
// cache, and across scheduler executor counts -- a warm hit replays the
// cold computation's exact bytes (the cache is first-writer-wins, so a
// fingerprint's bytes never change while resident), and the envelope is a
// pure function of the request id.  `mutate` and `session_info` ARE
// covered: they surface epochs, store counters, and the content hash
// (GraphEntry::content_hex, never raw interner ids, which depend on
// process history), all pure functions of the request sequence.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "lapx/service/handlers.hpp"
#include "lapx/service/persist.hpp"
#include "lapx/service/protocol.hpp"
#include "lapx/service/result_cache.hpp"
#include "lapx/service/scheduler.hpp"
#include "lapx/service/session_store.hpp"

namespace lapx::service {

class Service {
 public:
  struct Options {
    SessionStore::Options store;
    ResultCache::Options cache;
    BatchScheduler::Options scheduler;
    /// Non-empty: persist the result cache here (service/persist.hpp) --
    /// replay snapshot + journal on construction, journal every fill,
    /// snapshot + truncate the journal on destruction and `cache_save`.
    std::string cache_dir;
  };

  Service() : Service(Options{}) {}
  explicit Service(Options opt);
  ~Service();

  /// One in-flight response: already resolved (admin op, cache hit, any
  /// error) or waiting on a scheduled job.  Rendering the envelope is
  /// deferred to get() so it happens on the waiting thread, not the
  /// executor; the bytes depend only on the outcome and the request id.
  class Pending {
   public:
    Pending() = default;

    /// Non-blocking: true once get() would not wait.
    bool ready() const {
      return resolved_ ||
             future_.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
    }

    /// Blocks for the outcome and returns the response line (no '\n').
    const std::string& get();

   private:
    friend class Service;
    std::optional<std::int64_t> id_;
    std::shared_future<Outcome> future_;
    std::string response_;
    bool resolved_ = false;
  };

  /// Handles one request line; returns one response line (no '\n').
  /// Never throws on client input -- malformed requests come back as
  /// bad_request envelopes.  Equivalent to submit(line).get().
  std::string handle(const std::string& line);

  /// Pipelined entry point: performs all order-sensitive work inline,
  /// defers pure query compute to the scheduler, and returns immediately.
  /// Callers that need responses in submission order feed the Pendings
  /// through a ResponseSequencer (or simply get() them in order).
  /// A non-empty `on_ready` runs once, on an executor, after a deferred
  /// Pending became ready (BatchScheduler::Notify); it never runs for a
  /// Pending returned already ready, so a caller that drains ready
  /// Pendings before sleeping on the callback's signal never misses one.
  Pending submit(const std::string& line,
                 const BatchScheduler::Notify& on_ready = {});

  /// True once a `shutdown` request has been acknowledged; the socket
  /// server checks it after each line it submits and then stops.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Drops all cached results (the bench's cold-run switch).  In-memory
  /// only; persisted entries reload on the next start.
  void clear_cache() { cache_.clear(); }

  /// Snapshots the cache to the persistence dir and truncates the
  /// journal; no-op (true) without persistence.  Also what `cache_save`
  /// and destruction run.
  bool save_cache();

  SessionStore& store() { return store_; }
  ResultCache& cache() { return cache_; }
  const BatchScheduler& scheduler() const { return scheduler_; }
  /// Persistence layer; nullptr when `cache_dir` was empty.
  const CachePersist* persist() const { return persist_.get(); }

 private:
  std::string admin(const Request& req);
  // Cache probe + scheduler dispatch for a query op; fills `out` with
  // either a resolved response or a deferred future.
  void query(const Request& req, Pending& out,
             const BatchScheduler::Notify& on_ready);

  SessionStore store_;
  ResultCache cache_;
  // Outlives every fill hook invocation: the hook fires from executor
  // jobs, and scheduler_ (below) is destroyed before persist_.
  std::unique_ptr<CachePersist> persist_;
  // Declared after store_/cache_: destroyed FIRST, so executor jobs (which
  // touch the cache and pin store entries) all finish before either dies.
  BatchScheduler scheduler_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace lapx::service
