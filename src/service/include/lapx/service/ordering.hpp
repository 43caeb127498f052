#pragma once
// Response-ordering layer: the determinism-preserving merge.
//
// With executors > 1 the scheduler completes jobs in whatever order the
// hardware likes; the service contract says a connection's responses
// arrive in submission order with exactly the bytes a single-executor
// service would have produced.  ResponseSequencer is the reorder buffer
// that closes that gap: entries enter in submission order and leave
// head-first, each head released only when resolved.  Out-of-order
// completions simply wait in the buffer -- parallelism shows up as
// throughput, never as reordering.
//
// Three kinds of entry share the buffer, so the same sequencer merges
// local and remote work (the sharded router's cross-shard merge):
//   * a local Service::Pending (enqueue) -- resolved or executor-deferred;
//   * an already-rendered response line (enqueue_resolved) -- parse
//     errors, router-local ops, unavailable-shard errors;
//   * a deferred remote response (enqueue_deferred) -- a {blocked_fd,
//     fetch} pair, typically wrapping a shard channel's next line.
// Because entries only ever leave head-first, a remote fetch() is invoked
// at most once and strictly in enqueue order per channel, which is what
// lets a FIFO byte stream from a shard stand in for N per-request
// futures.
//
// Waiting for the head: drain_ready() stops at the first unready entry.
// A deferred head reports the fd its response will arrive on
// (head_blocked_fd()), so the connection loop polls exactly that fd; a
// local head reports none -- its completion signals the Notify the
// connection passed to Service::submit.  Nothing here waits on a timer.
//
// One sequencer per connection (or per in-process request stream); it is
// deliberately NOT thread-safe -- a connection is a single logical stream
// and gains nothing from concurrent draining.  Flow control: callers cap
// in_flight() (e.g. Server::Options::max_pipeline) by blocking on
// drain_one() before submitting more, which keeps any one connection from
// monopolizing the scheduler queue.

#include <cstddef>
#include <deque>
#include <functional>
#include <string>

#include "lapx/service/service.hpp"

namespace lapx::service {

class ResponseSequencer {
 public:
  /// Takes ownership of the next in-flight response.  Must be called in
  /// submission order (Pending sequence numbers strictly increase).
  void enqueue(Service::Pending pending);

  /// Enqueues an already-rendered response line (no trailing '\n').
  void enqueue_resolved(std::string response_line);

  /// Enqueues a response that resolves elsewhere: `blocked_fd` is a
  /// non-blocking availability probe returning -1 once `fetch` would not
  /// block, else the fd whose readability it waits for; `fetch` blocks for
  /// (and renders) the response line (no trailing '\n').  `fetch` is
  /// called at most once, and only when this entry is at the head of the
  /// stream; both callables must not throw (render failures as error
  /// responses).
  void enqueue_deferred(std::function<int()> blocked_fd,
                        std::function<std::string()> fetch);

  /// Number of responses not yet emitted.
  std::size_t in_flight() const { return pending_.size(); }

  /// Appends every contiguous ready response at the head of the stream to
  /// `out` (each followed by '\n') without blocking; stops at the first
  /// response still computing.  Returns how many were emitted.
  std::size_t drain_ready(std::string& out);

  /// After drain_ready(): the fd the unready deferred head reported, or -1
  /// (nothing in flight, or a local head).
  int head_blocked_fd() const { return head_fd_; }

  /// Blocks for the head response and appends it (plus '\n') to `out`.
  /// Returns false when nothing is in flight.
  bool drain_one(std::string& out);

  /// Blocks until everything in flight has been emitted into `out`.
  void drain_all(std::string& out);

 private:
  struct Entry {
    enum class Kind { kLocal, kResolved, kDeferred };
    Kind kind = Kind::kResolved;
    Service::Pending local;
    std::string line;
    std::function<int()> blocked_fd;
    std::function<std::string()> fetch;
  };

  bool head_ready();
  void emit_head(std::string& out);

  std::deque<Entry> pending_;
  int head_fd_ = -1;
};

}  // namespace lapx::service
