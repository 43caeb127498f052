#pragma once
// Response-ordering layer: the determinism-preserving merge.
//
// With executors > 1 the scheduler completes jobs in whatever order the
// hardware likes; the service contract says a connection's responses
// arrive in submission order with exactly the bytes a single-executor
// service would have produced.  ResponseSequencer is the reorder buffer
// that closes that gap: Service::Pending entries enter in submission
// order and leave head-first, each head released only when resolved.
// Out-of-order completions simply wait in the buffer -- parallelism shows
// up as throughput, never as reordering.
//
// Waiting for the head: drain_ready() stops at the first unready entry.
// Its completion signals the Notify the connection passed to
// Service::submit, so the connection loop sleeps on that signal, never on
// a timer.
//
// One sequencer per connection (or per in-process request stream); it is
// deliberately NOT thread-safe -- a connection is a single logical stream
// and gains nothing from concurrent draining.  Flow control: callers cap
// in_flight() (the server at a fixed pipeline depth) by blocking on
// drain_one() before submitting more, which keeps any one connection from
// monopolizing the scheduler queue.

#include <cstddef>
#include <deque>
#include <string>

#include "lapx/service/service.hpp"

namespace lapx::service {

class ResponseSequencer {
 public:
  /// Takes ownership of the next in-flight response.  Must be called in
  /// submission order: responses leave in the order they entered.
  void enqueue(Service::Pending pending);

  /// Number of responses not yet emitted.
  std::size_t in_flight() const { return pending_.size(); }

  /// Appends every contiguous ready response at the head of the stream to
  /// `out` (each followed by '\n') without blocking; stops at the first
  /// response still computing.  Returns how many were emitted.
  std::size_t drain_ready(std::string& out);

  /// Blocks for the head response and appends it (plus '\n') to `out`.
  /// Returns false when nothing is in flight.
  bool drain_one(std::string& out);

  /// Blocks until everything in flight has been emitted into `out`.
  void drain_all(std::string& out);

 private:
  void emit_head(std::string& out);

  std::deque<Service::Pending> pending_;
};

}  // namespace lapx::service
