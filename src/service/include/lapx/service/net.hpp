#pragma once
// Shared socket plumbing for the lapxd front ends (Server and the shard
// Router): endpoint binding, the hardened recv/send primitives, and the
// one accept loop + pipelined connection loop both front ends run, so
// EINTR, SIGPIPE, resource exhaustion, flow control and wakeups behave
// identically in both.
//
// Every wait is a poll() on file descriptors with no timeout.  A
// connection thread sleeps until one of these becomes readable:
//   * its client socket (more request bytes, or the peer's close);
//   * the front end's stop eventfd -- stop() and an acknowledged
//     `shutdown` write it, and it is never cleared;
//   * its own wake eventfd, which the scheduler signals when a job this
//     connection waits on resolves (the Notify handed to each submit);
//   * the shard-channel fd its sequencer head reported blocking on.
// No lost wakeup: the wake fd is consumed BEFORE drain_ready(), and the
// scheduler signals only after setting the job's promise, so a completion
// that lands between the drain and the poll leaves the fd readable.  The
// Notify holds the wake eventfd by shared ownership, so a completion
// racing the connection's close writes to a still-open fd, never to a
// closed (or reused) fd number.

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lapx/service/ordering.hpp"
#include "lapx/service/scheduler.hpp"
#include "lapx/service/server.hpp"

namespace lapx::service::net {

/// A bound, listening socket for an Endpoint.  Owns the fd and (for
/// Unix-domain endpoints) unlinks the path on destruction.
class ListenSocket {
 public:
  /// Binds and listens; throws std::runtime_error on socket failures.
  /// Unix-domain paths are unlinked before binding (rebinding a path a
  /// dead process left behind must succeed).  tcp_port 0 binds an
  /// ephemeral port, reported by bound_tcp_port().
  ListenSocket(const Endpoint& endpoint, int backlog);
  ~ListenSocket();

  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  int fd() const { return fd_; }
  int bound_tcp_port() const { return bound_port_; }

 private:
  int fd_ = -1;
  int bound_port_ = 0;
  std::string unix_path_;  // unlinked on teardown when non-empty
};

/// recv with EINTR retry: a signal delivered mid-read is not a peer
/// close; bailing out used to drop the connection and every pipelined
/// in-flight response.  The CLI installs no signal handlers, but a
/// process embedding a front end may (and a stopped-then-continued
/// process sees EINTR too).  Returns recv's result with EINTR folded
/// away.  Honors the testing::inject_recv_eintr fault-injection seam.
ssize_t recv_retry(int fd, char* buf, std::size_t n);

/// Writes all of `data`, retrying EINTR; gives up silently on any other
/// error (peer gone; nothing useful to do).
void send_all(int fd, const std::string& data);

/// A non-blocking eventfd: signal() makes fd() readable until clear()
/// consumes every signal so far.  Owns the fd.  signal() is thread-safe
/// and async-signal-safe.
class EventFd {
 public:
  /// Throws std::runtime_error when no fd can be created.
  EventFd();
  ~EventFd();

  EventFd(const EventFd&) = delete;
  EventFd& operator=(const EventFd&) = delete;

  int fd() const { return fd_; }
  void signal();
  void clear();

 private:
  int fd_ = -1;
};

/// The accept loop, connection threads and stop signal shared by Server
/// and the shard Router, plus the pipelined connection loop they run.
class FrontEnd {
 public:
  /// Handles one request line: enqueues its response on `seq`, passing
  /// `wake` to Service::submit so the scheduler wakes this connection
  /// when the job resolves.  Returns true when the line was an
  /// acknowledged `shutdown`: the loop then emits what is in flight,
  /// closes, and stops the whole front end.
  using LineFn = std::function<bool(const std::string& line,
                                    ResponseSequencer& seq,
                                    const BatchScheduler::Notify& wake)>;

  /// Binds and listens (ListenSocket); throws std::runtime_error on
  /// socket failures.  `max_pipeline` caps each connection's in-flight
  /// responses: reading pauses, blocking on the oldest, at that depth.
  FrontEnd(const Endpoint& endpoint, int backlog, std::size_t max_line_bytes,
           std::size_t max_pipeline);
  /// stop(), then joins every connection thread.
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Accepts connections until stop(), running `on_connection(fd)` on a
  /// thread per connection (it must close `fd`, as serve_connection
  /// does).  Joins all connection threads before returning.
  void serve_forever(std::function<void(int fd)> on_connection);

  /// The pipelined connection loop: submits every complete line through
  /// `on_line` without waiting for its response and emits responses in
  /// submission order as they resolve.  Runs until the peer closes, the
  /// front end stops, `on_line` reports a shutdown, or a line exceeds
  /// max_line_bytes (answered with one final `too_large` error); then
  /// emits everything still in flight and closes `fd`.
  void serve_connection(int fd, const LineFn& on_line);

  /// Wakes the accept loop and every connection loop; serve_forever then
  /// returns once the connections have drained.  Idempotent and
  /// async-signal-safe; a stopped front end stays stopped.
  void stop();

  int bound_tcp_port() const { return listener_.bound_tcp_port(); }

 private:
  // A connection thread flips `done` as its last action so the accept
  // loop can join and reap it; without reaping, thread handles accumulate
  // for the daemon's whole lifetime.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void reap_finished();
  void join_all();

  ListenSocket listener_;
  EventFd stop_fd_;  // signalled by stop(), never cleared
  std::size_t max_line_bytes_;
  std::size_t max_pipeline_;
  std::vector<Connection> connections_;
};

}  // namespace lapx::service::net
