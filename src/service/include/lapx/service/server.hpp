#pragma once
// lapxd socket front end: line-delimited JSON over a Unix-domain or
// loopback TCP socket.
//
// One accept loop, one thread per connection; connection threads parse
// nothing -- each received line goes straight to Service::submit, which
// owns validation, caching, scheduling, and backpressure.  Connections
// are PIPELINED: a client may send many request lines without waiting;
// query compute runs on the scheduler's executors while the connection
// thread keeps reading, and a ResponseSequencer emits responses strictly
// in submission order (at most 64 in flight per connection).
// The response transcript is therefore byte-identical to a synchronous
// request/response loop at any executor count.
//
// Every wait is a poll() on file descriptors with no timeout.  A
// connection thread sleeps until one of these becomes readable:
//   * its client socket (more request bytes, or the peer's close);
//   * the server's stop eventfd -- stop() and an acknowledged `shutdown`
//     write it, and it is never cleared;
//   * its own wake eventfd, which the scheduler signals when a job this
//     connection waits on resolves (the Notify handed to each submit).
// No lost wakeup: the wake fd is consumed BEFORE drain_ready(), and the
// scheduler signals only after setting the job's promise, so a completion
// that lands between the drain and the poll leaves the fd readable.  The
// Notify holds the wake eventfd by shared ownership, so a completion
// racing the connection's close writes to a still-open fd, never to a
// closed (or reused) fd number.
//
// A `shutdown` request is acknowledged on its own connection and signals
// the stop eventfd: the accept loop and every other connection wake, emit
// what they have in flight and close, and `serve_forever` returns.
// stop() does the same from another thread or a signal handler (it is
// async-signal-safe).  The CLI installs no signal handler: SIGINT and
// SIGTERM end `lapx_cli serve` abruptly, which the crash-safe cache
// journal tolerates.
//
// Lines are capped (max_line_bytes) so a hostile peer cannot buffer
// unbounded garbage; an overlong line terminates that connection after
// every in-flight response has been emitted plus one final `too_large`
// error line, so a client can tell protocol rejection from a crash.  The
// connection then half-closes and discards input (up to a fixed cap)
// until the peer closes, so the kernel has no unread input to answer with
// a reset that could drop the farewell.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lapx/service/service.hpp"

namespace lapx::service {

/// Where to listen.  Exactly one of `unix_path` / `tcp_port` is used:
/// a non-empty path wins, else a TCP socket on 127.0.0.1:`tcp_port`.
struct Endpoint {
  std::string unix_path;
  int tcp_port = 0;
};

class Server {
 public:
  struct Options {
    Endpoint endpoint;
    std::size_t max_line_bytes = std::size_t{1} << 24;  ///< 16 MiB
  };

  /// Binds and listens; throws std::runtime_error on socket failures
  /// (address in use, bad path, ...).
  Server(Service& service, Options opt);
  /// stop(), then joins every connection thread.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accepts and serves connections until shutdown/stop.  Joins all
  /// connection threads before returning.
  void serve_forever();

  /// Wakes the accept loop and every connection loop; serve_forever then
  /// returns once the connections have drained.  Idempotent and
  /// async-signal-safe; a stopped server stays stopped.
  void stop();

  /// The bound TCP port (after construction); useful with tcp_port = 0,
  /// which binds an ephemeral port.  0 for Unix-domain endpoints.
  int bound_tcp_port() const;

 private:
  class ListenSocket;  // server.cpp
  class EventFd;       // server.cpp

  // A connection thread flips `done` as its last action so the accept
  // loop can join and reap it; without reaping, thread handles accumulate
  // for the daemon's whole lifetime.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  /// The pipelined connection loop: submits every complete line without
  /// waiting for its response and emits responses in submission order as
  /// they resolve.  Runs until the peer closes, the server stops, a line
  /// is an acknowledged `shutdown`, or a line exceeds max_line_bytes
  /// (answered with one final `too_large` error); then emits everything
  /// still in flight and closes `fd` (after the too_large half-close and
  /// drain).
  void serve_connection(int fd);
  void reap_finished();
  void join_all();

  Service& service_;
  Options opt_;
  std::unique_ptr<ListenSocket> listener_;
  std::unique_ptr<EventFd> stop_fd_;  // signalled by stop(), never cleared
  std::vector<Connection> connections_;
};

}  // namespace lapx::service
