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
// in submission order (at most max_pipeline in flight per connection).
// The response transcript is therefore byte-identical to a synchronous
// request/response loop at any executor count.
//
// The loops are event-driven (net::FrontEnd, shared with the shard
// router): a connection thread sleeps in poll() on its client socket, the
// server's stop eventfd, and its own wake eventfd, which the scheduler
// signals when a job the connection waits on resolves -- a response
// leaves as soon as it is computed, and no wait has a timeout.  A
// `shutdown` request is acknowledged on its own connection and signals
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
// error line, so a client can tell protocol rejection from a crash.

#include <memory>
#include <string>

#include "lapx/service/service.hpp"

namespace lapx::service {

namespace net {
class FrontEnd;
}

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
    int listen_backlog = 64;
    /// Per-connection reorder-buffer depth: reading pauses (blocking on
    /// the oldest in-flight response) once this many responses are
    /// pending, so one pipelining client cannot flood the scheduler queue.
    std::size_t max_pipeline = 64;
  };

  /// Binds and listens; throws std::runtime_error on socket failures
  /// (address in use, bad path, ...).
  Server(Service& service, Options opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accepts and serves connections until shutdown/stop.  Joins all
  /// connection threads before returning.
  void serve_forever();

  /// Unblocks serve_forever from another thread or a signal context.
  void stop();

  /// The bound TCP port (after construction); useful with tcp_port = 0,
  /// which binds an ephemeral port.  0 for Unix-domain endpoints.
  int bound_tcp_port() const;

 private:
  Service& service_;
  std::unique_ptr<net::FrontEnd> front_;
};

}  // namespace lapx::service
