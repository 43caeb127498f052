#pragma once
// The shard router: lapxd's public front end when serving `--shards N`.
//
// Accepts client connections on the ordinary line-delimited JSON
// protocol and forwards each request line to the shard worker that owns
// it -- no translation layer: the shard-internal RPC IS the public
// protocol, so every response byte a client sees was rendered by the
// same Service code a single-process deployment runs.
//
// Routing policy (deterministic, connection-independent):
//   * session-addressed ops (queries by "graph", generate/upload/mutate/
//     drop by "name") route to HashRing::owner(session name).  Requests
//     whose routing field is missing or malformed route by the empty
//     key, as do unknown ops -- the owning shard then renders exactly
//     the error envelope a single process would have;
//   * `ping` is answered by the router itself (same rendering code);
//   * fan-out ops (list, stats, session_info, cache_info, cache_save)
//     are forwarded to every shard in-stream and merged
//     (shard/aggregate.hpp);
//   * `shutdown` freezes the supervisor (no resurrection), broadcasts to
//     every shard, acks the client after all shards ack, then stops the
//     router.
//
// Connection loop: the one Server runs (net::FrontEnd).  Each head of
// the connection's sequencer is a deferred shard reply; when it is not
// ready the loop polls the channel fd it reported -- a fan-out or
// shutdown head, its first leg still waiting -- next to the client socket
// and the router's stop eventfd, so a shard's reply is forwarded the
// moment it arrives and no wait has a timeout.  `shutdown` and stop()
// signal the stop eventfd, which wakes the accept loop and every
// connection.
//
// Determinism argument, sketched: all requests that can observe a given
// session route to the one shard owning it, and each per-connection
// shard channel is FIFO, so the per-session request order every shard
// sees equals the connection's submission order restricted to that
// session -- exactly the order a single process would have applied.
// Responses re-merge through the generalized ResponseSequencer in
// submission order.  Per-connection transcripts are therefore
// byte-identical at any shard count (the bar set by executors 1 vs 8),
// `stats`/`list`-class state reports excepted as ever.

#include <cstddef>
#include <memory>
#include <string>

#include "lapx/service/client.hpp"
#include "lapx/service/server.hpp"
#include "lapx/service/shard/hash_ring.hpp"
#include "lapx/service/shard/spawn.hpp"

namespace lapx::service::shard {

class Router {
 public:
  struct Options {
    Endpoint endpoint;  ///< the public endpoint clients dial
    std::size_t max_line_bytes = std::size_t{1} << 24;  ///< 16 MiB
    int listen_backlog = 64;
    /// Per-connection in-flight cap, mirroring Server::Options.  Keep it
    /// <= the workers' max_pipeline: the router never has more requests
    /// outstanding on one shard channel than it has in one connection,
    /// so worker-side reads can never wedge behind router flow control.
    std::size_t max_pipeline = 64;
    int vnodes = HashRing::kDefaultVnodes;
    /// Base persistence dir (the merged cache_info's "dir"); empty when
    /// the deployment is not persistent.
    std::string cache_dir;
    /// Dial policy for shard channels; the default absorbs both the
    /// startup handshake and a worker mid-respawn.
    Client::Retry shard_retry = Client::startup_retry();
  };

  /// Binds the public endpoint.  `shards` must outlive the router.
  Router(ShardSupervisor& shards, Options opt);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Accepts and serves connections until a `shutdown` request or
  /// stop().  Joins all connection threads before returning.
  void serve_forever();

  /// Unblocks serve_forever from another thread or a signal context.
  void stop();

  /// True once a `shutdown` request has been broadcast.
  bool shutdown_requested() const;

  /// The bound TCP port (ephemeral-port support); 0 for Unix endpoints.
  int bound_tcp_port() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lapx::service::shard
