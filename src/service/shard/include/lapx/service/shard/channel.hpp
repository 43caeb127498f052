#pragma once
// Per-connection shard channels: the router's client pool.
//
// Each router connection owns one lazily-dialed Client per shard.  A
// channel is a strict FIFO byte stream: requests are forwarded in the
// connection's submission order, and because a worker's Server already
// emits responses in submission order, "the channel's next line" IS the
// response to the oldest un-answered request on that channel.  That
// one-to-one discipline is what lets the generalized ResponseSequencer
// merge shard replies without request ids or correlation tags --
// per-connection channels mean no cross-connection interleaving to
// untangle.
//
// Failure model: every transport error flips the channel to broken and
// is absorbed (no exceptions escape into the sequencer's drain path).
// In-flight responses on a broken channel render as `busy` errors --
// the same retryable signal a full scheduler queue produces -- while
// the ShardClientSet dials a fresh channel (with connect retry, so a
// worker mid-respawn is absorbed) for subsequent requests.  Broken
// channels are retired, not destroyed, until the connection closes:
// deferred sequencer entries still hold pointers to them.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lapx/service/client.hpp"

namespace lapx::service::shard {

class ShardChannel {
 public:
  /// Dials `endpoint` under `retry`.  A failed dial leaves the channel
  /// broken (never throws).
  ShardChannel(std::size_t shard, const std::string& endpoint,
               const Client::Retry& retry);

  /// False once any transport operation failed.
  bool ok() const { return !broken_; }
  std::size_t shard() const { return shard_; }

  /// Forwards one request line; false (and broken) on failure.
  bool send(const std::string& line);

  /// Blocks for the next response line; false (and broken) on failure.
  bool recv_line(std::string& out);

  /// Non-blocking probe: -1 when recv_line would not wait, else the
  /// socket fd the next line will arrive on.  The probe first drains the
  /// socket, so that fd is readable only once new bytes (or the peer's
  /// close) arrive: poll() it right after the probe returned it, never a
  /// channel that was not just probed -- one with unconsumed bytes would
  /// make poll() return at once and the caller spin.  A broken channel
  /// reports -1 so sequencer heads never wedge on it (their fetch renders
  /// the busy error immediately).
  int blocked_fd();

 private:
  std::size_t shard_;
  std::optional<Client> client_;
  bool broken_ = false;
};

class ShardClientSet {
 public:
  ShardClientSet(std::vector<std::string> endpoints, Client::Retry retry);

  /// The live channel for `shard`, dialing lazily.  A broken channel is
  /// retired (kept alive for its in-flight entries) and replaced with a
  /// fresh dial.  Returns a broken channel when the dial fails; callers
  /// render busy via the normal failure path.
  ShardChannel* channel(std::size_t shard);

  std::size_t count() const { return endpoints_.size(); }

 private:
  std::vector<std::string> endpoints_;
  Client::Retry retry_;
  std::vector<std::unique_ptr<ShardChannel>> live_;
  std::vector<std::unique_ptr<ShardChannel>> retired_;
};

}  // namespace lapx::service::shard
