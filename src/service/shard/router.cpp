#include "lapx/service/shard/router.hpp"

#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "lapx/service/handlers.hpp"
#include "lapx/service/net.hpp"
#include "lapx/service/ordering.hpp"
#include "lapx/service/protocol.hpp"
#include "lapx/service/shard/aggregate.hpp"
#include "lapx/service/shard/channel.hpp"

namespace lapx::service::shard {

namespace {

std::string busy_line(std::optional<std::int64_t> id, std::size_t shard) {
  return error_response(id, ErrorCode::kBusy,
                        "shard " + std::to_string(shard) + " unavailable");
}

// The session name a request routes by: "graph" for query ops, "name"
// for session admin ops.  Missing/malformed fields (and unknown ops)
// fall back to the empty key, so the owning shard -- not the router --
// renders the error envelope, byte-identical to a single process.
std::string routing_key(const Request& req) {
  const Json* v = req.body.find(is_query_op(req.op) ? "graph" : "name");
  return (v != nullptr && v->is_string()) ? v->as_string() : std::string();
}

// Sends `line` on every shard's channel of this connection, in-stream, so
// each shard sees it at exactly its submission-order position relative to
// the connection's other requests.  A failed send leaves its leg broken;
// the caller renders that leg's reply as busy.
std::vector<ShardChannel*> broadcast(const std::string& line,
                                     ShardClientSet& channels) {
  std::vector<ShardChannel*> legs;
  legs.reserve(channels.count());
  for (std::size_t i = 0; i < channels.count(); ++i) {
    ShardChannel* ch = channels.channel(i);
    ch->send(line);
    legs.push_back(ch);
  }
  return legs;
}

// A multi-leg head waits on its first leg still blocked; -1 once every
// leg has a line buffered (or is broken).
int first_blocked_leg(const std::vector<ShardChannel*>& legs) {
  for (ShardChannel* ch : legs)
    if (const int fd = ch->blocked_fd(); fd >= 0) return fd;
  return -1;
}

}  // namespace

struct Router::Impl {
  ShardSupervisor& shards;
  Options opt;
  HashRing ring;
  std::atomic<bool> shutdown{false};
  // Declared after everything connection threads touch: destroyed
  // (stopped and joined) first.
  net::FrontEnd front;

  Impl(ShardSupervisor& shards_in, Options opt_in)
      : shards(shards_in),
        opt(std::move(opt_in)),
        ring(shards_in.count(), opt.vnodes),
        front(opt.endpoint, opt.listen_backlog, opt.max_line_bytes,
              opt.max_pipeline) {}

  std::vector<std::string> shard_endpoints() const {
    std::vector<std::string> out;
    out.reserve(shards.count());
    for (std::size_t i = 0; i < shards.count(); ++i)
      out.push_back(shards.socket_path(i));
    return out;
  }

  void route_line(const std::string& line, ShardClientSet& channels,
                  ResponseSequencer& seq);
  void enqueue_routed(std::size_t shard, std::optional<std::int64_t> id,
                      const std::string& line, ShardClientSet& channels,
                      ResponseSequencer& seq);
  void enqueue_fanout(const Request& req, const std::string& line,
                      ShardClientSet& channels, ResponseSequencer& seq);
  void handle_shutdown(const Request& req, const std::string& line,
                       ShardClientSet& channels, ResponseSequencer& seq);
  void connection_loop(int fd);
};

void Router::Impl::enqueue_routed(std::size_t shard,
                                  std::optional<std::int64_t> id,
                                  const std::string& line,
                                  ShardClientSet& channels,
                                  ResponseSequencer& seq) {
  ShardChannel* ch = channels.channel(shard);
  if (!ch->send(line)) {
    seq.enqueue_resolved(busy_line(id, shard));
    return;
  }
  seq.enqueue_deferred([ch] { return ch->blocked_fd(); },
                       [ch, id, shard] {
                         std::string out;
                         if (ch->recv_line(out)) return out;
                         return busy_line(id, shard);
                       });
}

void Router::Impl::enqueue_fanout(const Request& req, const std::string& line,
                                  ShardClientSet& channels,
                                  ResponseSequencer& seq) {
  const std::vector<ShardChannel*> legs = broadcast(line, channels);
  const std::optional<std::int64_t> id = req.id;
  const std::string op = req.op;
  const MergeContext ctx{channels.count(), opt.cache_dir};
  seq.enqueue_deferred(
      [legs] { return first_blocked_leg(legs); },
      [legs, id, op, ctx] {
        std::vector<std::string> replies;
        replies.reserve(legs.size());
        for (ShardChannel* ch : legs) {
          std::string reply;
          if (!ch->recv_line(reply)) reply = busy_line(id, ch->shard());
          replies.push_back(std::move(reply));
        }
        return merge_fanout(op, id, replies, ctx);
      });
}

void Router::Impl::handle_shutdown(const Request& req, const std::string& line,
                                   ShardClientSet& channels,
                                   ResponseSequencer& seq) {
  // Freeze BEFORE broadcasting: the monitor must not resurrect workers
  // that are about to exit on request.
  shards.freeze();
  const std::vector<ShardChannel*> legs = broadcast(line, channels);
  shutdown.store(true, std::memory_order_release);
  const std::optional<std::int64_t> id = req.id;
  seq.enqueue_deferred(
      [legs] { return first_blocked_leg(legs); },
      [legs, id] {
        // Every shard renders the identical ack (same id), so the first
        // successful one is THE response; unreachable shards fall back
        // to the locally-rendered twin.
        std::string ack;
        bool have = false;
        for (ShardChannel* ch : legs) {
          std::string reply;
          if (ch->recv_line(reply) && !have) {
            ack = std::move(reply);
            have = true;
          }
        }
        if (!have) {
          Json payload = Json::object();
          payload.set("shutting_down", Json::boolean(true));
          ack = ok_response(id, payload.dump());
        }
        return ack;
      });
}

void Router::Impl::route_line(const std::string& line,
                              ShardClientSet& channels,
                              ResponseSequencer& seq) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    // Byte-identical to Service::submit's parse failure path.
    seq.enqueue_resolved(
        error_response(std::nullopt, ErrorCode::kBadRequest, e.what()));
    return;
  }
  if (req.op == "ping") {
    Json payload = Json::object();
    payload.set("pong", Json::boolean(true));
    seq.enqueue_resolved(ok_response(req.id, payload.dump()));
    return;
  }
  if (req.op == "shutdown") {
    handle_shutdown(req, line, channels, seq);
    return;
  }
  if (is_fanout_op(req.op)) {
    enqueue_fanout(req, line, channels, seq);
    return;
  }
  enqueue_routed(ring.owner(routing_key(req)), req.id, line, channels, seq);
}

void Router::Impl::connection_loop(int fd) {
  // The shared pipelined loop; the sequencer holds deferred shard replies,
  // and each unready head names the channel fd the loop then polls.
  ShardClientSet channels(shard_endpoints(), opt.shard_retry);
  front.serve_connection(
      fd, [&](const std::string& line, ResponseSequencer& seq,
              const BatchScheduler::Notify&) {
        route_line(line, channels, seq);
        return shutdown.load(std::memory_order_acquire);
      });
}

Router::Router(ShardSupervisor& shards, Options opt)
    : impl_(new Impl(shards, std::move(opt))) {}

// Impl's FrontEnd stops and joins the connection threads.
Router::~Router() = default;

void Router::stop() { impl_->front.stop(); }

bool Router::shutdown_requested() const {
  return impl_->shutdown.load(std::memory_order_acquire);
}

int Router::bound_tcp_port() const { return impl_->front.bound_tcp_port(); }

void Router::serve_forever() {
  Impl* impl = impl_.get();
  impl->front.serve_forever([impl](int fd) { impl->connection_loop(fd); });
}

}  // namespace lapx::service::shard
