#include "lapx/service/server.hpp"

#include "lapx/service/testing.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "lapx/service/ordering.hpp"
#include "lapx/service/protocol.hpp"

namespace lapx::service {

namespace {

// What a connection closing on a `too_large` line still reads and
// discards after its farewell, at most.
constexpr std::size_t kFarewellDrainBytes = std::size_t{1} << 20;

// listen(2)'s queue of connections not yet accepted.
constexpr int kListenBacklog = 64;

// Per-connection reorder-buffer depth: reading pauses (blocking on the
// oldest in-flight response) once this many responses are pending, so one
// pipelining client cannot flood the scheduler queue.
constexpr std::size_t kMaxPipeline = 64;

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// recv with EINTR retry: a signal delivered mid-read is not a peer
/// close; bailing out used to drop the connection and every pipelined
/// in-flight response.  The CLI installs no signal handlers, but a
/// process embedding a server may (and a stopped-then-continued process
/// sees EINTR too).  Returns recv's result with EINTR folded away.
/// Honors the testing::inject_recv_eintr fault-injection seam.
ssize_t recv_retry(int fd, char* buf, std::size_t n) {
  while (true) {
    if (testing::consume(testing::inject_recv_eintr)) {
      errno = EINTR;
    } else {
      const ssize_t k = ::recv(fd, buf, n, 0);
      if (k >= 0 || errno != EINTR) return k;
    }
  }
}

/// Writes all of `data`, retrying EINTR; gives up silently on any other
/// error (peer gone; nothing useful to do).
void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t k =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return;  // peer gone; nothing useful to do
    }
    sent += static_cast<std::size_t>(k);
  }
}

}  // namespace

/// A bound, listening socket for an Endpoint.  Owns the fd and (for
/// Unix-domain endpoints) unlinks the path on destruction.
class Server::ListenSocket {
 public:
  /// Binds and listens; throws std::runtime_error on socket failures.
  /// Unix-domain paths are unlinked before binding (rebinding a path a
  /// dead process left behind must succeed).  tcp_port 0 binds an
  /// ephemeral port, reported by bound_tcp_port().
  explicit ListenSocket(const Endpoint& endpoint);
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

/// A non-blocking eventfd: signal() makes fd() readable until clear()
/// consumes every signal so far.  Owns the fd.  signal() is thread-safe
/// and async-signal-safe.
class Server::EventFd {
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

Server::ListenSocket::ListenSocket(const Endpoint& endpoint) {
  if (!endpoint.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.unix_path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("unix socket path too long: " +
                               endpoint.unix_path);
    std::strncpy(addr.sun_path, endpoint.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) sys_fail("socket");
    ::unlink(endpoint.unix_path.c_str());
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const int saved = errno;
      ::close(fd_);
      fd_ = -1;
      errno = saved;
      sys_fail("bind " + endpoint.unix_path);
    }
    unix_path_ = endpoint.unix_path;
  } else {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) sys_fail("socket");
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(endpoint.tcp_port));
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const int saved = errno;
      ::close(fd_);
      fd_ = -1;
      errno = saved;
      sys_fail("bind 127.0.0.1:" + std::to_string(endpoint.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
      bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(fd_, kListenBacklog) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    sys_fail("listen");
  }
}

Server::ListenSocket::~ListenSocket() {
  if (fd_ >= 0) ::close(fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

Server::EventFd::EventFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) sys_fail("eventfd");
}

Server::EventFd::~EventFd() { ::close(fd_); }

void Server::EventFd::signal() {
  const int saved = errno;  // may run in a signal handler
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated: the fd is readable already.
  while (::write(fd_, &one, sizeof one) < 0 && errno == EINTR) {
  }
  errno = saved;
}

void Server::EventFd::clear() {
  std::uint64_t count = 0;
  // EAGAIN means there was nothing to consume.
  while (::read(fd_, &count, sizeof count) < 0 && errno == EINTR) {
  }
}

Server::Server(Service& service, Options opt)
    : service_(service),
      opt_(std::move(opt)),
      listener_(std::make_unique<ListenSocket>(opt_.endpoint)),
      stop_fd_(std::make_unique<EventFd>()) {}

Server::~Server() {
  stop();
  join_all();
}

void Server::stop() { stop_fd_->signal(); }

int Server::bound_tcp_port() const { return listener_->bound_tcp_port(); }

void Server::reap_finished() {
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::join_all() {
  for (Connection& c : connections_)
    if (c.thread.joinable()) c.thread.join();
  connections_.clear();
}

void Server::serve_forever() {
  while (true) {
    reap_finished();
    pollfd pfds[2] = {{listener_->fd(), POLLIN, 0},
                      {stop_fd_->fd(), POLLIN, 0}};
    if (::poll(pfds, 2, /*timeout_ms=*/-1) < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }
    if (pfds[1].revents != 0) break;  // stop() or an acknowledged shutdown
    const int fd = ::accept(listener_->fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK)
        continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion is recoverable once connections drain; back
        // off instead of letting the exception kill the daemon.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        continue;
      }
      sys_fail("accept");
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread worker([this, fd, done] {
      serve_connection(fd);
      done->store(true, std::memory_order_release);
    });
    connections_.push_back({std::move(worker), std::move(done)});
  }
  // The stop fd stays readable: every connection loop wakes and drains.
  join_all();
}

void Server::serve_connection(int fd) {
  // Shared with every Notify this connection hands out, so a job that
  // resolves after the connection closed still signals an open fd.
  std::shared_ptr<EventFd> wake;
  try {
    wake = std::make_shared<EventFd>();
  } catch (const std::exception&) {
    ::close(fd);  // fd exhaustion: drop the connection, as accept would
    return;
  }
  const BatchScheduler::Notify notify = [wake] { wake->signal(); };
  std::string buffer;
  std::string outbox;
  char chunk[4096];
  ResponseSequencer sequencer;
  bool closing = false;
  bool too_large = false;
  bool woken = false;
  while (!closing) {
    // Consume the wake before draining: a completion landing after this
    // read leaves the fd readable for the poll below.
    if (woken) wake->clear();
    outbox.clear();
    sequencer.drain_ready(outbox);
    if (!outbox.empty()) send_all(fd, outbox);
    pollfd pfds[3] = {{fd, POLLIN, 0},
                      {stop_fd_->fd(), POLLIN, 0},
                      {wake->fd(), POLLIN, 0}};
    if (::poll(pfds, 3, /*timeout_ms=*/-1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) break;  // stopping
    woken = pfds[2].revents != 0;
    if (pfds[0].revents == 0) continue;  // only a head may be ready
    const ssize_t k = recv_retry(fd, chunk, sizeof chunk);
    if (k <= 0) break;  // 0 = orderly close, < 0 = real error
    // The bytes already buffered hold no newline: scan only the new ones,
    // so a long line costs O(length), not O(length^2 / sizeof chunk).
    std::size_t from = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(k));
    std::size_t nl;
    while ((nl = buffer.find('\n', from)) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      from = 0;  // what follows the newline is unscanned
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      sequencer.enqueue(service_.submit(line, notify));
      if (service_.shutdown_requested()) {
        closing = true;  // the ack is the last pipelined response
        stop();
        break;
      }
      while (sequencer.in_flight() >= kMaxPipeline) {
        outbox.clear();
        if (!sequencer.drain_one(outbox)) break;
        send_all(fd, outbox);
      }
    }
    // A partial line beyond the cap is a hostile or confused peer.
    // Finish the pipeline, answer `too_large` (below) and close --
    // silently dropping the socket looked like a server crash.
    if (!closing && buffer.size() > opt_.max_line_bytes) {
      too_large = true;
      closing = true;
    }
  }
  // Emit everything still in flight before closing -- responses are never
  // dropped, even when shutdown or a protocol rejection raced the
  // pipeline.
  outbox.clear();
  sequencer.drain_all(outbox);
  if (too_large) {
    outbox += error_response(std::nullopt, ErrorCode::kTooLarge,
                             "request line exceeds " +
                                 std::to_string(opt_.max_line_bytes) +
                                 " bytes");
    outbox += '\n';
  }
  if (!outbox.empty()) send_all(fd, outbox);
  if (too_large) {
    // The peer may still be sending its line.  Closing a socket with
    // unread input resets the connection, and the reset can discard the
    // farewell before the peer reads it, so half-close instead and
    // discard input until the peer closes, the server stops, or
    // kFarewellDrainBytes pass.
    ::shutdown(fd, SHUT_WR);
    for (std::size_t drained = 0; drained < kFarewellDrainBytes;) {
      pollfd pfds[2] = {{fd, POLLIN, 0}, {stop_fd_->fd(), POLLIN, 0}};
      if (::poll(pfds, 2, /*timeout_ms=*/-1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (pfds[1].revents != 0) break;  // stopping
      const ssize_t k = recv_retry(fd, chunk, sizeof chunk);
      if (k <= 0) break;
      drained += static_cast<std::size_t>(k);
    }
  }
  ::close(fd);
}

}  // namespace lapx::service
