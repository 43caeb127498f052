#include "lapx/service/net.hpp"

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

#include "lapx/service/protocol.hpp"

namespace lapx::service::net {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

ListenSocket::ListenSocket(const Endpoint& endpoint, int backlog) {
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
  if (::listen(fd_, backlog) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    sys_fail("listen");
  }
}

ListenSocket::~ListenSocket() {
  if (fd_ >= 0) ::close(fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

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

EventFd::EventFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) sys_fail("eventfd");
}

EventFd::~EventFd() { ::close(fd_); }

void EventFd::signal() {
  const int saved = errno;  // may run in a signal handler
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated: the fd is readable already.
  while (::write(fd_, &one, sizeof one) < 0 && errno == EINTR) {
  }
  errno = saved;
}

void EventFd::clear() {
  std::uint64_t count = 0;
  // EAGAIN means there was nothing to consume.
  while (::read(fd_, &count, sizeof count) < 0 && errno == EINTR) {
  }
}

FrontEnd::FrontEnd(const Endpoint& endpoint, int backlog,
                   std::size_t max_line_bytes, std::size_t max_pipeline)
    : listener_(endpoint, backlog),
      max_line_bytes_(max_line_bytes),
      max_pipeline_(max_pipeline) {}

FrontEnd::~FrontEnd() {
  stop();
  join_all();
}

void FrontEnd::stop() { stop_fd_.signal(); }

void FrontEnd::reap_finished() {
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

void FrontEnd::join_all() {
  for (Connection& c : connections_)
    if (c.thread.joinable()) c.thread.join();
  connections_.clear();
}

void FrontEnd::serve_forever(std::function<void(int fd)> on_connection) {
  while (true) {
    reap_finished();
    pollfd pfds[2] = {{listener_.fd(), POLLIN, 0}, {stop_fd_.fd(), POLLIN, 0}};
    if (::poll(pfds, 2, /*timeout_ms=*/-1) < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }
    if (pfds[1].revents != 0) break;  // stop() or an acknowledged shutdown
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
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
    std::thread worker([on_connection, fd, done] {
      on_connection(fd);
      done->store(true, std::memory_order_release);
    });
    connections_.push_back({std::move(worker), std::move(done)});
  }
  // The stop fd stays readable: every connection loop wakes and drains.
  join_all();
}

void FrontEnd::serve_connection(int fd, const LineFn& on_line) {
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
    pollfd pfds[4] = {{fd, POLLIN, 0},
                      {stop_fd_.fd(), POLLIN, 0},
                      {wake->fd(), POLLIN, 0},
                      // -1 (ignored by poll) unless a deferred head waits
                      {sequencer.head_blocked_fd(), POLLIN, 0}};
    if (::poll(pfds, 4, /*timeout_ms=*/-1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) break;  // stopping
    woken = pfds[2].revents != 0;
    if (pfds[0].revents == 0) continue;  // only a head may be ready
    const ssize_t k = recv_retry(fd, chunk, sizeof chunk);
    if (k <= 0) break;  // 0 = orderly close, < 0 = real error
    buffer.append(chunk, static_cast<std::size_t>(k));
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (on_line(line, sequencer, notify)) {
        closing = true;  // the ack is the last pipelined response
        stop();
        break;
      }
      while (sequencer.in_flight() >= max_pipeline_) {
        outbox.clear();
        if (!sequencer.drain_one(outbox)) break;
        send_all(fd, outbox);
      }
    }
    // A partial line beyond the cap is a hostile or confused peer.
    // Finish the pipeline, answer `too_large` (below) and close --
    // silently dropping the socket looked like a server crash.
    if (!closing && buffer.size() > max_line_bytes_) {
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
                                 std::to_string(max_line_bytes_) + " bytes");
    outbox += '\n';
  }
  if (!outbox.empty()) send_all(fd, outbox);
  ::close(fd);
}

}  // namespace lapx::service::net
