#include "lapx/service/client.hpp"

#include "lapx/service/testing.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace lapx::service {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// Runs `attempt` (returns a connected fd, or -1 with errno set) under the
// retry policy: ECONNREFUSED/ENOENT mean "daemon not (re)bound yet" and
// are retried with doubling backoff; anything else is permanent.
template <typename Attempt>
int connect_with_retry(Attempt&& attempt, const Client::Retry& retry,
                       const std::string& what) {
  auto backoff = retry.initial_backoff;
  const int attempts = retry.attempts < 1 ? 1 : retry.attempts;
  for (int i = 0;; ++i) {
    const int fd = attempt();
    if (fd >= 0) return fd;
    if ((errno != ECONNREFUSED && errno != ENOENT) || i + 1 >= attempts)
      sys_fail(what);
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, retry.max_backoff);
  }
}

}  // namespace

Client Client::connect_unix(const std::string& path, const Retry& retry) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("unix socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const int fd = connect_with_retry(
      [&] {
        const int s = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (s < 0) sys_fail("socket");
        if (::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0) {
          const int saved = errno;
          ::close(s);
          errno = saved;
          return -1;
        }
        return s;
      },
      retry, "connect " + path);
  return Client(fd);
}

Client Client::connect_tcp(int port, const Retry& retry) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = connect_with_retry(
      [&] {
        const int s = ::socket(AF_INET, SOCK_STREAM, 0);
        if (s < 0) sys_fail("socket");
        if (::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0) {
          const int saved = errno;
          ::close(s);
          errno = saved;
          return -1;
        }
        return s;
      },
      retry, "connect 127.0.0.1:" + std::to_string(port));
  return Client(fd);
}

Client Client::connect(const std::string& endpoint, const Retry& retry) {
  if (endpoint.rfind("unix:", 0) == 0)
    return connect_unix(endpoint.substr(5), retry);
  if (endpoint.rfind("tcp:", 0) == 0)
    return connect_tcp(std::stoi(endpoint.substr(4)), retry);
  if (endpoint.find('/') != std::string::npos)
    return connect_unix(endpoint, retry);
  return connect_tcp(std::stoi(endpoint), retry);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      next_id_(other.next_id_),
      max_line_bytes_(other.max_line_bytes_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    next_id_ = other.next_id_;
    max_line_bytes_ = other.max_line_bytes_;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::call(const std::string& request_line) {
  send(request_line);
  return recv_line();
}

void Client::send(const std::string& request_line) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  std::string out = request_line;
  out += '\n';
  std::size_t sent = 0;
  while (sent < out.size()) {
    if (testing::consume(testing::inject_client_send_eintr)) continue;
    const ssize_t k =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      sys_fail("send");
    }
    sent += static_cast<std::size_t>(k);
  }
}

std::string Client::recv_line() {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  char chunk[4096];
  // Bytes before `from` were scanned and hold no newline, so a long line
  // costs O(length), not O(length^2 / sizeof chunk).
  std::size_t from = 0;
  while (true) {
    const std::size_t nl = buffer_.find('\n', from);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    // A newline-less stream used to grow buffer_ without bound; a server
    // (or non-lapxd peer) spewing more than a protocol line's worth of
    // bytes is broken, and the failure mode must be an error, not OOM.
    if (buffer_.size() > max_line_bytes_)
      throw std::runtime_error(
          "response line exceeds " + std::to_string(max_line_bytes_) +
          " bytes without a newline; closing");
    if (testing::consume(testing::inject_client_recv_eintr)) continue;
    const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      sys_fail("recv");
    }
    if (k == 0) throw std::runtime_error("server closed the connection");
    from = buffer_.size();
    buffer_.append(chunk, static_cast<std::size_t>(k));
  }
}

Json Client::call_json(Json request) {
  request.set("id", Json::integer(next_id_++));
  return Json::parse(call(request.dump()));
}

}  // namespace lapx::service
