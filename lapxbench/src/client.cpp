#include "client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace lapxbench {

LineClient LineClient::connect(const std::string& path,
                               std::chrono::milliseconds timeout) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0)
      return LineClient(fd);
    const int err = errno;
    ::close(fd);
    if ((err != ENOENT && err != ECONNREFUSED && err != EINTR) ||
        std::chrono::steady_clock::now() > deadline)
      throw std::runtime_error("connect " + path + ": " + std::strerror(err));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buf_(std::move(other.buf_)),
      pos_(other.pos_) {}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
    pos_ = other.pos_;
  }
  return *this;
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send(std::string_view line) {
  std::string out(line);
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t k = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(k);
  }
}

std::string LineClient::recv_line() {
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return line;
    }
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[65536];
    const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0)
      throw std::runtime_error(k == 0 ? "daemon closed the connection"
                                      : "recv: " + std::string(std::strerror(errno)));
    buf_.append(chunk, static_cast<std::size_t>(k));
  }
}

}  // namespace lapxbench
