#pragma once
// lapxd client library: blocking line-protocol calls over a Unix-domain
// or loopback TCP socket.  Used by `lapx_cli call`, the CI smoke test and
// bench_service's socket mode; anything that can write a JSON line can be
// a client without this helper.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "lapx/service/json.hpp"

namespace lapx::service {

/// Bounded retry-with-backoff for connect attempts that fail with
/// ECONNREFUSED or ENOENT -- the two errnos a daemon that is still
/// binding (or restarting) produces.  Any other connect failure
/// is permanent and thrown immediately.  The default is fail-fast
/// (one attempt), preserving the historical library behavior.
/// (Namespace-scope so its defaults are usable in Client's own default
/// arguments; spelled Client::Retry everywhere else.)
struct ClientRetry {
  int attempts = 1;
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{250};
};

class Client {
 public:
  using Retry = ClientRetry;

  /// The startup policy: ~40 attempts with doubling backoff capped at
  /// 250 ms (worst case under ten seconds).  Used by `lapx_cli call` and
  /// the CI smoke tests so neither needs a fixed sleep between spawning a
  /// daemon and dialing it.
  static Retry startup_retry() {
    return Retry{40, std::chrono::milliseconds(10),
                 std::chrono::milliseconds(250)};
  }

  /// Connects to a Unix-domain socket path.
  static Client connect_unix(const std::string& path,
                             const Retry& retry = Retry{});

  /// Connects to 127.0.0.1:port.
  static Client connect_tcp(int port, const Retry& retry = Retry{});

  /// Parses "unix:PATH", "tcp:PORT", a bare port number, or a filesystem
  /// path (anything containing '/') and connects accordingly.  Unlike the
  /// typed entry points this defaults to the startup retry policy: the
  /// string form is what CLIs and scripts use, and they are the callers
  /// racing daemon startup.
  static Client connect(const std::string& endpoint,
                        const Retry& retry = startup_retry());

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Sends one request line, waits for the one response line.
  /// Throws std::runtime_error on transport failure.
  std::string call(const std::string& request_line);

  /// Pipelined half-calls: send a request without waiting, receive the
  /// next response line.  The server answers in submission order, so
  /// after N send()s, N recv_line()s return the matching responses.
  void send(const std::string& request_line);
  std::string recv_line();

  /// Largest response line recv_line accepts before failing with
  /// std::runtime_error -- a newline-less stream must error out, not OOM.
  /// Defaults to the server's request cap plus envelope slack.
  void set_max_line_bytes(std::size_t n) { max_line_bytes_ = n; }

  /// Builds the request from a Json object, stamps a fresh id, sends it,
  /// and returns the parsed response.
  Json call_json(Json request);

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;
  std::int64_t next_id_ = 1;
  std::size_t max_line_bytes_ = (std::size_t{1} << 24) + 4096;
};

}  // namespace lapx::service
