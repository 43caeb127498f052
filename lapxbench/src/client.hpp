#pragma once
// A minimal blocking line client over a Unix-domain socket.  The load
// generator keeps its own (rather than lapx::service::Client) so a change to the
// library's client never changes how the benchmark measures the daemon,
// and so connecting while the daemon is still binding polls every 100 us
// instead of backing off in whole milliseconds (that quantum would show
// up in setup_s).

#include <chrono>
#include <string>
#include <string_view>

namespace lapxbench {

class LineClient {
 public:
  /// Connects to `path`, retrying ENOENT/ECONNREFUSED until `timeout`.
  /// Throws std::runtime_error when the daemon never answers.
  static LineClient connect(const std::string& path,
                            std::chrono::milliseconds timeout);

  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient();

  /// Sends `line` plus '\n'.  Throws on a transport failure.
  void send(std::string_view line);
  /// Next response line without its '\n'.  Throws on EOF or error.
  std::string recv_line();

 private:
  explicit LineClient(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace lapxbench
