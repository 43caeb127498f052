// The socket mode: spawn `lapx_cli serve`, set it up several times (the
// median is setup_s), fill the cache, then replay every connection's
// timed stream closed-loop and check each response against the reference.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <stdexcept>
#include <thread>

#include "client.hpp"
#include "runs.hpp"
#include "stats.hpp"

namespace lapxbench {

namespace {

constexpr std::size_t kPipelineWindow = 32;  // below the server's max_pipeline
constexpr auto kConnectTimeout = std::chrono::seconds(20);
constexpr int kSetupReps = 31;  // setup_s is their median

// One `lapx_cli serve` process.  The destructor kills and reaps it, so no
// path out of the run leaves a daemon behind.
class Daemon {
 public:
  explicit Daemon(const SocketOptions& opt) : socket_(opt.socket_path) {
    ::unlink(socket_.c_str());
    std::vector<std::string> args = {opt.cli, "serve", "--socket", socket_};
    for (const char* f : kDaemonFlags) args.emplace_back(f);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon dies with the load generator, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int log = ::open(opt.log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      enter_batch_scheduling();
      // Only the flags configure it: no inherited cache dir or shard count.
      for (const char* env : {"LAPXD_CACHE_DIR", "LAPXD_SHARDS", "LAPXD_EXECUTORS",
                              "LAPXD_OOC_BUDGET_MB", "LAPX_THREADS"})
        ::unsetenv(env);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { kill(); }

  pid_t pid() const { return pid_; }

  /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
  }

  /// After a `shutdown` request: waits up to 10 s for a clean exit.
  bool wait_exit() {
    for (int i = 0; i < 10000 && pid_ > 0; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill();
    return false;
  }

  void kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    ::unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// Sends `reqs` with up to kPipelineWindow in flight, checking each
// response at transcript position `first + i`.
void pipeline(LineClient& cl, const std::vector<Req>& reqs, Checker& check, int conn,
              std::size_t first) {
  std::size_t sent = 0, received = 0;
  while (received < reqs.size()) {
    while (sent < reqs.size() && sent - received < kPipelineWindow) cl.send(reqs[sent++].line);
    check.check(conn, first + received, cl.recv_line());
    ++received;
  }
}

std::string daemon_command(const SocketOptions& opt) {
  std::string out = "lapx_cli serve --socket " + opt.socket_path;
  for (const char* f : kDaemonFlags) out += std::string(" ") + f;
  return out;
}

}  // namespace

int run_socket(const Workload& w, const Transcript& ref, const SocketOptions& opt) {
  Checker check(ref);
  const std::size_t conns = static_cast<std::size_t>(w.connections);
  std::size_t attempted = 0;
  std::size_t setup_lines = 0;
  for (const auto& s : w.setup) setup_lines += s.size();

  // Set-up, repeated: spawn -> first ping answer -> resident sessions.
  // Every repetition but the last is killed; the last one is measured.
  std::vector<double> setup_ms;
  std::unique_ptr<Daemon> daemon;
  std::vector<LineClient> clients;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    clients.clear();
    daemon.reset();
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(opt);
    clients.push_back(LineClient::connect(opt.socket_path, kConnectTimeout));
    clients[0].send("{\"op\":\"ping\"}");
    if (clients[0].recv_line() != "{\"ok\":true,\"result\":{\"pong\":true}}") check.fail(1);
    for (std::size_t c = 1; c < conns; ++c)
      clients.push_back(LineClient::connect(opt.socket_path, kConnectTimeout));
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < conns; ++c)
        threads.emplace_back([&, c] {
          try {
            pipeline(clients[c], w.setup[c], check, static_cast<int>(c), 0);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "lapx_loadgen: set-up on connection %zu: %s\n", c, e.what());
            check.fail(w.setup[c].size());
          }
        });
    }
    setup_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    attempted += 1 + setup_lines;
  }

  // Read while the daemon runs: the record names its scheduling class.
  const std::string daemon_sched = sched_policy_name(daemon->pid());

  // Untimed warm-up: fills the result cache (hot_cache).
  pipeline(clients[0], w.warmup, check, 0, w.setup[0].size());
  attempted += w.warmup.size();

  // Timed phase: one closed-loop thread per connection.
  std::vector<Latencies> lat(conns);
  std::latch ready(static_cast<std::ptrdiff_t>(conns) + 1);
  Phaser phaser(w);
  std::int64_t start = 0;
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        const int ci = static_cast<int>(c);
        const std::size_t first = w.setup[c].size() + (c == 0 ? w.warmup.size() : 0);
        const auto& reqs = w.timed[c];
        lat[c].all.reserve(reqs.size());
        ready.arrive_and_wait();
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          phaser.before(ci, i);
          try {
            const std::int64_t t0 = now_ns();
            clients[c].send(reqs[i].line);
            const std::string response = clients[c].recv_line();
            lat[c].add(reqs[i].cls, static_cast<double>(now_ns() - t0) / 1e6);
            check.check(ci, first + i, response);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "lapx_loadgen: connection %d: %s\n", ci, e.what());
            check.fail(reqs.size() - i);
            phaser.leave();
            return;
          }
        }
      });
    }
    ready.arrive_and_wait();
    start = now_ns();
  }
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
  const std::size_t timed = w.timed_requests();
  attempted += timed;
  const double rss_mb = daemon->peak_rss_mb();

  // Ping round trips (traced runs): the floor of any request's latency.
  std::vector<double> ping_us;
  for (int i = 0; i < opt.pings; ++i) {
    const std::int64_t t0 = now_ns();
    clients[0].send("{\"op\":\"ping\"}");
    const std::string r = clients[0].recv_line();
    ping_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (r != "{\"ok\":true,\"result\":{\"pong\":true}}") check.fail(1);
  }
  attempted += static_cast<std::size_t>(opt.pings);

  clients[0].send("{\"op\":\"shutdown\"}");
  clients[0].recv_line();
  clients.clear();
  const bool clean_exit = daemon->wait_exit();
  if (!clean_exit) std::fprintf(stderr, "lapx_loadgen: daemon did not shut down cleanly\n");

  using lapx::service::Json;
  Json reps = Json::array();
  for (const double ms : setup_ms) reps.push_back(Json::number(ms));
  Json out = Json::object();
  out.set("mode", Json::string("socket"));
  out.set("attempted", Json::integer(static_cast<std::int64_t>(attempted)));
  out.set("failed", Json::integer(static_cast<std::int64_t>(check.failed())));
  out.set("setup_ms", Json::number(quantile(setup_ms, 0.5)));
  out.set("setup_reps_ms", std::move(reps));
  out.set("wall_s", Json::number(wall_s));
  out.set("throughput_rps", Json::number(static_cast<double>(timed) / wall_s));
  out.set("daemon_rss_mb", Json::number(rss_mb));
  out.set("ping_rtt_us_p50", Json::number(quantile(ping_us, 0.5)));
  out.set("ping_n", Json::integer(static_cast<std::int64_t>(ping_us.size())));
  out.set("clean_exit", Json::boolean(clean_exit));
  out.set("compiler", Json::string(LAPXBENCH_COMPILER));
  out.set("build_type", Json::string(LAPXBENCH_BUILD_TYPE));
  out.set("daemon", Json::string(daemon_command(opt)));
  out.set("daemon_sched", Json::string(daemon_sched));
  out.set("client_sched", Json::string(sched_policy_name(0)));
  latencies_to_json(lat, out);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace lapxbench
