#pragma once
// The loadgen's three modes and what they share: the response transcript
// and per-class latency samples.
//
//   baseline: the stream through an in-process lapx::service::Service,
//             untraced.  Writes the reference transcript; its latencies
//             are the in-process baseline (server hold = socket - this).
//   socket:   a freshly spawned `lapx_cli serve`, driven over its Unix
//             socket.  The end-to-end metrics.
//   traced:   the stream replayed through the layers' public functions,
//             each call wrapped in a span.  The per-layer metrics.
// Every mode prints one JSON line on stdout.

#include <sys/types.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <string>
#include <vector>

#include "lapx/service/json.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace lapxbench {

/// Response hashes in stream order, per connection: setup, then (on
/// connection 0) the warm-up pass, then the timed requests.
struct Transcript {
  std::vector<std::vector<std::uint64_t>> conn;
};

void write_transcript(const std::string& path, const Transcript& t);
Transcript read_transcript(const std::string& path);

/// Compares responses against a reference transcript.  A response fails
/// when its bytes differ from the reference or it is not "ok":true.
class Checker {
 public:
  explicit Checker(const Transcript& ref) : ref_(ref) {}
  bool check(int conn, std::size_t pos, const std::string& response);
  void fail(std::size_t n) { failed_.fetch_add(n, std::memory_order_relaxed); }
  std::size_t failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  const Transcript& ref_;
  std::atomic<std::size_t> failed_{0};
  std::atomic<int> reported_{0};
};

bool response_ok(const std::string& response);

/// One connection's timed-request latencies in milliseconds, by op
/// class, in request order.
struct Latencies {
  std::vector<double> all, query, write;
  void add(OpClass cls, double ms);
};

/// latency/query/write p50 and p99 over all connections, with sample
/// counts and the latency sum, as members of `out`.  A class with at least
/// 2 * kSegmentSamples samples is cut into up to kSegments consecutive
/// slices (by request order) and the median of the slices' quantiles is
/// reported, so a host hiccup during one slice does not move the run's
/// tail.  Smaller classes get the plain quantile.
void latencies_to_json(const std::vector<Latencies>& per_conn, lapx::service::Json& out);
inline constexpr std::size_t kSegments = 25;
inline constexpr std::size_t kSegmentSamples = 10000;

/// Applies a workload's phasing (Workload::epoch, loop_requests) to the
/// connection threads of a timed phase.  Every `epoch` requests the
/// connections meet at a barrier; connection c then waits c / connections
/// of the loop period the previous epoch took, which spreads the loops
/// evenly over one period.  The period is measured (the connections' busy
/// time, sleeps and barrier waits excluded), not a constant: the idle time
/// phasing adds stays the same share of the wall on a faster daemon, so
/// throughput scales with the daemon's speed.  The first epoch has no
/// measurement and starts every connection at once.
class Phaser {
 public:
  explicit Phaser(const Workload& w);
  /// Call before connection c's timed request i.
  void before(int c, std::size_t i);
  /// Call when connection c stops early, so the others do not wait on it.
  void leave() { barrier_.arrive_and_drop(); }

 private:
  // Runs once per barrier phase, after every connection has arrived.
  struct OnEpoch {
    Phaser* p;
    void operator()() noexcept;
  };
  const Workload& w_;
  std::vector<std::int64_t> resumed_ns_;  // per connection: end of its last wait
  std::atomic<std::int64_t> busy_ns_{0};  // this epoch, summed over connections
  std::atomic<std::int64_t> busy_reports_{0};
  std::int64_t loop_ns_ = 0;  // the last epoch's loop period; OnEpoch writes it
  std::barrier<OnEpoch> barrier_;  // last: its completion reads the above
};

struct SocketOptions {
  std::string cli;          ///< path of the lapx_cli binary
  std::string socket_path;  ///< Unix socket path (relative paths are fine)
  std::string log_path;     ///< daemon stderr
  int pings = 0;            ///< ping round trips timed after the run
};

/// Puts the calling thread -- and every thread or process it creates
/// afterwards -- in SCHED_BATCH, which has no wakeup preemption.  The
/// daemon and both in-process replays run there: under SCHED_OTHER an
/// executor woken onto the connection thread's CPU can preempt it and
/// finish before the thread reaches its 100 ms poll, so whether a cold
/// query waits for the tick became a scheduling race whose odds moved
/// with the host's load.  Returns false when the kernel refuses.
bool enter_batch_scheduling();

/// The scheduling policy of process `pid` (0: the caller) as the record
/// names it: "SCHED_BATCH", "SCHED_OTHER", ... or "unknown".
std::string sched_policy_name(pid_t pid);

int run_baseline(const Workload& w, const std::string& transcript_out);
int run_socket(const Workload& w, const Transcript& ref, const SocketOptions& opt);
int run_traced(const Workload& w, const Transcript& ref, const std::string& spans_out);

}  // namespace lapxbench
