// The transcript helpers and the baseline mode: the whole stream through
// one in-process Service with the daemon's executor and thread counts.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "lapx/runtime/parallel.hpp"
#include "lapx/service/service.hpp"
#include "runs.hpp"
#include "stats.hpp"

namespace lapxbench {

void write_transcript(const std::string& path, const Transcript& t) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::uint64_t conns = t.conn.size();
  out.write(reinterpret_cast<const char*>(&conns), sizeof conns);
  for (const auto& c : t.conn) {
    const std::uint64_t n = c.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(c.data()),
              static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
  }
  if (!out) throw std::runtime_error("cannot write transcript " + path);
}

Transcript read_transcript(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read transcript " + path);
  Transcript t;
  std::uint64_t conns = 0;
  in.read(reinterpret_cast<char*>(&conns), sizeof conns);
  if (!in || conns > 64) throw std::runtime_error("bad transcript " + path);
  t.conn.resize(conns);
  for (auto& c : t.conn) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof n);
    if (!in || n > (std::uint64_t{1} << 28)) throw std::runtime_error("bad transcript " + path);
    c.resize(n);
    in.read(reinterpret_cast<char*>(c.data()), static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
  }
  if (!in) throw std::runtime_error("truncated transcript " + path);
  return t;
}

bool enter_batch_scheduling() {
  sched_param param{};
  param.sched_priority = 0;
  return ::sched_setscheduler(0, SCHED_BATCH, &param) == 0;
}

bool response_ok(const std::string& response) {
  // The envelope is {"id":N,"ok":...}: the flag sits right after the id.
  const std::size_t at = response.find("\"ok\":true");
  return at != std::string::npos && at < 32;
}

bool Checker::check(int conn, std::size_t pos, const std::string& response) {
  const auto& c = ref_.conn.at(static_cast<std::size_t>(conn));
  const bool good = pos < c.size() && c[pos] == fnv1a64(response) && response_ok(response);
  if (!good) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (reported_.fetch_add(1, std::memory_order_relaxed) < 5)
      std::fprintf(stderr, "lapx_loadgen: connection %d response %zu mismatches the reference: %.200s\n",
                   conn, pos, response.c_str());
  }
  return good;
}

std::string sched_policy_name(pid_t pid) {
  switch (::sched_getscheduler(pid)) {
    case SCHED_OTHER: return "SCHED_OTHER";
    case SCHED_BATCH: return "SCHED_BATCH";
    case SCHED_IDLE: return "SCHED_IDLE";
    case SCHED_FIFO: return "SCHED_FIFO";
    case SCHED_RR: return "SCHED_RR";
    default: return "unknown";
  }
}

Phaser::Phaser(const Workload& w)
    : w_(w),
      resumed_ns_(static_cast<std::size_t>(w.connections), 0),
      barrier_(static_cast<std::ptrdiff_t>(w.connections), OnEpoch{this}) {}

void Phaser::OnEpoch::operator()() noexcept {
  const std::int64_t reports = p->busy_reports_.exchange(0, std::memory_order_relaxed);
  const std::int64_t busy = p->busy_ns_.exchange(0, std::memory_order_relaxed);
  if (reports > 0)
    p->loop_ns_ = busy / reports * static_cast<std::int64_t>(p->w_.loop_requests) /
                  static_cast<std::int64_t>(p->w_.epoch);
}

void Phaser::before(int c, std::size_t i) {
  if (w_.epoch == 0 || i % w_.epoch != 0) return;
  const auto ci = static_cast<std::size_t>(c);
  if (i > 0) {
    busy_ns_.fetch_add(now_ns() - resumed_ns_[ci], std::memory_order_relaxed);
    busy_reports_.fetch_add(1, std::memory_order_relaxed);
  }
  barrier_.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::nanoseconds(loop_ns_ * c / w_.connections));
  resumed_ns_[ci] = now_ns();
}

void Latencies::add(OpClass cls, double ms) {
  all.push_back(ms);
  if (cls == OpClass::kQuery) query.push_back(ms);
  if (cls == OpClass::kWrite) write.push_back(ms);
}

namespace {

// The q-quantile of one class (selected by `field`), per latencies_to_json.
double segmented_quantile(const std::vector<Latencies>& per_conn,
                          std::vector<double> Latencies::*field, double q) {
  std::size_t n = 0;
  for (const Latencies& l : per_conn) n += (l.*field).size();
  const std::size_t k = std::clamp<std::size_t>(n / kSegmentSamples, 1, kSegments);
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < k; ++s) {
    std::vector<double> pool;
    for (const Latencies& l : per_conn) {
      const std::vector<double>& v = l.*field;
      pool.insert(pool.end(), v.begin() + static_cast<std::ptrdiff_t>(v.size() * s / k),
                  v.begin() + static_cast<std::ptrdiff_t>(v.size() * (s + 1) / k));
    }
    per_slice.push_back(quantile(std::move(pool), q));
  }
  return quantile(std::move(per_slice), 0.5);
}

}  // namespace

void latencies_to_json(const std::vector<Latencies>& per_conn, lapx::service::Json& out) {
  using lapx::service::Json;
  for (const auto& [name, field] : {std::pair{"latency", &Latencies::all},
                                    std::pair{"query", &Latencies::query},
                                    std::pair{"write", &Latencies::write}}) {
    const std::string prefix = name;
    std::size_t n = 0;
    for (const Latencies& l : per_conn) n += (l.*field).size();
    out.set(prefix + "_p50_ms", Json::number(segmented_quantile(per_conn, field, 0.5)));
    out.set(prefix + "_p99_ms", Json::number(segmented_quantile(per_conn, field, 0.99)));
    out.set(prefix + "_n", Json::integer(static_cast<std::int64_t>(n)));
  }
  double sum = 0;
  for (const Latencies& l : per_conn)
    for (const double ms : l.all) sum += ms;
  out.set("latency_sum_ms", Json::number(sum));
}

int run_baseline(const Workload& w, const std::string& transcript_out) {
  lapx::runtime::set_thread_count(kDaemonThreads);
  lapx::service::Service::Options opt;
  opt.scheduler.executors = kDaemonExecutors;
  lapx::service::Service svc(opt);
  Transcript t;
  t.conn.resize(static_cast<std::size_t>(w.connections));
  // Set-up and warm-up: order within a connection is all that matters.
  for (int c = 0; c < w.connections; ++c) {
    for (const Req& r : w.setup[c]) t.conn[c].push_back(fnv1a64(svc.handle(r.line)));
    if (c == 0)
      for (const Req& r : w.warmup) t.conn[0].push_back(fnv1a64(svc.handle(r.line)));
  }
  // Timed: one closed-loop thread per connection, as over the socket.
  std::vector<Latencies> lat(static_cast<std::size_t>(w.connections));
  Phaser phaser(w);
  std::atomic<bool> failed{false};
  const std::int64_t start = now_ns();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < w.connections; ++c) {
      threads.emplace_back([&, c] {
        try {
          for (std::size_t i = 0; i < w.timed[c].size(); ++i) {
            const Req& r = w.timed[c][i];
            phaser.before(c, i);
            const std::int64_t t0 = now_ns();
            const std::string response = svc.submit(r.line).get();
            lat[c].add(r.cls, static_cast<double>(now_ns() - t0) / 1e6);
            t.conn[c].push_back(fnv1a64(response));
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "lapx_loadgen: baseline connection %d: %s\n", c, e.what());
          failed.store(true);
          phaser.leave();
        }
      });
    }
  }
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
  if (failed.load()) return 1;  // no reference without every response
  write_transcript(transcript_out, t);
  using lapx::service::Json;
  Json out = Json::object();
  out.set("mode", Json::string("baseline"));
  out.set("sched", Json::string(sched_policy_name(0)));
  out.set("wall_s", Json::number(wall_s));
  latencies_to_json(lat, out);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace lapxbench
