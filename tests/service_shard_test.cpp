// Tests for the sharded lapxd deployment: the consistent-hash ring, the
// per-shard persistence layout, the deterministic fan-out merge, the
// generalized response sequencer, the router end to end against real
// shard workers (byte-compared with a single-process Service), and the
// kill-one-shard warm-respawn story.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lapx/service/client.hpp"
#include "lapx/service/json.hpp"
#include "lapx/service/ordering.hpp"
#include "lapx/service/persist.hpp"
#include "lapx/service/server.hpp"
#include "lapx/service/service.hpp"
#include "lapx/service/shard/aggregate.hpp"
#include "lapx/service/shard/hash_ring.hpp"
#include "lapx/service/shard/router.hpp"
#include "lapx/service/shard/spawn.hpp"
#include "lapx/service/shard/worker.hpp"

namespace {

using namespace lapx::service;
using shard::HashRing;
using shard::InProcessShardHost;
using shard::MergeContext;
using shard::Router;
using shard::ShardHost;
using shard::ShardSupervisor;
using shard::WorkerConfig;

// ----------------------------------------------------------- hash ring --

TEST(HashRing, OwnerIsDeterministicAndInRange) {
  const HashRing a(4), b(4);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "session-" + std::to_string(i);
    const std::size_t owner = a.owner(key);
    EXPECT_LT(owner, 4u);
    EXPECT_EQ(owner, b.owner(key)) << key;
  }
  const HashRing one(1);
  EXPECT_EQ(one.owner("anything"), 0u);
  EXPECT_EQ(one.owner(""), 0u);
}

TEST(HashRing, SpreadsKeysAcrossEveryShard) {
  const HashRing ring(4);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 2000; ++i)
    ++counts[ring.owner("graph-" + std::to_string(i))];
  for (int c : counts) EXPECT_GE(c, 100) << "a shard owns < 5% of keys";
}

TEST(HashRing, GrowingTheRingMovesFewKeys) {
  // The consistent-hashing contract: going N -> N+1 remaps roughly 1/(N+1)
  // of the keyspace, not all of it.  (Plain modulo would move ~80%.)
  const HashRing four(4), five(5);
  int moved = 0;
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (four.owner(key) != five.owner(key)) ++moved;
  }
  EXPECT_LT(moved, kKeys * 2 / 5) << "ring growth moved " << moved << "/"
                                  << kKeys << " keys";
}

// ---------------------------------------------------------- shard layout --

TEST(ShardLayout, FreshThenStableThenChanged) {
  char tmpl[] = "/tmp/lapx-shard-layout-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  const ShardLayout fresh = plan_shard_layout(dir, 2);
  EXPECT_FALSE(fresh.count_changed);
  EXPECT_EQ(fresh.previous_shard_count, 0);
  ASSERT_EQ(fresh.shard_dirs.size(), 2u);
  EXPECT_EQ(fresh.shard_dirs[0], dir + "/shard-0-of-2");
  EXPECT_EQ(fresh.shard_dirs[1], dir + "/shard-1-of-2");

  const ShardLayout same = plan_shard_layout(dir, 2);
  EXPECT_FALSE(same.count_changed);
  EXPECT_EQ(same.previous_shard_count, 2);

  const ShardLayout grown = plan_shard_layout(dir, 3);
  EXPECT_TRUE(grown.count_changed);
  EXPECT_EQ(grown.previous_shard_count, 2);
  ASSERT_EQ(grown.shard_dirs.size(), 3u);
  EXPECT_EQ(grown.shard_dirs[2], dir + "/shard-2-of-3");

  // A malformed meta file reads as fresh, not as a crash.
  {
    std::FILE* f = std::fopen((dir + "/shards.meta").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a count\n", f);
    std::fclose(f);
  }
  const ShardLayout recovered = plan_shard_layout(dir, 3);
  EXPECT_FALSE(recovered.count_changed);
  EXPECT_EQ(recovered.previous_shard_count, 0);

  std::remove((dir + "/shards.meta").c_str());
  ::rmdir(dir.c_str());
}

TEST(ShardLayout, WorkerOptionsPointAtTheShardSlice) {
  char tmpl[] = "/tmp/lapx-shard-opts-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  WorkerConfig cfg;
  cfg.index = 1;
  cfg.count = 2;
  cfg.base_cache_dir = dir;
  const Service::Options opt = shard::shard_service_options(cfg);
  EXPECT_EQ(opt.cache_dir, dir + "/shard-1-of-2");
  WorkerConfig ephemeral;
  EXPECT_TRUE(shard::shard_service_options(ephemeral).cache_dir.empty());
  std::remove((dir + "/shards.meta").c_str());
  for (int i = 0; i < 2; ++i)
    ::rmdir((dir + "/shard-" + std::to_string(i) + "-of-2").c_str());
  ::rmdir(dir.c_str());
}

// --------------------------------------------------------- fan-out merge --

TEST(MergeFanout, ClassifiesOps) {
  for (const char* op :
       {"list", "stats", "session_info", "cache_info", "cache_save"})
    EXPECT_TRUE(shard::is_fanout_op(op)) << op;
  for (const char* op : {"ping", "generate", "analyze", "shutdown", "nope"})
    EXPECT_FALSE(shard::is_fanout_op(op)) << op;
}

TEST(MergeFanout, StatsSumsCountersAndReportsShardCount) {
  const std::vector<std::string> replies = {
      R"({"ok":true,"result":{"cache":{"hits":3,"misses":1,"entries":2,"bytes":100,"evictions":0},"scheduler":{"submitted":4,"coalesced":0,"rejected_busy":0,"expired":0,"executed":4,"completed":4,"queued":1,"executors":2},"store":{"resident":1,"inserted":1,"evicted":0,"dropped":0,"overwritten":0,"mutated":0}}})",
      R"({"ok":true,"result":{"cache":{"hits":5,"misses":2,"entries":3,"bytes":50,"evictions":1},"scheduler":{"submitted":7,"coalesced":1,"rejected_busy":2,"expired":0,"executed":6,"completed":6,"queued":0,"executors":2},"store":{"resident":2,"inserted":3,"evicted":0,"dropped":1,"overwritten":0,"mutated":2}}})",
  };
  const Json merged = Json::parse(
      shard::merge_fanout("stats", 9, replies, MergeContext{2, ""}));
  ASSERT_TRUE(merged.find("ok")->as_bool());
  const Json* result = merged.find("result");
  EXPECT_EQ(result->find("cache")->find("hits")->as_int(), 8);
  EXPECT_EQ(result->find("cache")->find("misses")->as_int(), 3);
  EXPECT_EQ(result->find("scheduler")->find("rejected_busy")->as_int(), 2);
  EXPECT_EQ(result->find("scheduler")->find("queued")->as_int(), 1);
  EXPECT_EQ(result->find("store")->find("mutated")->as_int(), 2);
  EXPECT_EQ(result->find("shards")->as_int(), 2);
}

TEST(MergeFanout, ListConcatenatesAndSortsByName) {
  // Shard arrays are already lexicographic; the merged listing must be
  // the global lexicographic order (what one process would produce).
  const std::vector<std::string> replies = {
      R"({"ok":true,"result":{"graphs":[{"graph":"b","n":1,"m":0},{"graph":"d","n":2,"m":1}]}})",
      R"({"ok":true,"result":{"graphs":[{"graph":"a","n":3,"m":2},{"graph":"c","n":4,"m":3}]}})",
  };
  const Json merged = Json::parse(
      shard::merge_fanout("list", std::nullopt, replies, MergeContext{2, ""}));
  ASSERT_TRUE(merged.find("ok")->as_bool());
  const Json* graphs = merged.find("result")->find("graphs");
  std::vector<std::string> names;
  for (const Json& g : graphs->items())
    names.push_back(g.find("graph")->as_string());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(MergeFanout, ErrorReplyPassesThroughVerbatim) {
  const std::string error =
      R"({"ok":false,"code":"internal","error":"boom"})";
  const std::vector<std::string> replies = {R"({"ok":true,"result":{}})",
                                            error};
  EXPECT_EQ(shard::merge_fanout("list", std::nullopt, replies,
                                MergeContext{2, ""}),
            error);
}

TEST(MergeFanout, UnparsableReplyBecomesInternalError) {
  const std::vector<std::string> replies = {"garbage{{"};
  const Json merged = Json::parse(shard::merge_fanout(
      "stats", std::nullopt, replies, MergeContext{1, ""}));
  EXPECT_FALSE(merged.find("ok")->as_bool());
  EXPECT_EQ(merged.find("code")->as_string(), "internal");
}

// ---------------------------------------------------- response sequencer --

TEST(Sequencer, MixedEntryKindsEmitInEnqueueOrder) {
  ResponseSequencer seq;
  constexpr int kWaitFd = 42;  // never polled here; only reported back
  bool deferred_ready = false;
  int fetches = 0;
  seq.enqueue_resolved("first");
  seq.enqueue_deferred([&] { return deferred_ready ? -1 : kWaitFd; },
                       [&] {
                         ++fetches;
                         return std::string("second");
                       });
  seq.enqueue_resolved("third");
  std::string out;
  // Only the head is ready; the unready deferred entry gates everything
  // behind it, including the already-resolved "third", and names the fd
  // its caller should poll.
  EXPECT_EQ(seq.drain_ready(out), 1u);
  EXPECT_EQ(out, "first\n");
  EXPECT_EQ(seq.in_flight(), 2u);
  EXPECT_EQ(seq.head_blocked_fd(), kWaitFd);
  deferred_ready = true;
  EXPECT_EQ(seq.drain_ready(out), 2u);
  EXPECT_EQ(seq.head_blocked_fd(), -1);
  seq.drain_all(out);
  EXPECT_EQ(out, "first\nsecond\nthird\n");
  EXPECT_EQ(fetches, 1);
  EXPECT_EQ(seq.in_flight(), 0u);
}

TEST(Sequencer, DrainOneBlocksForTheDeferredHead) {
  ResponseSequencer seq;
  std::atomic<bool> ready{false};
  seq.enqueue_deferred([&] { return ready.load() ? -1 : 0; },
                       [] { return std::string("late"); });
  std::thread flip([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ready.store(true);
  });
  std::string out;
  EXPECT_TRUE(seq.drain_one(out));
  EXPECT_EQ(out, "late\n");
  flip.join();
  EXPECT_FALSE(seq.drain_one(out));  // nothing left
}

// ------------------------------------------------------ router end to end --

std::vector<std::unique_ptr<ShardHost>> make_hosts(
    std::size_t shards, const std::string& sock_base,
    const std::string& cache_base = "") {
  std::vector<std::unique_ptr<ShardHost>> hosts;
  for (std::size_t i = 0; i < shards; ++i) {
    WorkerConfig cfg;
    cfg.index = static_cast<int>(i);
    cfg.count = static_cast<int>(shards);
    cfg.socket_path = sock_base + ".s" + std::to_string(i);
    cfg.base_cache_dir = cache_base;
    hosts.push_back(std::make_unique<InProcessShardHost>(cfg));
  }
  return hosts;
}

std::string test_sock_base(const std::string& tag) {
  return "/tmp/lapx-sht-" + std::to_string(::getpid()) + "-" + tag;
}

// The deterministic request mix: admin, queries, a mutation epoch, errors
// a single process renders identically, and the covered fan-out ops.
// (`stats`/`cache_info` stay out: they are the two transcript-exempt ops.)
std::vector<std::string> mixed_requests() {
  return {
      R"({"id":1,"op":"ping"})",
      R"({"id":2,"op":"generate","name":"ga","family":"cycle","args":[12]})",
      R"({"id":3,"op":"generate","name":"gb","family":"torus","args":[4,4]})",
      R"({"id":4,"op":"generate","name":"gc","family":"petersen"})",
      R"({"id":5,"op":"analyze","graph":"ga"})",
      R"({"id":6,"op":"homogeneity","graph":"gb","radius":1})",
      R"({"id":7,"op":"optimum","graph":"gc","problem":"vc"})",
      R"({"id":8,"op":"mutate","name":"ga","edits":[{"op":"add","u":0,"v":6}]})",
      R"({"id":9,"op":"analyze","graph":"ga"})",
      R"({"id":10,"op":"session_info"})",
      R"({"id":11,"op":"list"})",
      R"({"id":12,"op":"analyze","graph":"missing"})",
      R"({"id":13,"op":"definitely_not_an_op"})",
      "this is not json",
      R"({"id":15,"op":"drop","name":"gb"})",
      R"({"id":16,"op":"list"})",
      R"({"id":17,"op":"shutdown"})",
  };
}

// Runs the mix through a router over `shards` workers, one call at a time.
std::string run_via_router(std::size_t shards, const std::string& tag,
                           bool pipelined) {
  const std::string base = test_sock_base(tag);
  ShardSupervisor sup(make_hosts(shards, base));
  sup.start_all();
  Router::Options ropt;
  ropt.endpoint.unix_path = base + ".router";
  Router router(sup, ropt);
  std::thread serve([&router] { router.serve_forever(); });
  std::string bytes;
  {
    Client client =
        Client::connect_unix(ropt.endpoint.unix_path, Client::startup_retry());
    const std::vector<std::string> reqs = mixed_requests();
    if (pipelined) {
      for (const std::string& r : reqs) client.send(r);
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        bytes += client.recv_line();
        bytes += '\n';
      }
    } else {
      for (const std::string& r : reqs) {
        bytes += client.call(r);
        bytes += '\n';
      }
    }
  }
  serve.join();
  sup.stop_all();
  return bytes;
}

TEST(RouterEndToEnd, TranscriptMatchesSingleProcessAtEveryShardCount) {
  // The reference: the same request lines through one in-process Service.
  Service svc;
  std::string reference;
  for (const std::string& r : mixed_requests()) {
    reference += svc.handle(r);
    reference += '\n';
  }
  EXPECT_NE(reference.find("\"shutting_down\":true"), std::string::npos);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}}) {
    const std::string bytes =
        run_via_router(shards, "seq" + std::to_string(shards), false);
    EXPECT_EQ(bytes, reference) << "shards = " << shards;
  }
}

TEST(RouterEndToEnd, PipelinedBurstMatchesSequentialTranscript) {
  const std::string sequential = run_via_router(2, "pseq", false);
  const std::string burst = run_via_router(2, "pburst", true);
  EXPECT_EQ(burst, sequential);
}

TEST(RouterEndToEnd, KilledShardRespawnsWarmAndRepliesIdentically) {
  char tmpl[] = "/tmp/lapx-sht-kill-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string base = test_sock_base("kill");
  // Epoch-bearing ops (mutate, session_info) stay out of a replayed
  // transcript: the surviving shard keeps its sessions, so re-generation
  // advances epochs even though the generate/query bytes are identical.
  const std::vector<std::string> reqs = {
      R"({"id":1,"op":"generate","name":"ka","family":"cycle","args":[16]})",
      R"({"id":2,"op":"generate","name":"kb","family":"torus","args":[4,4]})",
      R"({"id":3,"op":"analyze","graph":"ka"})",
      R"({"id":4,"op":"homogeneity","graph":"ka","radius":2})",
      R"({"id":5,"op":"analyze","graph":"kb"})",
      R"({"id":6,"op":"fractional","graph":"kb"})",
  };
  auto pass = [&](const std::string& router_path) {
    Client client = Client::connect_unix(router_path, Client::startup_retry());
    std::string bytes;
    for (const std::string& r : reqs) {
      bytes += client.call(r);
      bytes += '\n';
    }
    return bytes;
  };
  {
    ShardSupervisor sup(make_hosts(2, base, dir));
    sup.start_all();
    sup.begin_monitor(std::chrono::milliseconds(10),
                      std::chrono::milliseconds(50));
    Router::Options ropt;
    ropt.endpoint.unix_path = base + ".router";
    ropt.cache_dir = dir;
    Router router(sup, ropt);
    std::thread serve([&router] { router.serve_forever(); });

    const std::string cold = pass(ropt.endpoint.unix_path);
    const std::size_t victim = HashRing(2).owner("ka");
    auto* victim_host = static_cast<InProcessShardHost*>(&sup.host(victim));
    victim_host->kill_hard();
    for (int i = 0; i < 500 && !sup.host(victim).alive(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(sup.host(victim).alive()) << "monitor did not respawn";
    EXPECT_EQ(sup.respawns(), 1u);

    const std::string warm = pass(ropt.endpoint.unix_path);
    EXPECT_EQ(warm, cold);
    // The respawned worker warm-loaded its cache slice: the replay's
    // queries were all hits on a process that never computed them.
    EXPECT_EQ(victim_host->service()->cache().stats().misses, 0u);

    {
      Client client = Client::connect_unix(ropt.endpoint.unix_path,
                                           Client::startup_retry());
      client.call(R"({"op":"shutdown"})");
    }
    serve.join();
    sup.stop_all();
  }
  for (int i = 0; i < 2; ++i) {
    const std::string sd = dir + "/shard-" + std::to_string(i) + "-of-2";
    for (const char* f : {"/snapshot.lapxc", "/journal.lapxj"})
      std::remove((sd + f).c_str());
    ::rmdir(sd.c_str());
  }
  std::remove((dir + "/shards.meta").c_str());
  ::rmdir(dir.c_str());
}

TEST(RouterEndToEnd, FanoutStatsAggregatesAcrossShards) {
  const std::string base = test_sock_base("stats");
  ShardSupervisor sup(make_hosts(2, base));
  sup.start_all();
  Router::Options ropt;
  ropt.endpoint.unix_path = base + ".router";
  Router router(sup, ropt);
  std::thread serve([&router] { router.serve_forever(); });
  {
    Client client =
        Client::connect_unix(ropt.endpoint.unix_path, Client::startup_retry());
    client.call(
        R"({"op":"generate","name":"sa","family":"cycle","args":[8]})");
    client.call(
        R"({"op":"generate","name":"sb","family":"cycle","args":[10]})");
    client.call(R"({"op":"analyze","graph":"sa"})");
    client.call(R"({"op":"analyze","graph":"sb"})");
    const Json stats = Json::parse(client.call(R"({"op":"stats"})"));
    ASSERT_TRUE(stats.find("ok")->as_bool());
    const Json* result = stats.find("result");
    EXPECT_EQ(result->find("shards")->as_int(), 2);
    EXPECT_EQ(result->find("store")->find("resident")->as_int(), 2);
    EXPECT_EQ(result->find("cache")->find("misses")->as_int(), 2);
    // Two shards, each with >= 1 executor, summed.
    EXPECT_GE(result->find("scheduler")->find("executors")->as_int(), 2);
    client.call(R"({"op":"shutdown"})");
  }
  serve.join();
  sup.stop_all();
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(RouterEndToEnd, OneShotHeadsAnswerWithoutAPollTick) {
  // A reply a head waits on (a shard's, or every leg of a fan-out) must be
  // forwarded the moment it arrives, not on a timer tick of the worker or
  // the router.  Each request travels alone on a fresh connection, as
  // `lapx_cli call` sends it; its overhead is the round trip minus the
  // same request's handle() time on an in-process twin fed the same lines.
  constexpr double kBoundMs = 50.0;  // half of a 100 ms poll tick
  constexpr int kQueries = 9;
  const std::string base = test_sock_base("tick");
  ShardSupervisor sup(make_hosts(2, base));
  sup.start_all();
  sup.begin_monitor(std::chrono::milliseconds(10),
                    std::chrono::milliseconds(50));
  Router::Options ropt;
  ropt.endpoint.unix_path = base + ".router";
  Router router(sup, ropt);
  std::thread serve([&router] { router.serve_forever(); });
  Service twin;
  std::vector<double> overhead_ms;
  auto one_shot = [&](const std::string& line) {
    const auto sent = std::chrono::steady_clock::now();
    std::string got;
    {
      Client client = Client::connect_unix(ropt.endpoint.unix_path,
                                           Client::startup_retry());
      got = client.call(line);
    }
    const double round_trip = ms_since(sent);
    const auto computed = std::chrono::steady_clock::now();
    EXPECT_EQ(got, twin.handle(line));
    overhead_ms.push_back(round_trip - ms_since(computed));
  };
  Client setup =
      Client::connect_unix(ropt.endpoint.unix_path, Client::startup_retry());
  for (int i = 0; i < kQueries; ++i) {
    const std::string g = "g" + std::to_string(i);
    const std::string gen = "{\"op\":\"generate\",\"name\":\"" + g +
                            "\",\"family\":\"lift\",\"args\":[3,3,200," +
                            std::to_string(i + 1) + "]}";
    setup.call(gen);
    twin.handle(gen);
    // A cold query computing a few ms on the owning shard's executor.
    one_shot("{\"id\":" + std::to_string(i) +
             ",\"op\":\"views\",\"graph\":\"" + g + "\",\"radius\":2}");
  }
  // A fan-out head waits on each shard's leg in turn.
  one_shot(R"({"id":100,"op":"session_info"})");
  // A head on a kill_hard'ed shard, answered by its respawned replacement
  // -- which lost the shard's sessions, as the twin now has.
  const std::size_t victim = HashRing(2).owner("g0");
  static_cast<InProcessShardHost*>(&sup.host(victim))->kill_hard();
  for (int i = 0; i < 500 && !sup.host(victim).alive(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(sup.host(victim).alive()) << "monitor did not respawn";
  twin.handle(R"({"op":"drop","name":"g0"})");
  one_shot(R"({"id":101,"op":"views","graph":"g0","radius":2})");
  std::sort(overhead_ms.begin(), overhead_ms.end());
  EXPECT_LT(overhead_ms[overhead_ms.size() / 2], kBoundMs);
  // stop() must wake the accept loop and the idle connection at once.
  ASSERT_TRUE(
      Json::parse(setup.call(R"({"op":"ping"})")).find("ok")->as_bool());
  const auto stopping = std::chrono::steady_clock::now();
  router.stop();
  serve.join();
  EXPECT_LT(ms_since(stopping), kBoundMs);
  sup.stop_all();
}

// ------------------------------------------------------- client retry --

TEST(ClientRetry, ConnectAbsorbsALateBindingServer) {
  const std::string path = test_sock_base("late") + ".sock";
  Service svc;
  std::unique_ptr<Server> server;
  std::thread start_late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    Server::Options opt;
    opt.endpoint.unix_path = path;
    server = std::make_unique<Server>(svc, opt);
    server->serve_forever();
  });
  // The socket does not exist yet (ENOENT); the startup policy keeps
  // redialing until the server binds.
  Client client = Client::connect_unix(path, Client::startup_retry());
  const Json pong = Json::parse(client.call(R"({"id":1,"op":"ping"})"));
  EXPECT_TRUE(pong.find("ok")->as_bool());
  client.call(R"({"op":"shutdown"})");
  start_late.join();
  std::remove(path.c_str());
}

TEST(ClientRetry, DefaultPolicyFailsFast) {
  const std::string path = test_sock_base("absent") + ".sock";
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(Client::connect_unix(path), std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0)
      << "fail-fast default must not sit in a retry loop";
}

}  // namespace
