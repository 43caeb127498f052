// Unit tests for the lapxd service layer: the hardened JSON parser (with
// generated inputs), the wire protocol and its content-addressed
// fingerprints, the session graph store, the result cache, the batch
// scheduler (backpressure, deadlines, coalescing), the Service dispatch
// core, and socket round trips through Server + Client, including the
// client's connect retry.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lapx/algorithms/po.hpp"
#include "lapx/core/interner.hpp"
#include "lapx/core/model.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/io.hpp"
#include "lapx/graph/mutation.hpp"
#include "lapx/graph/ooc.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/problems/problem.hpp"
#include "lapx/runtime/parallel.hpp"
#include "lapx/service/client.hpp"
#include "lapx/service/handlers.hpp"
#include "lapx/service/json.hpp"
#include "lapx/service/ordering.hpp"
#include "lapx/service/protocol.hpp"
#include "lapx/service/result_cache.hpp"
#include "lapx/service/scheduler.hpp"
#include "lapx/service/server.hpp"
#include "lapx/service/service.hpp"
#include "lapx/service/session_store.hpp"
#include "graph_corpus.hpp"

namespace {

using namespace lapx::service;
using lapx::core::kNoType;
using lapx::core::TypeId;
using lapx::core::TypeInterner;

// ---------------------------------------------------------------- JSON --

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(Json::parse(" \"x\" ").as_string(), "x");
}

TEST(Json, ParseContainers) {
  const Json a = Json::parse(R"([1,"two",[3],{}])");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.items().size(), 4u);
  EXPECT_EQ(a.items()[0].as_int(), 1);
  EXPECT_EQ(a.items()[1].as_string(), "two");
  EXPECT_EQ(a.items()[2].items()[0].as_int(), 3);
  EXPECT_TRUE(a.items()[3].is_object());

  const Json o = Json::parse(R"({"b":1,"a":{"c":[true,null]}})");
  ASSERT_TRUE(o.is_object());
  EXPECT_EQ(o.find("b")->as_int(), 1);
  EXPECT_TRUE(o.find("a")->find("c")->items()[1].is_null());
  EXPECT_EQ(o.find("missing"), nullptr);
}

TEST(Json, ParseEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(Json::parse(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
}

TEST(Json, ParseRejectsMalformed) {
  for (const char* bad :
       {"", "   ", "{", "[1,", "tru", "nul", "{\"a\":}", "{\"a\" 1}",
        "[1 2]", "1 2", "\"unterminated", "\"bad\\q\"", "\"\\ud800\"",
        "{\"dup\":1,\"dup\":2}", "01", "9223372036854775808", "--1", "+1",
        "{1:2}", "nan", "infinity"}) {
    EXPECT_THROW(Json::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, ParseGuards) {
  // Depth guard.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW(Json::parse(deep), std::invalid_argument);
  Json::Limits loose;
  loose.max_depth = 200;
  EXPECT_NO_THROW(Json::parse(deep, loose));
  // Size guard.
  Json::Limits tiny;
  tiny.max_bytes = 4;
  EXPECT_THROW(Json::parse("\"hello\"", tiny), std::invalid_argument);
}

TEST(Json, CanonicalDump) {
  Json o = Json::object();
  o.set("zeta", Json::integer(1));
  o.set("alpha", Json::number(0.5));
  o.set("list", Json::array()).push_back(Json::string("a\nb"));
  // Insertion order preserved; doubles fixed-format with zeros trimmed.
  EXPECT_EQ(o.dump(), R"({"zeta":1,"alpha":0.5,"list":["a\nb"]})");
  // Sorted copy sorts keys recursively.
  EXPECT_EQ(o.sorted_copy().dump(), R"({"alpha":0.5,"list":["a\nb"],"zeta":1})");
  // Round trip through the parser is stable.
  EXPECT_EQ(Json::parse(o.dump()).dump(), o.dump());
}

TEST(Json, LargeDoubleSerializesFully) {
  // %.6f needs ~65 digits for 1e60; the dump must not truncate, and two
  // distinct large values must keep distinct spellings.
  Json big = Json::number(1e60);
  const std::string s = big.dump();
  EXPECT_GT(s.size(), 60u);
  EXPECT_DOUBLE_EQ(Json::parse(s).as_double(), 1e60);
  EXPECT_NE(Json::number(1e60).dump(), Json::number(2e60).dump());
  EXPECT_DOUBLE_EQ(Json::parse(Json::number(-1e80).dump()).as_double(), -1e80);
}

TEST(Json, DeepCopySemantics) {
  Json a = Json::object();
  a.set("k", Json::integer(1));
  Json b = a;  // must be a deep copy, not an aliased child
  b.set("k", Json::integer(2));
  EXPECT_EQ(a.find("k")->as_int(), 1);
  EXPECT_EQ(b.find("k")->as_int(), 2);
}

// Object members are checked for duplicates in O(log k) each, so parse
// and sorted_copy grow near-linearly with the key count: 8x the keys may
// cost at most 16x the time (scanning every earlier key made it ~64x).
// Each rep is timed on this thread's CPU clock, so time the thread spends
// preempted (a parallel ctest) does not count.
TEST(Json, ManyKeysParseAndSortInNearLinearTime) {
  const auto ping_with_keys = [](int keys) {
    std::string line = R"({"op":"ping")";
    for (int i = 0; i < keys; ++i)
      line += ",\"k" + std::to_string(i) + "\":" + std::to_string(i);
    return line + "}";
  };
  const auto thread_cpu_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
  };
  const auto min_of_3_ms = [&](const auto& run) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double start = thread_cpu_ms();
      run();
      const double ms = thread_cpu_ms() - start;
      best = rep == 0 ? ms : std::min(best, ms);
    }
    return best;
  };
  const std::string small = ping_with_keys(10000);
  const std::string large = ping_with_keys(80000);
  const double parse_small = min_of_3_ms([&] { Json::parse(small); });
  const double parse_large = min_of_3_ms([&] { Json::parse(large); });
  EXPECT_LE(parse_large, 16.0 * parse_small)
      << "parse: " << parse_small << " ms at 10k keys, " << parse_large
      << " ms at 80k";
  const Json small_obj = Json::parse(small);
  const Json large_obj = Json::parse(large);
  ASSERT_EQ(large_obj.members().size(), 80001u);
  const double sort_small = min_of_3_ms([&] { small_obj.sorted_copy(); });
  const double sort_large = min_of_3_ms([&] { large_obj.sorted_copy(); });
  EXPECT_LE(sort_large, 16.0 * sort_small)
      << "sorted_copy: " << sort_small << " ms at 10k keys, " << sort_large
      << " ms at 80k";
  // Duplicate rejection survives: the repeat is the very last key.
  std::string dup = large;
  dup.insert(dup.size() - 1, R"(,"k123":0)");
  EXPECT_THROW(Json::parse(dup), std::invalid_argument);
}

// Generated inputs: seeded byte flips, deletions, insertions, truncations
// and splices of real request lines.  The parser either accepts a line or
// throws std::invalid_argument, and the service answers every line with
// exactly one response line.
TEST(Json, MutatedRequestLinesParseOrThrowAndGetOneResponse) {
  const std::vector<std::string> fixtures = {
      R"({"op":"ping"})",
      R"({"id":1,"op":"generate","name":"h","family":"torus","args":[4,4]})",
      R"({"id":2,"op":"generate","name":"h","family":"lift","args":[3,3,20,7]})",
      R"({"op":"upload","name":"u","edges":"3 2\n0 1\n1 2\n"})",
      R"({"id":3,"op":"mutate","name":"g","edits":[{"op":"remove","u":0,"v":1},{"op":"add","u":0,"v":5}]})",
      R"({"id":4,"op":"views","graph":"g","radius":2})",
      R"({"id":5,"op":"homogeneity","graph":"g","radius":1,"deadline_ms":500})",
      R"({"id":6,"op":"run","graph":"g","algorithm":"eds-mark-first"})",
      R"({"id":7,"op":"optimum","graph":"g","problem":"vc"})",
      R"({"id":8,"op":"fractional","graph":"g"})",
      R"({"id":9,"op":"analyze","graph":"g"})",
      R"({"op":"session_info"})",
      R"({"op":"drop","name":"g"})",
  };
  const std::string alphabet = "{}[]:,\"\\ -.0123456789eEtrufalsn";
  std::mt19937_64 rng(20261017);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::string line = fixtures[pick(fixtures.size())];
    for (std::size_t m = 1 + pick(3); m > 0 && !line.empty(); --m) {
      const std::size_t at = pick(line.size());
      switch (pick(5)) {
        case 0:  // flip one bit
          line[at] = static_cast<char>(line[at] ^ (1 << pick(8)));
          break;
        case 1:  // delete a short run
          line.erase(at, 1 + pick(4));
          break;
        case 2:  // insert from the JSON alphabet
          line.insert(at, 1, alphabet[pick(alphabet.size())]);
          break;
        case 3:  // truncate
          line.resize(at);
          break;
        default: {  // splice: this prefix, another line's suffix
          const std::string& other = fixtures[pick(fixtures.size())];
          line = line.substr(0, at) + other.substr(pick(other.size()));
        }
      }
    }
    try {
      Json::parse(line);
    } catch (const std::invalid_argument&) {
    } catch (...) {
      ADD_FAILURE() << "parse threw a non-invalid_argument on: " << line;
    }
    // A fresh service per line, so no mutated line's graph can make a
    // later query expensive.
    Service svc;
    svc.handle(R"({"op":"generate","name":"g","family":"torus","args":[4,4]})");
    const std::string response = svc.handle(line);
    EXPECT_EQ(response.find('\n'), std::string::npos) << line;
    const Json parsed = Json::parse(response);
    ASSERT_TRUE(parsed.find("ok") != nullptr && parsed.find("ok")->is_bool())
        << line << " -> " << response;
  }
}

// Generated inputs for the edge-list reader, which `upload` feeds with
// untrusted bytes: seeded byte flips, deletions, insertions, truncations
// and splices of real edge lists.  The reader either throws
// std::invalid_argument or returns a graph whose edge list re-parses to an
// equal graph, and every text sent as an upload gets exactly one response
// line.
TEST(EdgeList, MutatedTextsParseOrThrowAndUploadGetsOneResponse) {
  const std::vector<std::string> fixtures = {
      lapx::graph::to_edge_list(lapx::graph::torus({3, 4})),
      lapx::graph::to_edge_list(lapx::graph::lifted_torus(3, 3, 2, 7)),
      lapx::graph::to_edge_list(lapx::graph::petersen()),
      "# two triangles\n6 6\n0 1\n1 2 # inline\n2 0\n\n  # second\n"
      "3 4\n4 5\n5 3\n",
      // At the limits: m = n(n-1)/2, the largest vertex id, no edges.
      "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
      "3 2\n2 0\n2 1\n",
  };
  const std::string alphabet = "0123456789 #-\n";
  lapx::graph::EdgeListLimits limits;
  limits.max_vertices = kMaxServiceVertices;
  limits.max_edges = kMaxServiceEdges;
  std::mt19937_64 rng(20261018);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text = fixtures[pick(fixtures.size())];
    for (std::size_t m = 1 + pick(3); m > 0 && !text.empty(); --m) {
      const std::size_t at = pick(text.size());
      switch (pick(5)) {
        case 0:  // flip one bit
          text[at] = static_cast<char>(text[at] ^ (1 << pick(8)));
          break;
        case 1:  // delete a short run
          text.erase(at, 1 + pick(4));
          break;
        case 2:  // insert from the edge-list alphabet
          text.insert(at, 1, alphabet[pick(alphabet.size())]);
          break;
        case 3:  // truncate
          text.resize(at);
          break;
        default: {  // splice: this prefix, another text's suffix
          const std::string& other = fixtures[pick(fixtures.size())];
          text = text.substr(0, at) + other.substr(pick(other.size()));
        }
      }
    }
    try {
      const lapx::graph::Graph g =
          lapx::graph::graph_from_edge_list(text, limits);
      EXPECT_TRUE(lapx::graph::graph_from_edge_list(
                      lapx::graph::to_edge_list(g), limits) == g)
          << text;
    } catch (const std::invalid_argument&) {
    } catch (...) {
      ADD_FAILURE() << "reader threw a non-invalid_argument on: " << text;
    }
    Json req = Json::object();
    req.set("op", Json::string("upload"));
    req.set("name", Json::string("u"));
    req.set("edges", Json::string(text));
    Service svc;
    const std::string response = svc.handle(req.dump());
    EXPECT_EQ(response.find('\n'), std::string::npos) << text;
    const Json parsed = Json::parse(response);
    ASSERT_TRUE(parsed.find("ok") != nullptr && parsed.find("ok")->is_bool())
        << text << " -> " << response;
  }
}

// ------------------------------------------------------------ protocol --

TEST(Protocol, ParseRequest) {
  const Request r = parse_request(
      R"({"id":9,"op":"homogeneity","graph":"g","radius":2,"deadline_ms":50})");
  EXPECT_EQ(r.op, "homogeneity");
  EXPECT_EQ(r.id, 9);
  EXPECT_EQ(r.deadline_ms, 50);
  EXPECT_THROW(parse_request("[1,2]"), std::invalid_argument);
  EXPECT_THROW(parse_request(R"({"graph":"g"})"), std::invalid_argument);
  EXPECT_THROW(parse_request(R"({"op":7})"), std::invalid_argument);
}

TEST(Protocol, FingerprintIgnoresIdAndDeadlineAndKeyOrder) {
  TypeInterner interner;
  const std::string content = "c5";
  const TypeId a = request_fingerprint(
      parse_request(R"({"id":1,"op":"views","graph":"g","radius":2})"),
      content, interner);
  const TypeId b = request_fingerprint(
      parse_request(
          R"({"radius":2,"op":"views","graph":"other","id":99,"deadline_ms":7})"),
      content, interner);
  EXPECT_EQ(a, b);  // same content id + same semantic fields
  const TypeId c = request_fingerprint(
      parse_request(R"({"op":"views","graph":"g","radius":3})"), content,
      interner);
  EXPECT_NE(a, c);  // radius is semantic
  const TypeId d = request_fingerprint(
      parse_request(R"({"op":"views","graph":"g","radius":2})"), "c6",
      interner);
  EXPECT_NE(a, d);  // different graph content
  // The content id enters the spelling as a JSON string, so a fingerprint
  // is spelled the same in every process.
  EXPECT_EQ(interner.spelling(a),
            R"(lapxd:q:{"graph#content":"c5","op":"views","radius":2})");
}

TEST(Protocol, FingerprintRejectsReservedAndUnknownKeys) {
  TypeInterner interner;
  // A literal "graph#content" field must never override the substituted
  // content id (cache poisoning), and unknown fields must not silently
  // shift the canonical dump.
  EXPECT_THROW(
      request_fingerprint(
          parse_request(R"({"op":"views","graph":"g","graph#content":7})"),
          "c5", interner),
      std::invalid_argument);
  EXPECT_THROW(request_fingerprint(
                   parse_request(R"({"op":"views","graph":"g","extra":1})"),
                   "c5", interner),
               std::invalid_argument);
  // Per-op whitelist: "problem" belongs to optimum, not views.
  EXPECT_THROW(
      request_fingerprint(
          parse_request(R"({"op":"views","graph":"g","problem":"vc"})"),
          "c5", interner),
      std::invalid_argument);
  EXPECT_NO_THROW(request_fingerprint(
      parse_request(R"({"op":"optimum","graph":"g","problem":"vc"})"), "c5",
      interner));
}

TEST(Protocol, Envelopes) {
  EXPECT_EQ(ok_response(7, R"({"n":3})"), R"({"id":7,"ok":true,"result":{"n":3}})");
  EXPECT_EQ(ok_response(std::nullopt, "1"), R"({"ok":true,"result":1})");
  EXPECT_EQ(error_response(7, ErrorCode::kNotFound, "no such graph: g"),
            R"({"id":7,"ok":false,"code":"not_found","error":"no such graph: g"})");
}

// --------------------------------------------------------- SessionStore --

TEST(SessionStore, PutGetDropAndContentSharing) {
  SessionStore store;
  auto a = store.put("a", lapx::graph::cycle(6));
  auto b = store.put("b", lapx::graph::cycle(6));
  auto c = store.put("c", lapx::graph::cycle(7));
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->content_id(), b->content_id());  // identical content
  EXPECT_NE(a->content_id(), c->content_id());
  EXPECT_EQ(store.get("a").get(), a.get());
  EXPECT_EQ(store.names(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(store.drop("b"));
  EXPECT_FALSE(store.drop("b"));
  EXPECT_EQ(store.get("b"), nullptr);
  EXPECT_EQ(store.stats().dropped, 1u);
}

TEST(SessionStore, LruEvictionNeverInvalidatesPinnedEntries) {
  SessionStore::Options opt;
  opt.max_graphs = 2;
  SessionStore store(opt);
  auto a = store.put("a", lapx::graph::cycle(4));
  store.put("b", lapx::graph::cycle(5));
  store.get("a");  // refresh a: b is now least recently used
  store.put("c", lapx::graph::cycle(6));
  EXPECT_EQ(store.get("b"), nullptr);  // evicted
  ASSERT_NE(store.get("a"), nullptr);
  EXPECT_EQ(store.stats().evicted, 1u);
  // Force "a" itself out while we still hold a reference.
  store.put("d", lapx::graph::cycle(7));
  store.put("e", lapx::graph::cycle(8));
  EXPECT_EQ(store.get("a"), nullptr);
  // The pinned entry stays fully usable after eviction.
  EXPECT_EQ(a->graph().num_vertices(), 4);
  EXPECT_EQ(a->ldigraph().num_vertices(), 4);
}

TEST(SessionStore, RebindingReplaces) {
  SessionStore store;
  store.put("g", lapx::graph::cycle(4));
  auto g2 = store.put("g", lapx::graph::cycle(9));
  EXPECT_EQ(store.get("g")->graph().num_vertices(), 9);
  EXPECT_EQ(store.names(), (std::vector<std::string>{"g"}));
  EXPECT_EQ(g2->graph().num_vertices(), 9);
}

// ---------------------------------------------------------- ResultCache --

TEST(ResultCache, HitMissLruAndStats) {
  ResultCache::Options opt;
  opt.max_entries = 2;
  ResultCache cache(opt);
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_EQ(cache.get(1).value(), "one");  // 1 now most recent
  cache.put(3, "three");                   // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value(), "one");
  EXPECT_EQ(cache.get(3).value(), "three");
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(ResultCache, ByteBoundEvicts) {
  ResultCache::Options opt;
  opt.max_bytes = 10;
  ResultCache cache(opt);
  cache.put(1, "aaaa");
  cache.put(2, "bbbb");
  cache.put(3, "cccc");  // 12 bytes total: evicts key 1
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(2).has_value());
  EXPECT_LE(cache.stats().bytes, 10u);
}

TEST(ResultCache, ClearKeepsCounters) {
  ResultCache cache;
  cache.put(1, "x");
  EXPECT_TRUE(cache.get(1).has_value());
  cache.clear();
  EXPECT_FALSE(cache.get(1).has_value());
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.hits, 1u);  // pre-clear history survives
}

// ------------------------------------------------------- BatchScheduler --

TEST(BatchScheduler, ExecutesAndReportsErrors) {
  BatchScheduler sched;
  auto ok = sched.submit(kNoType, [] { return Outcome{Outcome::Status::kOk, "r"}; });
  EXPECT_EQ(ok.future.get().status, Outcome::Status::kOk);
  EXPECT_EQ(ok.future.get().payload, "r");
  // A generic exception is internal whatever its message says: only a
  // ServiceError names another code.
  auto err = sched.submit(kNoType, []() -> Outcome {
    throw std::runtime_error("not_found: boom");
  });
  EXPECT_EQ(err.future.get().status, Outcome::Status::kError);
  EXPECT_EQ(err.future.get().code, ErrorCode::kInternal);
  EXPECT_EQ(err.future.get().payload, "not_found: boom");
  const auto s = sched.stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.executed, 2u);
}

TEST(BatchScheduler, BackpressureOnFullQueue) {
  BatchScheduler::Options opt;
  opt.queue_capacity = 1;
  opt.executors = 1;
  BatchScheduler sched(opt);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  // Occupy the single executor...
  auto running = sched.submit(kNoType, [gate] {
    gate.wait();
    return Outcome{Outcome::Status::kOk, "slow"};
  });
  // ...give it a moment to be picked up, then fill the queue slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto queued = sched.submit(kNoType, [] {
    return Outcome{Outcome::Status::kOk, "queued"};
  });
  // The queue is now full: the next submit must fail fast with kBusy.
  auto rejected = sched.submit(kNoType, [] {
    return Outcome{Outcome::Status::kOk, "never"};
  });
  EXPECT_EQ(rejected.future.get().status, Outcome::Status::kBusy);
  release.set_value();
  EXPECT_EQ(running.future.get().payload, "slow");
  EXPECT_EQ(queued.future.get().payload, "queued");
  const auto s = sched.stats();
  EXPECT_EQ(s.rejected_busy, 1u);
  EXPECT_EQ(s.executed, 2u);
}

TEST(BatchScheduler, DeadlineExpiresQueuedWork) {
  BatchScheduler::Options opt;
  opt.queue_capacity = 8;
  opt.executors = 1;
  BatchScheduler sched(opt);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = sched.submit(kNoType, [gate] {
    gate.wait();
    return Outcome{Outcome::Status::kOk, "done"};
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  bool expired_ran = false;
  auto expired = sched.submit(
      kNoType,
      [&expired_ran] {
        expired_ran = true;
        return Outcome{Outcome::Status::kOk, "late"};
      },
      /*deadline_ms=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();
  EXPECT_EQ(blocker.future.get().status, Outcome::Status::kOk);
  EXPECT_EQ(expired.future.get().status, Outcome::Status::kDeadline);
  EXPECT_FALSE(expired_ran);  // expired work is never run
  EXPECT_EQ(sched.stats().expired, 1u);
}

TEST(BatchScheduler, CoalescesIdenticalFingerprints) {
  BatchScheduler sched;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> runs{0};
  const TypeId fp = 42;
  auto make_work = [gate, &runs] {
    return [gate, &runs] {
      runs.fetch_add(1);
      gate.wait();
      return Outcome{Outcome::Status::kOk, "shared"};
    };
  };
  auto first = sched.submit(fp, make_work());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto second = sched.submit(fp, make_work());
  release.set_value();
  EXPECT_EQ(first.future.get().payload, "shared");
  EXPECT_EQ(second.future.get().payload, "shared");
  EXPECT_EQ(runs.load(), 1);  // one execution served both waiters
  EXPECT_EQ(sched.stats().coalesced, 1u);
}

TEST(BatchScheduler, ShutdownResolvesEveryAcceptedJob) {
  // Regression for the shutdown drop: jobs still queued when stop is
  // observed must resolve (as kBusy), never hang their waiters -- with
  // multiple executors racing each other through the drain.
  std::vector<BatchScheduler::Submission> subs;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> started{0};
  std::thread releaser;
  {
    BatchScheduler::Options opt;
    opt.queue_capacity = 64;
    opt.executors = 4;
    BatchScheduler sched(opt);
    // Block all four executors so later submissions stay queued.
    for (int i = 0; i < 4; ++i)
      subs.push_back(sched.submit(kNoType, [gate, &started] {
        started.fetch_add(1);
        gate.wait();
        return Outcome{Outcome::Status::kOk, "gated"};
      }));
    for (int i = 0; i < 32; ++i)
      subs.push_back(sched.submit(kNoType, [] {
        return Outcome{Outcome::Status::kOk, "queued"};
      }));
    // Wait until all four executors are genuinely mid-job, so destruction
    // races against running work, not an idle scheduler.
    while (started.load() < 4)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Unblock the executors just as destruction begins.
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.set_value();
    });
  }  // ~BatchScheduler: must resolve everything above
  releaser.join();
  std::uint64_t completed = 0, busy = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const BatchScheduler::Submission& sub = subs[i];
    ASSERT_EQ(sub.future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "job " << i << " hung across shutdown";
    const Outcome out = sub.future.get();
    EXPECT_TRUE(out.status == Outcome::Status::kOk ||
                out.status == Outcome::Status::kBusy);
    (out.status == Outcome::Status::kOk ? completed : busy) += 1;
  }
  EXPECT_EQ(completed + busy, subs.size());
  EXPECT_GE(completed, 4u);  // the gated jobs themselves ran to completion
}

BatchScheduler::Work returning(const char* payload) {
  return [payload] { return Outcome{Outcome::Status::kOk, payload}; };
}

// Submits a job and counts its completion callbacks, and how many of them
// ran before the job's future was ready.  The tests gate every job, so
// none resolves before submit() has stored the future.
struct NotifyProbe {
  std::shared_future<Outcome> future;
  std::atomic<int> fired{0};
  std::atomic<int> fired_early{0};

  void submit(BatchScheduler& sched, TypeId fp, BatchScheduler::Work work,
              std::int64_t deadline_ms = -1) {
    auto notify = [this] {
      if (future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready)
        fired_early.fetch_add(1);
      fired.fetch_add(1);
    };
    future = sched.submit(fp, std::move(work), deadline_ms, notify).future;
  }
};

TEST(BatchScheduler, NotifiesEachDeferredSubmissionOnceAfterItIsReady) {
  NotifyProbe executed, creator, joiner, expired, full;
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  {
    BatchScheduler::Options opt;
    opt.queue_capacity = 2;
    opt.executors = 1;
    BatchScheduler sched(opt);
    // The single executor picks this up and parks on the gate...
    executed.submit(sched, kNoType, [&started, gate] {
      started.set_value();
      gate.wait();
      return Outcome{Outcome::Status::kOk, "ran"};
    });
    started.get_future().wait();
    // ...so these queue behind it (two slots) or join a queued job.
    creator.submit(sched, 7, returning("shared"));
    joiner.submit(sched, 7, returning("unused"));
    expired.submit(sched, kNoType, returning("late"), /*deadline_ms=*/0);
    // The queue is full: this one comes back resolved and never notifies.
    full.submit(sched, kNoType, returning("no room"));
    EXPECT_EQ(full.future.get().status, Outcome::Status::kBusy);
    release.set_value();
    for (NotifyProbe* p : {&executed, &creator, &expired}) p->future.wait();
    const auto s = sched.stats();
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.coalesced, 1u);
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.rejected_busy, 1u);
  }  // joins the executor: every callback has returned
  for (NotifyProbe* p : {&executed, &creator, &joiner, &expired}) {
    EXPECT_EQ(p->fired.load(), 1);
    EXPECT_EQ(p->fired_early.load(), 0);
  }
  EXPECT_EQ(full.fired.load(), 0);
  EXPECT_EQ(joiner.future.get().payload, "shared");
  EXPECT_EQ(expired.future.get().status, Outcome::Status::kDeadline);
}

TEST(BatchScheduler, NotifiesJobsDrainedAsBusyAtShutdown) {
  NotifyProbe running, drained;
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  const TypeId fp = 9;
  auto owner = std::make_unique<BatchScheduler>();  // one executor
  BatchScheduler* sched = owner.get();
  running.submit(*sched, fp, [&started, gate] {
    started.set_value();
    gate.wait();
    return Outcome{Outcome::Status::kOk, "ran"};
  });
  started.get_future().wait();
  drained.submit(*sched, kNoType, returning("queued"));
  std::thread destroy([&owner] { owner.reset(); });
  // Hold the running job until the destructor has flagged shutdown, so the
  // queued job is drained instead of run.  A submission with the running
  // job's fingerprint joins it (an unready future) until then and comes
  // back resolved busy after; the destructor cannot return before the
  // gate opens, so the scheduler is alive while it is probed.
  auto stopping = [sched, fp] {
    const auto probe = sched->submit(fp, returning("probe")).future;
    return probe.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  while (!stopping()) std::this_thread::yield();
  release.set_value();
  destroy.join();
  for (NotifyProbe* p : {&running, &drained}) {
    EXPECT_EQ(p->fired.load(), 1);
    EXPECT_EQ(p->fired_early.load(), 0);
  }
  EXPECT_EQ(running.future.get().status, Outcome::Status::kOk);
  EXPECT_EQ(drained.future.get().status, Outcome::Status::kBusy);
}

TEST(ResultCache, FirstWriterWinsOnInsertRace) {
  ResultCache cache;
  const TypeId fp = TypeInterner::global().intern("fww-test-key");
  EXPECT_EQ(cache.put(fp, "winner"), "winner");
  // A losing racer (or a redundant recompute) adopts the resident bytes.
  EXPECT_EQ(cache.put(fp, "loser"), "winner");
  EXPECT_EQ(cache.get(fp).value(), "winner");
  EXPECT_EQ(cache.stats().insertions, 1u);
}

// -------------------------------------------------------------- Service --

TEST(Service, AdminAndQueryRoundTrip) {
  Service svc;
  EXPECT_EQ(svc.handle(R"({"id":1,"op":"ping"})"),
            R"({"id":1,"ok":true,"result":{"pong":true}})");
  const std::string gen = svc.handle(
      R"({"id":2,"op":"generate","name":"g","family":"cycle","args":[6]})");
  EXPECT_NE(gen.find("\"ok\":true"), std::string::npos);
  const Json analyze =
      Json::parse(svc.handle(R"({"id":3,"op":"analyze","graph":"g"})"));
  ASSERT_TRUE(analyze.find("ok")->as_bool());
  EXPECT_EQ(analyze.find("result")->find("n")->as_int(), 6);
  EXPECT_EQ(analyze.find("result")->find("m")->as_int(), 6);
  EXPECT_EQ(analyze.find("result")->find("girth")->as_int(), 6);
  // upload round trip
  const std::string text = lapx::graph::to_edge_list(
      lapx::graph::petersen());
  Json up = Json::object();
  up.set("op", Json::string("upload"));
  up.set("name", Json::string("p"));
  up.set("edges", Json::string(text));
  EXPECT_NE(svc.handle(up.dump()).find("\"ok\":true"), std::string::npos);
  const Json pa = Json::parse(svc.handle(R"({"op":"analyze","graph":"p"})"));
  EXPECT_EQ(pa.find("result")->find("n")->as_int(), 10);
  EXPECT_EQ(pa.find("result")->find("girth")->as_int(), 5);
  // list reflects both graphs
  const Json ls = Json::parse(svc.handle(R"({"op":"list"})"));
  EXPECT_EQ(ls.find("result")->find("graphs")->items().size(), 2u);
}

TEST(Service, ErrorEnvelopes) {
  Service svc;
  EXPECT_NE(svc.handle("not json").find("\"code\":\"bad_request\""),
            std::string::npos);
  EXPECT_NE(svc.handle(R"({"op":"nope"})").find("\"code\":\"bad_request\""),
            std::string::npos);
  EXPECT_NE(
      svc.handle(R"({"op":"analyze","graph":"missing"})")
          .find("\"code\":\"not_found\""),
      std::string::npos);
  svc.handle(R"({"op":"generate","name":"big","family":"cycle","args":[100]})");
  EXPECT_NE(
      svc.handle(R"({"op":"optimum","graph":"big","problem":"vc"})")
          .find("\"code\":\"too_large\""),
      std::string::npos);
}

TEST(Service, EdgeCoverLeavesIsolatedVerticesUncovered) {
  // edge_cover()'s checkers accept an isolated vertex vacuously, so its
  // optimum covers only vertices 0 and 1: one edge.
  Service svc;
  ASSERT_NE(svc.handle(R"({"op":"upload","name":"g","edges":"3 1\n0 1\n"})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(
      svc.handle(R"({"id":1,"op":"optimum","graph":"g","problem":"ec"})"),
      R"({"id":1,"ok":true,"result":{"problem":"minimum edge cover","opt":1}})");
  EXPECT_EQ(
      svc.handle(R"({"id":2,"op":"run","graph":"g","algorithm":"edge-cover"})"),
      R"({"id":2,"ok":true,"result":{"problem":"minimum edge cover",)"
      R"("algorithm":"edge-cover","model":"PO","size":1,"feasible":true,)"
      R"("opt":1,"ratio":1.0}})");
}

TEST(Service, CacheIsContentAddressedAcrossNames) {
  Service svc;
  svc.handle(R"({"op":"generate","name":"a","family":"cycle","args":[8]})");
  svc.handle(R"({"op":"generate","name":"b","family":"cycle","args":[8]})");
  const std::string ra = svc.handle(R"({"op":"views","graph":"a","radius":1})");
  const auto before = svc.cache().stats();
  const std::string rb = svc.handle(R"({"op":"views","graph":"b","radius":1})");
  const auto after = svc.cache().stats();
  EXPECT_EQ(after.hits, before.hits + 1);  // same content, different name
  EXPECT_EQ(ra, rb);
  // Dropping and regenerating identical content keeps the cache warm.
  svc.handle(R"({"op":"drop","name":"a"})");
  svc.handle(R"({"op":"generate","name":"a","family":"cycle","args":[8]})");
  const auto before2 = svc.cache().stats();
  svc.handle(R"({"op":"views","graph":"a","radius":1})");
  EXPECT_EQ(svc.cache().stats().hits, before2.hits + 1);
}

TEST(Service, QueryWithReservedKeyCannotPoisonCache) {
  Service svc;
  svc.handle(R"({"op":"generate","name":"g1","family":"cycle","args":[8]})");
  svc.handle(R"({"op":"generate","name":"g2","family":"cycle","args":[9]})");
  // Smuggling a "graph#content" key is rejected outright...
  EXPECT_NE(
      svc.handle(
             R"({"op":"analyze","graph":"g1","graph#content":1})")
          .find("\"code\":\"bad_request\""),
      std::string::npos);
  // ...so a later legitimate query on g2 computes g2's own result.
  const Json r = Json::parse(svc.handle(R"({"op":"analyze","graph":"g2"})"));
  ASSERT_TRUE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("result")->find("n")->as_int(), 9);
}

TEST(Service, GenerateBoundsProductsNotJustArguments) {
  Service svc;
  // Each side is within the per-argument cap, but the product is ~1e12.
  for (const char* line :
       {R"({"op":"generate","name":"x","family":"grid","args":[1000000,1000000]})",
        R"({"op":"generate","name":"x","family":"torus","args":[1000000,1000000]})",
        R"({"op":"generate","name":"x","family":"regular","args":[1000000,100]})"}) {
    EXPECT_NE(svc.handle(line).find("\"code\":\"too_large\""),
              std::string::npos)
        << line;
  }
  // In-bounds instances still generate fine.
  EXPECT_NE(
      svc.handle(
             R"({"op":"generate","name":"ok","family":"grid","args":[30,40]})")
          .find("\"ok\":true"),
      std::string::npos);
}

TEST(Service, ShutdownFlag) {
  Service svc;
  EXPECT_FALSE(svc.shutdown_requested());
  EXPECT_NE(svc.handle(R"({"op":"shutdown"})").find("\"ok\":true"),
            std::string::npos);
  EXPECT_TRUE(svc.shutdown_requested());
}

TEST(Service, StatsReportExecutorsAndCompleted) {
  Service::Options opt;
  opt.scheduler.executors = 4;
  Service svc(opt);
  svc.handle(R"({"op":"generate","name":"g","family":"cycle","args":[8]})");
  svc.handle(R"({"op":"analyze","graph":"g"})");
  const Json stats = Json::parse(svc.handle(R"({"op":"stats"})"));
  const Json* sched = stats.find("result")->find("scheduler");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->find("executors")->as_int(), 4);
  EXPECT_EQ(sched->find("completed")->as_int(), 1);
}

TEST(Service, MutateAdvancesEpochsAndRequeriesFreshContent) {
  Service svc;
  svc.handle(R"({"op":"generate","name":"g","family":"torus","args":[6,6]})");
  const Json info1 = Json::parse(svc.handle(R"({"op":"session_info"})"));
  const std::string original =
      info1.find("result")->find("sessions")->items()[0]
          .find("content")->as_string();
  EXPECT_EQ(original.size(), 16u);
  const std::string v1 =
      svc.handle(R"({"op":"views","graph":"g","radius":2})");
  // Cut the highest-id torus edge (a pure pop, so healing it later restores
  // the serialized edge list exactly); epoch and content hash both move.
  const auto [lu, lv] = lapx::graph::torus({6, 6}).edges().back();
  const std::string cut_req =
      std::string(R"({"op":"mutate","name":"g","edits":[{"op":"remove",)") +
      "\"u\":" + std::to_string(lu) + ",\"v\":" + std::to_string(lv) + "}]}";
  const Json cut = Json::parse(svc.handle(cut_req));
  ASSERT_TRUE(cut.find("ok")->as_bool()) << cut.dump();
  EXPECT_EQ(cut.find("result")->find("epoch")->as_int(), 2);
  EXPECT_EQ(cut.find("result")->find("m")->as_int(), 71);
  const std::string cut_content =
      cut.find("result")->find("content")->as_string();
  EXPECT_EQ(cut_content.size(), 16u);
  EXPECT_NE(cut_content, original);
  // The requery sees the new epoch: a fresh fingerprint, so a cache miss
  // (the aggregate views payload itself may or may not change bytes).
  const auto mid = svc.cache().stats();
  svc.handle(R"({"op":"views","graph":"g","radius":2})");
  EXPECT_EQ(svc.cache().stats().misses, mid.misses + 1);
  // Healing the edit restores the original content hash AND hits the
  // result cache with the original bytes: content addressing spans epochs.
  const std::string heal_req =
      std::string(R"({"op":"mutate","name":"g","edits":[{"op":"add",)") +
      "\"u\":" + std::to_string(lu) + ",\"v\":" + std::to_string(lv) + "}]}";
  const Json heal = Json::parse(svc.handle(heal_req));
  EXPECT_EQ(heal.find("result")->find("epoch")->as_int(), 3);
  EXPECT_EQ(heal.find("result")->find("content")->as_string(), original);
  const auto before = svc.cache().stats();
  EXPECT_EQ(svc.handle(R"({"op":"views","graph":"g","radius":2})"), v1);
  EXPECT_EQ(svc.cache().stats().hits, before.hits + 1);
}

TEST(Service, MutateErrorEnvelopes) {
  Service svc;
  svc.handle(R"({"op":"generate","name":"g","family":"cycle","args":[8]})");
  // Unknown name -> not_found.
  EXPECT_NE(svc.handle(R"({"op":"mutate","name":"nope","edits":)"
                       R"([{"op":"remove","u":0,"v":1}]})")
                .find("\"code\":\"not_found\""),
            std::string::npos);
  // Structural violations -> bad_request, and the graph is untouched.
  for (const char* edits :
       {R"([{"op":"add","u":3,"v":3}])",     // self-loop
        R"([{"op":"add","u":0,"v":1}])",     // parallel edge
        R"([{"op":"remove","u":0,"v":4}])",  // absent edge
        R"([{"op":"add","u":0,"v":99}])",    // endpoint out of range
        R"([{"op":"frobnicate","u":0,"v":1}])",
        R"([])", R"("not an array")"}) {
    const std::string resp = svc.handle(
        std::string(R"({"op":"mutate","name":"g","edits":)") + edits + "}");
    EXPECT_NE(resp.find("\"code\":\"bad_request\""), std::string::npos)
        << edits << " -> " << resp;
  }
  const Json info = Json::parse(svc.handle(R"({"op":"session_info"})"));
  const Json* s = info.find("result")->find("sessions");
  ASSERT_EQ(s->items().size(), 1u);
  EXPECT_EQ(s->items()[0].find("epoch")->as_int(), 1);  // nothing advanced
  EXPECT_EQ(s->items()[0].find("m")->as_int(), 8);
}

TEST(Service, SessionInfoReportsEpochsAndStoreCounters) {
  Service svc;
  svc.handle(R"({"op":"generate","name":"a","family":"cycle","args":[6]})");
  svc.handle(R"({"op":"generate","name":"b","family":"torus","args":[4,4]})");
  svc.handle(R"({"op":"generate","name":"a","family":"cycle","args":[7]})");
  svc.handle(
      R"({"op":"mutate","name":"b","edits":[{"op":"remove","u":0,"v":1}]})");
  const Json info = Json::parse(svc.handle(R"({"op":"session_info"})"));
  ASSERT_TRUE(info.find("ok")->as_bool());
  const Json* sessions = info.find("result")->find("sessions");
  ASSERT_EQ(sessions->items().size(), 2u);  // sorted: a, b
  EXPECT_EQ(sessions->items()[0].find("graph")->as_string(), "a");
  EXPECT_EQ(sessions->items()[0].find("epoch")->as_int(), 2);  // overwrite
  EXPECT_EQ(sessions->items()[1].find("graph")->as_string(), "b");
  EXPECT_EQ(sessions->items()[1].find("epoch")->as_int(), 2);  // mutate
  EXPECT_EQ(sessions->items()[1].find("content")->as_string().size(), 16u);
  const Json* store = info.find("result")->find("store");
  EXPECT_EQ(store->find("resident")->as_int(), 2);
  EXPECT_EQ(store->find("inserted")->as_int(), 3);
  EXPECT_EQ(store->find("overwritten")->as_int(), 1);
  EXPECT_EQ(store->find("mutated")->as_int(), 1);
  // The stats op surfaces the same counters in its store section.
  const Json stats = Json::parse(svc.handle(R"({"op":"stats"})"));
  EXPECT_EQ(stats.find("result")->find("store")->find("overwritten")->as_int(),
            1);
  EXPECT_EQ(stats.find("result")->find("store")->find("mutated")->as_int(), 1);
}

TEST(Service, PipelinedSubmitMatchesSynchronousTranscript) {
  // The merge layer's contract end to end, in process: a pipelined burst
  // through submit() + ResponseSequencer against 4 executors produces the
  // exact bytes a synchronous handle() loop produces at 1 executor.
  const std::vector<std::string> setup = {
      R"({"op":"generate","name":"g","family":"torus","args":[6,6]})",
      R"({"op":"generate","name":"c","family":"cycle","args":[40]})",
  };
  std::vector<std::string> reqs;
  for (int rep = 0; rep < 3; ++rep)
    for (int r = 1; r <= 2; ++r)
      for (const char* g : {"g", "c"}) {
        reqs.push_back("{\"id\":" + std::to_string(reqs.size()) +
                       ",\"op\":\"homogeneity\",\"graph\":\"" + g +
                       "\",\"radius\":" + std::to_string(r) + "}");
        reqs.push_back("{\"id\":" + std::to_string(reqs.size()) +
                       ",\"op\":\"views\",\"graph\":\"" + g +
                       "\",\"radius\":" + std::to_string(r) + "}");
      }

  Service::Options par;
  par.scheduler.executors = 4;
  Service pipelined(par);
  for (const auto& s : setup) pipelined.handle(s);
  ResponseSequencer sequencer;
  std::string pipelined_bytes;
  for (const auto& r : reqs) {
    sequencer.enqueue(pipelined.submit(r));
    sequencer.drain_ready(pipelined_bytes);
  }
  sequencer.drain_all(pipelined_bytes);

  Service sync;
  for (const auto& s : setup) sync.handle(s);
  std::string sync_bytes;
  for (const auto& r : reqs) {
    sync_bytes += sync.handle(r);
    sync_bytes += '\n';
  }
  EXPECT_EQ(pipelined_bytes, sync_bytes);
  EXPECT_EQ(pipelined_bytes.find("\"ok\":false"), std::string::npos);
}

// ------------------------------------------- PO run on the session state --

// The bytes `run` must answer for a PO algorithm on g, built by the
// one-shot runners -- a fresh bulk refinement of to_ldigraph(g) and its
// own underlying graph -- not by the session's RefineState.  Every fixture
// has n > 64, so the payload carries no exact optimum.
std::string one_shot_po_run(const lapx::graph::Graph& g,
                            const std::string& alg) {
  namespace problems = lapx::problems;
  const auto ld = lapx::graph::to_ldigraph(g);
  problems::Solution sol;
  const problems::Problem* p = nullptr;
  if (alg == "eds-mark-first") {
    sol = problems::edge_solution(lapx::core::run_po_edges(
        ld, lapx::algorithms::eds_mark_first_po(), 1));
    p = &problems::edge_dominating_set();
  } else if (alg == "edge-cover") {
    sol = problems::edge_solution(lapx::core::run_po_edges(
        ld, lapx::algorithms::mark_first_edge_po(), 1));
    p = &problems::edge_cover();
  } else {
    sol = problems::vertex_solution(
        lapx::core::run_po(ld, lapx::algorithms::take_all_po(), 0));
    p = &problems::dominating_set();
  }
  Json out = Json::object();
  out.set("problem", Json::string(p->name));
  out.set("algorithm", Json::string(alg));
  out.set("model", Json::string("PO"));
  out.set("size", Json::integer(static_cast<std::int64_t>(sol.size())));
  out.set("feasible", Json::boolean(p->feasible(g, sol)));
  return ok_response(std::nullopt, out.dump());
}

// Runs every PO algorithm on `name` with a cold cache (a hit would replay
// bytes instead of exercising the handler) and compares against the
// one-shot runners on g.  Also checks the two facts `run` relies on: the
// entry's view types are a from-scratch refinement's, and its Graph has
// the edge ids of its own ldigraph().underlying_graph().
void expect_po_runs_match(Service& svc, const std::string& name,
                          const lapx::graph::Graph& g,
                          const std::string& state) {
  const std::string where = name + " (" + state + ")";
  for (const char* alg : {"eds-mark-first", "edge-cover", "take-all-ds"}) {
    std::string req = R"({"op":"run","graph":")" + name;
    req += R"(","algorithm":")" + std::string(alg) + R"("})";
    svc.clear_cache();
    EXPECT_EQ(svc.handle(req), one_shot_po_run(g, alg)) << where << ' ' << alg;
  }
  const auto entry = svc.store().get(name);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->has_refine_state()) << where;
  // An ooc file's CSR renumbers the edges by vertex, so only the edge set
  // is g's; an in-memory entry keeps g's ids, mutations included.
  std::vector<lapx::graph::Edge> edges = entry->graph().edges();
  std::vector<lapx::graph::Edge> expected = g.edges();
  if (entry->is_ooc()) {
    std::sort(edges.begin(), edges.end());
    std::sort(expected.begin(), expected.end());
  }
  EXPECT_EQ(edges, expected) << where;
  const auto underlying = entry->ldigraph().underlying_graph();
  EXPECT_EQ(entry->graph().edges(), underlying.edges()) << where;
  for (int r = 0; r <= 1; ++r) {
    const auto scratch = lapx::core::bulk_view_type_ids(entry->ldigraph(), r);
    EXPECT_EQ(entry->view_types(r), scratch) << where << " r=" << r;
  }
}

TEST(Service, PoRunsOnTheSessionStateMatchOneShotRunners) {
  char tmpl[] = "/tmp/lapx-porun-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::vector<std::string> names = {"lift", "torus"};
  const std::vector<std::string> generate = {
      R"({"op":"generate","name":"lift","family":"lift","args":[3,3,40,5]})",
      R"({"op":"generate","name":"torus","family":"torus","args":[9,9]})"};
  const std::vector<lapx::graph::Graph> graphs = {
      lapx::graph::lifted_torus(3, 3, 40, 5), lapx::graph::torus({9, 9})};
  for (const int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    Service svc;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& name = names[i];
      lapx::graph::Graph g = graphs[i];
      svc.handle(generate[i]);
      ASSERT_FALSE(svc.store().get(name)->has_refine_state());
      // Cutting an edge that is not the last moves the last edge's id into
      // the freed slot; the delta-forked state and the new ids must hold.
      auto cut = [&](std::size_t edge_id, const char* state) {
        const auto [u, v] = g.edges()[edge_id];
        const lapx::graph::EdgeEdit edit{lapx::graph::EdgeEdit::Kind::kRemove,
                                         u, v};
        lapx::graph::apply_edits(g, std::span(&edit, 1));
        std::string req = R"({"op":"mutate","name":")" + name;
        req += R"(","edits":[{"op":"remove","u":)" + std::to_string(u);
        req += R"(,"v":)" + std::to_string(v) + "}]}";
        const std::string resp = svc.handle(req);
        ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
        ASSERT_TRUE(svc.store().get(name)->has_refine_state());  // forked
        expect_po_runs_match(svc, name, g, state);
      };
      // run first builds the kept-rounds state itself: mutate forks it...
      expect_po_runs_match(svc, name, g, "fresh");
      cut(3, "after mutate of a run-built state");
      // ...and a deeper views reuses the forked state, which run reads back.
      svc.handle(R"({"op":"views","graph":")" + name + R"(","radius":3})");
      expect_po_runs_match(svc, name, g, "after views r=3");
      cut(7, "after mutate of a views r=3 state");
      // The original graph written as graph-convert writes it, then opened:
      // run streams the state over the file and materializes the graph.
      const std::string path = dir + "/" + name + ".lapxooc";
      lapx::graph::write_ooc_graph(path, lapx::graph::to_ldigraph(graphs[i]));
      const std::string ooc = "ooc-" + name;
      svc.handle(R"({"op":"open","name":")" + ooc + R"(","path":")" + path +
                 R"("})");
      ASSERT_FALSE(svc.store().get(ooc)->has_refine_state());
      expect_po_runs_match(svc, ooc, graphs[i], "ooc");
      ::unlink(path.c_str());
    }
  }
  lapx::runtime::set_thread_count(0);
  ::rmdir(dir.c_str());
}

// ------------------------------------------ mutate vs fresh upload (step 0) --

std::string mutate_request(const std::string& name,
                           const std::vector<lapx::graph::EdgeEdit>& batch) {
  std::string req = R"({"op":"mutate","name":")" + name + R"(","edits":[)";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool add = batch[i].kind == lapx::graph::EdgeEdit::Kind::kAdd;
    req += std::string(i > 0 ? "," : "") + R"({"op":")" +
           (add ? "add" : "remove") + R"(","u":)" +
           std::to_string(batch[i].u) + R"(,"v":)" +
           std::to_string(batch[i].v) + "}";
  }
  return req + "]}";
}

std::string upload_request(const std::string& name,
                           const lapx::graph::Graph& g) {
  Json up = Json::object();
  up.set("op", Json::string("upload"));
  up.set("name", Json::string(name));
  up.set("edges", Json::string(lapx::graph::to_edge_list(g)));
  return up.dump();
}

// Every response that depends on the session's graph: views and
// homogeneity at r = 0..2, the three PO runs, and the session's
// session_info item, its epoch zeroed unless `with_epoch`.  The cache is
// cleared before each query, so the handler reads the entry's own --
// possibly delta-forked -- state instead of replaying bytes.
std::vector<std::string> session_responses(Service& svc,
                                           const std::string& name,
                                           bool with_epoch) {
  std::vector<std::string> out;
  auto query = [&](const std::string& req) {
    svc.clear_cache();
    out.push_back(svc.handle(req));
  };
  for (int r = 0; r <= 2; ++r) {
    const std::string tail =
        R"(","graph":")" + name + R"(","radius":)" + std::to_string(r) + "}";
    query(R"({"op":"views)" + tail);
    query(R"({"op":"homogeneity)" + tail);
  }
  for (const char* alg : {"eds-mark-first", "edge-cover", "take-all-ds"})
    query(R"({"op":"run","graph":")" + name + R"(","algorithm":")" + alg +
          R"("})");
  const Json info = Json::parse(svc.handle(R"({"op":"session_info"})"));
  for (const Json& item : info.find("result")->find("sessions")->items())
    if (item.find("graph")->as_string() == name) {
      Json copy = item;
      if (!with_epoch) copy.set("epoch", Json::integer(0));
      out.push_back(copy.dump());
    }
  return out;
}

TEST(Service, MutateDifferentialMatchesFreshUpload) {
  // A mutated session must answer every query exactly as a fresh session
  // uploaded with the same edge list: seeded lifts and regular graphs
  // with n > 64 (so `run` does no exact search), random edit batches
  // (2-switches, single adds and removes, isolated vertices, maximum-
  // degree changes), the entry's states forked when queried before the
  // mutate and built lazily when not.  A rejected batch leaves the epoch,
  // the content and every response byte-identical.
  const int old_threads = lapx::runtime::thread_count();
  int accepted = 0, rejected = 0, primed = 0, lazy = 0, degree_moves = 0;
  for (const int threads : {1, 8}) {
    lapx::runtime::set_thread_count(threads);
    std::mt19937_64 rng(41 + static_cast<std::uint64_t>(threads));
    for (int session = 0; session < 4; ++session) {
      Service svc, ref;
      const std::string seed = std::to_string(rng() % 1000);
      const std::string size = std::to_string(
          session % 2 == 0 ? 8 + rng() % 5 : 66 + 2 * (rng() % 20));
      const std::string args =
          session % 2 == 0
              ? R"("lift","args":[3,3,)" + size + "," + seed + "]"
              : R"("regular","args":[)" + size + "," +
                    std::to_string(3 + rng() % 2) + "," + seed + "]";
      ASSERT_NE(svc.handle(R"({"op":"generate","name":"s","family":)" + args +
                           "}")
                    .find("\"ok\":true"),
                std::string::npos);
      lapx::graph::Graph g = svc.store().get("s")->graph();
      ASSERT_GT(g.num_vertices(), 64);
      bool states = false;  // does the bound entry hold queried states?
      for (int step = 0; step < 12; ++step) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " session " +
                     std::to_string(session) + " step " +
                     std::to_string(step));
        if (rng() % 2 == 0) {
          // Prime: the next mutate forks these states.
          svc.clear_cache();
          for (int r = 0; r <= 2; ++r)
            svc.handle(R"({"op":"homogeneity","graph":"s","radius":)" +
                       std::to_string(r) + "}");
          svc.handle(R"({"op":"views","graph":"s","radius":2})");
          states = true;
        }
        if (rng() % 4 == 0) {
          // Invalid batches, some behind a valid prefix: a missing remove,
          // a duplicate add, a self-loop, an out-of-range endpoint.
          const auto n = g.num_vertices();
          const auto [a, b] = g.edge(0);
          lapx::graph::Vertex x = 0;
          while (g.has_edge(0, x) || x == 0) ++x;
          using Kind = lapx::graph::EdgeEdit::Kind;
          const std::vector<std::vector<lapx::graph::EdgeEdit>> bad = {
              {{Kind::kRemove, a, b}, {Kind::kRemove, 0, x}},
              {{Kind::kAdd, a, b}},
              {{Kind::kRemove, a, b}, {Kind::kAdd, x, x}},
              {{Kind::kAdd, 0, n}}};
          const auto before = session_responses(svc, "s", true);
          const auto bound = svc.store().get("s");
          for (const auto& batch : bad) {
            const std::string resp = svc.handle(mutate_request("s", batch));
            EXPECT_NE(resp.find("\"code\":\"bad_request\""),
                      std::string::npos)
                << resp;
            ++rejected;
          }
          EXPECT_EQ(session_responses(svc, "s", true), before);
          // The binding, and with it the id and its leaf digests, stayed.
          EXPECT_EQ(svc.store().get("s"), bound);
          EXPECT_EQ(bound->content_id(), lapx::service::graph_content_id(g));
          states = true;  // session_responses queried everything
          continue;
        }
        const auto batch = lapx::graph::corpus::random_edit_batch(g, rng);
        if (batch.empty()) continue;
        const std::string resp = svc.handle(mutate_request("s", batch));
        ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
        ++accepted;
        ++(states ? primed : lazy);
        const int old_max = g.max_degree();
        lapx::graph::apply_edits(g, batch);
        if (g.max_degree() != old_max) ++degree_moves;
        // The digest patched at the rewritten leaves is the one hashed
        // from scratch.
        EXPECT_EQ(svc.store().get("s")->content_id(),
                  lapx::service::graph_content_id(g));
        ASSERT_NE(ref.handle(upload_request("s", g)).find("\"ok\":true"),
                  std::string::npos);
        EXPECT_EQ(session_responses(svc, "s", false),
                  session_responses(ref, "s", false));
        states = true;
        if (rng() % 3 == 0) {
          // Rebind to the same edges: a fresh entry with nothing typed,
          // so unless the next step primes it, the next mutate leaves
          // every state to the lazy path.
          svc.handle(upload_request("s", g));
          states = false;
        }
      }
    }
  }
  lapx::runtime::set_thread_count(old_threads);
  EXPECT_GT(accepted, 40);
  EXPECT_GT(rejected, 8);
  EXPECT_GT(primed, 10);
  EXPECT_GT(lazy, 3);
  EXPECT_GT(degree_moves, 2);
}

// ------------------------------------------------------- socket round trip --

TEST(ServerClient, TcpRoundTripAndShutdown) {
  Service svc;
  Server::Options opt;
  opt.endpoint.tcp_port = 0;  // ephemeral
  Server server(svc, opt);
  ASSERT_GT(server.bound_tcp_port(), 0);
  std::thread t([&] { server.serve_forever(); });
  Client client = Client::connect_tcp(server.bound_tcp_port());
  const Json pong = client.call_json([] {
    Json r = Json::object();
    r.set("op", Json::string("ping"));
    return r;
  }());
  EXPECT_TRUE(pong.find("ok")->as_bool());
  client.call(
      R"({"op":"generate","name":"g","family":"torus","args":[4,4]})");
  const Json hom = Json::parse(
      client.call(R"({"id":5,"op":"homogeneity","graph":"g","radius":1})"));
  EXPECT_EQ(hom.find("id")->as_int(), 5);
  ASSERT_TRUE(hom.find("ok")->as_bool());
  EXPECT_GE(hom.find("result")->find("distinct_types")->as_int(), 1);
  client.call(R"({"op":"shutdown"})");
  t.join();  // serve_forever returns after the shutdown ack
}

TEST(ServerClient, UnixRoundTrip) {
  const std::string path =
      "/tmp/lapxd-test-" + std::to_string(::getpid()) + ".sock";
  Service svc;
  Server::Options opt;
  opt.endpoint.unix_path = path;
  Server server(svc, opt);
  std::thread t([&] { server.serve_forever(); });
  {
    Client client = Client::connect(path);
    const Json r = Json::parse(client.call(R"({"op":"stats"})"));
    EXPECT_TRUE(r.find("ok")->as_bool());
    client.call(R"({"op":"shutdown"})");
  }
  t.join();
  std::remove(path.c_str());
}

TEST(ServerClient, StopUnblocksServeForever) {
  Service svc;
  Server::Options opt;
  opt.endpoint.tcp_port = 0;
  Server server(svc, opt);
  std::thread t([&] { server.serve_forever(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  t.join();
}

std::string test_sock_base(const std::string& tag) {
  return "/tmp/lapx-svt-" + std::to_string(::getpid()) + "-" + tag;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(ServerClient, OneShotColdQueriesAnswerWithoutAPollTick) {
  // A response computed on an executor must leave as soon as its job
  // resolves, not on a timer tick.  Each one-shot query (a fresh
  // connection, as `lapx_cli call` sends it) is cold and computes a few ms
  // on the single executor.  Its overhead is the socket round trip minus
  // the same request's handle() time on an in-process twin.
  constexpr double kBoundMs = 50.0;  // half of a 100 ms poll tick
  constexpr int kQueries = 9;
  Service svc;
  Service twin;
  Server::Options opt;
  opt.endpoint.tcp_port = 0;
  Server server(svc, opt);
  std::thread t([&] { server.serve_forever(); });
  Client setup = Client::connect_tcp(server.bound_tcp_port());
  std::vector<double> overhead_ms;
  for (int i = 0; i < kQueries; ++i) {
    const std::string g = "g" + std::to_string(i);
    const std::string gen = "{\"op\":\"generate\",\"name\":\"" + g +
                            "\",\"family\":\"lift\",\"args\":[3,3,200," +
                            std::to_string(i + 1) + "]}";
    setup.call(gen);
    twin.handle(gen);
    const std::string query = "{\"id\":" + std::to_string(i) +
                              ",\"op\":\"views\",\"graph\":\"" + g +
                              "\",\"radius\":2}";
    const auto sent = std::chrono::steady_clock::now();
    std::string got;
    {
      Client client = Client::connect_tcp(server.bound_tcp_port());
      got = client.call(query);
    }
    const double round_trip = ms_since(sent);
    const auto computed = std::chrono::steady_clock::now();
    EXPECT_EQ(got, twin.handle(query));
    overhead_ms.push_back(round_trip - ms_since(computed));
  }
  std::sort(overhead_ms.begin(), overhead_ms.end());
  EXPECT_LT(overhead_ms[overhead_ms.size() / 2], kBoundMs);
  EXPECT_EQ(svc.cache().stats().misses, static_cast<std::uint64_t>(kQueries));
  // stop() must wake the accept loop and the idle connection at once.
  ASSERT_TRUE(
      Json::parse(setup.call(R"({"op":"ping"})")).find("ok")->as_bool());
  const auto stopping = std::chrono::steady_clock::now();
  server.stop();
  t.join();
  EXPECT_LT(ms_since(stopping), kBoundMs);
}

// Runs a server's serve_forever on its own thread, and stops and joins it
// on every path out of a test: unwinding past a joinable std::thread (a
// client call that throws) would abort the whole binary.
class ServingThread {
 public:
  explicit ServingThread(Server& server)
      : server_(server), thread_([&server] { server.serve_forever(); }) {}
  ~ServingThread() {
    server_.stop();
    thread_.join();
  }
  ServingThread(const ServingThread&) = delete;
  ServingThread& operator=(const ServingThread&) = delete;

 private:
  Server& server_;
  std::thread thread_;
};

TEST(ServerClient, TcpOversizedLineDrainsThenSendsTooLargeFarewell) {
  // A newline-less blob past max_line_bytes must not kill in-flight
  // responses: the connection drains everything already pipelined, then
  // sends exactly one too_large error line and closes.  The blob is still
  // arriving when the server gives up on it, so the farewell must survive
  // a close with unread input.
  Service svc;
  Server::Options opt;
  opt.endpoint.tcp_port = 0;
  opt.max_line_bytes = 1024;
  Server server(svc, opt);
  const ServingThread serving(server);
  {
    Client client = Client::connect_tcp(server.bound_tcp_port());
    client.send(R"({"id":1,"op":"ping"})");
    // 64 KiB before its newline: the server's read loop sees a partial
    // buffer over the cap long before the line completes.
    client.send(std::string(64 * 1024, 'x'));
    const Json pong = Json::parse(client.recv_line());
    EXPECT_EQ(pong.find("id")->as_int(), 1);
    EXPECT_TRUE(pong.find("ok")->as_bool());
    const Json farewell = Json::parse(client.recv_line());
    EXPECT_FALSE(farewell.find("ok")->as_bool());
    EXPECT_EQ(farewell.find("code")->as_string(), "too_large");
    EXPECT_THROW(client.recv_line(), std::runtime_error);  // closed after
  }
}

TEST(ServerClient, TcpPipeliningAnswersInSubmissionOrder) {
  // A client that fires a burst without reading gets every response, in
  // submission order, over TCP -- same contract the Unix path has.
  Service svc;
  Server::Options opt;
  opt.endpoint.tcp_port = 0;
  Server server(svc, opt);
  std::thread t([&] { server.serve_forever(); });
  {
    Client client = Client::connect_tcp(server.bound_tcp_port());
    std::vector<std::string> reqs = {
        R"({"id":1,"op":"generate","name":"g","family":"torus","args":[4,4]})",
        R"({"id":2,"op":"ping"})",
    };
    for (int id = 3; id <= 20; ++id)
      reqs.push_back("{\"id\":" + std::to_string(id) +
                     ",\"op\":\"homogeneity\",\"graph\":\"g\",\"radius\":" +
                     std::to_string(1 + id % 3) + "}");
    for (const std::string& r : reqs) client.send(r);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Json resp = Json::parse(client.recv_line());
      EXPECT_EQ(resp.find("id")->as_int(), static_cast<std::int64_t>(i + 1));
      EXPECT_TRUE(resp.find("ok")->as_bool());
    }
    client.call(R"({"op":"shutdown"})");
  }
  t.join();
}

TEST(ServerClient, FramingAcrossRecvBoundaries) {
  // One pipelined stream over a raw socket.  Short lines go out one byte
  // per send, among them a CRLF line and blank lines; a multi-MiB upload
  // line and the lines after it go out in odd-sized pieces, so a piece
  // can end anywhere in a line or carry several newlines.  The response
  // stream must be what Service::handle answers line by line, skipping
  // blank lines.
  Service svc;
  Server::Options opt;
  opt.endpoint.tcp_port = 0;
  Server server(svc, opt);
  const ServingThread serving(server);
  const std::string upload = upload_request("big", lapx::graph::cycle(160000));
  ASSERT_GT(upload.size(), std::size_t{2} << 20);
  struct Segment {
    std::string bytes;
    bool bytewise;
  };
  const Segment segments[] = {
      {R"({"id":1,"op":"ping"})"
       "\n\n"
       R"({"id":2,"op":"generate","name":"g","family":"cycle","args":[12]})"
       "\r\n\n\r\n",
       true},
      {upload + "\n" + R"({"id":3,"op":"views","graph":"big","radius":1})" +
           "\n" + R"({"id":4,"op":"analyze","graph":"g"})" + "\r\n\n",
       false},
      {R"({"id":5,"op":"views","graph":"g","radius":2})"
       "\n",
       true},
  };
  Service twin;
  std::string expected;
  for (const Segment& segment : segments) {
    std::size_t begin = 0;
    for (std::size_t nl; (nl = segment.bytes.find('\n', begin)) !=
                         std::string::npos;
         begin = nl + 1) {
      std::string line = segment.bytes.substr(begin, nl - begin);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) expected += twin.handle(line) + "\n";
    }
  }
  ASSERT_EQ(std::count(expected.begin(), expected.end(), '\n'), 6);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.bound_tcp_port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  auto send_piece = [fd](const char* data, std::size_t n) {
    while (n > 0) {
      const ssize_t k = ::send(fd, data, n, MSG_NOSIGNAL);
      if (k < 0 && errno == EINTR) continue;
      ASSERT_GT(k, 0);
      data += k;
      n -= static_cast<std::size_t>(k);
    }
  };
  constexpr std::size_t kPieces[] = {4093, 7, 65537, 1, 12289, 333};
  for (const Segment& segment : segments) {
    const std::string& bytes = segment.bytes;
    for (std::size_t off = 0, i = 0; off < bytes.size(); ++i) {
      const std::size_t n =
          segment.bytewise
              ? 1
              : std::min(kPieces[i % std::size(kPieces)], bytes.size() - off);
      send_piece(bytes.data() + off, n);
      off += n;
    }
  }
  // End of input: the server answers everything in flight, then closes.
  ::shutdown(fd, SHUT_WR);
  std::string got;
  char chunk[4096];
  for (ssize_t k; (k = ::recv(fd, chunk, sizeof chunk, 0)) != 0;) {
    if (k < 0 && errno == EINTR) continue;
    ASSERT_GT(k, 0);
    got.append(chunk, static_cast<std::size_t>(k));
  }
  ::close(fd);
  EXPECT_EQ(got, expected);
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
