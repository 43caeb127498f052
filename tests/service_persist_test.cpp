// Crash-safety tests for the result-cache persistence layer
// (service/persist.hpp) and the connection-loop hardening that rode
// along with it:
//   * round trip: fill -> clean shutdown -> warm restart, byte-identical
//     responses and hit rate 1;
//   * restart id shift: loading through a DIFFERENT interner (fresh id
//     assignment, as a real restart would see) still reconstructs
//     fingerprints that match recomputed ones;
//   * torn tails and corrupted checksums: the valid prefix loads, the bad
//     tail is discarded and surfaced via cache_info, the journal is
//     repaired so later appends extend good data;
//   * generated damage: ~2000 seeded truncations, byte flips, length
//     overwrites and splices of a journal or snapshot each load as a
//     prefix of what was written;
//   * EINTR injection (service/testing.hpp) through the server recv and
//     client send/recv retry paths;
//   * an oversized request line answers `too_large` after the pipeline
//     drains, instead of a silent close;
//   * Client::recv_line errors out instead of buffering a newline-less
//     stream without bound.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lapx/core/interner.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/service/blake2b.hpp"
#include "lapx/service/client.hpp"
#include "lapx/service/json.hpp"
#include "lapx/service/persist.hpp"
#include "lapx/service/protocol.hpp"
#include "lapx/service/result_cache.hpp"
#include "lapx/service/server.hpp"
#include "lapx/service/service.hpp"
#include "lapx/service/session_store.hpp"
#include "lapx/service/testing.hpp"

namespace {

using namespace lapx::service;
using lapx::core::TypeId;
using lapx::core::TypeInterner;
// gtest also owns a `testing` namespace; alias the fault-injection one.
namespace faults = lapx::service::testing;

// ------------------------------------------------------------ fixtures --

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/lapx-persist-XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (DIR* d = ::opendir(path.c_str())) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..")
          ::unlink((path + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
  std::string path;
};

off_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

std::string read_bytes(const std::string& path) {
  std::string out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return out;
  char buf[4096];
  ssize_t k;
  while ((k = ::read(fd, buf, sizeof buf)) > 0)
    out.append(buf, static_cast<std::size_t>(k));
  ::close(fd);
  return out;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

void patch_byte(const std::string& path, off_t offset, char delta) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  char b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, offset), 1);
  b = static_cast<char>(b + delta);
  ASSERT_EQ(::pwrite(fd, &b, 1, offset), 1);
  ::close(fd);
}

const std::vector<std::string>& setup_requests() {
  static const std::vector<std::string> reqs = {
      R"({"op":"generate","name":"g","family":"torus","args":[4,4]})",
      R"({"op":"generate","name":"h","family":"cycle","args":[12]})",
  };
  return reqs;
}

const std::vector<std::string>& query_requests() {
  static const std::vector<std::string> reqs = {
      R"({"id":1,"op":"analyze","graph":"g"})",
      R"({"id":2,"op":"homogeneity","graph":"g","radius":1})",
      R"({"id":3,"op":"homogeneity","graph":"g","radius":2})",
      R"({"id":4,"op":"views","graph":"h","radius":1})",
      R"({"id":5,"op":"optimum","graph":"g","problem":"vc"})",
      R"({"id":6,"op":"run","graph":"g","algorithm":"eds-mark-first"})",
      R"({"id":7,"op":"fractional","graph":"h"})",
  };
  return reqs;
}

// -------------------------------------------------- service round trip --

TEST(PersistService, RoundTripAcrossRestart) {
  TempDir dir;
  Service::Options opt;
  opt.cache_dir = dir.path;
  std::vector<std::string> cold;
  {
    Service svc(opt);
    for (const auto& r : setup_requests()) svc.handle(r);
    for (const auto& r : query_requests()) {
      cold.push_back(svc.handle(r));
      EXPECT_NE(cold.back().find("\"ok\":true"), std::string::npos)
          << cold.back();
    }
    EXPECT_EQ(svc.persist()->info().journal_appends, query_requests().size());
  }  // destructor = clean shutdown: snapshot written, journal truncated

  EXPECT_GT(file_size(dir.path + "/snapshot.lapxc"), 8);
  EXPECT_EQ(file_size(dir.path + "/journal.lapxj"), 8);  // magic only

  Service warm(opt);
  const Json reply = Json::parse(warm.handle(R"({"op":"cache_info"})"));
  ASSERT_TRUE(reply.find("ok")->as_bool());
  const Json* info = reply.find("result");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->find("loaded_entries")->as_int(),
            static_cast<std::int64_t>(query_requests().size()));
  EXPECT_EQ(info->find("load_error")->as_string(), "");
  for (const auto& r : setup_requests()) warm.handle(r);
  const auto before = warm.cache().stats();
  for (std::size_t i = 0; i < query_requests().size(); ++i)
    EXPECT_EQ(warm.handle(query_requests()[i]), cold[i]);
  const auto after = warm.cache().stats();
  EXPECT_EQ(after.hits - before.hits, query_requests().size());
  EXPECT_EQ(after.misses, before.misses);  // warm restart: hit rate 1.0
}

TEST(PersistService, CacheSaveOpSnapshotsAndTruncatesJournal) {
  TempDir dir;
  Service::Options opt;
  opt.cache_dir = dir.path;
  Service svc(opt);
  for (const auto& r : setup_requests()) svc.handle(r);
  svc.handle(query_requests()[0]);
  svc.handle(query_requests()[1]);
  EXPECT_GT(file_size(dir.path + "/journal.lapxj"), 8);
  const Json saved = Json::parse(svc.handle(R"({"op":"cache_save"})"));
  ASSERT_TRUE(saved.find("ok")->as_bool());
  EXPECT_EQ(saved.find("result")->find("saved_entries")->as_int(), 2);
  EXPECT_EQ(file_size(dir.path + "/journal.lapxj"), 8);
  EXPECT_GT(file_size(dir.path + "/snapshot.lapxc"), 8);
  // A fill after the save lands in the fresh journal.
  svc.handle(query_requests()[2]);
  EXPECT_GT(file_size(dir.path + "/journal.lapxj"), 8);
}

TEST(PersistService, OpsWithoutPersistence) {
  Service svc;
  const Json info = Json::parse(svc.handle(R"({"op":"cache_info"})"));
  ASSERT_TRUE(info.find("ok")->as_bool());
  EXPECT_FALSE(info.find("result")->find("enabled")->as_bool());
  const Json save = Json::parse(svc.handle(R"({"op":"cache_save"})"));
  EXPECT_FALSE(save.find("ok")->as_bool());
  EXPECT_EQ(save.find("code")->as_string(), "bad_request");
}

// ------------------------------------- restart id shift (two interners) --

// A real restart re-interns everything in a different order, so every
// TypeId changes.  Simulate that in-process with two interners: persist
// under interner A, reload under interner B whose id space is shifted,
// and check the loaded fingerprints match B's own recomputation.
TEST(PersistService, ReloadThroughShiftedInterner) {
  TempDir dir;
  // Content ids are restart-stable strings (GraphEntry::content_id): the
  // same graph yields the same id in both "processes".
  const std::string content = graph_content_id(lapx::graph::path(3));
  const std::vector<std::string> lines = {
      R"({"op":"analyze","graph":"g"})",
      R"({"op":"homogeneity","graph":"g","radius":1})",
      R"({"op":"homogeneity","graph":"g","radius":2})",
  };
  {
    TypeInterner a;
    CachePersist persist(dir.path, a);
    EXPECT_TRUE(persist.load().empty());
    for (std::size_t i = 0; i < lines.size(); ++i)
      persist.append_fill(
          request_fingerprint(parse_request(lines[i]), content, a),
          "{\"payload\":" + std::to_string(i) + "}");
  }
  TypeInterner b;
  for (int i = 0; i < 17; ++i) b.intern("shift:" + std::to_string(i));
  CachePersist persist(dir.path, b);
  const auto entries = persist.load();
  ASSERT_EQ(entries.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(entries[i].first,
              request_fingerprint(parse_request(lines[i]), content, b));
    EXPECT_EQ(entries[i].second, "{\"payload\":" + std::to_string(i) + "}");
  }
  EXPECT_EQ(persist.info().last_error, "");
}

// ------------------------------------------- torn and corrupted stores --

TEST(PersistService, TruncatedJournalTailDiscardedAndRepaired) {
  TempDir dir;
  TypeInterner a;
  const std::string content = "c2";
  auto fp = [&](int radius) {
    return request_fingerprint(
        parse_request(R"({"op":"homogeneity","graph":"g","radius":)" +
                      std::to_string(radius) + "}"),
        content, a);
  };
  off_t two_entries = 0;
  {
    CachePersist persist(dir.path, a);
    persist.load();
    persist.append_fill(fp(1), "{\"r\":1}");
    persist.append_fill(fp(2), "{\"r\":2}");
    two_entries = file_size(dir.path + "/journal.lapxj");
    persist.append_fill(fp(3), "{\"r\":3}");
  }
  // Tear mid-record, as a kill -9 during the third append would.
  ASSERT_EQ(::truncate((dir.path + "/journal.lapxj").c_str(),
                       file_size(dir.path + "/journal.lapxj") - 5),
            0);
  {
    TypeInterner b;
    CachePersist persist(dir.path, b);
    const auto entries = persist.load();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_GT(persist.info().discarded_bytes, 0u);
    EXPECT_NE(persist.info().last_error.find("torn"), std::string::npos);
    // The journal was truncated back to its valid prefix...
    EXPECT_EQ(file_size(dir.path + "/journal.lapxj"), two_entries);
    // ...so appending now extends good data.
    persist.append_fill(entries[0].first, entries[0].second);  // dup: fine
    persist.append_fill(
        request_fingerprint(
            parse_request(R"({"op":"homogeneity","graph":"g","radius":4})"),
            content, b),
        "{\"r\":4}");
  }
  TypeInterner c;
  CachePersist persist(dir.path, c);
  EXPECT_EQ(persist.load().size(), 4u);  // r1, r2, dup of r1, r4
  EXPECT_EQ(persist.info().last_error, "");
}

TEST(PersistService, CorruptedChecksumDiscardsFromCorruption) {
  TempDir dir;
  TypeInterner a;
  const std::string content = "c2";
  auto fp = [&](const char* prob) {
    return request_fingerprint(
        parse_request(std::string(R"({"op":"optimum","graph":"g","problem":")") +
                      prob + "\"}"),
        content, a);
  };
  off_t one_entry = 0;
  {
    CachePersist persist(dir.path, a);
    persist.load();
    persist.append_fill(fp("vc"), "{\"opt\":1}");
    one_entry = file_size(dir.path + "/journal.lapxj");
    persist.append_fill(fp("mm"), "{\"opt\":2}");
    persist.append_fill(fp("ds"), "{\"opt\":3}");
  }
  const off_t total = file_size(dir.path + "/journal.lapxj");
  // Flip one byte inside the second entry's body: its checksum no longer
  // matches, so that record and everything after it is a corrupt tail.
  patch_byte(dir.path + "/journal.lapxj", one_entry + 10, 1);
  TypeInterner b;
  CachePersist persist(dir.path, b);
  const auto entries = persist.load();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].second, "{\"opt\":1}");
  EXPECT_EQ(persist.info().discarded_bytes,
            static_cast<std::uint64_t>(total - one_entry));
  EXPECT_NE(persist.info().last_error, "");
}

TEST(PersistService, GarbageFilesIgnoredNotFatal) {
  // Two kinds of unreadable store: plain garbage, and framed records under
  // the earlier formats' magics -- LAPXC001/LAPXJ001, whose entries keyed
  // graphs by file-local content slots, LAPXC002/LAPXJ002, whose
  // fingerprints named graphs by a digest of their edge-list text, and
  // LAPXC003/LAPXJ003, by a flat digest of their edge array and an
  // out-of-core file by its FNV-1a checksum.  All load cold.
  TempDir framed;
  {
    TypeInterner a;
    CachePersist persist(framed.path, a);
    const TypeId fp = request_fingerprint(
        parse_request(R"({"op":"analyze","graph":"g"})"), "c2", a);
    persist.save_snapshot({{fp, "{\"n\":2}"}});
    persist.append_fill(fp, "{\"n\":2}");
  }
  std::string old_snapshot = read_bytes(framed.path + "/snapshot.lapxc");
  std::string old_journal = read_bytes(framed.path + "/journal.lapxj");
  ASSERT_GT(old_snapshot.size(), 8u);
  ASSERT_GT(old_journal.size(), 8u);
  const std::string garbage = "total garbage, not a store\n";
  std::vector<std::pair<std::string, std::string>> stores{{garbage, garbage}};
  for (const char* version : {"001", "002", "003"})
    stores.emplace_back(
        std::string("LAPXC") + version + old_snapshot.substr(8),
        std::string("LAPXJ") + version + old_journal.substr(8));
  for (const auto& [snapshot, journal] : stores) {
    TempDir dir;
    write_bytes(dir.path + "/snapshot.lapxc", snapshot);
    write_bytes(dir.path + "/journal.lapxj", journal);
    TypeInterner a;
    CachePersist persist(dir.path, a);
    EXPECT_TRUE(persist.load().empty());
    EXPECT_EQ(persist.info().discarded_bytes, snapshot.size() + journal.size());
    EXPECT_NE(persist.info().last_error.find("bad magic"), std::string::npos);
    // The unreadable journal was reinitialized; appends work and reload.
    persist.append_fill(
        request_fingerprint(parse_request(R"({"op":"analyze","graph":"g"})"),
                            "c2", a),
        "{\"n\":2}");
    TypeInterner b;
    CachePersist reload(dir.path, b);
    EXPECT_EQ(reload.load().size(), 1u);
  }
}

// Generated damage: a 6-entry journal and a 6-entry snapshot, each hit by
// one seeded mutation -- truncation, one flipped byte, an overwritten
// length field (a record's body length or its key length), or a splice of
// random bytes -- must load, through a fresh interner and without
// throwing, as a prefix of the written (spelling, payload) pairs in
// order.  A damaged journal is repaired by the load, so one more fill
// must then reload as that prefix plus the new entry.
TEST(PersistReplay, GeneratedDamageLoadsAPrefix) {
  using Pairs = std::vector<std::pair<std::string, std::string>>;
  Pairs written;  // entries 0..5 go to disk; entry 6 is the later fill
  std::string journal, snapshot;
  {
    TempDir dir;
    TypeInterner a;
    CachePersist persist(dir.path, a);
    std::vector<std::pair<TypeId, std::string>> entries;
    for (int i = 0; i < 7; ++i) {
      const TypeId fp = request_fingerprint(
          parse_request(R"({"op":"homogeneity","graph":"g","radius":)" +
                        std::to_string(i) + "}"),
          blake2b_256_hex(std::to_string(i)), a);
      written.emplace_back(a.spelling(fp), "{\"r\":" + std::to_string(i) + "}");
      if (i == 6) break;
      entries.emplace_back(fp, written.back().second);
      persist.append_fill(fp, written.back().second);
    }
    journal = read_bytes(persist.journal_path());
    ASSERT_TRUE(persist.save_snapshot(entries));
    snapshot = read_bytes(persist.snapshot_path());
  }
  const std::pair<std::string, std::string> extra = written.back();
  written.pop_back();
  // Record offsets of the pristine framing (u32le body_len | type | body |
  // crc), for the length-field mutation.
  auto record_starts = [](const std::string& bytes) {
    std::vector<std::size_t> starts;
    for (std::size_t pos = 8; pos + 9 <= bytes.size();) {
      starts.push_back(pos);
      std::uint32_t body_len = 0;
      for (int b = 3; b >= 0; --b)
        body_len = body_len << 8 | static_cast<unsigned char>(bytes[pos + b]);
      pos += 9 + body_len;
    }
    return starts;
  };
  const std::vector<std::size_t> journal_records = record_starts(journal);
  const std::vector<std::size_t> snapshot_records = record_starts(snapshot);
  ASSERT_EQ(journal_records.size(), 6u);
  ASSERT_EQ(snapshot_records.size(), 6u);

  // Loads through a fresh interner; with `then_append`, the same
  // CachePersist journals `extra` right after its load.
  auto load_pairs = [&](const std::string& dir_path, bool then_append) {
    TypeInterner fresh;
    CachePersist persist(dir_path, fresh);
    Pairs out;
    for (const auto& [fp, payload] : persist.load())
      out.emplace_back(fresh.spelling(fp), payload);
    if (then_append)
      persist.append_fill(fresh.intern(extra.first), extra.second);
    return out;
  };
  auto is_prefix = [&](const Pairs& loaded) {
    return loaded.size() <= written.size() &&
           std::equal(loaded.begin(), loaded.end(), written.begin());
  };

  TempDir dir;
  const std::string journal_path = dir.path + "/journal.lapxj";
  const std::string snapshot_path = dir.path + "/snapshot.lapxc";
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    std::mt19937_64 rng(seed);
    const bool damage_journal = seed % 2 == 0;
    std::string bytes = damage_journal ? journal : snapshot;
    const auto& records = damage_journal ? journal_records : snapshot_records;
    auto below = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    switch (seed / 2 % 4) {
      case 0:  // truncate
        bytes.resize(below(bytes.size()));
        break;
      case 1:  // flip one byte
        bytes[below(bytes.size())] ^= static_cast<char>(1 + below(255));
        break;
      case 2: {  // overwrite a length field: body_len or the entry's key_len
        const std::size_t at = records[below(records.size())] +
                               (below(2) == 0 ? 0 : 5);
        const std::uint32_t len = static_cast<std::uint32_t>(rng());
        std::memcpy(bytes.data() + at, &len, 4);
        break;
      }
      default: {  // splice in 1..64 random bytes
        std::string junk(1 + below(64), '\0');
        for (char& c : junk) c = static_cast<char>(rng());
        bytes.insert(below(bytes.size() + 1), junk);
        break;
      }
    }
    ::unlink(journal_path.c_str());
    ::unlink(snapshot_path.c_str());
    write_bytes(damage_journal ? journal_path : snapshot_path, bytes);
    Pairs loaded;
    ASSERT_NO_THROW(loaded = load_pairs(dir.path, damage_journal))
        << "seed " << seed;
    ASSERT_TRUE(is_prefix(loaded))
        << "seed " << seed << ": " << loaded.size() << " entries";
    if (!damage_journal) continue;
    loaded.push_back(extra);
    ASSERT_EQ(load_pairs(dir.path, false), loaded) << "seed " << seed;
  }
}

// End to end: a store whose journal was torn by a crash mid-fill must
// still warm-start the service, with the damage visible in cache_info.
TEST(PersistService, TornStoreStillWarmStartsService) {
  TempDir dir;
  Service::Options opt;
  opt.cache_dir = dir.path;
  std::vector<std::string> cold;
  {
    Service svc(opt);
    for (const auto& r : setup_requests()) svc.handle(r);
    for (const auto& r : query_requests()) cold.push_back(svc.handle(r));
  }
  // Simulate kill -9 mid-append: a half-written record at the journal's
  // tail.  (The snapshot holds the entries; tear the journal after a new
  // fill so both layers are exercised.)
  {
    Service svc(opt);
    for (const auto& r : setup_requests()) svc.handle(r);
    svc.handle(R"({"id":8,"op":"views","graph":"g","radius":1})");
  }
  // Tear AFTER the clean shutdown (which truncates the journal): a
  // half-written record at the journal tail, as a kill -9 mid-append
  // would leave behind.
  const int fd =
      ::open((dir.path + "/journal.lapxj").c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, "\x40\x00\x00\x00garbage", 11), 11);
  ::close(fd);

  Service warm(opt);
  const Json info = Json::parse(warm.handle(R"({"op":"cache_info"})"));
  ASSERT_TRUE(info.find("ok")->as_bool());
  EXPECT_GT(info.find("result")->find("discarded_bytes")->as_int(), 0);
  EXPECT_EQ(info.find("result")->find("loaded_entries")->as_int(), 8);
  for (const auto& r : setup_requests()) warm.handle(r);
  for (std::size_t i = 0; i < query_requests().size(); ++i)
    EXPECT_EQ(warm.handle(query_requests()[i]), cold[i]);
  EXPECT_EQ(warm.cache().stats().misses, 0u);
}

// --------------------------------------------------- result-cache hook --

TEST(ResultCacheHook, FiresOncePerFirstWriterInsert) {
  ResultCache cache;
  int fires = 0;
  cache.set_fill_hook([&](TypeId, const std::string&) { ++fires; });
  cache.put(7, "a");
  cache.put(7, "b");  // loser: adopts resident bytes, no journal record
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(cache.put(7, "c"), "a");
  cache.put(8, "d");
  EXPECT_EQ(fires, 2);
  const auto entries = cache.entries();  // LRU oldest-first
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 7u);
  EXPECT_EQ(entries[1].first, 8u);
}

// ------------------------------------------------------ EINTR handling --

TEST(EintrInjection, ServerRecvRetriesInsteadOfDroppingConnection) {
  Service svc;
  Server::Options opt;
  opt.endpoint.tcp_port = 0;
  Server server(svc, opt);
  std::thread t([&] { server.serve_forever(); });
  {
    Client client = Client::connect_tcp(server.bound_tcp_port());
    client.call(
        R"({"op":"generate","name":"g","family":"torus","args":[4,4]})");
    // Every subsequent server-side recv sees a synthetic EINTR first; the
    // pre-fix loop treated that as peer close and dropped the pipeline.
    faults::inject_recv_eintr.store(1000);
    for (int i = 0; i < 20; ++i)
      client.send("{\"id\":" + std::to_string(i) +
                  ",\"op\":\"homogeneity\",\"graph\":\"g\",\"radius\":1}");
    for (int i = 0; i < 20; ++i) {
      const Json r = Json::parse(client.recv_line());
      EXPECT_EQ(r.find("id")->as_int(), i);
      EXPECT_TRUE(r.find("ok")->as_bool());
    }
    faults::inject_recv_eintr.store(0);
    client.call(R"({"op":"shutdown"})");
  }
  t.join();
}

TEST(EintrInjection, ClientSendAndRecvRetry) {
  Service svc;
  Server::Options opt;
  opt.endpoint.tcp_port = 0;
  Server server(svc, opt);
  std::thread t([&] { server.serve_forever(); });
  {
    Client client = Client::connect_tcp(server.bound_tcp_port());
    faults::inject_client_send_eintr.store(5);
    faults::inject_client_recv_eintr.store(5);
    const Json pong = Json::parse(client.call(R"({"op":"ping"})"));
    EXPECT_TRUE(pong.find("ok")->as_bool());
    EXPECT_EQ(faults::inject_client_send_eintr.load(), 0);
    EXPECT_EQ(faults::inject_client_recv_eintr.load(), 0);
    client.call(R"({"op":"shutdown"})");
  }
  t.join();
}

// ------------------------------------------------- protocol rejections --

TEST(ServerLimits, OversizedLineAnswersTooLargeAfterPipeline) {
  Service svc;
  Server::Options opt;
  opt.endpoint.tcp_port = 0;
  opt.max_line_bytes = 256;
  Server server(svc, opt);
  std::thread t([&] { server.serve_forever(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.bound_tcp_port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  // One valid pipelined request, then a newline-less oversized line: the
  // valid response must still arrive, followed by one too_large error.
  const std::string valid = "{\"id\":1,\"op\":\"ping\"}\n";
  const std::string oversized(400, 'x');
  ASSERT_EQ(::send(fd, valid.data(), valid.size(), 0),
            static_cast<ssize_t>(valid.size()));
  ASSERT_EQ(::send(fd, oversized.data(), oversized.size(), 0),
            static_cast<ssize_t>(oversized.size()));
  std::string received;
  char buf[4096];
  ssize_t k;
  while ((k = ::recv(fd, buf, sizeof buf, 0)) > 0)
    received.append(buf, static_cast<std::size_t>(k));
  ::close(fd);

  const auto first_nl = received.find('\n');
  ASSERT_NE(first_nl, std::string::npos) << received;
  const Json pong = Json::parse(received.substr(0, first_nl));
  EXPECT_EQ(pong.find("id")->as_int(), 1);
  EXPECT_TRUE(pong.find("ok")->as_bool());
  const auto second_nl = received.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos) << received;
  const Json err =
      Json::parse(received.substr(first_nl + 1, second_nl - first_nl - 1));
  EXPECT_FALSE(err.find("ok")->as_bool());
  EXPECT_EQ(err.find("code")->as_string(), "too_large");
  EXPECT_EQ(received.size(), second_nl + 1);  // nothing after the farewell

  server.stop();
  t.join();
}

TEST(ClientLimits, RecvLineFailsInsteadOfUnboundedBuffering) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  std::thread garbage_server([&] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) return;
    const std::string junk(8192, 'a');  // no newline, ever
    ::send(conn, junk.data(), junk.size(), MSG_NOSIGNAL);
    ::close(conn);
  });

  Client client = Client::connect_tcp(ntohs(addr.sin_port));
  client.set_max_line_bytes(4096);
  try {
    client.recv_line();
    FAIL() << "recv_line should reject a newline-less stream";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << e.what();
  }
  garbage_server.join();
  ::close(listen_fd);
}

}  // namespace
