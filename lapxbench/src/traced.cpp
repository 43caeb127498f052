// The traced mode: the stream replayed in-process through the layers'
// public functions, in the order Service::submit calls them, each call
// wrapped in a span (name, start, end, parent, request id).  Spans stay in
// memory until the run ends; a layer's self time is its span minus what
// its child spans cover.  The responses are built exactly as Service
// builds them and must match the reference transcript byte for byte --
// that is what shows the replay takes the same path as the daemon.
//
// SessionStore::mutate is one public call.  To split it, each mutate is
// followed (outside the request span) by the same sub-steps on side
// copies: Graph copy, apply_edits, to_edge_list, intern, to_ldigraph, the
// RefineState copy and refine_delta.  They use a side TypeInterner that
// has seen the same content, so their interning misses where the real
// call missed.  They only attribute cost; no response depends on them.

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "lapx/core/interner.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/graph/io.hpp"
#include "lapx/graph/mutation.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/runtime/parallel.hpp"
#include "lapx/runtime/worklist.hpp"
#include "lapx/service/handlers.hpp"
#include "lapx/service/protocol.hpp"
#include "lapx/service/result_cache.hpp"
#include "lapx/service/scheduler.hpp"
#include "lapx/service/session_store.hpp"
#include "runs.hpp"

namespace lapxbench {

namespace {

using lapx::service::ErrorCode;
using lapx::service::Json;
using lapx::service::Outcome;
using lapx::service::Request;
using lapx::service::ServiceError;

enum Layer : std::uint8_t {
  kRequest,  // root: one request, end to end in-process
  kParse,
  kFingerprint,
  kEnvelope,
  kStoreGet,
  kStorePut,
  kStoreMutate,
  kStoreDrop,
  kCacheGet,
  kCachePut,
  kQueueWait,
  kViews,
  kRun,
  kHomogeneity,
  kOtherQuery,
  kRefineLift,
  kRefineRegular,
  kRefineOther,
  kRefineCached,
  kGenerate,
  kParseEdits,
  // Side copies: outside every request span.
  kSideCopy,
  kSideApplyEdits,
  kSideEdgeList,
  kSideIntern,
  kSideLdigraph,
  kSideFork,
  kSideDelta,
  kLayerCount
};

constexpr const char* kLayerName[kLayerCount] = {
    "request",           "protocol.parse",        "protocol.fingerprint",
    "protocol.envelope", "session_store.get",     "session_store.put",
    "session_store.mutate", "session_store.drop", "result_cache.get",
    "result_cache.put",  "scheduler.queue_wait",  "handlers.views",
    "handlers.run",      "order.homogeneity",     "handlers.other",
    "refine.types.lift", "refine.types.regular",  "refine.types.other",
    "refine.types.cached", "graph.generate",      "handlers.parse_edits",
    "graph.copy",        "graph.apply_edits",     "graph.to_edge_list",
    "interner.content_intern", "graph.to_ldigraph", "refine.fork",
    "refine.delta"};

enum class Phase : std::uint8_t { kSetup, kTimed, kProbe };

// Requests whose spans are kept in full and written out at the end; the
// rest only feed the per-layer self-time samples.
constexpr std::uint32_t kKeptRequests = 2000;

struct SpanRec {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: none
  std::uint32_t rid = 0;     // request id (replay-wide)
  Layer layer = kRequest;
  Phase phase = Phase::kSetup;
};

// What one thread recorded.  Self times are kept per span (as float
// microseconds), timed requests apart from set-up and warm-up ones; whole
// spans only for the first kKeptRequests requests.
struct ThreadLog {
  std::array<std::vector<float>, kLayerCount> self_us;        // timed phase
  std::array<std::vector<float>, kLayerCount> setup_self_us;  // set-up, warm-up
  double timed_root_ns = 0;       // timed requests: end-to-end in-process
  double timed_root_self_ns = 0;  // ... and the part no layer span covers
  std::vector<SpanRec> kept;
};

// Per-thread logs, so recording takes no lock.
class Tracer {
 public:
  std::uint32_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// A closed span whose children covered `child_ns` of it.
  void record(const SpanRec& s, std::int64_t child_ns) {
    ThreadLog& log = mine();
    const std::int64_t dur = s.end - s.start;
    const std::int64_t self = dur - child_ns;
    if (s.phase == Phase::kTimed) log.self_us[s.layer].push_back(static_cast<float>(self) / 1e3f);
    if (s.phase == Phase::kSetup) log.setup_self_us[s.layer].push_back(static_cast<float>(self) / 1e3f);
    if (s.layer == kRequest && s.phase == Phase::kTimed) {
      log.timed_root_ns += static_cast<double>(dur);
      log.timed_root_self_ns += static_cast<double>(self);
    }
    if (s.rid <= kKeptRequests) log.kept.push_back(s);
  }

  /// All threads' logs merged; call once the replay has finished.
  ThreadLog merged() {
    std::lock_guard<std::mutex> lock(mu_);
    ThreadLog all;
    for (const auto& log : logs_) {
      for (int l = 0; l < kLayerCount; ++l) {
        all.self_us[l].insert(all.self_us[l].end(), log->self_us[l].begin(), log->self_us[l].end());
        all.setup_self_us[l].insert(all.setup_self_us[l].end(), log->setup_self_us[l].begin(),
                                    log->setup_self_us[l].end());
      }
      all.timed_root_ns += log->timed_root_ns;
      all.timed_root_self_ns += log->timed_root_self_ns;
      all.kept.insert(all.kept.end(), log->kept.begin(), log->kept.end());
    }
    return all;
  }

 private:
  ThreadLog& mine() {
    // One tracer per process, so a thread-local cursor is enough.
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
    }
    return *log;
  }
  std::atomic<std::uint32_t> ids_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

class Span;

struct Ctx {
  std::uint32_t rid = 0;
  Span* root = nullptr;  // outlives every span of its request
  Phase phase = Phase::kSetup;
};

// A scoped span.  On close it adds its duration to its parent's child
// time (atomically: a request's executor-side spans close on another
// thread while the request span waits) and records its own self time.
class Span {
 public:
  Span(Tracer& t, Layer layer, const Ctx& ctx, Span* parent) : t_(t), parent_(parent) {
    rec_.id = t.next_id();
    rec_.parent = parent ? parent->id() : 0;
    rec_.rid = ctx.rid;
    rec_.layer = layer;
    rec_.phase = ctx.phase;
    rec_.start = now_ns();
  }
  /// A direct child of the request span.
  Span(Tracer& t, Layer layer, const Ctx& ctx) : Span(t, layer, ctx, ctx.root) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    rec_.end = now_ns();
    if (parent_) parent_->add_child(rec_.end - rec_.start);
    t_.record(rec_, children_.load(std::memory_order_relaxed));
  }
  std::uint32_t id() const { return rec_.id; }
  void add_child(std::int64_t ns) { children_.fetch_add(ns, std::memory_order_relaxed); }

 private:
  Tracer& t_;
  Span* parent_;
  SpanRec rec_;
  std::atomic<std::int64_t> children_{0};
};

std::string name_field(const Request& req) {
  const Json* v = req.body.find("name");
  if (v == nullptr || !v->is_string() || v->as_string().empty())
    throw ServiceError(ErrorCode::kBadRequest, "missing non-empty string field \"name\"");
  if (v->as_string().size() > 256) throw ServiceError(ErrorCode::kBadRequest, "graph name too long");
  return v->as_string();
}

Json summary(const std::string& name, const lapx::service::GraphEntry& entry) {
  Json out = Json::object();
  out.set("graph", Json::string(name));
  out.set("n", Json::integer(entry.num_vertices()));
  out.set("m", Json::integer(static_cast<std::int64_t>(entry.num_edges())));
  return out;
}

// Service::Pending::get's rendering of a scheduled outcome.
std::string render(const Outcome& outcome, std::optional<std::int64_t> id) {
  switch (outcome.status) {
    case Outcome::Status::kOk:
      return lapx::service::ok_response(id, outcome.payload);
    case Outcome::Status::kBusy:
      return lapx::service::error_response(id, ErrorCode::kBusy, outcome.payload);
    case Outcome::Status::kDeadline:
      return lapx::service::error_response(id, ErrorCode::kDeadline, outcome.payload);
    case Outcome::Status::kError:
      break;
  }
  const auto colon = outcome.payload.find(':');
  for (const ErrorCode code : {ErrorCode::kBadRequest, ErrorCode::kNotFound,
                               ErrorCode::kTooLarge, ErrorCode::kInternal})
    if (colon != std::string::npos &&
        outcome.payload.compare(0, colon, lapx::service::error_code_name(code)) == 0)
      return lapx::service::error_response(id, code, outcome.payload.substr(colon + 1));
  return lapx::service::error_response(id, ErrorCode::kInternal, outcome.payload);
}

// The side chain of one mutated session: its own L-digraph and
// RefineState on the side interner.
struct SideState {
  std::unique_ptr<lapx::graph::LDigraph> ld;
  std::unique_ptr<lapx::core::RefineState> state;
};

class Replayer {
 public:
  Replayer() : sched_(lapx::service::BatchScheduler::Options{128, kDaemonExecutors}) {}

  /// One request: its response line.  Side copies run after the request
  /// span closes, so they never count toward it.
  std::string process(const std::string& line, Phase phase) {
    std::function<void()> side;
    std::string response;
    {
      const std::uint32_t rid = next_rid_.fetch_add(1, std::memory_order_relaxed) + 1;
      Span root(tracer_, kRequest, Ctx{rid, nullptr, phase}, nullptr);
      response = handle(line, Ctx{rid, &root, phase}, side);
    }
    if (side) side();
    return response;
  }

  Tracer& tracer() { return tracer_; }
  /// Result-cache lookups and hits of timed requests.
  std::uint64_t cache_lookups() const { return lookups_.load(); }
  std::uint64_t cache_hits() const { return hits_.load(); }
  lapx::service::BatchScheduler::Stats sched_stats() const { return sched_.stats(); }
  std::vector<double> frontier_ratios() {
    std::lock_guard<std::mutex> lock(side_mu_);
    return frontier_ratios_;
  }

 private:
  std::string handle(const std::string& line, const Ctx& ctx, std::function<void()>& side) {
    Request req;
    try {
      Span s(tracer_, kParse, ctx);
      req = lapx::service::parse_request(line);
    } catch (const std::exception& e) {
      return lapx::service::error_response(std::nullopt, ErrorCode::kBadRequest, e.what());
    }
    try {
      if (lapx::service::is_query_op(req.op)) return query(req, ctx);
      return admin(req, ctx, side);
    } catch (const ServiceError& e) {
      return lapx::service::error_response(req.id, e.code(), e.what());
    } catch (const std::exception& e) {
      return lapx::service::error_response(req.id, ErrorCode::kInternal, e.what());
    }
  }

  std::string envelope(const Request& req, const Ctx& ctx, const std::string& payload) {
    Span s(tracer_, kEnvelope, ctx);
    return lapx::service::ok_response(req.id, payload);
  }

  std::string query(const Request& req, const Ctx& ctx) {
    const Json* graph_name = req.body.find("graph");
    if (graph_name == nullptr || !graph_name->is_string())
      throw ServiceError(ErrorCode::kBadRequest, "missing string field \"graph\"");
    std::shared_ptr<const lapx::service::GraphEntry> entry;
    {
      Span s(tracer_, kStoreGet, ctx);
      entry = store_.get(graph_name->as_string());
    }
    if (entry == nullptr)
      throw ServiceError(ErrorCode::kNotFound, "no such graph: " + graph_name->as_string());
    lapx::core::TypeId fingerprint;
    try {
      Span s(tracer_, kFingerprint, ctx);
      fingerprint = lapx::service::request_fingerprint(req, entry->content_id());
    } catch (const std::invalid_argument& e) {
      throw ServiceError(ErrorCode::kBadRequest, e.what());
    }
    std::optional<std::string> payload;
    {
      Span s(tracer_, kCacheGet, ctx);
      payload = cache_.get(fingerprint);
    }
    if (ctx.phase == Phase::kTimed) {
      lookups_.fetch_add(1, std::memory_order_relaxed);
      if (payload) hits_.fetch_add(1, std::memory_order_relaxed);
    }
    if (payload) return envelope(req, ctx, *payload);
    const Layer refine_layer = refine_layer_for(graph_name->as_string());
    const std::int64_t submitted = now_ns();
    auto submission = sched_.submit(
        fingerprint,
        [this, req, entry, fingerprint, ctx, submitted, refine_layer] {
          SpanRec wait;
          wait.start = submitted;
          wait.end = now_ns();
          wait.id = tracer_.next_id();
          wait.parent = ctx.root->id();
          wait.rid = ctx.rid;
          wait.layer = kQueueWait;
          wait.phase = ctx.phase;
          ctx.root->add_child(wait.end - wait.start);
          tracer_.record(wait, 0);
          try {
            std::string result = compute(req, *entry, ctx, refine_layer);
            Span s(tracer_, kCachePut, ctx);
            return Outcome{Outcome::Status::kOk, cache_.put(fingerprint, std::move(result))};
          } catch (const ServiceError& e) {
            return Outcome{Outcome::Status::kError,
                           std::string(lapx::service::error_code_name(e.code())) + ":" + e.what()};
          }
        },
        req.deadline_ms.value_or(-1));
    const Outcome outcome = submission.future.get();
    Span s(tracer_, kEnvelope, ctx);
    return render(outcome, req.id);
  }

  std::string compute(const Request& req, const lapx::service::GraphEntry& entry, const Ctx& ctx,
                      Layer refine_layer) {
    if (req.op == "views") {
      Span h(tracer_, kViews, ctx);
      const Json* r = req.body.find("radius");
      if (r == nullptr || (r->is_int() && r->as_int() >= 0 && r->as_int() <= 8)) {
        // The view types first, in a child span: the handler's self time
        // is then its own work on cached types.
        Span s(tracer_, entry.has_refine_state() ? kRefineCached : refine_layer, ctx, &h);
        entry.view_types(r == nullptr ? 1 : static_cast<int>(r->as_int()));
      }
      return lapx::service::handle_query(req, entry).dump();
    }
    const Layer layer = req.op == "run" ? kRun : req.op == "homogeneity" ? kHomogeneity : kOtherQuery;
    Span h(tracer_, layer, ctx);
    return lapx::service::handle_query(req, entry).dump();
  }

  Layer refine_layer_for(const std::string& name) {
    std::lock_guard<std::mutex> lock(family_mu_);
    const auto it = family_.find(name);
    if (it == family_.end()) return kRefineOther;
    return it->second == "lift" ? kRefineLift : it->second == "regular" ? kRefineRegular : kRefineOther;
  }

  std::string admin(const Request& req, const Ctx& ctx, std::function<void()>& side) {
    if (req.op == "ping") {
      Json out = Json::object();
      out.set("pong", Json::boolean(true));
      return envelope(req, ctx, out.dump());
    }
    if (req.op == "generate") {
      const std::string name = name_field(req);
      lapx::graph::Graph g;
      {
        Span s(tracer_, kGenerate, ctx);
        g = lapx::service::build_generated_graph(req);
      }
      std::shared_ptr<const lapx::service::GraphEntry> entry;
      {
        Span s(tracer_, kStorePut, ctx);
        entry = store_.put(name, std::move(g));
      }
      {
        const Json* family = req.body.find("family");
        std::lock_guard<std::mutex> lock(family_mu_);
        family_[name] = family->as_string();
      }
      // Split put: the edge-list text and its interning.
      side = [this, entry, ctx] {
        std::string text;
        {
          Span s(tracer_, kSideEdgeList, ctx, nullptr);
          text = lapx::graph::to_edge_list(entry->graph());
        }
        Span s(tracer_, kSideIntern, ctx, nullptr);
        side_interner_.intern(text);
      };
      return envelope(req, ctx, summary(name, *entry).dump());
    }
    if (req.op == "mutate") {
      const std::string name = name_field(req);
      std::vector<lapx::graph::EdgeEdit> edits;
      {
        Span s(tracer_, kParseEdits, ctx);
        edits = lapx::service::parse_edge_edits(req);
      }
      std::shared_ptr<const lapx::service::GraphEntry> old;
      {
        Span s(tracer_, kStoreGet, ctx);
        old = store_.get(name);
      }
      if (old == nullptr) throw ServiceError(ErrorCode::kNotFound, "no such graph: " + name);
      // (The workloads never mutate out-of-core sessions or exceed the
      // edge cap, so Service's checks for those are not replayed.)
      std::shared_ptr<const lapx::service::GraphEntry> entry;
      try {
        Span s(tracer_, kStoreMutate, ctx);
        entry = store_.mutate(name, edits);
      } catch (const std::invalid_argument& e) {
        throw ServiceError(ErrorCode::kBadRequest, e.what());
      } catch (const std::out_of_range& e) {
        throw ServiceError(ErrorCode::kBadRequest, e.what());
      }
      if (entry == nullptr) throw ServiceError(ErrorCode::kNotFound, "no such graph: " + name);
      side = [this, old, edits, name, ctx] { split_mutate(*old, edits, name, ctx); };
      Json out = summary(name, *entry);
      out.set("epoch", Json::integer(static_cast<std::int64_t>(entry->epoch())));
      out.set("content", Json::string(entry->content_hex()));
      return envelope(req, ctx, out.dump());
    }
    if (req.op == "drop") {
      const std::string name = name_field(req);
      bool dropped = false;
      {
        Span s(tracer_, kStoreDrop, ctx);
        dropped = store_.drop(name);
      }
      if (!dropped) throw ServiceError(ErrorCode::kNotFound, "no such graph: " + name);
      Json out = Json::object();
      out.set("dropped", Json::string(name));
      return envelope(req, ctx, out.dump());
    }
    throw ServiceError(ErrorCode::kBadRequest, "unsupported op in the traced replay: " + req.op);
  }

  // SessionStore::mutate's sub-steps, on copies.
  void split_mutate(const lapx::service::GraphEntry& old,
                    const std::vector<lapx::graph::EdgeEdit>& edits, const std::string& name,
                    const Ctx& ctx) {
    std::lock_guard<std::mutex> lock(side_mu_);
    SideState& side = sides_[name];
    if (side.state == nullptr) {
      // First edit of the session: mirror the materialized radius-3 state.
      side.ld = std::make_unique<lapx::graph::LDigraph>(lapx::graph::to_ldigraph(old.graph()));
      side.state = std::make_unique<lapx::core::RefineState>(*side.ld, side_interner_, true);
      side.state->types_at(3);
    }
    lapx::graph::Graph g;
    {
      Span s(tracer_, kSideCopy, ctx, nullptr);
      g = old.graph();
    }
    {
      Span s(tracer_, kSideApplyEdits, ctx, nullptr);
      lapx::graph::apply_edits(g, edits);
    }
    std::string text;
    {
      Span s(tracer_, kSideEdgeList, ctx, nullptr);
      text = lapx::graph::to_edge_list(g);
    }
    {
      Span s(tracer_, kSideIntern, ctx, nullptr);
      side_interner_.intern(text);
    }
    auto ld = std::make_unique<lapx::graph::LDigraph>();
    {
      Span s(tracer_, kSideLdigraph, ctx, nullptr);
      *ld = lapx::graph::to_ldigraph(g);
    }
    std::unique_ptr<lapx::core::RefineState> fork;
    {
      Span s(tracer_, kSideFork, ctx, nullptr);
      fork = std::make_unique<lapx::core::RefineState>(*side.state);
    }
    lapx::core::RefineState::DeltaStats stats;
    {
      Span s(tracer_, kSideDelta, ctx, nullptr);
      stats = fork->refine_delta(*ld);
    }
    if (stats.total_vertices > 0)
      frontier_ratios_.push_back(static_cast<double>(stats.frontier_vertices) /
                                 static_cast<double>(stats.total_vertices));
    side.state = std::move(fork);
    side.ld = std::move(ld);
  }

  // Declared first: executor jobs record spans until sched_ is destroyed.
  Tracer tracer_;
  std::atomic<std::uint32_t> next_rid_{0};
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::mutex family_mu_;
  std::unordered_map<std::string, std::string> family_;  // session -> generate family
  std::mutex side_mu_;
  lapx::core::TypeInterner side_interner_;
  std::unordered_map<std::string, SideState> sides_;
  std::vector<double> frontier_ratios_;
  lapx::service::SessionStore store_;
  lapx::service::ResultCache cache_;
  // Last: destroyed first, so no job outlives what it touches.
  lapx::service::BatchScheduler sched_;
};

}  // namespace

int run_traced(const Workload& w, const Transcript& ref, const std::string& spans_out) {
  lapx::runtime::set_thread_count(kDaemonThreads);
  Replayer rp;
  Checker check(ref);
  for (int c = 0; c < w.connections; ++c) {
    std::size_t pos = 0;
    for (const Req& r : w.setup[c]) check.check(c, pos++, rp.process(r.line, Phase::kSetup));
    if (c == 0)
      for (const Req& r : w.warmup) check.check(0, pos++, rp.process(r.line, Phase::kSetup));
  }
  // Counter deltas cover the timed phase only, like the self times.
  const auto pool0 = lapx::runtime::pool_stats();
  const auto wl0 = lapx::runtime::worklist_stats();
  const auto sched0 = rp.sched_stats();
  {
    Phaser phaser(w);
    std::vector<std::jthread> threads;
    for (int c = 0; c < w.connections; ++c)
      threads.emplace_back([&, c] {
        const std::size_t first = w.setup[c].size() + (c == 0 ? w.warmup.size() : 0);
        for (std::size_t i = 0; i < w.timed[c].size(); ++i) {
          phaser.before(c, i);
          try {
            check.check(c, first + i, rp.process(w.timed[c][i].line, Phase::kTimed));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "lapx_loadgen: traced connection %d: %s\n", c, e.what());
            check.fail(w.timed[c].size() - i);
            phaser.leave();
            return;
          }
        }
      });
  }
  const auto pool1 = lapx::runtime::pool_stats();
  const auto wl1 = lapx::runtime::worklist_stats();
  const auto sched1 = rp.sched_stats();

  // Steady-state interner growth per fresh session, one session at a time
  // so the global TypeInterner::size delta belongs to that session alone.
  auto ids_per_session = [&](const std::vector<std::vector<Req>>& probes) {
    std::vector<double> ids;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const std::size_t before = lapx::core::TypeInterner::global().size();
      for (const Req& r : probes[i])
        if (!response_ok(rp.process(r.line, Phase::kProbe))) check.fail(1);
      if (i > 0)  // the first probe of a family only warms the interner
        ids.push_back(static_cast<double>(lapx::core::TypeInterner::global().size() - before));
    }
    return ids;
  };
  const std::vector<double> ids_lift = ids_per_session(w.probe_lift);
  const std::vector<double> ids_regular = ids_per_session(w.probe_regular);

  // Self times: a span minus the time its children cover (children of
  // one span never overlap: they are sequential calls).
  const ThreadLog log = rp.tracer().merged();
  auto widen = [](const std::array<std::vector<float>, kLayerCount>& from) {
    std::vector<std::vector<double>> out(kLayerCount);
    for (int l = 0; l < kLayerCount; ++l) out[l].assign(from[l].begin(), from[l].end());
    return out;
  };
  const std::vector<std::vector<double>> self_us = widen(log.self_us);
  const std::vector<std::vector<double>> setup_self_us = widen(log.setup_self_us);

  Json layers = Json::object();
  auto value_metric = [&](const char* name, double value, std::size_t n) {
    Json m = Json::object();
    m.set("value", Json::number(value));
    m.set("n", Json::integer(static_cast<std::int64_t>(n)));
    layers.set(name, std::move(m));
  };
  auto layer_metric = [&](const char* name, Layer layer, double q, double scale) {
    value_metric(name, quantile(self_us[layer], q) / scale, self_us[layer].size());
  };
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  constexpr double kUs = 1, kMs = 1e3;  // divisors of microseconds
  layer_metric("protocol.parse_us_p50", kParse, 0.5, kUs);
  layer_metric("protocol.fingerprint_us_p50", kFingerprint, 0.5, kUs);
  layer_metric("session_store.get_us_p50", kStoreGet, 0.5, kUs);
  layer_metric("session_store.put_ms_p50", kStorePut, 0.5, kMs);
  layer_metric("session_store.mutate_ms_p50", kStoreMutate, 0.5, kMs);
  layer_metric("result_cache.get_us_p50", kCacheGet, 0.5, kUs);
  value_metric("result_cache.hit_ratio",
               rp.cache_lookups() ? static_cast<double>(rp.cache_hits()) / static_cast<double>(rp.cache_lookups()) : 0.0,
               rp.cache_lookups());
  layer_metric("scheduler.queue_wait_ms_p50", kQueueWait, 0.5, kMs);
  layer_metric("scheduler.queue_wait_ms_p99", kQueueWait, 0.99, kMs);
  const std::uint64_t submitted = sched1.submitted - sched0.submitted;
  value_metric("scheduler.busy_ratio",
               submitted ? static_cast<double>(sched1.rejected_busy - sched0.rejected_busy) /
                               static_cast<double>(submitted)
                         : 0.0,
               submitted);
  layer_metric("handlers.views_ms_p50", kViews, 0.5, kMs);
  layer_metric("handlers.run_ms_p50", kRun, 0.5, kMs);
  layer_metric("order.homogeneity_ms_p50", kHomogeneity, 0.5, kMs);
  layer_metric("graph.generate_ms_p50", kGenerate, 0.5, kMs);
  layer_metric("graph.copy_ms_p50", kSideCopy, 0.5, kMs);
  layer_metric("graph.to_edge_list_ms_p50", kSideEdgeList, 0.5, kMs);
  layer_metric("graph.to_ldigraph_ms_p50", kSideLdigraph, 0.5, kMs);
  layer_metric("graph.apply_edits_us_p50", kSideApplyEdits, 0.5, kUs);
  layer_metric("refine.types_ms_p50.lift", kRefineLift, 0.5, kMs);
  layer_metric("refine.types_ms_p50.regular", kRefineRegular, 0.5, kMs);
  layer_metric("refine.fork_ms_p50", kSideFork, 0.5, kMs);
  layer_metric("refine.delta_ms_p50", kSideDelta, 0.5, kMs);
  const std::vector<double> frontier = rp.frontier_ratios();
  value_metric("refine.delta_frontier_ratio", quantile(frontier, 0.5), frontier.size());
  value_metric("interner.ids_per_session.lift", mean(ids_lift), ids_lift.size());
  value_metric("interner.ids_per_session.regular", mean(ids_regular), ids_regular.size());
  layer_metric("interner.content_intern_ms_p50", kSideIntern, 0.5, kMs);
  const double coordinated = static_cast<double>(pool1.jobs_coordinated - pool0.jobs_coordinated);
  const double contended = static_cast<double>(pool1.jobs_inline_contended - pool0.jobs_inline_contended);
  value_metric("runtime.inline_contended_ratio",
               coordinated + contended > 0 ? contended / (coordinated + contended) : 0.0,
               static_cast<std::size_t>(coordinated + contended));
  const double chunks = static_cast<double>(wl1.chunks - wl0.chunks);
  value_metric("runtime.steals_per_chunk",
               chunks > 0 ? static_cast<double>(wl1.steals - wl0.steals) / chunks : 0.0,
               static_cast<std::size_t>(chunks));
  value_metric("trace.layer_share",
               log.timed_root_ns > 0 ? 1.0 - log.timed_root_self_ns / log.timed_root_ns : 0.0,
               w.timed_requests());

  // Every layer's self-time median, named as the spans are: the timed
  // phase's, and apart, set-up's and warm-up's (no per-layer metric
  // reads those).
  auto self_table = [&](const std::vector<std::vector<double>>& us) {
    Json table = Json::object();
    for (int l = 0; l < kLayerCount; ++l) {
      if (us[l].empty()) continue;
      Json m = Json::object();
      m.set("p50_us", Json::number(quantile(us[l], 0.5)));
      m.set("sum_ms", Json::number(mean(us[l]) * static_cast<double>(us[l].size()) / kMs));
      m.set("n", Json::integer(static_cast<std::int64_t>(us[l].size())));
      table.set(kLayerName[l], std::move(m));
    }
    return table;
  };

  // Spans are written out at the end: the first requests in full.
  if (!spans_out.empty()) {
    std::ofstream out(spans_out, std::ios::trunc);
    for (const SpanRec& s : log.kept) {
      Json line = Json::object();
      line.set("name", Json::string(kLayerName[s.layer]));
      line.set("id", Json::integer(s.id));
      line.set("parent", Json::integer(s.parent));
      line.set("request", Json::integer(s.rid));
      line.set("start_ns", Json::integer(s.start));
      line.set("dur_ns", Json::integer(s.end - s.start));
      out << line.dump() << '\n';
    }
  }

  Json out = Json::object();
  out.set("mode", Json::string("traced"));
  out.set("sched", Json::string(sched_policy_name(0)));
  out.set("attempted", Json::integer(static_cast<std::int64_t>(w.total_requests())));
  out.set("failed", Json::integer(static_cast<std::int64_t>(check.failed())));
  out.set("timed_latency_sum_ms", Json::number(log.timed_root_ns / 1e6));
  out.set("layers", std::move(layers));
  out.set("self_times", self_table(self_us));
  out.set("setup_self_times", self_table(setup_self_us));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace lapxbench
