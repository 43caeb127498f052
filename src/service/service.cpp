#include "lapx/service/service.hpp"

#include <stdexcept>
#include <utility>

#include "lapx/graph/io.hpp"

namespace lapx::service {

namespace {

Json graph_summary(const std::string& name, const GraphEntry& entry) {
  // Shape accessors, not entry.graph(): summaries must never force an
  // out-of-core graph to materialize (and for an ooc file the counts and
  // bytes are identical to the in-memory run of the same instance, which
  // is what the CI transcript diff checks).
  Json out = Json::object();
  out.set("graph", Json::string(name));
  out.set("n", Json::integer(entry.num_vertices()));
  out.set("m", Json::integer(static_cast<std::int64_t>(entry.num_edges())));
  return out;
}

// graph_summary plus the session's epoch and content hash.
Json session_summary(const std::string& name, const GraphEntry& entry) {
  Json out = graph_summary(name, entry);
  out.set("epoch", Json::integer(static_cast<std::int64_t>(entry.epoch())));
  out.set("content", Json::string(entry.content_hex()));
  return out;
}

// The store counters `stats` and `session_info` both report.
Json store_counters(const SessionStore::Stats& gs) {
  Json store = Json::object();
  for (const auto& [key, count] :
       {std::pair<const char*, std::uint64_t>{"resident", gs.resident},
        {"inserted", gs.inserted},
        {"evicted", gs.evicted},
        {"dropped", gs.dropped},
        {"overwritten", gs.overwritten},
        {"mutated", gs.mutated}})
    store.set(key, Json::integer(static_cast<std::int64_t>(count)));
  return store;
}

std::string name_field(const Request& req) {
  const Json* v = req.body.find("name");
  if (v == nullptr || !v->is_string() || v->as_string().empty())
    throw ServiceError(ErrorCode::kBadRequest,
                       "missing non-empty string field \"name\"");
  if (v->as_string().size() > 256)
    throw ServiceError(ErrorCode::kBadRequest, "graph name too long");
  return v->as_string();
}

}  // namespace

Service::Service(Options opt)
    : store_(opt.store),
      cache_(opt.cache),
      persist_(opt.cache_dir.empty()
                   ? nullptr
                   : std::make_unique<CachePersist>(opt.cache_dir)),
      scheduler_(opt.scheduler) {
  if (persist_ == nullptr) return;
  // Warm-start: replay persisted fills through put() BEFORE installing
  // the journal hook, so loading never re-journals what it read.
  for (auto& [fingerprint, payload] : persist_->load())
    cache_.put(fingerprint, std::move(payload));
  cache_.set_fill_hook([this](core::TypeId fingerprint,
                              const std::string& payload) {
    persist_->append_fill(fingerprint, payload);
  });
}

Service::~Service() {
  // Clean shutdown: fold the journal into a fresh snapshot.  Runs before
  // member destruction, so a straggling executor fill can still race --
  // it lands in the post-truncation journal and survives either way.
  save_cache();
}

bool Service::save_cache() {
  if (persist_ == nullptr) return true;
  return persist_->save_snapshot(cache_.entries());
}

const std::string& Service::Pending::get() {
  if (resolved_) return response_;
  const Outcome outcome = future_.get();
  switch (outcome.status) {
    case Outcome::Status::kOk:
      response_ = ok_response(id_, outcome.payload);
      break;
    case Outcome::Status::kBusy:
      response_ = error_response(id_, ErrorCode::kBusy, outcome.payload);
      break;
    case Outcome::Status::kDeadline:
      response_ = error_response(id_, ErrorCode::kDeadline, outcome.payload);
      break;
    case Outcome::Status::kError:
      response_ = error_response(id_, outcome.code, outcome.payload);
      break;
  }
  resolved_ = true;
  return response_;
}

std::string Service::handle(const std::string& line) {
  return submit(line).get();
}

Service::Pending Service::submit(const std::string& line,
                                 const BatchScheduler::Notify& on_ready) {
  Pending out;
  auto resolve = [&out](std::string response) {
    out.response_ = std::move(response);
    out.resolved_ = true;
  };
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    resolve(error_response(std::nullopt, ErrorCode::kBadRequest, e.what()));
    return out;
  }
  out.id_ = req.id;
  try {
    if (is_query_op(req.op)) {
      query(req, out, on_ready);
    } else {
      resolve(admin(req));
    }
  } catch (const ServiceError& e) {
    resolve(error_response(req.id, e.code(), e.what()));
  } catch (const std::exception& e) {
    resolve(error_response(req.id, ErrorCode::kInternal, e.what()));
  }
  return out;
}

std::string Service::admin(const Request& req) {
  if (req.op == "ping") {
    Json out = Json::object();
    out.set("pong", Json::boolean(true));
    return ok_response(req.id, out.dump());
  }
  if (req.op == "generate") {
    const std::string name = name_field(req);
    auto entry = store_.put(name, build_generated_graph(req));
    return ok_response(req.id, graph_summary(name, *entry).dump());
  }
  if (req.op == "upload") {
    const std::string name = name_field(req);
    auto entry = store_.put(name, parse_uploaded_graph(req));
    return ok_response(req.id, graph_summary(name, *entry).dump());
  }
  if (req.op == "open") {
    // Bind a session to an on-disk LAPXOOC1 file (lapx_cli graph-convert
    // writes them).  The response is exactly a generate/upload summary, so
    // an ooc run of an instance diffs byte-for-byte against the in-memory
    // run of the same instance.
    const std::string name = name_field(req);
    const Json* p = req.body.find("path");
    if (p == nullptr || !p->is_string() || p->as_string().empty())
      throw ServiceError(ErrorCode::kBadRequest,
                         "missing non-empty string field \"path\"");
    if (p->as_string().size() > 4096)
      throw ServiceError(ErrorCode::kBadRequest, "path too long");
    std::shared_ptr<const GraphEntry> entry;
    try {
      entry = store_.open_ooc(name, p->as_string());
    } catch (const graph::OocError& e) {
      throw ServiceError(ErrorCode::kBadRequest, e.what());
    }
    return ok_response(req.id, graph_summary(name, *entry).dump());
  }
  if (req.op == "mutate") {
    // Admin (not query): mutation changes state, so it runs inline in
    // submission order -- epochs are deterministic for a given request
    // sequence -- and is never cached.  The response surfaces the stable
    // content hash, NOT a raw interner id (those depend on process
    // history and would break the cross-executor determinism invariant).
    const std::string name = name_field(req);
    const std::vector<graph::EdgeEdit> edits = parse_edge_edits(req);
    {
      const auto cur = store_.get(name);
      if (cur == nullptr)
        throw ServiceError(ErrorCode::kNotFound, "no such graph: " + name);
      if (cur->is_ooc())
        throw ServiceError(ErrorCode::kBadRequest,
                           "cannot mutate an out-of-core session; "
                           "regenerate the file and re-open it");
      long long adds = 0;
      for (const graph::EdgeEdit& e : edits)
        if (e.kind == graph::EdgeEdit::Kind::kAdd) ++adds;
      if (static_cast<long long>(cur->num_edges()) + adds > kMaxServiceEdges)
        throw ServiceError(ErrorCode::kTooLarge, "mutated graph too large");
    }
    std::shared_ptr<const GraphEntry> entry;
    try {
      entry = store_.mutate(name, edits);
    } catch (const std::invalid_argument& e) {
      // MutationError and the vertex range checks both land here.
      throw ServiceError(ErrorCode::kBadRequest, e.what());
    } catch (const std::out_of_range& e) {
      throw ServiceError(ErrorCode::kBadRequest, e.what());
    }
    if (entry == nullptr)
      throw ServiceError(ErrorCode::kNotFound, "no such graph: " + name);
    return ok_response(req.id, session_summary(name, *entry).dump());
  }
  if (req.op == "session_info") {
    // Deterministic by design (unlike stats' cache/scheduler sections):
    // epochs, content hashes, and store counters are pure functions of
    // the request sequence, so this op is safe to include in transcript
    // diffs across executor counts and cold/warm cache states.
    Json sessions = Json::array();
    for (const std::string& name : store_.names()) {
      if (auto entry = store_.get(name))
        sessions.push_back(session_summary(name, *entry));
    }
    Json out = Json::object();
    out.set("sessions", std::move(sessions));
    out.set("store", store_counters(store_.stats()));
    return ok_response(req.id, out.dump());
  }
  if (req.op == "drop") {
    const std::string name = name_field(req);
    if (!store_.drop(name))
      throw ServiceError(ErrorCode::kNotFound, "no such graph: " + name);
    Json out = Json::object();
    out.set("dropped", Json::string(name));
    return ok_response(req.id, out.dump());
  }
  if (req.op == "list") {
    Json graphs = Json::array();
    for (const std::string& name : store_.names()) {
      if (auto entry = store_.get(name))
        graphs.push_back(graph_summary(name, *entry));
    }
    Json out = Json::object();
    out.set("graphs", std::move(graphs));
    return ok_response(req.id, out.dump());
  }
  if (req.op == "stats") {
    const auto cs = cache_.stats();
    const auto ss = scheduler_.stats();
    Json cache = Json::object();
    cache.set("hits", Json::integer(static_cast<std::int64_t>(cs.hits)));
    cache.set("misses", Json::integer(static_cast<std::int64_t>(cs.misses)));
    cache.set("entries", Json::integer(static_cast<std::int64_t>(cs.entries)));
    cache.set("bytes", Json::integer(static_cast<std::int64_t>(cs.bytes)));
    cache.set("evictions",
              Json::integer(static_cast<std::int64_t>(cs.evictions)));
    Json sched = Json::object();
    sched.set("submitted",
              Json::integer(static_cast<std::int64_t>(ss.submitted)));
    sched.set("coalesced",
              Json::integer(static_cast<std::int64_t>(ss.coalesced)));
    sched.set("rejected_busy",
              Json::integer(static_cast<std::int64_t>(ss.rejected_busy)));
    sched.set("expired", Json::integer(static_cast<std::int64_t>(ss.expired)));
    sched.set("executed",
              Json::integer(static_cast<std::int64_t>(ss.executed)));
    sched.set("completed",
              Json::integer(static_cast<std::int64_t>(ss.completed)));
    sched.set("queued", Json::integer(static_cast<std::int64_t>(ss.queued)));
    sched.set("executors", Json::integer(scheduler_.executors()));
    Json out = Json::object();
    out.set("cache", std::move(cache));
    out.set("scheduler", std::move(sched));
    out.set("store", store_counters(store_.stats()));
    return ok_response(req.id, out.dump());
  }
  if (req.op == "cache_save") {
    if (persist_ == nullptr)
      throw ServiceError(ErrorCode::kBadRequest,
                         "persistence not enabled (serve --cache-dir)");
    const auto entries = cache_.entries();
    std::size_t bytes = 0;
    for (const auto& [fingerprint, payload] : entries)
      bytes += payload.size();
    if (!persist_->save_snapshot(entries))
      throw ServiceError(ErrorCode::kInternal,
                         "snapshot failed: " + persist_->info().last_error);
    Json out = Json::object();
    out.set("saved_entries",
            Json::integer(static_cast<std::int64_t>(entries.size())));
    out.set("saved_bytes", Json::integer(static_cast<std::int64_t>(bytes)));
    return ok_response(req.id, out.dump());
  }
  if (req.op == "cache_info") {
    Json out = Json::object();
    out.set("enabled", Json::boolean(persist_ != nullptr));
    if (persist_ != nullptr) {
      const CachePersist::Info pi = persist_->info();
      out.set("dir", Json::string(pi.dir));
      out.set("loaded_entries",
              Json::integer(static_cast<std::int64_t>(pi.loaded_entries)));
      out.set("discarded_bytes",
              Json::integer(static_cast<std::int64_t>(pi.discarded_bytes)));
      out.set("dropped_records",
              Json::integer(static_cast<std::int64_t>(pi.dropped_records)));
      out.set("journal_appends",
              Json::integer(static_cast<std::int64_t>(pi.journal_appends)));
      out.set("snapshots_written",
              Json::integer(static_cast<std::int64_t>(pi.snapshots_written)));
      out.set("load_error", Json::string(pi.last_error));
    }
    return ok_response(req.id, out.dump());
  }
  if (req.op == "shutdown") {
    shutdown_.store(true, std::memory_order_release);
    Json out = Json::object();
    out.set("shutting_down", Json::boolean(true));
    return ok_response(req.id, out.dump());
  }
  throw ServiceError(ErrorCode::kBadRequest, "unknown op: " + req.op);
}

void Service::query(const Request& req, Pending& out,
                    const BatchScheduler::Notify& on_ready) {
  const Json* graph_name = req.body.find("graph");
  if (graph_name == nullptr || !graph_name->is_string())
    throw ServiceError(ErrorCode::kBadRequest,
                       "missing string field \"graph\"");
  auto entry = store_.get(graph_name->as_string());
  if (entry == nullptr)
    throw ServiceError(ErrorCode::kNotFound,
                       "no such graph: " + graph_name->as_string());
  core::TypeId fingerprint;
  try {
    fingerprint = request_fingerprint(req, entry->content_id());
  } catch (const std::invalid_argument& e) {
    throw ServiceError(ErrorCode::kBadRequest, e.what());
  }
  if (auto payload = cache_.get(fingerprint)) {
    out.response_ = ok_response(req.id, *payload);
    out.resolved_ = true;
    return;
  }
  // Miss: schedule the computation (coalescing identical concurrent
  // requests).  The job owns a pin on the entry, so store eviction cannot
  // invalidate it mid-computation.  The job also fills the cache: with
  // executors > 1 the fill must happen on the computing side (first
  // writer wins), so every waiter -- coalesced or racing -- responds with
  // the canonical resident bytes.
  auto submission = scheduler_.submit(
      fingerprint,
      [this, req, entry, fingerprint] {
        try {
          return Outcome{
              Outcome::Status::kOk,
              cache_.put(fingerprint, handle_query(req, *entry).dump())};
        } catch (const ServiceError& e) {
          // Every coalesced waiter renders the same code from the outcome.
          return Outcome{Outcome::Status::kError, e.what(), e.code()};
        }
      },
      req.deadline_ms.value_or(-1), on_ready);
  out.future_ = std::move(submission.future);
}

}  // namespace lapx::service
