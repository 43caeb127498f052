#include "lapx/service/shard/aggregate.hpp"

#include <algorithm>
#include <initializer_list>

#include "lapx/service/protocol.hpp"

namespace lapx::service::shard {

namespace {

std::int64_t int_field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return (v != nullptr && v->is_int()) ? v->as_int() : 0;
}

// Sums `fields` (in order) across every reply's result object, descending
// into `section` when non-null.  Field order is the merge's determinism
// contract: it must match service.cpp's single-process response.
Json sum_fields(const std::vector<Json>& results, const char* section,
                std::initializer_list<const char*> fields) {
  Json out = Json::object();
  for (const char* field : fields) {
    std::int64_t total = 0;
    for (const Json& result : results) {
      const Json* obj = &result;
      if (section != nullptr) {
        obj = result.find(section);
        if (obj == nullptr || !obj->is_object()) continue;
      }
      total += int_field(*obj, field);
    }
    out.set(field, Json::integer(total));
  }
  return out;
}

// Concatenates the per-shard arrays under `key` and sorts by each
// element's "graph" name.  Per-shard arrays are already lexicographic and
// names are disjoint across shards, so this IS the single-process order.
Json merge_named_arrays(const std::vector<Json>& results, const char* key) {
  std::vector<Json> items;
  for (const Json& result : results) {
    const Json* arr = result.find(key);
    if (arr == nullptr || !arr->is_array()) continue;
    for (const Json& item : arr->items()) items.push_back(item);
  }
  const auto name_of = [](const Json& item) -> std::string {
    const Json* n = item.find("graph");
    return (n != nullptr && n->is_string()) ? n->as_string() : std::string();
  };
  std::sort(items.begin(), items.end(),
            [&name_of](const Json& a, const Json& b) {
              return name_of(a) < name_of(b);
            });
  Json out = Json::array();
  for (Json& item : items) out.push_back(std::move(item));
  return out;
}

constexpr std::initializer_list<const char*> kStoreFields = {
    "resident", "inserted", "evicted", "dropped", "overwritten", "mutated"};

}  // namespace

bool is_fanout_op(const std::string& op) {
  return op == "list" || op == "stats" || op == "session_info" ||
         op == "cache_info" || op == "cache_save";
}

std::string merge_fanout(const std::string& op, std::optional<std::int64_t> id,
                         const std::vector<std::string>& replies,
                         const MergeContext& ctx) {
  std::vector<Json> results;
  results.reserve(replies.size());
  for (const std::string& reply : replies) {
    Json parsed;
    try {
      parsed = Json::parse(reply);
    } catch (const std::exception& e) {
      return error_response(id, ErrorCode::kInternal,
                            std::string("unparsable shard reply: ") + e.what());
    }
    const Json* ok = parsed.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
      return reply;  // identical envelopes shard-side; first one wins
    const Json* result = parsed.find("result");
    results.push_back(result != nullptr ? *result : Json::object());
  }
  if (results.empty())
    return error_response(id, ErrorCode::kInternal, "no shard replies");

  Json out = Json::object();
  if (op == "list") {
    out.set("graphs", merge_named_arrays(results, "graphs"));
  } else if (op == "session_info") {
    out.set("sessions", merge_named_arrays(results, "sessions"));
    out.set("store", sum_fields(results, "store", kStoreFields));
  } else if (op == "stats") {
    out.set("cache", sum_fields(results, "cache",
                                {"hits", "misses", "entries", "bytes",
                                 "evictions"}));
    out.set("scheduler",
            sum_fields(results, "scheduler",
                       {"submitted", "coalesced", "rejected_busy", "expired",
                        "executed", "completed", "queued", "executors"}));
    out.set("store", sum_fields(results, "store", kStoreFields));
    out.set("shards", Json::integer(static_cast<std::int64_t>(ctx.shards)));
  } else if (op == "cache_save") {
    out = sum_fields(results, nullptr, {"saved_entries", "saved_bytes"});
  } else if (op == "cache_info") {
    bool enabled = true;
    for (const Json& result : results) {
      const Json* e = result.find("enabled");
      enabled = enabled && e != nullptr && e->is_bool() && e->as_bool();
    }
    out.set("enabled", Json::boolean(enabled));
    if (enabled) {
      out.set("dir", Json::string(ctx.cache_dir));
      Json sums = sum_fields(
          results, nullptr,
          {"loaded_entries", "discarded_bytes", "dropped_records",
           "journal_appends", "snapshots_written"});
      for (const auto& [key, value] : sums.members()) out.set(key, value);
      std::string load_error;
      for (const Json& result : results) {
        const Json* e = result.find("load_error");
        if (e != nullptr && e->is_string() && !e->as_string().empty()) {
          load_error = e->as_string();
          break;
        }
      }
      out.set("load_error", Json::string(load_error));
    }
    out.set("shards", Json::integer(static_cast<std::int64_t>(ctx.shards)));
  } else {
    return error_response(id, ErrorCode::kInternal,
                          "not a fan-out op: " + op);
  }
  return ok_response(id, out.dump());
}

}  // namespace lapx::service::shard
