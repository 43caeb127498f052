#include "lapx/service/protocol.hpp"

#include <stdexcept>

namespace lapx::service {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kTooLarge: return "too_large";
    case ErrorCode::kBusy: return "busy";
    case ErrorCode::kDeadline: return "deadline";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

Request parse_request(const std::string& line, const Json::Limits& limits) {
  Request req;
  req.body = Json::parse(line, limits);
  if (!req.body.is_object())
    throw std::invalid_argument("request must be a JSON object");
  const Json* op = req.body.find("op");
  if (op == nullptr || !op->is_string() || op->as_string().empty())
    throw std::invalid_argument("missing string field \"op\"");
  req.op = op->as_string();
  if (const Json* id = req.body.find("id"); id != nullptr) {
    if (!id->is_int()) throw std::invalid_argument("\"id\" must be an integer");
    req.id = id->as_int();
  }
  if (const Json* dl = req.body.find("deadline_ms"); dl != nullptr) {
    if (!dl->is_int() || dl->as_int() < 0)
      throw std::invalid_argument("\"deadline_ms\" must be a non-negative "
                                  "integer");
    req.deadline_ms = dl->as_int();
  }
  return req;
}

core::TypeId request_fingerprint(const Request& req,
                                 const std::string& graph_content,
                                 core::TypeInterner& interner) {
  // Only whitelisted per-op fields enter the fingerprint; anything else is
  // rejected rather than copied.  Copying arbitrary client keys would let a
  // request carry a literal "graph#content" field that overwrites the real
  // substituted content id and poisons the shared content-addressed cache.
  const auto allowed = [&](const std::string& k) {
    if (k == "radius")
      return req.op == "homogeneity" || req.op == "views" || req.op == "run";
    if (k == "problem") return req.op == "optimum";
    if (k == "algorithm") return req.op == "run";
    return false;
  };
  Json canonical = req.body.sorted_copy();
  Json key = Json::object();
  for (const auto& [k, v] : canonical.members()) {
    if (k == "id" || k == "deadline_ms") continue;
    if (k == "op") {
      key.set("op", v);
      continue;
    }
    if (k == "graph") {
      key.set("graph#content", Json::string(graph_content));
      continue;
    }
    if (!allowed(k))
      throw std::invalid_argument("unexpected field \"" + k + "\" for op \"" +
                                  req.op + "\"");
    key.set(k, v);
  }
  // Frame with a prefix that no canonical-type key starts with, so query
  // fingerprints can never collide with interned neighbourhood types.
  return interner.intern("lapxd:q:" + key.dump());
}

std::string ok_response(std::optional<std::int64_t> id,
                        const std::string& result_payload) {
  Json env = Json::object();
  if (id) env.set("id", Json::integer(*id));
  env.set("ok", Json::boolean(true));
  std::string line = env.dump();
  // Splice the pre-serialized payload in, keeping cached bytes verbatim.
  line.pop_back();  // '}'
  line += ",\"result\":";
  line += result_payload;
  line += '}';
  return line;
}

std::string error_response(std::optional<std::int64_t> id, ErrorCode code,
                           const std::string& message) {
  Json env = Json::object();
  if (id) env.set("id", Json::integer(*id));
  env.set("ok", Json::boolean(false));
  env.set("code", Json::string(error_code_name(code)));
  env.set("error", Json::string(message));
  return env.dump();
}

}  // namespace lapx::service
