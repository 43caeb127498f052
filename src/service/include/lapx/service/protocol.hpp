#pragma once
// lapxd wire protocol: line-delimited JSON requests and responses.
//
// Request (one line):
//   {"id": 7, "op": "homogeneity", "graph": "g1", "radius": 2}
// Response (one line, field order fixed):
//   {"id":7,"ok":true,"result":{...}}
//   {"id":7,"ok":false,"code":"not_found","error":"no such graph: g1"}
//
// Ops
//   mutating / admin (never cached):
//     ping | generate | upload | open | mutate | session_info | drop |
//     list | stats | cache_save | cache_info | shutdown
//   queries (cached, coalesced, deterministic):
//     analyze | homogeneity | views | optimum | run | fractional
//
// Error codes: bad_request, not_found, too_large, busy, deadline,
// internal.  `busy` is the backpressure signal -- the bounded scheduler
// queue was full and the request was rejected without queueing (the
// 429 analogue); `deadline` means the request expired while queued
// (client-supplied "deadline_ms" budget).
//
// The fingerprint of a query is the canonical dump (keys sorted, "id" and
// "deadline_ms" stripped) of the request with the graph *name* replaced by
// the graph's content id string ("graph#content", see GraphEntry::
// content_id) -- so the cache is addressed by content, not by name,
// identical graphs under different names (or re-uploads of identical
// content) share entries, and a fingerprint is spelled the same in every
// process, which is what lets the persisted cache store spellings as is.
// Only whitelisted per-op fields may appear in a query request; reserved
// or unknown keys (e.g. a client-supplied "graph#content") are rejected
// with bad_request so they can never enter the fingerprint.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "lapx/core/interner.hpp"
#include "lapx/service/json.hpp"

namespace lapx::service {

/// Machine-readable failure categories carried in the response envelope.
enum class ErrorCode {
  kBadRequest,
  kNotFound,
  kTooLarge,
  kBusy,
  kDeadline,
  kInternal,
};

const char* error_code_name(ErrorCode code);

/// A typed failure any service layer wants reported to the client (lives
/// here rather than handlers.hpp so the session store can throw it too).
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// A parsed request: the raw object plus the validated common fields.
struct Request {
  Json body;                          ///< the full request object
  std::string op;                     ///< required "op" field
  std::optional<std::int64_t> id;     ///< optional "id", echoed back
  std::optional<std::int64_t> deadline_ms;  ///< optional queue-wait budget
};

/// Parses and validates one request line.  Throws std::invalid_argument
/// with a client-facing message on malformed input.
Request parse_request(const std::string& line, const Json::Limits& limits = {});

/// Canonical cache fingerprint of a query request: sorted-key dump with
/// "id"/"deadline_ms" stripped and the given content id substituted for
/// the graph name as a JSON string, interned into `interner`.  Throws
/// std::invalid_argument if the request contains any field outside the
/// per-op whitelist.
core::TypeId request_fingerprint(
    const Request& req, const std::string& graph_content,
    core::TypeInterner& interner = core::TypeInterner::global());

/// Response envelopes (already-serialized single lines, no trailing \n).
std::string ok_response(std::optional<std::int64_t> id,
                        const std::string& result_payload);
std::string error_response(std::optional<std::int64_t> id, ErrorCode code,
                           const std::string& message);

}  // namespace lapx::service
