#pragma once
// Minimal JSON for the lapxd wire protocol (service/protocol.hpp).
//
// The service speaks line-delimited JSON to untrusted clients, so the
// parser gets the same hardening treatment as the gather parser: explicit
// nesting-depth and size guards, overflow-checked number parsing, and
// std::invalid_argument (never UB) on malformed input.
//
// Serialization is canonical by construction -- objects are ordered
// vectors of (key, value) pairs written in insertion order, integers print
// as decimal, and doubles print as fixed %.6f with trailing zeros trimmed
// -- so a response built from the same values is byte-identical on every
// run, thread count, and cache state (the service determinism invariant).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lapx::service {

/// A JSON value.  Objects preserve insertion order (canonical output);
/// `sorted_copy` provides the key-sorted form used for fingerprints.
class Json {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() : kind_(Kind::Null) {}
  static Json boolean(bool b);
  static Json integer(std::int64_t i);
  static Json number(double d);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_int() const { return kind_ == Kind::Int; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const;
  std::int64_t as_int() const;      ///< throws unless Int
  double as_double() const;         ///< Int or Double
  const std::string& as_string() const;

  const std::vector<Json>& items() const;        ///< throws unless Array
  Json& push_back(Json v);                       ///< appends; returns element

  /// Object access.  `set` appends or overwrites preserving first-insertion
  /// order; `find` returns nullptr when the key is absent.
  const std::vector<std::pair<std::string, Json>>& members() const;
  Json& set(std::string key, Json v);
  const Json* find(const std::string& key) const;

  /// Canonical one-line serialization (no whitespace).
  std::string dump() const;

  /// Deep copy with object keys sorted recursively (fingerprint form).
  Json sorted_copy() const;

  /// Parse limits; defaults sized for service requests.
  struct Limits {
    std::size_t max_depth = 64;
    std::size_t max_bytes = std::size_t{1} << 24;  ///< 16 MiB of input text
  };

  /// Parses one JSON document spanning the whole input (trailing
  /// whitespace allowed).  Throws std::invalid_argument on anything else.
  static Json parse(std::string_view text);
  static Json parse(std::string_view text, const Limits& limits);

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  // vector of an incomplete element type is supported since C++17, so
  // children live by value and copies are deep copies.
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;

  void append_to(std::string& out) const;

  class Parser;  // json.cpp; appends object members directly
};

}  // namespace lapx::service
