#include "lapx/service/json.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>

namespace lapx::service {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("json: " + what);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  std::size_t plain = 0;  // start of the pending run that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, plain, s.size() - plain);
  out += '"';
}

// Fixed %.6f with trailing zeros trimmed (at least one decimal kept), so
// doubles have one canonical spelling per value at service precision.
void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) fail("non-finite number");
  char buf[64];
  const int need = std::snprintf(buf, sizeof buf, "%.6f", d);
  if (need < 0) fail("number format error");
  std::string s;
  if (static_cast<std::size_t>(need) < sizeof buf) {
    s.assign(buf, static_cast<std::size_t>(need));
  } else {
    // Magnitudes around 1e57 and up need more digits than the stack
    // buffer holds; retry with an exact-size buffer so distinct values
    // never truncate to the same spelling.
    s.resize(static_cast<std::size_t>(need) + 1);
    std::snprintf(s.data(), s.size(), "%.6f", d);
    s.resize(static_cast<std::size_t>(need));
  }
  while (s.size() > 1 && s.back() == '0' && s[s.size() - 2] != '.')
    s.pop_back();
  out += s;
}

}  // namespace

class Json::Parser {
 public:
  Parser(std::string_view text, const Json::Limits& limits)
      : text_(text), limits_(limits) {}

  Json run() {
    if (text_.size() > limits_.max_bytes) fail("input too large");
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json value(std::size_t depth) {
    if (depth > limits_.max_depth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return Json::string(string());
    if (c == 't') {
      if (!literal("true")) fail("bad literal");
      return Json::boolean(true);
    }
    if (c == 'f') {
      if (!literal("false")) fail("bad literal");
      return Json::boolean(false);
    }
    if (c == 'n') {
      if (!literal("null")) fail("bad literal");
      return Json();
    }
    return number();
  }

  Json object(std::size_t depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    // Member indices ordered by key: each key costs one O(log k) probe,
    // where scanning every earlier key made a k-key object O(k^2).
    auto& members = obj.object_;
    const auto by_key = [&members](std::size_t a, std::size_t b) {
      return members[a].first < members[b].first;
    };
    std::set<std::size_t, decltype(by_key)> seen(by_key);
    while (true) {
      skip_ws();
      members.emplace_back(string(), Json());
      skip_ws();
      expect(':');
      if (!seen.insert(members.size() - 1).second)
        fail("duplicate key: " + members.back().first);
      members.back().second = value(depth + 1);
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json array(std::size_t depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return out;
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDFFF)
            fail("surrogate escapes unsupported");
          // UTF-8 encode the code point.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    // Strict JSON: the integer part is '0' or [1-9][0-9]* -- no leading
    // '+' and no leading zeros (strtoll/strtod would accept both).
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
      fail("bad number");
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9')
      fail("bad number: leading zero");
    bool digits = false, fractional = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        fractional = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) fail("bad number");
    const std::string tok(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (!fractional) {
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == ERANGE) fail("integer out of range");
      if (end != tok.c_str() + tok.size()) fail("bad number");
      return Json::integer(v);
    }
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(d))
      fail("bad number");
    return Json::number(d);
  }

  std::string_view text_;
  Json::Limits limits_;
  std::size_t pos_ = 0;
};

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = b;
  return j;
}

Json Json::integer(std::int64_t i) {
  Json j;
  j.kind_ = Kind::Int;
  j.int_ = i;
  return j;
}

Json Json::number(double d) {
  Json j;
  j.kind_ = Kind::Double;
  j.double_ = d;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::String;
  j.string_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) fail("not a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ != Kind::Int) fail("not an integer");
  return int_;
}

double Json::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ != Kind::Double) fail("not a number");
  return double_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) fail("not a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::Array) fail("not an array");
  return array_;
}

Json& Json::push_back(Json v) {
  if (kind_ != Kind::Array) fail("not an array");
  array_.push_back(std::move(v));
  return array_.back();
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (kind_ != Kind::Object) fail("not an object");
  return object_;
}

Json& Json::set(std::string key, Json v) {
  if (kind_ != Kind::Object) fail("not an object");
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
  return object_.back().second;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) fail("not an object");
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

void Json::append_to(std::string& out) const {
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Int: {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, int_).ptr);
      break;
    }
    case Kind::Double: append_double(out, double_); break;
    case Kind::String: append_escaped(out, string_); break;
    case Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        array_[i].append_to(out);
      }
      out += ']';
      break;
    }
    case Kind::Object: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        append_escaped(out, object_[i].first);
        out += ':';
        object_[i].second.append_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  append_to(out);
  return out;
}

Json Json::sorted_copy() const {
  if (kind_ == Kind::Array) {
    Json arr = Json::array();
    for (const Json& v : array_) arr.push_back(v.sorted_copy());
    return arr;
  }
  if (kind_ == Kind::Object) {
    std::vector<std::pair<std::string, Json>> sorted;
    sorted.reserve(object_.size());
    for (const auto& [k, v] : object_) sorted.emplace_back(k, v.sorted_copy());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // The keys were distinct before sorting, so no set() scan is needed.
    Json obj = Json::object();
    obj.object_ = std::move(sorted);
    return obj;
  }
  return *this;
}

Json Json::parse(std::string_view text) { return parse(text, Limits{}); }

Json Json::parse(std::string_view text, const Limits& limits) {
  return Parser(text, limits).run();
}

}  // namespace lapx::service
