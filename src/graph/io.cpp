#include "lapx/graph/io.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace lapx::graph {

namespace {

// A content line: neither blank nor a '#' comment.
bool is_content(std::string_view line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first != std::string_view::npos && line[first] != '#';
}

// The whitespace operator>> skips (std::isspace in the C locale).
bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// One line's fields, read as `std::istringstream >> long long` reads
// them -- skip whitespace, an optional sign, decimal digits, failing on
// overflow -- but with std::from_chars over the line in place.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  bool next(long long& x) {
    skip_space();
    const char* q = p_;
    // from_chars takes '-' but not '+'; a '+' must precede a digit.
    if (q != end_ && *q == '+' && ++q == end_) return false;
    if (q != p_ && (*q < '0' || *q > '9')) return false;
    const auto [ptr, ec] = std::from_chars(q, end_, x);
    if (ec != std::errc()) return false;
    p_ = ptr;
    return true;
  }

  // After the expected fields of a line, only whitespace or an inline
  // '#' comment may follow.
  void reject_trailing_garbage(const char* what) {
    skip_space();
    const char* q = p_;
    while (q != end_ && !is_space(*q)) ++q;
    if (q != p_ && *p_ != '#')
      throw std::invalid_argument(std::string("edge list: trailing garbage ") +
                                  "after " + what + ": " +
                                  std::string(p_, q));
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

// The edge-list grammar over a line source: next_line(line) sets `line`
// to the next line and returns false at the end of the input.
template <typename NextLine>
Graph parse_edge_list(const NextLine& next_line, const EdgeListLimits& limits) {
  std::string_view line;
  const auto next_content_line = [&] {
    while (next_line(line))
      if (is_content(line)) return true;
    return false;
  };
  if (!next_content_line())
    throw std::invalid_argument("edge list: empty input");
  Fields header(line);
  long long n = -1, m = -1;
  if (!header.next(n) || !header.next(m) || n < 0 || m < 0)
    throw std::invalid_argument("edge list: bad header");
  header.reject_trailing_garbage("header");
  if (n > limits.max_vertices)
    throw std::invalid_argument("edge list: vertex count " +
                                std::to_string(n) + " exceeds limit " +
                                std::to_string(limits.max_vertices));
  if (m > limits.max_edges)
    throw std::invalid_argument("edge list: edge count " + std::to_string(m) +
                                " exceeds limit " +
                                std::to_string(limits.max_edges));
  if (n >= 1 && m > n * (n - 1) / 2)  // n <= max_vertices: product cannot overflow
    throw std::invalid_argument(
        "edge list: more edges than a simple graph admits");
  if (n == 0 && m > 0)
    throw std::invalid_argument("edge list: edges on an empty vertex set");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  try {
    for (long long i = 0; i < m; ++i) {
      if (!next_content_line())
        throw std::invalid_argument("edge list: missing edges");
      Fields row(line);
      long long u, v;
      if (!row.next(u) || !row.next(v))
        throw std::invalid_argument("edge list: bad edge");
      row.reject_trailing_garbage("edge");
      // Range check before the narrowing cast: a 64-bit id must not be
      // able to wrap into a valid 32-bit vertex.
      if (u < 0 || u >= n || v < 0 || v >= n)
        throw std::invalid_argument(
            "edge list: vertex out of range on edge " + std::to_string(u) +
            " " + std::to_string(v));
      edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
    }
  } catch (const std::invalid_argument&) {
    // An invalid edge on an earlier line wins, as if each edge were
    // inserted as it is read.
    Graph::from_edges(static_cast<Vertex>(n), std::move(edges));
    throw;
  }
  return Graph::from_edges(static_cast<Vertex>(n), std::move(edges));
}

}  // namespace

void write_edge_list(std::ostream& os, const Graph& g) {
  os << to_edge_list(g);
}

std::string to_edge_list(const Graph& g) {
  // One buffer, sized once and trimmed: a line is two decimal fields of at
  // most 11 characters each plus a space and a newline.
  std::string text(24 * (g.num_edges() + 1), '\0');
  char* p = text.data();
  char* const end = p + text.size();
  auto line = [&](auto a, auto b) {
    p = std::to_chars(p, end, a).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, b).ptr;
    *p++ = '\n';
  };
  line(g.num_vertices(), g.num_edges());
  for (const auto& [u, v] : g.edges()) line(u, v);
  text.resize(static_cast<std::size_t>(p - text.data()));
  return text;
}

Graph read_edge_list(std::istream& is, const EdgeListLimits& limits) {
  std::string buffer;
  return parse_edge_list(
      [&](std::string_view& line) {
        if (!std::getline(is, buffer)) return false;
        line = buffer;
        return true;
      },
      limits);
}

Graph graph_from_edge_list(const std::string& text,
                           const EdgeListLimits& limits) {
  // std::getline's lines: split at '\n', with no empty line after a
  // final newline.
  std::string_view rest = text;
  return parse_edge_list(
      [&](std::string_view& line) {
        if (rest.empty()) return false;
        const std::size_t eol = rest.find('\n');
        line = rest.substr(0, eol);
        rest.remove_prefix(eol == std::string_view::npos ? rest.size()
                                                         : eol + 1);
        return true;
      },
      limits);
}

std::string to_dot(const Graph& g) {
  std::ostringstream os;
  os << "graph G {\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) os << "  " << v << ";\n";
  for (const auto& [u, v] : g.edges())
    os << "  " << u << " -- " << v << ";\n";
  os << "}\n";
  return os.str();
}

std::string to_dot(const LDigraph& d) {
  std::ostringstream os;
  os << "digraph G {\n";
  for (Vertex v = 0; v < d.num_vertices(); ++v) os << "  " << v << ";\n";
  for (const Arc& a : d.arcs())
    os << "  " << a.from << " -> " << a.to << " [label=\"" << a.label
       << "\"];\n";
  os << "}\n";
  return os.str();
}

}  // namespace lapx::graph
