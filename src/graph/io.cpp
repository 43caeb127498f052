#include "lapx/graph/io.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace lapx::graph {

namespace {

// Skips comment lines and returns the next token stream line.
bool next_content_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

// After the expected fields of a line, only whitespace or an inline
// '#' comment may follow.
void reject_trailing_garbage(std::istringstream& row, const char* what) {
  std::string rest;
  if (row >> rest && rest[0] != '#')
    throw std::invalid_argument(std::string("edge list: trailing garbage ") +
                                "after " + what + ": " + rest);
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
  std::string line;
  if (!next_content_line(is, line))
    throw std::invalid_argument("edge list: empty input");
  std::istringstream header(line);
  long long n = -1, m = -1;
  if (!(header >> n >> m) || n < 0 || m < 0)
    throw std::invalid_argument("edge list: bad header");
  reject_trailing_garbage(header, "header");
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
      if (!next_content_line(is, line))
        throw std::invalid_argument("edge list: missing edges");
      std::istringstream row(line);
      long long u, v;
      if (!(row >> u >> v)) throw std::invalid_argument("edge list: bad edge");
      reject_trailing_garbage(row, "edge");
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

Graph graph_from_edge_list(const std::string& text,
                           const EdgeListLimits& limits) {
  std::istringstream is(text);
  return read_edge_list(is, limits);
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
