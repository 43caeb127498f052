#include "lapx/graph/graph.hpp"

#include <algorithm>
#include <sstream>

namespace lapx::graph {

Graph::Graph(Vertex n) {
  if (n < 0) throw std::invalid_argument("negative vertex count");
  adj_.resize(static_cast<std::size_t>(n));
  incident_.resize(static_cast<std::size_t>(n));
}

Graph Graph::from_edges(Vertex n, const std::vector<Edge>& edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

EdgeId Graph::add_edge(Vertex u, Vertex v) {
  check_vertex(u);
  check_vertex(v);
  if (u == v) throw MutationError("self-loop at " + std::to_string(u));
  if (has_edge(u, v))
    throw MutationError("parallel edge {" + std::to_string(u) + "," +
                        std::to_string(v) + "}");
  if (edge_list_.size() >= kMaxGraphEdges)
    throw MutationError("edge count would overflow EdgeId");
  for (Vertex x : {u, v})
    if (degree(x) >= kMaxGraphDegree)
      throw MutationError("degree at " + std::to_string(x) +
                          " would overflow the port-label alphabet");
  auto insert_sorted = [](std::vector<Vertex>& vec, Vertex x) {
    vec.insert(std::lower_bound(vec.begin(), vec.end(), x), x);
  };
  insert_sorted(adj_[u], v);
  insert_sorted(adj_[v], u);
  if (u > v) std::swap(u, v);
  edge_list_.emplace_back(u, v);
  const auto id = static_cast<EdgeId>(edge_list_.size() - 1);
  incident_[u].push_back(id);
  incident_[v].push_back(id);
  return id;
}

EdgeId Graph::remove_edge(Vertex u, Vertex v) {
  check_vertex(u);
  check_vertex(v);
  if (!has_edge(u, v))
    throw MutationError("no edge {" + std::to_string(u) + "," +
                        std::to_string(v) + "}");
  const EdgeId id = edge_id(u, v);
  auto erase_sorted = [](std::vector<Vertex>& vec, Vertex x) {
    vec.erase(std::lower_bound(vec.begin(), vec.end(), x));
  };
  erase_sorted(adj_[u], v);
  erase_sorted(adj_[v], u);
  auto erase_id = [this](Vertex w, EdgeId e) {
    auto& inc = incident_[w];
    inc.erase(std::find(inc.begin(), inc.end(), e));
  };
  erase_id(u, id);
  erase_id(v, id);
  const auto last = static_cast<EdgeId>(edge_list_.size() - 1);
  if (id != last) {
    // Keep ids dense: the last edge takes over the freed slot.
    const Edge moved = edge_list_[last];
    edge_list_[id] = moved;
    for (Vertex w : {moved.first, moved.second}) {
      auto& inc = incident_[w];
      *std::find(inc.begin(), inc.end(), last) = id;
    }
  }
  edge_list_.pop_back();
  return id;
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  check_vertex(u);
  check_vertex(v);
  const auto& a = adj_[u];
  return std::binary_search(a.begin(), a.end(), v);
}

EdgeId Graph::edge_id(Vertex u, Vertex v) const {
  if (u > v) std::swap(u, v);
  check_vertex(u);
  check_vertex(v);
  for (EdgeId id : incident_[u]) {
    if (edge_list_[id] == Edge{u, v}) return id;
  }
  throw std::out_of_range("no edge {" + std::to_string(u) + "," +
                          std::to_string(v) + "}");
}

int Graph::max_degree() const {
  int d = 0;
  for (Vertex v = 0; v < num_vertices(); ++v) d = std::max(d, degree(v));
  return d;
}

int Graph::min_degree() const {
  if (num_vertices() == 0) return 0;
  int d = degree(0);
  for (Vertex v = 1; v < num_vertices(); ++v) d = std::min(d, degree(v));
  return d;
}

bool Graph::is_regular(int d) const {
  for (Vertex v = 0; v < num_vertices(); ++v)
    if (degree(v) != d) return false;
  return true;
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "Graph(n=" << num_vertices() << ", m=" << num_edges()
     << ", maxdeg=" << max_degree() << ")";
  return os.str();
}

}  // namespace lapx::graph
