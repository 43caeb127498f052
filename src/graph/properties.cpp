#include "lapx/graph/properties.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "ball_scratch.hpp"

namespace lapx::graph {

using detail::BallScratch;

BallScratch& detail::thread_ball_scratch() {
  static thread_local BallScratch s;
  return s;
}

namespace {

// Shortest cycle through `source` is found by BFS recording parents; a
// non-tree edge between branches closes a cycle of length
// dist[u] + dist[v] + 1.  Taking the minimum over all sources is exact.
// parent[u] is read only for vertices this BFS reached, so it needs no
// stamp of its own.
int shortest_cycle_through(const Graph& g, Vertex source, int best_so_far,
                           BallScratch& s, std::vector<Vertex>& parent) {
  s.begin(static_cast<std::size_t>(g.num_vertices()));
  s.stamp[source] = s.epoch;
  s.dist[source] = 0;
  parent[source] = -1;
  s.queue.push_back(source);
  int best = best_so_far;
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const Vertex u = s.queue[head];
    if (best > 0 && 2 * s.dist[u] >= best) break;  // cannot improve further
    for (Vertex w : g.neighbors(u)) {
      if (s.stamp[w] != s.epoch) {
        s.stamp[w] = s.epoch;
        s.dist[w] = s.dist[u] + 1;
        parent[w] = u;
        s.queue.push_back(w);
      } else if (w != parent[u]) {
        const int cycle_len = s.dist[u] + s.dist[w] + 1;
        if (best < 0 || cycle_len < best) best = cycle_len;
      }
    }
  }
  return best;
}

}  // namespace

int girth(const Graph& g) {
  // A component whose degrees are all at most 2 is a path or a cycle, and
  // a cycle's girth is its length: a BFS from each of its n vertices would
  // prune only at depth n/2.  A tree's BFS never closes a cycle, so it
  // would never prune.  The per-source BFS runs only on the other
  // components, starting from the shortest closed-form cycle.
  struct Component {
    std::size_t vertices = 0, degree_sum = 0;
    bool branching = false;  // some vertex has degree >= 3
  };
  const std::vector<int> comp = connected_components(g);
  std::vector<Component> parts(
      comp.empty() ? 0 : 1 + *std::max_element(comp.begin(), comp.end()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    Component& c = parts[static_cast<std::size_t>(comp[v])];
    ++c.vertices;
    c.degree_sum += static_cast<std::size_t>(g.degree(v));
    c.branching = c.branching || g.degree(v) >= 3;
  }
  int best = kInfiniteGirth;
  for (const Component& c : parts) {
    const auto length = static_cast<int>(c.vertices);
    if (!c.branching && c.degree_sum == 2 * c.vertices &&
        (best == kInfiniteGirth || length < best))
      best = length;
  }
  BallScratch s;
  std::vector<Vertex> parent(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Component& c = parts[static_cast<std::size_t>(comp[v])];
    if (!c.branching || c.degree_sum / 2 < c.vertices) continue;
    if (best == 3) return 3;
    best = shortest_cycle_through(g, v, best, s, parent);
  }
  return best;
}

int girth(const LDigraph& d) {
  // Detect 2-cycles (antiparallel arc pairs) first -- they vanish in the
  // underlying simple graph.
  if (d.has_antiparallel_arcs()) return 2;
  return girth(d.underlying_graph());
}

std::vector<int> bfs_distances(const Graph& g, Vertex source) {
  std::vector<int> dist(g.num_vertices(), -1);
  std::deque<Vertex> queue{source};
  dist.at(source) = 0;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for (Vertex w : g.neighbors(u))
      if (dist[w] == -1) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
  }
  return dist;
}

std::vector<Vertex> ball(const Graph& g, Vertex v, int r) {
  if (v < 0 || v >= g.num_vertices())
    throw std::out_of_range("ball: root out of range");
  BallScratch& s = detail::thread_ball_scratch();
  s.begin(static_cast<std::size_t>(g.num_vertices()));
  std::vector<Vertex> result{v};
  s.stamp[static_cast<std::size_t>(v)] = s.epoch;
  s.dist[static_cast<std::size_t>(v)] = 0;
  s.queue.push_back(v);
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const Vertex u = s.queue[head];
    if (s.dist[static_cast<std::size_t>(u)] == r) continue;
    const int next = s.dist[static_cast<std::size_t>(u)] + 1;
    for (Vertex w : g.neighbors(u))
      if (s.stamp[static_cast<std::size_t>(w)] != s.epoch) {
        s.stamp[static_cast<std::size_t>(w)] = s.epoch;
        s.dist[static_cast<std::size_t>(w)] = next;
        s.queue.push_back(w);
        result.push_back(w);
      }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<int> connected_components(const Graph& g) {
  std::vector<int> comp(g.num_vertices(), -1);
  int next = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (comp[v] != -1) continue;
    comp[v] = next;
    std::deque<Vertex> queue{v};
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop_front();
      for (Vertex w : g.neighbors(u))
        if (comp[w] == -1) {
          comp[w] = next;
          queue.push_back(w);
        }
    }
    ++next;
  }
  return comp;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  auto comp = connected_components(g);
  return std::all_of(comp.begin(), comp.end(), [](int c) { return c == 0; });
}

bool is_forest(const Graph& g) {
  // A forest with c components has exactly n - c edges; a cycle adds one.
  const std::vector<int> comp = connected_components(g);
  const int components =
      comp.empty() ? 0 : 1 + *std::max_element(comp.begin(), comp.end());
  return g.num_edges() + static_cast<std::size_t>(components) ==
         static_cast<std::size_t>(g.num_vertices());
}

bool is_bipartite(const Graph& g) {
  std::vector<int> colour(g.num_vertices(), -1);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (colour[v] != -1) continue;
    colour[v] = 0;
    std::deque<Vertex> queue{v};
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop_front();
      for (Vertex w : g.neighbors(u)) {
        if (colour[w] == -1) {
          colour[w] = 1 - colour[u];
          queue.push_back(w);
        } else if (colour[w] == colour[u]) {
          return false;
        }
      }
    }
  }
  return true;
}

int diameter(const Graph& g) {
  if (g.num_vertices() == 0 || !is_connected(g)) return -1;
  int best = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    auto dist = bfs_distances(g, v);
    best = std::max(best, *std::max_element(dist.begin(), dist.end()));
  }
  return best;
}

std::pair<Graph, std::vector<Vertex>> induced_subgraph(
    const Graph& g, const std::vector<Vertex>& vertices) {
  std::unordered_map<Vertex, Vertex> index;
  index.reserve(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i)
    index[vertices[i]] = static_cast<Vertex>(i);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (Vertex w : g.neighbors(vertices[i])) {
      auto it = index.find(w);
      if (it != index.end() && static_cast<Vertex>(i) < it->second)
        edges.emplace_back(static_cast<Vertex>(i), it->second);
    }
  }
  return {Graph::from_edges(static_cast<Vertex>(vertices.size()),
                            std::move(edges)),
          vertices};
}

std::pair<LDigraph, std::vector<Vertex>> component_of(const LDigraph& d,
                                                      Vertex seed) {
  // BFS over arcs in both directions.
  std::vector<bool> in_comp(d.num_vertices(), false);
  std::deque<Vertex> queue{seed};
  in_comp.at(seed) = true;
  std::vector<Vertex> members{seed};
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    auto visit = [&](Vertex w) {
      if (!in_comp[w]) {
        in_comp[w] = true;
        members.push_back(w);
        queue.push_back(w);
      }
    };
    for (const auto& [l, w] : d.out_arcs(u)) {
      (void)l;
      visit(w);
    }
    for (const auto& [l, w] : d.in_arcs(u)) {
      (void)l;
      visit(w);
    }
  }
  std::sort(members.begin(), members.end());
  std::unordered_map<Vertex, Vertex> index;
  index.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i)
    index[members[i]] = static_cast<Vertex>(i);
  std::vector<Arc> arcs;
  for (const Arc& a : d.arcs())
    if (in_comp[a.from])
      arcs.push_back({index.at(a.from), index.at(a.to), a.label});
  LDigraph sub = LDigraph::from_arcs(static_cast<Vertex>(members.size()),
                                     d.alphabet_size(), std::move(arcs));
  return {std::move(sub), members};
}

}  // namespace lapx::graph
