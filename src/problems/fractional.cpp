#include "lapx/problems/fractional.hpp"

#include <deque>
#include <stdexcept>

#include "lapx/problems/matching.hpp"

namespace lapx::problems {

namespace {

using graph::Graph;
using graph::Vertex;

// Koenig's theorem: a minimum vertex cover of a bipartite graph from a
// maximum matching.  `left[v]` marks the side-0 vertices.  Standard
// alternating reachability from unmatched left vertices.
std::vector<bool> koenig_cover(const Graph& g, const std::vector<bool>& left,
                               const std::vector<Vertex>& mates) {
  std::vector<bool> reached(g.num_vertices(), false);
  std::deque<Vertex> queue;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (left[v] && mates[v] == -1) {
      reached[v] = true;
      queue.push_back(v);
    }
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    if (left[v]) {
      // travel along non-matching edges to the right side
      for (Vertex u : g.neighbors(v))
        if (mates[v] != u && !reached[u]) {
          reached[u] = true;
          queue.push_back(u);
        }
    } else if (mates[v] != -1 && !reached[mates[v]]) {
      // travel along the matching edge back to the left side
      reached[mates[v]] = true;
      queue.push_back(mates[v]);
    }
  }
  std::vector<bool> cover(g.num_vertices(), false);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    cover[v] = left[v] ? !reached[v] : reached[v];
  return cover;
}

}  // namespace

graph::Graph bipartite_double_cover(const Graph& g) {
  std::vector<graph::Edge> edges;
  edges.reserve(2 * g.num_edges());
  for (const auto& [u, v] : g.edges()) {
    edges.emplace_back(2 * u, 2 * v + 1);
    edges.emplace_back(2 * u + 1, 2 * v);
  }
  return Graph::from_edges(2 * g.num_vertices(), std::move(edges));
}

std::size_t fractional_matching_doubled(const Graph& g) {
  return maximum_matching_size(bipartite_double_cover(g));
}

std::size_t fractional_vertex_cover_doubled(const Graph& g) {
  // LP duality + Koenig: tau_f = nu_f, and both equal nu(DC)/2.
  return fractional_matching_doubled(g);
}

std::vector<int> half_integral_matching(const Graph& g) {
  const Graph dc = bipartite_double_cover(g);
  const auto mates = maximum_matching_mates(dc);
  std::vector<int> halves(g.num_edges(), 0);
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges());
       ++e) {
    const auto [u, v] = g.edge(e);
    if (mates[2 * u] == 2 * v + 1) ++halves[e];
    if (mates[2 * u + 1] == 2 * v) ++halves[e];
  }
  return halves;
}

std::vector<int> half_integral_vertex_cover(const Graph& g) {
  const Graph dc = bipartite_double_cover(g);
  const auto mates = maximum_matching_mates(dc);
  std::vector<bool> left(dc.num_vertices(), false);
  for (Vertex v = 0; v < g.num_vertices(); ++v) left[2 * v] = true;
  const auto cover = koenig_cover(dc, left, mates);
  std::vector<int> halves(g.num_vertices(), 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    halves[v] = static_cast<int>(cover[2 * v]) + static_cast<int>(cover[2 * v + 1]);
  return halves;
}

std::vector<bool> round_up_vertex_cover(const std::vector<int>& halves) {
  std::vector<bool> bits(halves.size(), false);
  for (std::size_t v = 0; v < halves.size(); ++v) bits[v] = halves[v] >= 1;
  return bits;
}

}  // namespace lapx::problems
