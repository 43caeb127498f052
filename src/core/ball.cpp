#include "lapx/core/ball.hpp"

#include <algorithm>

#include "lapx/graph/properties.hpp"

namespace lapx::core {

Ball extract_ball(const graph::Graph& g, const order::Keys& ids,
                  graph::Vertex v, int r) {
  Ball b;
  b.radius = r;
  const auto members = graph::ball(g, v, r);
  auto [sub, mapping] = graph::induced_subgraph(g, members);
  b.g = std::move(sub);
  b.original = mapping;
  b.keys.reserve(mapping.size());
  for (graph::Vertex w : mapping) b.keys.push_back(ids.at(w));
  b.root = static_cast<graph::Vertex>(
      std::lower_bound(mapping.begin(), mapping.end(), v) - mapping.begin());
  return b;
}

Ball canonicalize_oi(const Ball& b) {
  const auto ranks = order::ranks_from_keys(b.keys);
  Ball c;
  c.radius = b.radius;
  c.keys.resize(b.keys.size());
  c.original.resize(b.original.size());
  for (std::size_t i = 0; i < b.keys.size(); ++i) {
    c.keys[ranks[i]] = static_cast<std::int64_t>(ranks[i]);
    c.original[ranks[i]] = b.original[i];
  }
  // Insert edges in a canonical (sorted) order so equal balls compare equal.
  std::vector<graph::Edge> edges;
  edges.reserve(b.g.num_edges());
  for (const auto& [u, v] : b.g.edges()) {
    graph::Vertex a = static_cast<graph::Vertex>(ranks[u]);
    graph::Vertex w = static_cast<graph::Vertex>(ranks[v]);
    if (a > w) std::swap(a, w);
    edges.emplace_back(a, w);
  }
  std::sort(edges.begin(), edges.end());
  c.g = graph::Graph::from_edges(b.g.num_vertices(), std::move(edges));
  c.root = static_cast<graph::Vertex>(ranks[b.root]);
  return c;
}

std::string oi_ball_type(const Ball& b) {
  return order::ordered_ball_type(b.g, b.keys, b.root, b.radius);
}

std::string id_ball_type(const Ball& b) {
  return order::unordered_ball_type_with_ids(b.g, b.keys, b.root, b.radius);
}

TypeId oi_ball_type_id(const Ball& b, TypeInterner& interner) {
  return order::ordered_ball_type_id(b.g, b.keys, b.root, b.radius, interner);
}

}  // namespace lapx::core
