#include "lapx/graph/isomorphism.hpp"

#include <algorithm>
#include <map>

namespace lapx::graph {

namespace {

// Iterative colour refinement (1-WL): returns stable colour classes.
std::vector<int> refine_colors(const Graph& g, std::vector<int> colors) {
  for (int iteration = 0; iteration < g.num_vertices(); ++iteration) {
    std::map<std::pair<int, std::vector<int>>, int> signature_ids;
    std::vector<int> next(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      std::vector<int> neighbor_colors;
      for (Vertex u : g.neighbors(v)) neighbor_colors.push_back(colors[u]);
      std::sort(neighbor_colors.begin(), neighbor_colors.end());
      const auto key = std::pair{colors[v], std::move(neighbor_colors)};
      auto [it, inserted] =
          signature_ids.emplace(key, static_cast<int>(signature_ids.size()));
      next[v] = it->second;
    }
    if (next == colors) break;
    colors = std::move(next);
  }
  return colors;
}

// Backtracking matcher: maps vertices of g (in a fixed order) to vertices
// of h, respecting colours and adjacency.
class Matcher {
 public:
  Matcher(const Graph& g, const Graph& h, std::vector<int> cg,
          std::vector<int> ch)
      : g_(g), h_(h), cg_(std::move(cg)), ch_(std::move(ch)),
        map_(g.num_vertices(), -1), used_(h.num_vertices(), false) {}

  std::optional<std::vector<Vertex>> run(
      const std::vector<std::pair<Vertex, Vertex>>& pinned) {
    for (const auto& [a, b] : pinned) {
      if (cg_[a] != ch_[b]) return std::nullopt;
      map_[a] = b;
      used_[b] = true;
    }
    if (extend(0)) return map_;
    return std::nullopt;
  }

  // Counts complete extensions instead of stopping at the first.
  std::size_t count() {
    count_mode_ = true;
    extend(0);
    return solutions_;
  }

 private:
  bool consistent(Vertex v, Vertex w) const {
    if (cg_[v] != ch_[w]) return false;
    for (Vertex u : g_.neighbors(v)) {
      if (map_[u] == -1) continue;
      if (!h_.has_edge(w, map_[u])) return false;
    }
    // Reverse direction: mapped h-neighbours of w must be images of
    // g-neighbours of v.  Degree equality plus the forward check covers
    // this for full mappings, but we enforce it for pruning strength.
    for (Vertex x : h_.neighbors(w)) {
      for (Vertex u = 0; u < g_.num_vertices(); ++u) {
        if (map_[u] == x && !g_.has_edge(v, u)) return false;
      }
    }
    return true;
  }

  bool extend(Vertex v) {
    while (v < g_.num_vertices() && map_[v] != -1) ++v;
    if (v == g_.num_vertices()) {
      if (count_mode_) {
        ++solutions_;
        return false;  // keep searching
      }
      return true;
    }
    for (Vertex w = 0; w < h_.num_vertices(); ++w) {
      if (used_[w] || g_.degree(v) != h_.degree(w)) continue;
      if (!consistent(v, w)) continue;
      map_[v] = w;
      used_[w] = true;
      if (extend(v + 1)) return true;
      map_[v] = -1;
      used_[w] = false;
    }
    return false;
  }

  const Graph& g_;
  const Graph& h_;
  std::vector<int> cg_, ch_;
  std::vector<Vertex> map_;
  std::vector<bool> used_;
  bool count_mode_ = false;
  std::size_t solutions_ = 0;
};

bool basic_invariants_match(const Graph& g, const Graph& h) {
  if (g.num_vertices() != h.num_vertices()) return false;
  if (g.num_edges() != h.num_edges()) return false;
  std::vector<int> dg, dh;
  for (Vertex v = 0; v < g.num_vertices(); ++v) dg.push_back(g.degree(v));
  for (Vertex v = 0; v < h.num_vertices(); ++v) dh.push_back(h.degree(v));
  std::sort(dg.begin(), dg.end());
  std::sort(dh.begin(), dh.end());
  return dg == dh;
}

// Harmonised refinement: refine g and h *together* so colour ids are
// comparable across the two graphs.
std::pair<std::vector<int>, std::vector<int>> joint_refinement(
    const Graph& g, const Graph& h) {
  // Disjoint union, refine, split.
  std::vector<Edge> edges = g.edges();
  for (const auto& [u, v] : h.edges())
    edges.emplace_back(g.num_vertices() + u, g.num_vertices() + v);
  const Graph joint = Graph::from_edges(g.num_vertices() + h.num_vertices(),
                                        std::move(edges));
  auto colors =
      refine_colors(joint, std::vector<int>(joint.num_vertices(), 0));
  std::vector<int> cg(colors.begin(), colors.begin() + g.num_vertices());
  std::vector<int> ch(colors.begin() + g.num_vertices(), colors.end());
  return {std::move(cg), std::move(ch)};
}

}  // namespace

std::optional<std::vector<Vertex>> find_isomorphism(const Graph& g,
                                                    const Graph& h) {
  if (!basic_invariants_match(g, h)) return std::nullopt;
  auto [cg, ch] = joint_refinement(g, h);
  return Matcher(g, h, std::move(cg), std::move(ch)).run({});
}

bool are_isomorphic(const Graph& g, const Graph& h) {
  return find_isomorphism(g, h).has_value();
}

bool are_rooted_isomorphic(const Graph& g, Vertex root_g, const Graph& h,
                           Vertex root_h) {
  if (!basic_invariants_match(g, h)) return false;
  auto [cg, ch] = joint_refinement(g, h);
  return Matcher(g, h, std::move(cg), std::move(ch))
      .run({{root_g, root_h}})
      .has_value();
}

std::size_t count_automorphisms(const Graph& g) {
  auto [cg, ch] = joint_refinement(g, g);
  return Matcher(g, g, std::move(cg), std::move(ch)).count();
}

}  // namespace lapx::graph
