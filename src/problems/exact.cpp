#include "lapx/problems/exact.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "lapx/problems/matching.hpp"

namespace lapx::problems {

namespace {

using graph::EdgeId;
using graph::Graph;
using graph::Vertex;

// --- minimum vertex cover ---

// Branch on a maximum-degree vertex v: either v is in the cover, or all of
// its neighbours are.  Lower bound: size of a greedy matching among the
// remaining edges (each needs its own cover vertex).
class VertexCoverSolver {
 public:
  explicit VertexCoverSolver(const Graph& g)
      : g_(g), removed_(g.num_vertices(), false) {}

  std::size_t solve() {
    best_ = static_cast<std::size_t>(g_.num_vertices());
    branch(0);
    return best_;
  }

 private:
  int residual_degree(Vertex v) const {
    if (removed_[v]) return 0;
    int d = 0;
    for (Vertex u : g_.neighbors(v)) d += !removed_[u];
    return d;
  }

  std::size_t matching_lower_bound() const {
    std::vector<bool> used(g_.num_vertices(), false);
    std::size_t bound = 0;
    for (const auto& [u, v] : g_.edges())
      if (!removed_[u] && !removed_[v] && !used[u] && !used[v]) {
        used[u] = used[v] = true;
        ++bound;
      }
    return bound;
  }

  void take(Vertex v, std::vector<Vertex>& trail) {
    removed_[v] = true;
    trail.push_back(v);
  }

  void untake(const std::vector<Vertex>& trail) {
    for (Vertex v : trail) removed_[v] = false;
  }

  void branch(std::size_t current) {
    if (current + matching_lower_bound() >= best_) return;
    // Find a residual max-degree vertex.
    Vertex pick = -1;
    int best_deg = 0;
    for (Vertex v = 0; v < g_.num_vertices(); ++v) {
      const int d = residual_degree(v);
      if (d > best_deg) {
        best_deg = d;
        pick = v;
      }
    }
    if (pick == -1) {  // no residual edges: cover complete
      best_ = std::min(best_, current);
      return;
    }
    // Degree-1 and degree-2 chains are handled by the generic branching.
    {  // Branch 1: pick in cover.
      std::vector<Vertex> trail;
      take(pick, trail);
      branch(current + 1);
      untake(trail);
    }
    {  // Branch 2: all neighbours of pick in cover.
      std::vector<Vertex> trail;
      std::size_t added = 0;
      for (Vertex u : g_.neighbors(pick))
        if (!removed_[u]) {
          take(u, trail);
          ++added;
        }
      removed_[pick] = true;
      branch(current + added);
      removed_[pick] = false;
      untake(trail);
    }
  }

  const Graph& g_;
  std::vector<bool> removed_;
  std::size_t best_ = 0;
};

// --- minimum dominating set ---

class DominatingSetSolver {
 public:
  explicit DominatingSetSolver(const Graph& g)
      : g_(g), chosen_(g.num_vertices(), false),
        dominated_(g.num_vertices(), 0) {}

  std::size_t solve() {
    best_ = static_cast<std::size_t>(g_.num_vertices());
    branch(0);
    return best_;
  }

 private:
  std::size_t undominated_count() const {
    std::size_t c = 0;
    for (Vertex v = 0; v < g_.num_vertices(); ++v) c += dominated_[v] == 0;
    return c;
  }

  void choose(Vertex v) {
    chosen_[v] = true;
    ++dominated_[v];
    for (Vertex u : g_.neighbors(v)) ++dominated_[u];
  }

  void unchoose(Vertex v) {
    chosen_[v] = false;
    --dominated_[v];
    for (Vertex u : g_.neighbors(v)) --dominated_[u];
  }

  void branch(std::size_t current) {
    const std::size_t undominated = undominated_count();
    if (undominated == 0) {
      best_ = std::min(best_, current);
      return;
    }
    const std::size_t denom = static_cast<std::size_t>(g_.max_degree()) + 1;
    const std::size_t bound = (undominated + denom - 1) / denom;
    if (current + bound >= best_) return;
    // Pick the undominated vertex with the fewest candidate dominators --
    // a strong, classic heuristic.
    Vertex pick = -1;
    int fewest = -1;
    for (Vertex v = 0; v < g_.num_vertices(); ++v) {
      if (dominated_[v] != 0) continue;
      const int candidates = 1 + g_.degree(v);
      if (fewest == -1 || candidates < fewest) {
        fewest = candidates;
        pick = v;
      }
    }
    // Some vertex in N[pick] must be chosen.
    std::vector<Vertex> candidates{pick};
    for (Vertex u : g_.neighbors(pick)) candidates.push_back(u);
    for (Vertex c : candidates) {
      choose(c);
      branch(current + 1);
      unchoose(c);
    }
  }

  const Graph& g_;
  std::vector<bool> chosen_;
  std::vector<int> dominated_;
  std::size_t best_ = 0;
};

// --- minimum edge dominating set ---

class EdgeDominatingSetSolver {
 public:
  explicit EdgeDominatingSetSolver(const Graph& g)
      : g_(g), chosen_(g.num_edges(), false),
        cover_count_(g.num_vertices(), 0) {}

  std::size_t solve() {
    best_ = g_.num_edges() == 0 ? 0 : g_.num_edges();
    if (g_.num_edges() == 0) return 0;
    branch(0);
    return best_;
  }

 private:
  // An edge e = {u, v} is dominated iff a chosen edge touches u or v.
  bool dominated(EdgeId e) const {
    const auto [u, v] = g_.edge(e);
    return cover_count_[u] > 0 || cover_count_[v] > 0;
  }

  // Lower bound: greedy packing of undominated edges that are pairwise
  // "independent" (no single edge can dominate two of them): their
  // endpoint sets must be disjoint and non-adjacent.
  std::size_t packing_lower_bound() const {
    std::vector<bool> blocked(g_.num_vertices(), false);
    std::size_t packed = 0;
    for (EdgeId e = 0; e < static_cast<EdgeId>(g_.num_edges()); ++e) {
      if (dominated(e)) continue;
      const auto [u, v] = g_.edge(e);
      if (blocked[u] || blocked[v]) continue;
      bool adjacent_blocked = false;
      for (Vertex w : g_.neighbors(u))
        if (blocked[w]) adjacent_blocked = true;
      for (Vertex w : g_.neighbors(v))
        if (blocked[w]) adjacent_blocked = true;
      if (adjacent_blocked) continue;
      blocked[u] = blocked[v] = true;
      ++packed;
    }
    return packed;
  }

  void choose(EdgeId e) {
    chosen_[e] = true;
    const auto [u, v] = g_.edge(e);
    ++cover_count_[u];
    ++cover_count_[v];
  }

  void unchoose(EdgeId e) {
    chosen_[e] = false;
    const auto [u, v] = g_.edge(e);
    --cover_count_[u];
    --cover_count_[v];
  }

  void branch(std::size_t current) {
    EdgeId pick = -1;
    for (EdgeId e = 0; e < static_cast<EdgeId>(g_.num_edges()); ++e)
      if (!dominated(e)) {
        pick = e;
        break;
      }
    if (pick == -1) {
      best_ = std::min(best_, current);
      return;
    }
    if (current + packing_lower_bound() >= best_) return;
    // Some edge adjacent to `pick` (or pick itself) must be chosen.
    const auto [u, v] = g_.edge(pick);
    std::vector<EdgeId> candidates;
    for (EdgeId e : g_.incident_edges(u)) candidates.push_back(e);
    for (EdgeId e : g_.incident_edges(v))
      if (e != pick) candidates.push_back(e);
    for (EdgeId c : candidates) {
      choose(c);
      branch(current + 1);
      unchoose(c);
    }
  }

  const Graph& g_;
  std::vector<bool> chosen_;
  std::vector<int> cover_count_;
  std::size_t best_ = 0;
};

}  // namespace

std::size_t min_vertex_cover_size(const Graph& g) {
  return VertexCoverSolver(g).solve();
}

std::size_t max_independent_set_size(const Graph& g) {
  return static_cast<std::size_t>(g.num_vertices()) - min_vertex_cover_size(g);
}

std::size_t max_matching_size(const Graph& g) {
  return maximum_matching_size(g);
}

std::size_t min_edge_cover_size(const Graph& g) {
  // Gallai on the vertices that have edges: edge_cover() leaves isolated
  // vertices uncovered (its checkers accept them vacuously).
  std::size_t covered = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) covered += g.degree(v) > 0;
  return covered - max_matching_size(g);
}

std::size_t min_dominating_set_size(const Graph& g) {
  return DominatingSetSolver(g).solve();
}

std::size_t min_edge_dominating_set_size(const Graph& g) {
  return EdgeDominatingSetSolver(g).solve();
}

std::size_t exact_optimum(const Problem& p, const Graph& g) {
  if (p.name == vertex_cover().name) return min_vertex_cover_size(g);
  if (p.name == edge_cover().name) return min_edge_cover_size(g);
  if (p.name == maximum_matching().name) return max_matching_size(g);
  if (p.name == independent_set().name) return max_independent_set_size(g);
  if (p.name == dominating_set().name) return min_dominating_set_size(g);
  if (p.name == edge_dominating_set().name)
    return min_edge_dominating_set_size(g);
  throw std::invalid_argument("unknown problem: " + p.name);
}

Bounds eds_bounds(const Graph& g) {
  Bounds b;
  const std::size_t nu = maximum_matching_size(g);
  b.lower = (nu + 1) / 2;
  // A maximal matching dominates every edge.
  const auto maximal = greedy_maximal_matching(g);
  b.upper = static_cast<std::size_t>(
      std::count(maximal.begin(), maximal.end(), true));
  return b;
}

Bounds mds_bounds(const Graph& g) {
  Bounds b;
  const std::size_t denom = static_cast<std::size_t>(g.max_degree()) + 1;
  b.lower = (static_cast<std::size_t>(g.num_vertices()) + denom - 1) / denom;
  // Greedy: repeatedly choose the vertex dominating the most undominated.
  std::vector<int> dominated(g.num_vertices(), 0);
  std::size_t remaining = static_cast<std::size_t>(g.num_vertices());
  b.upper = 0;
  while (remaining > 0) {
    Vertex best_v = 0;
    int best_gain = -1;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      int gain = dominated[v] == 0 ? 1 : 0;
      for (Vertex u : g.neighbors(v)) gain += dominated[u] == 0;
      if (gain > best_gain) {
        best_gain = gain;
        best_v = v;
      }
    }
    if (dominated[best_v]++ == 0) --remaining;
    for (Vertex u : g.neighbors(best_v))
      if (dominated[u]++ == 0) --remaining;
    ++b.upper;
  }
  return b;
}

Bounds vc_bounds(const Graph& g) {
  Bounds b;
  b.lower = maximum_matching_size(g);
  const auto maximal = greedy_maximal_matching(g);
  b.upper = 2 * static_cast<std::size_t>(
                    std::count(maximal.begin(), maximal.end(), true));
  return b;
}

std::size_t cycle_min_vertex_cover(std::size_t n) { return (n + 1) / 2; }
std::size_t cycle_max_independent_set(std::size_t n) { return n / 2; }
std::size_t cycle_max_matching(std::size_t n) { return n / 2; }
std::size_t cycle_min_edge_cover(std::size_t n) { return (n + 1) / 2; }
std::size_t cycle_min_dominating_set(std::size_t n) { return (n + 2) / 3; }
std::size_t cycle_min_edge_dominating_set(std::size_t n) { return (n + 2) / 3; }

}  // namespace lapx::problems
