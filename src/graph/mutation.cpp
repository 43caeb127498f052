#include "lapx/graph/mutation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

// apply_edits lives in graph.cpp: it edits the CSR in place.

namespace lapx::graph {

std::vector<Vertex> affected_frontier(const Graph& g,
                                      std::span<const EdgeEdit> edits, int r) {
  const Vertex n = g.num_vertices();
  if (r < 0) throw std::invalid_argument("negative radius");

  // Reconstruct the pre-edit degrees from the post-edit graph: an add
  // raised both endpoint degrees by one, a remove lowered them.  If the
  // maximum degree moved, the port-label alphabet Delta^2 moved with it
  // and every arc label in the induced L-digraph is suspect.
  std::vector<int> old_degree(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v)
    old_degree[static_cast<std::size_t>(v)] = g.degree(v);
  for (const EdgeEdit& e : edits) {
    const int shift = e.kind == EdgeEdit::Kind::kAdd ? -1 : 1;
    for (Vertex x : {e.u, e.v}) {
      if (x < 0 || x >= n) throw MutationError("edit endpoint out of range");
      old_degree[static_cast<std::size_t>(x)] += shift;
    }
  }
  const int new_max = g.max_degree();
  int old_max = 0;
  for (int d : old_degree) old_max = std::max(old_max, d);
  if (old_max != new_max) {
    std::vector<Vertex> all(static_cast<std::size_t>(n));
    for (Vertex v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
    return all;
  }
  return ball_frontier(g, edits, r);
}

std::vector<Vertex> ball_frontier(const Graph& g,
                                  std::span<const EdgeEdit> edits, int r) {
  const Vertex n = g.num_vertices();
  if (r < 0) throw std::invalid_argument("negative radius");
  // BFS to depth r from every edit endpoint over the union adjacency:
  // g's neighbors plus the endpoints of removed edges (the old graph had
  // those edges, and information about their disappearance travels along
  // them).  Removed-edge adjacency is tiny, so it rides in a sorted side
  // list of (endpoint, other endpoint) pairs.
  std::vector<std::pair<Vertex, Vertex>> removed;
  for (const EdgeEdit& e : edits) {
    if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n)
      throw MutationError("edit endpoint out of range");
    if (e.kind == EdgeEdit::Kind::kRemove) {
      removed.emplace_back(e.u, e.v);
      removed.emplace_back(e.v, e.u);
    }
  }
  std::sort(removed.begin(), removed.end());
  std::vector<int> depth(static_cast<std::size_t>(n), -1);
  std::vector<Vertex> queue;
  for (const EdgeEdit& e : edits)
    for (Vertex x : {e.u, e.v})
      if (depth[static_cast<std::size_t>(x)] < 0) {
        depth[static_cast<std::size_t>(x)] = 0;
        queue.push_back(x);
      }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    const int d = depth[static_cast<std::size_t>(v)];
    if (d == r) continue;
    auto visit = [&](Vertex w) {
      if (depth[static_cast<std::size_t>(w)] < 0) {
        depth[static_cast<std::size_t>(w)] = d + 1;
        queue.push_back(w);
      }
    };
    for (Vertex w : g.neighbors(v)) visit(w);
    for (auto it = std::lower_bound(removed.begin(), removed.end(),
                                    std::pair<Vertex, Vertex>{v, -1});
         it != removed.end() && it->first == v; ++it)
      visit(it->second);
  }
  std::sort(queue.begin(), queue.end());
  return queue;
}

}  // namespace lapx::graph
