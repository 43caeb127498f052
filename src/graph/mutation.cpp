#include "lapx/graph/mutation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "ball_scratch.hpp"

// apply_edits lives in graph.cpp: it edits the CSR in place.

namespace lapx::graph {

std::vector<Vertex> affected_frontier(const Graph& g,
                                      std::span<const EdgeEdit> edits, int r) {
  const Vertex n = g.num_vertices();
  if (r < 0) throw std::invalid_argument("negative radius");

  // Reconstruct the pre-edit degrees of the edit endpoints from the
  // post-edit graph: an add raised both endpoint degrees by one, a remove
  // lowered them; every other vertex kept its degree.  If the maximum
  // degree moved, the port-label alphabet Delta^2 moved with it and every
  // arc label in the induced L-digraph is suspect.
  std::vector<std::pair<Vertex, int>> old_degree;  // (endpoint, degree)
  for (const EdgeEdit& e : edits)
    for (Vertex x : {e.u, e.v}) {
      if (x < 0 || x >= n) throw MutationError("edit endpoint out of range");
      old_degree.emplace_back(x, g.degree(x));
    }
  std::sort(old_degree.begin(), old_degree.end());
  old_degree.erase(std::unique(old_degree.begin(), old_degree.end()),
                   old_degree.end());
  for (const EdgeEdit& e : edits)
    for (Vertex x : {e.u, e.v})
      std::lower_bound(old_degree.begin(), old_degree.end(),
                       std::pair<Vertex, int>{x, -1})
          ->second += e.kind == EdgeEdit::Kind::kAdd ? -1 : 1;
  int new_max = 0, old_max = 0;
  auto endpoint = old_degree.begin();
  for (Vertex v = 0; v < n; ++v) {
    const int d = g.degree(v);
    new_max = std::max(new_max, d);
    if (endpoint != old_degree.end() && endpoint->first == v)
      old_max = std::max(old_max, (endpoint++)->second);
    else
      old_max = std::max(old_max, d);
  }
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
  detail::BallScratch& s = detail::thread_ball_scratch();
  s.begin(static_cast<std::size_t>(n));
  const auto reach = [&](Vertex w, int depth) {
    const auto wi = static_cast<std::size_t>(w);
    if (s.stamp[wi] == s.epoch) return;
    s.stamp[wi] = s.epoch;
    s.dist[wi] = depth;
    s.queue.push_back(w);
  };
  for (const EdgeEdit& e : edits)
    for (Vertex x : {e.u, e.v}) reach(x, 0);
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const Vertex v = s.queue[head];
    const int d = s.dist[static_cast<std::size_t>(v)];
    if (d == r) continue;
    for (Vertex w : g.neighbors(v)) reach(w, d + 1);
    for (auto it = std::lower_bound(removed.begin(), removed.end(),
                                    std::pair<Vertex, Vertex>{v, -1});
         it != removed.end() && it->first == v; ++it)
      reach(it->second, d + 1);
  }
  std::vector<Vertex> frontier = s.queue;
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

}  // namespace lapx::graph
