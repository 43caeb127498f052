#pragma once
// Seeded graphs shared by the builder and edge-list oracles (graph_test,
// graph_io_error_test): bounded-degree graphs with isolated vertices,
// random regular graphs, lifts, tori, forests, the empty and one-edge
// graphs, and graphs after edge removals, whose edge ids are no longer in
// endpoint order.  Also seeded edge-edit batches for the mutation oracles
// (order_test, service_test).

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "lapx/graph/generators.hpp"
#include "lapx/graph/graph.hpp"
#include "lapx/graph/mutation.hpp"

namespace lapx::graph::corpus {

// Removes `count` random edges (fewer if g runs out).
inline void remove_random_edges(Graph& g, int count, std::mt19937_64& rng) {
  for (int k = 0; k < count && g.num_edges() > 0; ++k) {
    const auto [u, v] = g.edge(static_cast<EdgeId>(rng() % g.num_edges()));
    const EdgeEdit remove{EdgeEdit::Kind::kRemove, u, v};
    apply_edits(g, std::span(&remove, 1));
  }
}

// 4 fixed graphs plus 6 generated ones per round.
inline std::vector<Graph> builder_graphs(std::uint64_t seed, int rounds) {
  std::mt19937_64 rng(seed);
  std::vector<Graph> out{Graph(0), Graph(1), Graph(5), path(2)};
  for (int k = 0; k < rounds; ++k) {
    const auto n = static_cast<Vertex>(2 + rng() % 40);
    const int max_deg = 1 + static_cast<int>(rng() % 5);
    // At most n * max_deg / 4 edges: sparse enough to leave isolated
    // vertices and to be placed without rejection trouble.
    const auto m = static_cast<std::size_t>(rng() % (n * max_deg / 4 + 1));
    out.push_back(random_bounded_degree(n, m, max_deg, rng));

    const int d = 1 + static_cast<int>(rng() % 4);
    auto rn = static_cast<Vertex>(d + 1 + rng() % 20);
    if (rn * d % 2 != 0) ++rn;
    out.push_back(random_regular(rn, d, rng));

    out.push_back(lifted_torus(3, 3, 1 + static_cast<int>(rng() % 4), rng()));
    out.push_back(torus({3 + static_cast<int>(rng() % 4),
                         3 + static_cast<int>(rng() % 4)}));

    Graph forest = binary_tree(1 + static_cast<int>(rng() % 5));
    remove_random_edges(forest, static_cast<int>(rng() % 4), rng);
    out.push_back(std::move(forest));

    Graph edited = random_regular(rn, d, rng);
    remove_random_edges(edited, 1 + static_cast<int>(rng() % 6), rng);
    out.push_back(std::move(edited));
  }
  return out;
}

// A seeded batch of edge edits, valid against g when applied in order, of
// one drawn kind: a single remove, a single add, a degree-preserving
// 2-switch, isolating a vertex, an add at a maximum-degree vertex (the
// maximum degree grows), or a mix of 2-4 adds and removes.  Empty when g
// admits none of the drawn kind.
inline std::vector<EdgeEdit> random_edit_batch(const Graph& g,
                                               std::mt19937_64& rng) {
  Graph h = g;
  const Vertex n = h.num_vertices();
  std::vector<EdgeEdit> batch;
  auto random_vertex = [&] { return static_cast<Vertex>(rng() % n); };
  auto remove = [&](Vertex u, Vertex v) {
    batch.push_back({EdgeEdit::Kind::kRemove, u, v});
    apply_edits(h, std::span(&batch.back(), 1));
  };
  auto add = [&](Vertex u, Vertex v) {
    if (u == v || h.has_edge(u, v)) return false;
    batch.push_back({EdgeEdit::Kind::kAdd, u, v});
    apply_edits(h, std::span(&batch.back(), 1));
    return true;
  };
  auto remove_random = [&] {
    if (h.num_edges() == 0) return;
    const auto [u, v] = h.edge(static_cast<EdgeId>(rng() % h.num_edges()));
    remove(u, v);
  };
  auto add_random = [&] {
    for (int tries = 0; n >= 2 && tries < 20; ++tries)
      if (add(random_vertex(), random_vertex())) return;
  };
  switch (rng() % 6) {
    case 0:
      remove_random();
      break;
    case 1:
      add_random();
      break;
    case 2: {  // {a,b},{c,d} -> {a,c},{b,d}
      if (h.num_edges() < 2) break;
      auto [a, b] = h.edge(static_cast<EdgeId>(rng() % h.num_edges()));
      auto [c, d] = h.edge(static_cast<EdgeId>(rng() % h.num_edges()));
      if (rng() % 2) std::swap(c, d);
      if (a == c || a == d || b == c || b == d || h.has_edge(a, c) ||
          h.has_edge(b, d))
        break;
      remove(a, b);
      remove(c, d);
      add(a, c);
      add(b, d);
      break;
    }
    case 3: {  // isolate a vertex
      if (n == 0) break;
      const Vertex v = random_vertex();
      while (h.degree(v) > 0) remove(v, h.neighbors(v)[0]);
      break;
    }
    case 4: {  // grow the maximum degree
      for (Vertex v = 0; v < n; ++v)
        if (h.degree(v) == h.max_degree()) {
          for (int tries = 0; tries < 20; ++tries)
            if (add(v, random_vertex())) break;
          break;
        }
      break;
    }
    default: {
      const int count = 2 + static_cast<int>(rng() % 3);
      for (int k = 0; k < count; ++k) {
        if (rng() % 2)
          remove_random();
        else
          add_random();
      }
    }
  }
  return batch;
}

}  // namespace lapx::graph::corpus
