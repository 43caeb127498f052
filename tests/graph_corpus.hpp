#pragma once
// Seeded graphs shared by the builder and edge-list oracles (graph_test,
// graph_io_error_test): bounded-degree graphs with isolated vertices,
// random regular graphs, lifts, tori, forests, the empty and one-edge
// graphs, and graphs after remove_edge, whose edge ids are no longer in
// endpoint order.

#include <cstdint>
#include <random>
#include <vector>

#include "lapx/graph/generators.hpp"
#include "lapx/graph/graph.hpp"

namespace lapx::graph::corpus {

// Removes `count` random edges (fewer if g runs out).
inline void remove_random_edges(Graph& g, int count, std::mt19937_64& rng) {
  for (int k = 0; k < count && g.num_edges() > 0; ++k) {
    const auto [u, v] = g.edge(static_cast<EdgeId>(rng() % g.num_edges()));
    g.remove_edge(u, v);
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

}  // namespace lapx::graph::corpus
