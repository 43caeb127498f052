#include "lapx/graph/generators.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>

#include "lapx/graph/lift.hpp"
#include "lapx/graph/port_numbering.hpp"

namespace lapx::graph {

Graph cycle(Vertex n) {
  if (n < 3) throw std::invalid_argument("cycle needs n >= 3");
  Graph g(n);
  for (Vertex i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  return g;
}

Graph path(Vertex n) {
  if (n < 1) throw std::invalid_argument("path needs n >= 1");
  Graph g(n);
  for (Vertex i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph complete(Vertex n) {
  Graph g(n);
  for (Vertex i = 0; i < n; ++i)
    for (Vertex j = i + 1; j < n; ++j) g.add_edge(i, j);
  return g;
}

Graph complete_bipartite(Vertex a, Vertex b) {
  Graph g(a + b);
  for (Vertex i = 0; i < a; ++i)
    for (Vertex j = 0; j < b; ++j) g.add_edge(i, a + j);
  return g;
}

Graph hypercube(int d) {
  if (d < 0 || d > 20) throw std::invalid_argument("hypercube dimension");
  const Vertex n = Vertex{1} << d;
  Graph g(n);
  for (Vertex v = 0; v < n; ++v)
    for (int b = 0; b < d; ++b) {
      const Vertex u = v ^ (Vertex{1} << b);
      if (v < u) g.add_edge(v, u);
    }
  return g;
}

Graph star(Vertex n) {
  if (n < 1) throw std::invalid_argument("star needs n >= 1");
  Graph g(n);
  for (Vertex i = 1; i < n; ++i) g.add_edge(0, i);
  return g;
}

Graph binary_tree(int levels) {
  if (levels < 1) throw std::invalid_argument("binary tree needs levels >= 1");
  const Vertex n = (Vertex{1} << levels) - 1;
  Graph g(n);
  for (Vertex v = 1; v < n; ++v) g.add_edge(v, (v - 1) / 2);
  return g;
}

Graph petersen() {
  Graph g(10);
  for (Vertex i = 0; i < 5; ++i) {
    g.add_edge(i, (i + 1) % 5);        // outer pentagon
    g.add_edge(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    g.add_edge(i, 5 + i);              // spokes
  }
  return g;
}

Graph circulant(Vertex n, const std::vector<int>& offsets) {
  Graph g(n);
  std::set<std::pair<Vertex, Vertex>> seen;
  for (int s : offsets) {
    if (s <= 0 || 2 * s > n)
      throw std::invalid_argument("circulant offset out of range");
    for (Vertex i = 0; i < n; ++i) {
      Vertex u = i, v = static_cast<Vertex>((i + s) % n);
      if (u > v) std::swap(u, v);
      if (u == v) continue;
      if (seen.insert({u, v}).second) g.add_edge(u, v);
    }
  }
  return g;
}

namespace {

std::vector<int> mixed_radix_decode(std::int64_t x, const std::vector<int>& dims) {
  std::vector<int> coords(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    coords[i] = static_cast<int>(x % dims[i]);
    x /= dims[i];
  }
  return coords;
}

std::int64_t mixed_radix_encode(const std::vector<int>& coords,
                                const std::vector<int>& dims) {
  std::int64_t x = 0;
  for (std::size_t i = dims.size(); i-- > 0;) x = x * dims[i] + coords[i];
  return x;
}

std::int64_t torus_size(const std::vector<int>& dims) {
  std::int64_t n = 1;
  for (int d : dims) {
    if (d < 3) throw std::invalid_argument("torus side must be >= 3");
    n *= d;
    if (n > std::numeric_limits<Vertex>::max())
      throw std::invalid_argument("torus too large to materialise");
  }
  return n;
}

}  // namespace

Graph torus(const std::vector<int>& dims) {
  const auto n = torus_size(dims);
  Graph g(static_cast<Vertex>(n));
  for (std::int64_t x = 0; x < n; ++x) {
    auto coords = mixed_radix_decode(x, dims);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      auto next = coords;
      next[i] = (next[i] + 1) % dims[i];
      const auto y = mixed_radix_encode(next, dims);
      if (!g.has_edge(static_cast<Vertex>(x), static_cast<Vertex>(y)))
        g.add_edge(static_cast<Vertex>(x), static_cast<Vertex>(y));
    }
  }
  return g;
}

Graph grid(int rows, int cols) {
  if (rows < 1 || cols < 1) throw std::invalid_argument("grid dimensions");
  const std::int64_t total = static_cast<std::int64_t>(rows) * cols;
  if (total > std::numeric_limits<Vertex>::max())
    throw std::invalid_argument("grid too large to materialise");
  Graph g(static_cast<Vertex>(total));
  auto id = [cols](int r, int c) { return static_cast<Vertex>(r * cols + c); };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  return g;
}

Graph wheel(Vertex n) {
  if (n < 4) throw std::invalid_argument("wheel needs n >= 4");
  Graph g(n);
  for (Vertex i = 1; i < n; ++i) {
    g.add_edge(0, i);
    g.add_edge(i, i + 1 < n ? i + 1 : 1);
  }
  return g;
}

Graph ladder(int n) {
  if (n < 2) throw std::invalid_argument("ladder needs n >= 2");
  Graph g(2 * n);
  for (int i = 0; i < n; ++i) {
    if (i + 1 < n) {
      g.add_edge(i, i + 1);
      g.add_edge(n + i, n + i + 1);
    }
    g.add_edge(i, n + i);
  }
  return g;
}

Graph prism(int n) {
  if (n < 3) throw std::invalid_argument("prism needs n >= 3");
  Graph g(2 * n);
  for (int i = 0; i < n; ++i) {
    g.add_edge(i, (i + 1) % n);
    g.add_edge(n + i, n + (i + 1) % n);
    g.add_edge(i, n + i);
  }
  return g;
}

Graph generalized_petersen(int n, int k) {
  if (n < 3 || k < 1 || 2 * k >= n)
    throw std::invalid_argument("GP(n, k) needs 1 <= k < n/2");
  Graph g(2 * n);
  for (int i = 0; i < n; ++i) {
    g.add_edge(i, (i + 1) % n);          // outer cycle
    g.add_edge(n + i, n + (i + k) % n);  // inner star polygon
    g.add_edge(i, n + i);                // spokes
  }
  return g;
}

Graph random_regular(Vertex n, int d, std::mt19937_64& rng) {
  if (d >= n || (static_cast<std::int64_t>(n) * d) % 2 != 0)
    throw std::invalid_argument("random_regular needs d < n and n*d even");
  // Pairing model with double-edge-swap repair: a random perfect matching
  // on the stubs usually contains a few self-loops / parallel pairs; swap
  // endpoints with random other pairs until the pairing is simple.  This
  // keeps the distribution close to uniform and works for dense d where
  // naive whole-pairing rejection almost never succeeds.
  const std::size_t pairs = static_cast<std::size_t>(n) * d / 2;
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::vector<Vertex> stubs;
    stubs.reserve(2 * pairs);
    for (Vertex v = 0; v < n; ++v)
      for (int i = 0; i < d; ++i) stubs.push_back(v);
    std::shuffle(stubs.begin(), stubs.end(), rng);
    std::uniform_int_distribution<std::size_t> pick(0, pairs - 1);
    bool ok = false;
    for (int repair = 0; repair < 200000; ++repair) {
      // Find a bad pair (self-loop or duplicate edge).
      std::set<std::pair<Vertex, Vertex>> edges;
      std::size_t bad = pairs;
      for (std::size_t i = 0; i < pairs; ++i) {
        Vertex u = stubs[2 * i], v = stubs[2 * i + 1];
        if (u > v) std::swap(u, v);
        if (u == v || !edges.insert({u, v}).second) {
          bad = i;
          break;
        }
      }
      if (bad == pairs) {
        ok = true;
        break;
      }
      // Swap one endpoint of the bad pair with a random pair's endpoint.
      const std::size_t other = pick(rng);
      if (other == bad) continue;
      std::swap(stubs[2 * bad + 1], stubs[2 * other + 1]);
    }
    if (!ok) continue;
    Graph g(n);
    bool simple = true;
    for (std::size_t i = 0; i < pairs && simple; ++i) {
      const Vertex u = stubs[2 * i], v = stubs[2 * i + 1];
      if (u == v || g.has_edge(u, v))
        simple = false;
      else
        g.add_edge(u, v);
    }
    if (simple) return g;
  }
  throw std::runtime_error("random_regular: too many rejections");
}

Graph random_bounded_degree(Vertex n, std::size_t m, int max_deg,
                            std::mt19937_64& rng) {
  Graph g(n);
  std::uniform_int_distribution<Vertex> pick(0, n - 1);
  std::size_t added = 0;
  for (int attempts = 0; added < m && attempts < 200 * static_cast<int>(m) + 1000;
       ++attempts) {
    const Vertex u = pick(rng), v = pick(rng);
    if (u == v || g.has_edge(u, v)) continue;
    if (g.degree(u) >= max_deg || g.degree(v) >= max_deg) continue;
    g.add_edge(u, v);
    ++added;
  }
  if (added < m)
    throw std::runtime_error("random_bounded_degree: could not place edges");
  return g;
}

Graph lifted_torus(int a, int b, int layers, std::uint64_t seed) {
  if (layers < 1) throw std::invalid_argument("lifted_torus needs layers >= 1");
  const Graph base = torus({a, b});
  const LDigraph ld = to_ldigraph(base);
  std::mt19937_64 rng(seed);
  return random_lift(ld, layers, rng).graph.underlying_graph();
}

LDigraph directed_cycle(Vertex n) {
  if (n < 3) throw std::invalid_argument("directed_cycle needs n >= 3");
  std::vector<Arc> arcs;
  arcs.reserve(static_cast<std::size_t>(n));
  for (Vertex i = 0; i < n; ++i) arcs.push_back({i, (i + 1) % n, 0});
  return LDigraph::from_arcs(n, 1, std::move(arcs));
}

LDigraph directed_torus(const std::vector<int>& dims) {
  const auto n = torus_size(dims);
  std::vector<Arc> arcs;
  arcs.reserve(static_cast<std::size_t>(n) * dims.size());
  for (std::int64_t x = 0; x < n; ++x) {
    auto coords = mixed_radix_decode(x, dims);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      auto next = coords;
      next[i] = (next[i] + 1) % dims[i];
      const auto y = mixed_radix_encode(next, dims);
      arcs.push_back({static_cast<Vertex>(x), static_cast<Vertex>(y),
                      static_cast<Label>(i)});
    }
  }
  return LDigraph::from_arcs(static_cast<Vertex>(n),
                             static_cast<Label>(dims.size()), std::move(arcs));
}

}  // namespace lapx::graph
