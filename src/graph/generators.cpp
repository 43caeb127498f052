#include "lapx/graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "lapx/graph/lift.hpp"
#include "lapx/graph/port_numbering.hpp"

namespace lapx::graph {

Graph cycle(Vertex n) {
  if (n < 3) throw std::invalid_argument("cycle needs n >= 3");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (Vertex i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return Graph::from_edges(n, std::move(edges));
}

Graph path(Vertex n) {
  if (n < 1) throw std::invalid_argument("path needs n >= 1");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n - 1));
  for (Vertex i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::from_edges(n, std::move(edges));
}

Graph complete(Vertex n) {
  std::vector<Edge> edges;
  for (Vertex i = 0; i < n; ++i)
    for (Vertex j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  return Graph::from_edges(n, std::move(edges));
}

Graph complete_bipartite(Vertex a, Vertex b) {
  std::vector<Edge> edges;
  for (Vertex i = 0; i < a; ++i)
    for (Vertex j = 0; j < b; ++j) edges.emplace_back(i, a + j);
  return Graph::from_edges(a + b, std::move(edges));
}

Graph hypercube(int d) {
  if (d < 0 || d > 20) throw std::invalid_argument("hypercube dimension");
  const Vertex n = Vertex{1} << d;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * d / 2);
  for (Vertex v = 0; v < n; ++v)
    for (int b = 0; b < d; ++b) {
      const Vertex u = v ^ (Vertex{1} << b);
      if (v < u) edges.emplace_back(v, u);
    }
  return Graph::from_edges(n, std::move(edges));
}

Graph star(Vertex n) {
  if (n < 1) throw std::invalid_argument("star needs n >= 1");
  std::vector<Edge> edges;
  for (Vertex i = 1; i < n; ++i) edges.emplace_back(0, i);
  return Graph::from_edges(n, std::move(edges));
}

Graph binary_tree(int levels) {
  if (levels < 1) throw std::invalid_argument("binary tree needs levels >= 1");
  const Vertex n = (Vertex{1} << levels) - 1;
  std::vector<Edge> edges;
  for (Vertex v = 1; v < n; ++v) edges.emplace_back(v, (v - 1) / 2);
  return Graph::from_edges(n, std::move(edges));
}

Graph petersen() {
  std::vector<Edge> edges;
  for (Vertex i = 0; i < 5; ++i) {
    edges.emplace_back(i, (i + 1) % 5);          // outer pentagon
    edges.emplace_back(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    edges.emplace_back(i, 5 + i);                // spokes
  }
  return Graph::from_edges(10, std::move(edges));
}

Graph circulant(Vertex n, const std::vector<int>& offsets) {
  if (n < 0) throw std::invalid_argument("negative vertex count");
  std::vector<Edge> edges;
  for (int s : offsets) {
    if (s <= 0 || 2 * s > n)
      throw std::invalid_argument("circulant offset out of range");
    for (Vertex i = 0; i < n; ++i) edges.emplace_back(i, (i + s) % n);
  }
  // Offset n/2 names each of its edges twice.
  drop_repeated_edges(n, edges);
  return Graph::from_edges(n, std::move(edges));
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

// A set of unordered vertex pairs, open-addressed and stamped: clear()
// empties it in O(1), so random_regular's repair loop reuses one table
// across repairs instead of rebuilding a node-allocated set each time.
class PairTable {
 public:
  // Room for `capacity` pairs at load factor at most 1/2.
  explicit PairTable(std::size_t capacity) {
    std::size_t size = 16;
    while (size < 2 * capacity) size *= 2;
    keys_.resize(size);
    stamps_.assign(size, 0);
    shift_ = 64 - std::countr_zero(size);
  }

  void clear() {
    if (++stamp_ == 0) {  // wrapped: every stale stamp looks fresh again
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
  }

  bool contains(Vertex u, Vertex v) const {
    return stamps_[find(u, v)] == stamp_;
  }

  // Adds {u, v}; false if it was already there.
  bool insert(Vertex u, Vertex v) {
    const std::size_t h = find(u, v);
    if (stamps_[h] == stamp_) return false;
    stamps_[h] = stamp_;
    keys_[h] = key(u, v);
    return true;
  }

 private:
  static std::uint64_t key(Vertex u, Vertex v) {
    if (u > v) std::swap(u, v);
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32 |
           static_cast<std::uint32_t>(v);
  }

  // The slot holding {u, v}, or the empty slot where it would go.
  std::size_t find(Vertex u, Vertex v) const {
    const std::uint64_t k = key(u, v);
    const std::size_t mask = keys_.size() - 1;
    std::size_t h = k * 0x9e3779b97f4a7c15u >> shift_;
    while (stamps_[h] == stamp_ && keys_[h] != k) h = (h + 1) & mask;
    return h;
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t stamp_ = 1;
  int shift_ = 0;
};

}  // namespace

Graph torus(const std::vector<int>& dims) {
  // Every side is at least 3, so no step repeats an edge.
  const auto n = torus_size(dims);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * dims.size());
  for (std::int64_t x = 0; x < n; ++x) {
    auto coords = mixed_radix_decode(x, dims);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      auto next = coords;
      next[i] = (next[i] + 1) % dims[i];
      const auto y = mixed_radix_encode(next, dims);
      edges.emplace_back(static_cast<Vertex>(x), static_cast<Vertex>(y));
    }
  }
  return Graph::from_edges(static_cast<Vertex>(n), std::move(edges));
}

Graph grid(int rows, int cols) {
  if (rows < 1 || cols < 1) throw std::invalid_argument("grid dimensions");
  const std::int64_t total = static_cast<std::int64_t>(rows) * cols;
  if (total > std::numeric_limits<Vertex>::max())
    throw std::invalid_argument("grid too large to materialise");
  auto id = [cols](int r, int c) { return static_cast<Vertex>(r * cols + c); };
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(2 * total));
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  return Graph::from_edges(static_cast<Vertex>(total), std::move(edges));
}

Graph wheel(Vertex n) {
  if (n < 4) throw std::invalid_argument("wheel needs n >= 4");
  std::vector<Edge> edges;
  for (Vertex i = 1; i < n; ++i) {
    edges.emplace_back(0, i);
    edges.emplace_back(i, i + 1 < n ? i + 1 : 1);
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph ladder(int n) {
  if (n < 2) throw std::invalid_argument("ladder needs n >= 2");
  std::vector<Edge> edges;
  for (int i = 0; i < n; ++i) {
    if (i + 1 < n) {
      edges.emplace_back(i, i + 1);
      edges.emplace_back(n + i, n + i + 1);
    }
    edges.emplace_back(i, n + i);
  }
  return Graph::from_edges(2 * n, std::move(edges));
}

Graph prism(int n) {
  if (n < 3) throw std::invalid_argument("prism needs n >= 3");
  std::vector<Edge> edges;
  for (int i = 0; i < n; ++i) {
    edges.emplace_back(i, (i + 1) % n);
    edges.emplace_back(n + i, n + (i + 1) % n);
    edges.emplace_back(i, n + i);
  }
  return Graph::from_edges(2 * n, std::move(edges));
}

Graph generalized_petersen(int n, int k) {
  if (n < 3 || k < 1 || 2 * k >= n)
    throw std::invalid_argument("GP(n, k) needs 1 <= k < n/2");
  std::vector<Edge> edges;
  edges.reserve(3 * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    edges.emplace_back(i, (i + 1) % n);          // outer cycle
    edges.emplace_back(n + i, n + (i + k) % n);  // inner star polygon
    edges.emplace_back(i, n + i);                // spokes
  }
  return Graph::from_edges(2 * n, std::move(edges));
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
  PairTable seen(pairs);
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::vector<Vertex> stubs;
    stubs.reserve(2 * pairs);
    for (Vertex v = 0; v < n; ++v)
      for (int i = 0; i < d; ++i) stubs.push_back(v);
    std::shuffle(stubs.begin(), stubs.end(), rng);
    std::uniform_int_distribution<std::size_t> pick(0, pairs - 1);
    for (int repair = 0; repair < 200000; ++repair) {
      // Find the first bad pair (self-loop or duplicate edge).
      seen.clear();
      std::size_t bad = 0;
      while (bad < pairs && stubs[2 * bad] != stubs[2 * bad + 1] &&
             seen.insert(stubs[2 * bad], stubs[2 * bad + 1]))
        ++bad;
      if (bad == pairs) {
        std::vector<Edge> edges(pairs);
        for (std::size_t i = 0; i < pairs; ++i)
          edges[i] = {stubs[2 * i], stubs[2 * i + 1]};
        return Graph::from_edges(n, std::move(edges));
      }
      // Swap one endpoint of the bad pair with a random pair's endpoint.
      const std::size_t other = pick(rng);
      if (other == bad) continue;
      std::swap(stubs[2 * bad + 1], stubs[2 * other + 1]);
    }
  }
  throw std::runtime_error("random_regular: too many rejections");
}

Graph random_bounded_degree(Vertex n, std::size_t m, int max_deg,
                            std::mt19937_64& rng) {
  // Rejection sampling against the edges drawn so far.
  if (n < 0) throw std::invalid_argument("negative vertex count");
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  PairTable seen(m);
  std::vector<Edge> edges;
  edges.reserve(m);
  std::uniform_int_distribution<Vertex> pick(0, n - 1);
  for (int attempts = 0;
       edges.size() < m && attempts < 200 * static_cast<int>(m) + 1000;
       ++attempts) {
    const Vertex u = pick(rng), v = pick(rng);
    if (u == v || seen.contains(u, v)) continue;
    if (degree[static_cast<std::size_t>(u)] >= max_deg ||
        degree[static_cast<std::size_t>(v)] >= max_deg)
      continue;
    seen.insert(u, v);
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
    edges.emplace_back(u, v);
  }
  if (edges.size() < m)
    throw std::runtime_error("random_bounded_degree: could not place edges");
  return Graph::from_edges(n, std::move(edges));
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
