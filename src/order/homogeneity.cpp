#include "lapx/order/homogeneity.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "lapx/graph/properties.hpp"
#include "lapx/runtime/parallel.hpp"

namespace lapx::order {

std::vector<int> ranks_from_keys(const Keys& keys) {
  std::vector<std::size_t> idx(keys.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  std::vector<int> ranks(keys.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (i > 0 && keys[idx[i]] == keys[idx[i - 1]])
      throw std::invalid_argument("order keys are not distinct");
    ranks[idx[i]] = static_cast<int>(i);
  }
  return ranks;
}

Keys identity_keys(Vertex n) {
  Keys keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), 0);
  return keys;
}

namespace {

// Ball vertices sorted by key, plus a position index old-vertex -> index.
// The index is a vertex-sorted vector probed by binary search: balls are
// small, so lower_bound beats a hash map and allocates one flat block.
struct SortedBall {
  std::vector<Vertex> vertices;                  // sorted by key ascending
  std::vector<std::pair<Vertex, int>> position;  // sorted by vertex id
  int root_pos = -1;

  int find(Vertex w) const {
    const auto it = std::lower_bound(
        position.begin(), position.end(), w,
        [](const std::pair<Vertex, int>& p, Vertex v) { return p.first < v; });
    return it != position.end() && it->first == w ? it->second : -1;
  }
};

SortedBall sorted_ball(const std::vector<Vertex>& ball_vertices,
                       const Keys& keys, Vertex root) {
  SortedBall sb;
  sb.vertices = ball_vertices;
  std::sort(sb.vertices.begin(), sb.vertices.end(),
            [&](Vertex a, Vertex b) { return keys.at(a) < keys.at(b); });
  sb.position.reserve(sb.vertices.size());
  for (std::size_t i = 0; i < sb.vertices.size(); ++i)
    sb.position.emplace_back(sb.vertices[i], static_cast<int>(i));
  std::sort(sb.position.begin(), sb.position.end());
  sb.root_pos = sb.find(root);
  return sb;
}

// Reusable per-thread BFS scratch with epoch-stamped visited marks: bulk
// typing (measure_homogeneity, materialize_homogeneous) calls the ball
// extractor once per vertex, and a fresh O(n) dist vector per call turned
// those sweeps quadratic on ~3e5-vertex Cayley graphs.  The stamp array is
// only ever grown; a bumped epoch invalidates all marks at once.
struct BallScratch {
  std::vector<std::uint32_t> stamp;
  std::vector<int> dist;
  std::vector<Vertex> queue;
  std::uint32_t epoch = 0;

  void begin(std::size_t n) {
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      dist.resize(n, 0);
    }
    if (++epoch == 0) {  // wrapped: every stale stamp looks fresh again
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    queue.clear();
  }
  bool seen(Vertex v) const {
    return stamp[static_cast<std::size_t>(v)] == epoch;
  }
  void mark(Vertex v, int d) {
    stamp[static_cast<std::size_t>(v)] = epoch;
    dist[static_cast<std::size_t>(v)] = d;
  }
};

BallScratch& ball_scratch() {
  static thread_local BallScratch scratch;
  return scratch;
}

// Ball in the underlying graph of an L-digraph (arcs traversed both ways).
std::vector<Vertex> digraph_ball(const LDigraph& d, Vertex v, int r) {
  if (v < 0 || v >= d.num_vertices())
    throw std::out_of_range("digraph_ball: root out of range");
  BallScratch& s = ball_scratch();
  s.begin(static_cast<std::size_t>(d.num_vertices()));
  s.mark(v, 0);
  s.queue.push_back(v);
  std::vector<Vertex> members{v};
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const Vertex u = s.queue[head];
    if (s.dist[static_cast<std::size_t>(u)] == r) continue;
    const int next = s.dist[static_cast<std::size_t>(u)] + 1;
    auto visit = [&](Vertex w) {
      if (!s.seen(w)) {
        s.mark(w, next);
        s.queue.push_back(w);
        members.push_back(w);
      }
    };
    for (const auto& [l, w] : d.out_arcs(u)) {
      (void)l;
      visit(w);
    }
    for (const auto& [l, w] : d.in_arcs(u)) {
      (void)l;
      visit(w);
    }
  }
  return members;
}

// The canonical content of an ordered ball: (size, root position, sorted
// edge/arc list over key-rank positions).  Both the text spelling and the
// interned binary key render exactly this tuple, so they induce the same
// equivalence.
std::vector<std::pair<int, int>> collect_edges(const Graph& g,
                                               const SortedBall& sb) {
  std::vector<std::pair<int, int>> edges;
  for (std::size_t i = 0; i < sb.vertices.size(); ++i) {
    for (Vertex w : g.neighbors(sb.vertices[i])) {
      const int pos = sb.find(w);
      if (pos >= 0 && static_cast<int>(i) < pos)
        edges.emplace_back(static_cast<int>(i), pos);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::vector<std::tuple<int, int, Label>> collect_arcs(const LDigraph& d,
                                                      const SortedBall& sb) {
  std::vector<std::tuple<int, int, Label>> arcs;
  for (std::size_t i = 0; i < sb.vertices.size(); ++i) {
    for (const auto& [l, w] : d.out_arcs(sb.vertices[i])) {
      const int pos = sb.find(w);
      if (pos >= 0) arcs.emplace_back(static_cast<int>(i), pos, l);
    }
  }
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

void append_u32(std::string& key, std::uint32_t x) {
  for (int b = 0; b < 4; ++b)
    key.push_back(static_cast<char>((x >> (8 * b)) & 0xFF));
}

// The interner key of ordered_ball_type_id, written into `key`.
void ordered_ball_key(const Graph& g, const Keys& keys, Vertex v, int r,
                      std::string& key) {
  const auto members = graph::ball(g, v, r);
  const auto sb = sorted_ball(members, keys, v);
  const auto edges = collect_edges(g, sb);
  key.clear();
  key.reserve(1 + 8 + 8 * edges.size());
  key.push_back('\x02');  // domain byte: ordered graph ball
  append_u32(key, static_cast<std::uint32_t>(sb.vertices.size()));
  append_u32(key, static_cast<std::uint32_t>(sb.root_pos));
  for (const auto& [a, b] : edges) {
    append_u32(key, static_cast<std::uint32_t>(a));
    append_u32(key, static_cast<std::uint32_t>(b));
  }
}

void ordered_ball_key(const LDigraph& d, const Keys& keys, Vertex v, int r,
                      std::string& key) {
  const auto members = digraph_ball(d, v, r);
  const auto sb = sorted_ball(members, keys, v);
  const auto arcs = collect_arcs(d, sb);
  key.clear();
  key.reserve(1 + 8 + 12 * arcs.size());
  key.push_back('\x03');  // domain byte: ordered L-digraph ball
  append_u32(key, static_cast<std::uint32_t>(sb.vertices.size()));
  append_u32(key, static_cast<std::uint32_t>(sb.root_pos));
  for (const auto& [a, b, l] : arcs) {
    append_u32(key, static_cast<std::uint32_t>(a));
    append_u32(key, static_cast<std::uint32_t>(b));
    append_u32(key, static_cast<std::uint32_t>(l));
  }
}

}  // namespace

std::string ordered_ball_type(const Graph& g, const Keys& keys, Vertex v,
                              int r) {
  const auto members = graph::ball(g, v, r);
  const auto sb = sorted_ball(members, keys, v);
  std::string out = "b=" + std::to_string(sb.vertices.size()) +
                    ";root=" + std::to_string(sb.root_pos) + ";e:";
  for (const auto& [a, b] : collect_edges(g, sb)) {
    out += std::to_string(a);
    out += '-';
    out += std::to_string(b);
    out += ',';
  }
  return out;
}

std::string ordered_ball_type(const LDigraph& d, const Keys& keys, Vertex v,
                              int r) {
  const auto members = digraph_ball(d, v, r);
  const auto sb = sorted_ball(members, keys, v);
  std::string out = "b=" + std::to_string(sb.vertices.size()) +
                    ";root=" + std::to_string(sb.root_pos) + ";a:";
  for (const auto& [a, b, l] : collect_arcs(d, sb)) {
    out += std::to_string(a);
    out += '>';
    out += std::to_string(b);
    out += '#';
    out += std::to_string(l);
    out += ',';
  }
  return out;
}

std::string unordered_ball_type_with_ids(const Graph& g, const Keys& ids,
                                         Vertex v, int r) {
  // With unique identifiers the canonical form keeps the actual id values:
  // two ID-neighbourhoods are "isomorphic" only if identical.
  const auto members = graph::ball(g, v, r);
  const auto sb = sorted_ball(members, ids, v);
  std::string out = "b=" + std::to_string(sb.vertices.size()) +
                    ";root=" + std::to_string(sb.root_pos) + ";ids:";
  for (Vertex w : sb.vertices) {
    out += std::to_string(ids.at(w));
    out += ',';
  }
  out += ";e:";
  for (const auto& [a, b] : collect_edges(g, sb)) {
    out += std::to_string(a);
    out += '-';
    out += std::to_string(b);
    out += ',';
  }
  return out;
}

core::TypeId ordered_ball_type_id(const Graph& g, const Keys& keys, Vertex v,
                                  int r, core::TypeInterner& interner) {
  thread_local std::string key;  // the interner never retains the buffer
  ordered_ball_key(g, keys, v, r, key);
  return interner.intern(key);
}

core::TypeId ordered_ball_type_id(const LDigraph& d, const Keys& keys,
                                  Vertex v, int r,
                                  core::TypeInterner& interner) {
  thread_local std::string key;  // the interner never retains the buffer
  ordered_ball_key(d, keys, v, r, key);
  return interner.intern(key);
}

namespace {

template <typename GraphT>
std::vector<core::TypeId> type_ids(const GraphT& g, const Keys& keys, int r,
                                   core::TypeInterner& interner) {
  const Vertex n = g.num_vertices();
  if (static_cast<Vertex>(keys.size()) != n)
    throw std::invalid_argument("keys size mismatch");
  // The interner's two-phase pattern: parallel lock-free probes fill
  // per-vertex slots, and each block of consecutive vertices keeps the
  // keys of its misses; a serial pass then interns the misses block by
  // block, so fresh ids land in vertex order whatever the thread schedule.
  std::vector<core::TypeId> ids(static_cast<std::size_t>(n));
  const Vertex block = n / 256 + 1;  // at most 256 blocks
  const Vertex blocks = (n + block - 1) / block;
  std::vector<std::vector<std::pair<Vertex, std::string>>> missed(
      static_cast<std::size_t>(blocks));
  runtime::parallel_for(blocks, [&](std::int64_t b) {
    // Reused per thread: the interner never retains the caller's buffer.
    thread_local std::string key;
    const Vertex lo = static_cast<Vertex>(b) * block;
    const Vertex hi = std::min(n, lo + block);
    for (Vertex v = lo; v < hi; ++v) {
      ordered_ball_key(g, keys, v, r, key);
      core::TypeId& id = ids[static_cast<std::size_t>(v)];
      id = interner.try_intern(key);
      if (id == core::kNoType)
        missed[static_cast<std::size_t>(b)].emplace_back(v, key);
    }
  });
  for (const auto& misses : missed)
    for (const auto& [v, key] : misses)
      ids[static_cast<std::size_t>(v)] = interner.intern(key);
  return ids;
}

HomogeneityReport measure(std::vector<core::TypeId> ids) {
  HomogeneityReport report;
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    ++report.distinct_types;
    report.largest_class = std::max(report.largest_class, j - i);
    i = j;
  }
  if (!ids.empty())
    report.fraction = static_cast<double>(report.largest_class) /
                      static_cast<double>(ids.size());
  return report;
}

}  // namespace

std::vector<core::TypeId> ordered_ball_type_ids(const Graph& g,
                                                const Keys& keys, int r,
                                                core::TypeInterner& interner) {
  return type_ids(g, keys, r, interner);
}

std::vector<core::TypeId> ordered_ball_type_ids(const LDigraph& d,
                                                const Keys& keys, int r,
                                                core::TypeInterner& interner) {
  return type_ids(d, keys, r, interner);
}

HomogeneityReport measure_homogeneity(const Graph& g, const Keys& keys, int r,
                                      core::TypeInterner& interner) {
  return measure(ordered_ball_type_ids(g, keys, r, interner));
}

HomogeneityReport measure_homogeneity(const LDigraph& d, const Keys& keys,
                                      int r, core::TypeInterner& interner) {
  return measure(ordered_ball_type_ids(d, keys, r, interner));
}

bool is_homogeneous(const Graph& g, const Keys& keys, double alpha, int r) {
  return measure_homogeneity(g, keys, r).fraction >= alpha;
}

}  // namespace lapx::order
