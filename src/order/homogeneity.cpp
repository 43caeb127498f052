#include "lapx/order/homogeneity.hpp"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

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

// One edge (Graph, label 0) or arc of an ordered ball, over the key-rank
// positions of its endpoints.
struct BallEdge {
  int a = 0;
  int b = 0;
  Label label = 0;

  auto operator<=>(const BallEdge&) const = default;
};

// Per-thread scratch of ordered-ball typing.  Bulk typing
// (measure_homogeneity, materialize_homogeneous) builds one ball per
// vertex, so no ball allocates: the per-vertex arrays are epoch-stamped --
// a bumped epoch clears every mark at once -- and only ever grow, to
// 12 bytes per vertex of the largest graph the thread has typed.
struct BallScratch {
  std::vector<std::uint32_t> stamp;  // == epoch: the vertex is in the ball
  std::vector<int> dist;             // BFS distance from the root
  std::vector<int> pos;              // index into `members`
  std::uint32_t epoch = 0;
  std::vector<Vertex> queue;  // BFS order
  std::vector<std::pair<std::int64_t, Vertex>> members;  // (key, vertex)
  std::vector<BallEdge> edges;                           // sorted

  void begin(std::size_t n) {
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      dist.resize(n, 0);
      pos.resize(n, 0);
    }
    if (++epoch == 0) {  // wrapped: every stale stamp looks fresh again
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    queue.clear();
    members.clear();
    edges.clear();
  }
  bool in_ball(Vertex w) const {
    return stamp[static_cast<std::size_t>(w)] == epoch;
  }
  int root_pos() const { return pos[static_cast<std::size_t>(queue[0])]; }
};

BallScratch& ball_scratch() {
  static thread_local BallScratch scratch;
  return scratch;
}

// A ball BFS stops at depth r, which a negative r never reaches: it would
// type the whole component.
void check_radius(int r) {
  if (r < 0) throw std::invalid_argument("ordered ball: negative radius");
}

// Neighbours in the underlying graph: an L-digraph ball follows arcs both
// ways.
template <typename F>
void for_each_neighbor(const Graph& g, Vertex u, F&& f) {
  for (Vertex w : g.neighbors(u)) f(w);
}
template <typename F>
void for_each_neighbor(const LDigraph& d, Vertex u, F&& f) {
  for (const auto& arc : d.out_arcs(u)) f(arc.second);
  for (const auto& arc : d.in_arcs(u)) f(arc.second);
}

// The edges of the ball that leave member i, each listed once.
void collect_edges(const Graph& g, int i, BallScratch& s) {
  for (Vertex w : g.neighbors(s.members[static_cast<std::size_t>(i)].second))
    if (s.in_ball(w)) {
      const int j = s.pos[static_cast<std::size_t>(w)];
      if (i < j) s.edges.push_back({i, j, 0});
    }
}
void collect_edges(const LDigraph& d, int i, BallScratch& s) {
  for (const auto& [l, w] :
       d.out_arcs(s.members[static_cast<std::size_t>(i)].second))
    if (s.in_ball(w))
      s.edges.push_back({i, s.pos[static_cast<std::size_t>(w)], l});
}

// The canonical content of the ordered radius-r ball of v, left in the
// thread's scratch: its members sorted by (key, vertex), the root's
// position among them, and the sorted edge or arc list over positions.
// The text spellings and the interned binary key render exactly this
// tuple (size, root position, edges), so they induce the same equivalence.
template <typename GraphT>
const BallScratch& ordered_ball(const GraphT& g, const Keys& keys, Vertex v,
                                int r) {
  check_radius(r);
  if (v < 0 || v >= g.num_vertices())
    throw std::out_of_range("ordered ball: root out of range");
  BallScratch& s = ball_scratch();
  s.begin(static_cast<std::size_t>(g.num_vertices()));
  s.stamp[static_cast<std::size_t>(v)] = s.epoch;
  s.dist[static_cast<std::size_t>(v)] = 0;
  s.queue.push_back(v);
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const Vertex u = s.queue[head];
    if (s.dist[static_cast<std::size_t>(u)] == r) continue;
    const int next = s.dist[static_cast<std::size_t>(u)] + 1;
    for_each_neighbor(g, u, [&](Vertex w) {
      if (!s.in_ball(w)) {
        s.stamp[static_cast<std::size_t>(w)] = s.epoch;
        s.dist[static_cast<std::size_t>(w)] = next;
        s.queue.push_back(w);
      }
    });
  }
  for (Vertex w : s.queue) s.members.emplace_back(keys.at(w), w);
  std::sort(s.members.begin(), s.members.end());
  const int size = static_cast<int>(s.members.size());
  for (int i = 0; i < size; ++i) {
    const Vertex w = s.members[static_cast<std::size_t>(i)].second;
    s.pos[static_cast<std::size_t>(w)] = i;
  }
  for (int i = 0; i < size; ++i) collect_edges(g, i, s);
  std::sort(s.edges.begin(), s.edges.end());
  return s;
}

void append_u32(std::string& key, std::uint32_t x) {
  for (int b = 0; b < 4; ++b)
    key.push_back(static_cast<char>((x >> (8 * b)) & 0xFF));
}

// The interner key of ordered_ball_type_id, written into `key`: a domain
// byte, then the canonical tuple as little-endian u32s.
template <typename GraphT>
void ordered_ball_key(const GraphT& g, const Keys& keys, Vertex v, int r,
                      std::string& key) {
  constexpr bool kArcs = std::is_same_v<GraphT, LDigraph>;
  const BallScratch& s = ordered_ball(g, keys, v, r);
  key.clear();
  key.reserve(1 + 8 + (kArcs ? 12 : 8) * s.edges.size());
  key.push_back(kArcs ? '\x03' : '\x02');  // L-digraph ball : graph ball
  append_u32(key, static_cast<std::uint32_t>(s.members.size()));
  append_u32(key, static_cast<std::uint32_t>(s.root_pos()));
  for (const BallEdge& e : s.edges) {
    append_u32(key, static_cast<std::uint32_t>(e.a));
    append_u32(key, static_cast<std::uint32_t>(e.b));
    if (kArcs) append_u32(key, static_cast<std::uint32_t>(e.label));
  }
}

std::string spelling_head(const BallScratch& s) {
  return "b=" + std::to_string(s.members.size()) +
         ";root=" + std::to_string(s.root_pos());
}

void append_edges(std::string& out, const BallScratch& s) {
  out += ";e:";
  for (const BallEdge& e : s.edges) {
    out += std::to_string(e.a);
    out += '-';
    out += std::to_string(e.b);
    out += ',';
  }
}

}  // namespace

std::string ordered_ball_type(const Graph& g, const Keys& keys, Vertex v,
                              int r) {
  const BallScratch& s = ordered_ball(g, keys, v, r);
  std::string out = spelling_head(s);
  append_edges(out, s);
  return out;
}

std::string ordered_ball_type(const LDigraph& d, const Keys& keys, Vertex v,
                              int r) {
  const BallScratch& s = ordered_ball(d, keys, v, r);
  std::string out = spelling_head(s) + ";a:";
  for (const BallEdge& e : s.edges) {
    out += std::to_string(e.a);
    out += '>';
    out += std::to_string(e.b);
    out += '#';
    out += std::to_string(e.label);
    out += ',';
  }
  return out;
}

std::string unordered_ball_type_with_ids(const Graph& g, const Keys& ids,
                                         Vertex v, int r) {
  // With unique identifiers the canonical form keeps the actual id values:
  // two ID-neighbourhoods are "isomorphic" only if identical.
  const BallScratch& s = ordered_ball(g, ids, v, r);
  std::string out = spelling_head(s) + ";ids:";
  for (const auto& [id, w] : s.members) {
    out += std::to_string(id);
    out += ',';
  }
  append_edges(out, s);
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

core::TypeId find_ordered_ball_type_id(const LDigraph& d, const Keys& keys,
                                       Vertex v, int r,
                                       const core::TypeInterner& interner) {
  thread_local std::string key;
  ordered_ball_key(d, keys, v, r, key);
  return interner.try_intern(key);
}

namespace {

template <typename GraphT>
void check_args(const GraphT& g, const Keys& keys, int r) {
  check_radius(r);
  if (static_cast<Vertex>(keys.size()) != g.num_vertices())
    throw std::invalid_argument("keys size mismatch");
}

// The typing kernel: writes ids[vertex_at(i)] for i in [0, count), the
// vertices in ascending order.  The interner's two-phase pattern: parallel
// lock-free probes fill per-vertex slots, and each block of consecutive
// vertices keeps the keys of its misses; a serial pass then interns the
// misses block by block, so fresh ids land in vertex order whatever the
// thread schedule.  A whole-graph pass and a frontier re-type are the same
// loop over different lists.
template <typename GraphT, typename VertexAt>
void type_vertices(const GraphT& g, const Keys& keys, int r,
                   core::TypeInterner& interner, Vertex count,
                   VertexAt vertex_at, std::vector<core::TypeId>& ids) {
  const Vertex block = count / 256 + 1;  // at most 256 blocks
  const Vertex blocks = (count + block - 1) / block;
  std::vector<std::vector<std::pair<Vertex, std::string>>> missed(
      static_cast<std::size_t>(blocks));
  runtime::parallel_for(blocks, [&](std::int64_t b) {
    // Reused per thread: the interner never retains the caller's buffer.
    thread_local std::string key;
    const Vertex lo = static_cast<Vertex>(b) * block;
    const Vertex hi = std::min(count, lo + block);
    for (Vertex i = lo; i < hi; ++i) {
      const Vertex v = vertex_at(i);
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
}

template <typename GraphT>
std::vector<core::TypeId> type_ids(const GraphT& g, const Keys& keys, int r,
                                   core::TypeInterner& interner) {
  check_args(g, keys, r);
  const Vertex n = g.num_vertices();
  std::vector<core::TypeId> ids(static_cast<std::size_t>(n));
  type_vertices(g, keys, r, interner, n, [](Vertex v) { return v; }, ids);
  return ids;
}

std::unordered_map<core::TypeId, std::size_t> class_sizes(
    const std::vector<core::TypeId>& ids) {
  std::unordered_map<core::TypeId, std::size_t> counts;
  for (const core::TypeId id : ids) ++counts[id];
  return counts;
}

HomogeneityReport report_of(core::ClassCounts classes, std::size_t n) {
  HomogeneityReport report;
  report.distinct_types = classes.distinct;
  report.largest_class = classes.largest;
  if (n > 0)
    report.fraction = static_cast<double>(report.largest_class) /
                      static_cast<double>(n);
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
  return report_of(core::count_classes(type_ids(g, keys, r, interner)),
                   static_cast<std::size_t>(g.num_vertices()));
}

HomogeneityReport measure_homogeneity(const LDigraph& d, const Keys& keys,
                                      int r, core::TypeInterner& interner) {
  return report_of(core::count_classes(type_ids(d, keys, r, interner)),
                   static_cast<std::size_t>(d.num_vertices()));
}

OrderedBallClasses::OrderedBallClasses(const Graph& g, const Keys& keys,
                                       int r, core::TypeInterner& interner)
    : r_(r),
      interner_(&interner),
      ids_(type_ids(g, keys, r, interner)),
      counts_(class_sizes(ids_)) {}

HomogeneityReport OrderedBallClasses::report() const {
  core::ClassCounts classes{counts_.size(), 0};
  for (const auto& [id, size] : counts_)
    classes.largest = std::max(classes.largest, size);
  return report_of(classes, ids_.size());
}

void OrderedBallClasses::retype(const Graph& g, const Keys& keys,
                                std::span<const Vertex> frontier) {
  check_args(g, keys, r_);
  if (static_cast<std::size_t>(g.num_vertices()) != ids_.size())
    throw std::invalid_argument("retype: vertex count changed");
  for (std::size_t i = 0; i < frontier.size(); ++i)
    if (frontier[i] < 0 || frontier[i] >= g.num_vertices() ||
        (i > 0 && frontier[i] <= frontier[i - 1]))
      throw std::invalid_argument(
          "retype: frontier is not ascending vertices of the graph");
  for (const Vertex v : frontier) {
    const auto it = counts_.find(ids_[static_cast<std::size_t>(v)]);
    if (--it->second == 0) counts_.erase(it);
  }
  type_vertices(
      g, keys, r_, *interner_, static_cast<Vertex>(frontier.size()),
      [&](Vertex i) { return frontier[static_cast<std::size_t>(i)]; }, ids_);
  for (const Vertex v : frontier) ++counts_[ids_[static_cast<std::size_t>(v)]];
}

bool is_homogeneous(const Graph& g, const Keys& keys, double alpha, int r) {
  return measure_homogeneity(g, keys, r).fraction >= alpha;
}

}  // namespace lapx::order
