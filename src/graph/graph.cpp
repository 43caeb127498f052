#include "lapx/graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "csr_edit.hpp"
#include "lapx/graph/mutation.hpp"

namespace lapx::graph {

namespace {

std::string pair_text(Vertex u, Vertex v) {
  return "{" + std::to_string(u) + "," + std::to_string(v) + "}";
}

// The checks of inserting edge {u, v} into a simple graph of n vertices
// and m edges, in the order a one-by-one insert runs them; has_edge and
// degree see the graph before the edge.  from_edges' failure scan and
// apply_edits share them, so both throw the same error for the same edge.
template <typename HasEdge, typename Degree>
void check_insert(Vertex n, std::size_t m, Vertex u, Vertex v,
                  const HasEdge& has_edge, const Degree& degree) {
  for (Vertex x : {u, v})
    if (x < 0 || x >= n)
      throw std::invalid_argument("vertex out of range: " + std::to_string(x));
  if (u == v) throw MutationError("self-loop at " + std::to_string(u));
  if (has_edge()) throw MutationError("parallel edge " + pair_text(u, v));
  if (m >= kMaxGraphEdges)
    throw MutationError("edge count would overflow EdgeId");
  for (Vertex x : {u, v})
    if (degree(x) >= kMaxGraphDegree)
      throw MutationError("degree at " + std::to_string(x) +
                          " would overflow the port-label alphabet");
}

std::uint64_t pair_key(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32 |
         static_cast<std::uint32_t>(v);
}

// from_edges found some edge invalid: insert them one by one, as the
// checks define, and throw at the first that fails.
[[noreturn]] void throw_first_invalid(Vertex n,
                                      const std::vector<Edge>& edges) {
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    check_insert(
        n, i, u, v, [&] { return seen.count(pair_key(u, v)) != 0; },
        [&](Vertex x) { return degree[static_cast<std::size_t>(x)]; });
    seen.insert(pair_key(u, v));
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
  }
  throw std::logic_error("from_edges: no invalid edge found");
}

}  // namespace

Graph::Graph(Vertex n) {
  if (n < 0) throw std::invalid_argument("negative vertex count");
  off_.assign(static_cast<std::size_t>(n) + 1, 0);
}

Graph Graph::from_edges(Vertex n, std::vector<Edge> edges) {
  Graph g(n);
  auto& off = g.off_;
  const auto in_range = [n](Vertex x) { return x >= 0 && x < n; };
  bool valid = edges.size() <= kMaxGraphEdges;
  for (std::size_t i = 0; valid && i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    valid = in_range(u) && in_range(v) && u != v;
    if (valid) {
      ++off[static_cast<std::size_t>(u) + 1];
      ++off[static_cast<std::size_t>(v) + 1];
    }
  }
  for (std::size_t i = 1; valid && i < off.size(); ++i)
    valid = off[i] <= static_cast<std::uint32_t>(kMaxGraphDegree);
  if (!valid) throw_first_invalid(n, edges);
  std::partial_sum(off.begin(), off.end(), off.begin());
  g.nbr_.resize(off.back());
  g.inc_.resize(off.back());
  // Incident ids go out in id order.  Then walking the vertices in order
  // and putting each into its neighbours' runs leaves every neighbour run
  // sorted, with no sort; a parallel edge shows as a repeat in it.
  std::vector<std::uint32_t> next(off.begin(), off.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i)
    for (Vertex x : {edges[i].first, edges[i].second})
      g.inc_[next[static_cast<std::size_t>(x)]++] = static_cast<EdgeId>(i);
  std::copy(off.begin(), off.end() - 1, next.begin());
  for (std::size_t u = 0; u + 1 < off.size(); ++u)
    for (std::uint32_t k = off[u]; k < off[u + 1]; ++k) {
      const Edge& e = edges[static_cast<std::size_t>(g.inc_[k])];
      const auto w = static_cast<std::size_t>(
          e.first == static_cast<Vertex>(u) ? e.second : e.first);
      if (next[w] > off[w] && g.nbr_[next[w] - 1] == static_cast<Vertex>(u))
        throw_first_invalid(n, edges);
      g.nbr_[next[w]++] = static_cast<Vertex>(u);
    }
  for (auto& [u, v] : edges)
    if (u > v) std::swap(u, v);
  g.edges_ = std::move(edges);
  return g;
}

void drop_repeated_edges(Vertex n, std::vector<Edge>& edges) {
  // Bucket the edges by smaller endpoint u, in input order: a repeat is an
  // edge whose larger endpoint w its bucket has already seen.
  const auto size = static_cast<std::size_t>(std::max(n, 0));
  const auto in_range = [n](const Edge& e) {
    return e.first >= 0 && e.first < n && e.second >= 0 && e.second < n;
  };
  const auto low = [](const Edge& e) {
    return static_cast<std::size_t>(std::min(e.first, e.second));
  };
  std::vector<std::uint32_t> end(size + 1, 0);
  for (const Edge& e : edges)
    if (in_range(e)) ++end[low(e) + 1];
  std::partial_sum(end.begin(), end.end(), end.begin());
  std::vector<std::uint32_t> bucketed(end.back());
  for (std::size_t i = 0; i < edges.size(); ++i)
    if (in_range(edges[i]))
      bucketed[end[low(edges[i])]++] = static_cast<std::uint32_t>(i);
  // end[u] now closes u's bucket, which starts where u - 1's closed.
  std::vector<Vertex> seen_by(size, -1);  // seen_by[w] == u: {u, w} seen
  std::vector<bool> repeat(edges.size(), false);
  for (std::size_t u = 0, k = 0; u < size; ++u)
    for (; k < end[u]; ++k) {
      const Edge& e = edges[bucketed[k]];
      const auto w = static_cast<std::size_t>(std::max(e.first, e.second));
      auto& seen = seen_by[w];
      repeat[bucketed[k]] = seen == static_cast<Vertex>(u);
      seen = static_cast<Vertex>(u);
    }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < edges.size(); ++i)
    if (!repeat[i]) edges[kept++] = edges[i];
  edges.resize(kept);
}

void Graph::throw_out_of_range(Vertex v) {
  throw std::out_of_range("vertex out of range: " + std::to_string(v));
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  check_vertex(u);
  check_vertex(v);
  const auto a = neighbors(u);
  return std::binary_search(a.begin(), a.end(), v);
}

EdgeId Graph::edge_id(Vertex u, Vertex v) const {
  if (u > v) std::swap(u, v);
  check_vertex(u);
  check_vertex(v);
  for (EdgeId id : incident_edges(u)) {
    if (edges_[static_cast<std::size_t>(id)] == Edge{u, v}) return id;
  }
  throw std::out_of_range("no edge " + pair_text(u, v));
}

int Graph::max_degree() const {
  int d = 0;
  for (Vertex v = 0; v < num_vertices(); ++v) d = std::max(d, degree(v));
  return d;
}

int Graph::min_degree() const {
  if (num_vertices() == 0) return 0;
  int d = degree(0);
  for (Vertex v = 1; v < num_vertices(); ++v) d = std::min(d, degree(v));
  return d;
}

bool Graph::is_regular(int d) const {
  for (Vertex v = 0; v < num_vertices(); ++v)
    if (degree(v) != d) return false;
  return true;
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "Graph(n=" << num_vertices() << ", m=" << num_edges()
     << ", maxdeg=" << max_degree() << ")";
  return os.str();
}

// The runs of the vertices a batch touches -- its edit endpoints and the
// endpoints of every edge that moves into a freed id -- copied out of the
// CSR into two pools and edited there.  An endpoint's run gets room for
// the batch's adds at it up front, so no run ever outgrows its place.
class Graph::Editor {
 public:
  Editor(Graph& g, std::span<const EdgeEdit> edits) : g_(g) {
    // At most two endpoints per edit, and two per moved edge.
    std::size_t cap = 8;
    while (cap < 8 * edits.size()) cap *= 2;
    table_.assign(cap, 0);
    shift_ = 64 - std::countr_zero(cap);
    for (const EdgeEdit& e : edits)
      for (Vertex x : {e.u, e.v})
        if (x >= 0 && x < g.num_vertices())
          slots_[touch(x)].room += e.kind == EdgeEdit::Kind::kAdd;
    for (Slot& s : slots_) load(s);
    loaded_ = true;
  }

  void add(Vertex u, Vertex v) {
    check_insert(
        g_.num_vertices(), g_.edges_.size(), u, v,
        [&] { return contains(u, v); },
        [&](Vertex x) { return static_cast<int>(slots_[touch(x)].size); });
    insert_sorted(touch(u), v);
    insert_sorted(touch(v), u);
    if (u > v) std::swap(u, v);
    g_.edges_.emplace_back(u, v);
    const auto id = static_cast<EdgeId>(g_.edges_.size() - 1);
    for (Vertex x : {u, v}) incident(touch(x)).back() = id;
    rewritten_.push_back(id);
  }

  void remove(Vertex u, Vertex v) {
    g_.check_vertex(u);
    g_.check_vertex(v);
    if (!contains(u, v)) throw MutationError("no edge " + pair_text(u, v));
    if (u > v) std::swap(u, v);
    const std::span<EdgeId> ids = incident(touch(u));
    const EdgeId id = *std::find_if(ids.begin(), ids.end(), [&](EdgeId e) {
      return g_.edges_[static_cast<std::size_t>(e)] == Edge{u, v};
    });
    erase(touch(u), v, id);
    erase(touch(v), u, id);
    const auto last = static_cast<EdgeId>(g_.edges_.size() - 1);
    if (id != last) {
      // Keep ids dense: the last edge takes over the freed slot.
      const Edge moved = g_.edges_.back();
      g_.edges_[static_cast<std::size_t>(id)] = moved;
      for (Vertex w : {moved.first, moved.second}) {
        const std::span<EdgeId> run = incident(touch(w));
        *std::find(run.begin(), run.end(), last) = id;
      }
      rewritten_.push_back(id);
    }
    g_.edges_.pop_back();
    rewritten_.push_back(last);
  }

  // The edge ids add and remove wrote or dropped, ascending, each once.
  std::vector<EdgeId> rewritten() {
    std::sort(rewritten_.begin(), rewritten_.end());
    rewritten_.erase(std::unique(rewritten_.begin(), rewritten_.end()),
                     rewritten_.end());
    return std::move(rewritten_);
  }

  // Writes the touched runs back: in place when no degree changed (every
  // 2-switch), else through one pass that lays the offsets out again and
  // moves the untouched runs between touched vertices as blocks.
  void commit() {
    auto& off = g_.off_;
    const bool in_place =
        std::all_of(slots_.begin(), slots_.end(), [&](const Slot& s) {
          const auto v = static_cast<std::size_t>(s.v);
          return s.size == off[v + 1] - off[v];
        });
    if (in_place) {
      for (const Slot& s : slots_) {
        const std::uint32_t at = off[static_cast<std::size_t>(s.v)];
        std::copy_n(nbr_.begin() + s.begin, s.size, g_.nbr_.begin() + at);
        std::copy_n(inc_.begin() + s.begin, s.size, g_.inc_.begin() + at);
      }
      return;
    }
    std::sort(slots_.begin(), slots_.end(),
              [](const Slot& a, const Slot& b) { return a.v < b.v; });
    std::vector<Vertex> touched(slots_.size());
    std::transform(slots_.begin(), slots_.end(), touched.begin(),
                   [](const Slot& s) { return s.v; });
    std::vector<std::uint32_t> new_off = detail::relaid_offsets(
        off, touched, [&](std::size_t k) { return slots_[k].size; });
    std::vector<Vertex> nbr(2 * g_.edges_.size());
    std::vector<EdgeId> inc(nbr.size());
    detail::move_untouched_runs(off, new_off, touched, g_.nbr_, nbr);
    detail::move_untouched_runs(off, new_off, touched, g_.inc_, inc);
    for (const Slot& s : slots_) {
      const std::uint32_t at = new_off[static_cast<std::size_t>(s.v)];
      std::copy_n(nbr_.begin() + s.begin, s.size, nbr.begin() + at);
      std::copy_n(inc_.begin() + s.begin, s.size, inc.begin() + at);
    }
    off = std::move(new_off);
    g_.nbr_ = std::move(nbr);
    g_.inc_ = std::move(inc);
  }

 private:
  struct Slot {
    Vertex v;
    std::uint32_t begin = 0;  // the run's first position in the pools
    std::uint32_t size = 0;
    std::uint32_t room = 0;  // free positions after the run
  };

  // The index of v's slot, made on first touch; the table holds slot
  // index + 1 (0 is empty), probed linearly from a multiplicative hash.
  std::uint32_t touch(Vertex v) {
    const std::size_t mask = table_.size() - 1;
    std::size_t h =
        static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15u >> shift_;
    for (;; h = (h + 1) & mask) {
      if (table_[h] == 0) {
        slots_.push_back({v});
        if (loaded_) load(slots_.back());
        table_[h] = static_cast<std::uint32_t>(slots_.size());
      }
      if (slots_[table_[h] - 1].v == v) return table_[h] - 1;
    }
  }

  // Appends the slot's CSR runs to the pools, followed by its room.
  void load(Slot& s) {
    const auto run = g_.neighbors(s.v);
    const auto ids = g_.incident_edges(s.v);
    s.begin = static_cast<std::uint32_t>(nbr_.size());
    s.size = static_cast<std::uint32_t>(run.size());
    nbr_.insert(nbr_.end(), run.begin(), run.end());
    inc_.insert(inc_.end(), ids.begin(), ids.end());
    nbr_.resize(nbr_.size() + s.room);
    inc_.resize(inc_.size() + s.room);
  }

  std::span<Vertex> neighbors(std::uint32_t slot) {
    return {nbr_.data() + slots_[slot].begin, slots_[slot].size};
  }
  std::span<EdgeId> incident(std::uint32_t slot) {
    return {inc_.data() + slots_[slot].begin, slots_[slot].size};
  }

  bool contains(Vertex u, Vertex v) {
    const auto run = neighbors(touch(u));
    return std::binary_search(run.begin(), run.end(), v);
  }

  // Inserts x into the slot's sorted neighbour run; the incident run
  // grows by one entry at its end, which the caller sets.
  void insert_sorted(std::uint32_t slot, Vertex x) {
    --slots_[slot].room;
    ++slots_[slot].size;
    const std::span<Vertex> run = neighbors(slot);
    const auto at = std::lower_bound(run.begin(), run.end() - 1, x);
    std::move_backward(at, run.end() - 1, run.end());
    *at = x;
  }

  // Erases neighbour x and incident id e, keeping both runs' order.
  void erase(std::uint32_t slot, Vertex x, EdgeId e) {
    const std::span<Vertex> run = neighbors(slot);
    const auto at = std::lower_bound(run.begin(), run.end(), x);
    std::move(at + 1, run.end(), at);
    const std::span<EdgeId> ids = incident(slot);
    const auto pos = std::find(ids.begin(), ids.end(), e);
    std::move(pos + 1, ids.end(), pos);
    --slots_[slot].size;
    ++slots_[slot].room;
  }

  Graph& g_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> table_;
  int shift_ = 0;
  bool loaded_ = false;
  std::vector<Vertex> nbr_;  // the touched runs, each followed by its room
  std::vector<EdgeId> inc_;
  std::vector<EdgeId> rewritten_;
};

std::vector<EdgeId> apply_edits(Graph& g, std::span<const EdgeEdit> edits) {
  Graph::Editor batch(g, edits);
  // An invalid edit leaves every earlier one applied.
  try {
    for (const EdgeEdit& e : edits) {
      if (e.kind == EdgeEdit::Kind::kAdd)
        batch.add(e.u, e.v);
      else
        batch.remove(e.u, e.v);
    }
  } catch (...) {
    batch.commit();
    throw;
  }
  batch.commit();
  return batch.rewritten();
}

}  // namespace lapx::graph
