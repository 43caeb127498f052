#include "lapx/graph/digraph.hpp"

#include <algorithm>
#include <sstream>

namespace lapx::graph {

LDigraph::LDigraph(Vertex n, Label alphabet_size)
    : alphabet_(alphabet_size),
      out_(static_cast<std::size_t>(n)),
      in_(static_cast<std::size_t>(n)) {
  if (n < 0) throw std::invalid_argument("negative vertex count");
  if (alphabet_size < 0) throw std::invalid_argument("negative alphabet size");
}

namespace {

[[noreturn]] void throw_duplicate_label(const char* side, Label label,
                                        Vertex v) {
  throw std::invalid_argument(std::string("duplicate ") + side + " label " +
                              std::to_string(label) + " at " +
                              std::to_string(v));
}

[[noreturn]] void throw_parallel_arc(Vertex u, Vertex v) {
  throw std::invalid_argument("parallel arc (" + std::to_string(u) + "," +
                              std::to_string(v) + ")");
}

}  // namespace

void LDigraph::check_arc(Vertex u, Vertex v, Label label) const {
  check_vertex(u);
  check_vertex(v);
  if (u == v) throw std::invalid_argument("self-loop at " + std::to_string(u));
  if (label < 0 || label >= alphabet_)
    throw std::invalid_argument("label out of range: " + std::to_string(label));
}

LDigraph LDigraph::from_arcs(Vertex n, Label alphabet_size,
                             std::vector<Arc> arcs) {
  LDigraph d(n, alphabet_size);
  const auto size = static_cast<std::size_t>(n);
  std::vector<std::uint32_t> out_deg(size), in_deg(size);
  for (const Arc& a : arcs) {
    d.check_arc(a.from, a.to, a.label);
    ++out_deg[static_cast<std::size_t>(a.from)];
    ++in_deg[static_cast<std::size_t>(a.to)];
  }
  for (std::size_t v = 0; v < size; ++v) {
    d.out_[v].reserve(out_deg[v]);
    d.in_[v].reserve(in_deg[v]);
  }
  for (const Arc& a : arcs) {
    d.out_[static_cast<std::size_t>(a.from)].emplace_back(a.label, a.to);
    d.in_[static_cast<std::size_t>(a.to)].emplace_back(a.label, a.from);
  }
  // Sorted by label, a repeated label on either side is adjacent; and
  // tail_of[w] == v marks w as an out-neighbour of v, so a second arc
  // v -> w is found in O(1).
  std::vector<Vertex> tail_of(size, -1);
  const auto by_label = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  for (Vertex v = 0; v < n; ++v) {
    auto& out = d.out_[static_cast<std::size_t>(v)];
    std::sort(out.begin(), out.end(), by_label);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto [label, w] = out[i];
      if (i > 0 && out[i - 1].first == label)
        throw_duplicate_label("outgoing", label, v);
      if (tail_of[static_cast<std::size_t>(w)] == v) throw_parallel_arc(v, w);
      tail_of[static_cast<std::size_t>(w)] = v;
    }
    auto& in = d.in_[static_cast<std::size_t>(v)];
    std::sort(in.begin(), in.end(), by_label);
    for (std::size_t i = 1; i < in.size(); ++i)
      if (in[i - 1].first == in[i].first)
        throw_duplicate_label("incoming", in[i].first, v);
  }
  d.num_arcs_ = arcs.size();
  d.arc_list_ = std::move(arcs);
  return d;
}

void LDigraph::add_arc(Vertex u, Vertex v, Label label) {
  check_arc(u, v, label);
  if (out_neighbor(u, label).has_value())
    throw_duplicate_label("outgoing", label, u);
  if (in_neighbor(v, label).has_value())
    throw_duplicate_label("incoming", label, v);
  for (const auto& [l, w] : out_[u]) {
    (void)l;
    if (w == v) throw_parallel_arc(u, v);
  }
  auto insert_sorted = [](std::vector<std::pair<Label, Vertex>>& vec, Label l,
                          Vertex w) {
    auto it = std::lower_bound(
        vec.begin(), vec.end(), std::pair<Label, Vertex>{l, w},
        [](const auto& a, const auto& b) { return a.first < b.first; });
    vec.insert(it, {l, w});
  };
  insert_sorted(out_[u], label, v);
  insert_sorted(in_[v], label, u);
  arc_list_.push_back(Arc{u, v, label});
  ++num_arcs_;
}

Label LDigraph::remove_arc(Vertex u, Vertex v) {
  check_vertex(u);
  check_vertex(v);
  auto& out = out_[u];
  const auto it = std::find_if(out.begin(), out.end(),
                               [v](const auto& p) { return p.second == v; });
  if (it == out.end())
    throw MutationError("no arc (" + std::to_string(u) + "," +
                        std::to_string(v) + ")");
  const Label label = it->first;
  out.erase(it);
  auto& in = in_[v];
  in.erase(std::find_if(in.begin(), in.end(), [label](const auto& p) {
    return p.first == label;
  }));
  arc_list_.erase(std::find(arc_list_.begin(), arc_list_.end(),
                            Arc{u, v, label}));
  --num_arcs_;
  return label;
}

void LDigraph::add_vertices(Vertex count) {
  if (count < 0) throw MutationError("negative vertex count");
  out_.resize(out_.size() + static_cast<std::size_t>(count));
  in_.resize(in_.size() + static_cast<std::size_t>(count));
}

std::optional<Vertex> LDigraph::out_neighbor(Vertex v, Label l) const {
  check_vertex(v);
  for (const auto& [label, w] : out_[v])
    if (label == l) return w;
  return std::nullopt;
}

std::optional<Vertex> LDigraph::in_neighbor(Vertex v, Label l) const {
  check_vertex(v);
  for (const auto& [label, w] : in_[v])
    if (label == l) return w;
  return std::nullopt;
}

bool LDigraph::is_k_in_k_out_regular(int k) const {
  for (Vertex v = 0; v < num_vertices(); ++v)
    if (out_degree(v) != k || in_degree(v) != k) return false;
  return true;
}

Graph LDigraph::underlying_graph() const {
  Graph g(num_vertices());
  for (const Arc& a : arc_list_) {
    if (!g.has_edge(a.from, a.to)) g.add_edge(a.from, a.to);
  }
  return g;
}

std::string LDigraph::summary() const {
  std::ostringstream os;
  os << "LDigraph(n=" << num_vertices() << ", arcs=" << num_arcs()
     << ", |L|=" << alphabet_ << ")";
  return os.str();
}

}  // namespace lapx::graph
