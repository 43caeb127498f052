#include "lapx/graph/digraph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "csr_edit.hpp"

namespace lapx::graph {

LDigraph::LDigraph(Vertex n, Label alphabet_size)
    : n_(n), alphabet_(alphabet_size) {
  if (n < 0) throw std::invalid_argument("negative vertex count");
  if (alphabet_size < 0) throw std::invalid_argument("negative alphabet size");
  out_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  in_off_ = out_off_;
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

// Counting sort of the arcs by tail (the out-runs) or by head (the
// in-runs): off (n + 1 zeros on entry) receives each vertex's run bounds,
// and the runs hold (label, other endpoint), each sorted by label.
std::vector<std::pair<Label, Vertex>> bucket(const std::vector<Arc>& arcs,
                                             bool by_tail,
                                             std::vector<std::uint32_t>& off) {
  const auto key = [by_tail](const Arc& a) {
    return static_cast<std::size_t>(by_tail ? a.from : a.to);
  };
  for (const Arc& a : arcs) ++off[key(a) + 1];
  std::partial_sum(off.begin(), off.end(), off.begin());
  std::vector<std::pair<Label, Vertex>> runs(arcs.size());
  // Placing advances off[v] from v's start to its end; shifting by one
  // slot then turns the ends back into starts.
  for (const Arc& a : arcs)
    runs[off[key(a)]++] = {a.label, by_tail ? a.to : a.from};
  std::copy_backward(off.begin(), off.end() - 1, off.end());
  off[0] = 0;
  const auto by_label = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  for (std::size_t v = 0; v + 1 < off.size(); ++v)
    std::sort(runs.begin() + off[v], runs.begin() + off[v + 1], by_label);
  return runs;
}

// One side's runs after an edit: touched[k]'s new run is
// fresh[at[k] .. at[k + 1]), every other vertex keeps its run in (off,
// runs); the result goes to (new_off, new_runs).
void splice_runs(std::span<const Vertex> touched,
                 const std::vector<std::pair<Label, Vertex>>& fresh,
                 const std::vector<std::uint32_t>& at,
                 const std::vector<std::uint32_t>& off,
                 const std::vector<std::pair<Label, Vertex>>& runs,
                 std::vector<std::uint32_t>& new_off,
                 std::vector<std::pair<Label, Vertex>>& new_runs) {
  new_off = detail::relaid_offsets(
      off, touched, [&](std::size_t k) { return at[k + 1] - at[k]; });
  new_runs.resize(new_off.back());
  detail::move_untouched_runs(off, new_off, touched, runs, new_runs);
  for (std::size_t k = 0; k < touched.size(); ++k)
    std::copy(fresh.begin() + at[k], fresh.begin() + at[k + 1],
              new_runs.begin() +
                  new_off[static_cast<std::size_t>(touched[k])]);
}

}  // namespace

void LDigraph::throw_out_of_range(Vertex v) {
  throw std::out_of_range("vertex out of range: " + std::to_string(v));
}

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
  if (arcs.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("more arcs than 32-bit offsets address");
  for (const Arc& a : arcs) d.check_arc(a.from, a.to, a.label);
  d.out_ = bucket(arcs, /*by_tail=*/true, d.out_off_);
  d.in_ = bucket(arcs, /*by_tail=*/false, d.in_off_);
  // Sorted by label, a repeated label on either side is adjacent; and
  // tail_of[w] == v marks w as an out-neighbour of v, so a second arc
  // v -> w is found in O(1).
  std::vector<Vertex> tail_of(static_cast<std::size_t>(n), -1);
  for (Vertex v = 0; v < n; ++v) {
    const auto out = d.out_arcs(v);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto [label, w] = out[i];
      if (i > 0 && out[i - 1].first == label)
        throw_duplicate_label("outgoing", label, v);
      if (tail_of[static_cast<std::size_t>(w)] == v) throw_parallel_arc(v, w);
      tail_of[static_cast<std::size_t>(w)] = v;
    }
    const auto in = d.in_arcs(v);
    for (std::size_t i = 1; i < in.size(); ++i)
      if (in[i - 1].first == in[i].first)
        throw_duplicate_label("incoming", in[i].first, v);
  }
  d.arcs_ = std::move(arcs);
  return d;
}

LDigraph LDigraph::edited(std::vector<Arc> arcs,
                          std::span<const Vertex> touched,
                          const Graph& incidence) const {
  LDigraph d;
  d.n_ = n_;
  d.alphabet_ = alphabet_;
  // The touched vertices' runs, rebuilt from their arcs, back to back.
  Runs out, in;
  std::vector<std::uint32_t> out_at{0}, in_at{0};
  const auto by_label = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  for (const Vertex v : touched) {
    for (const EdgeId e : incidence.incident_edges(v)) {
      const Arc& a = arcs[static_cast<std::size_t>(e)];
      if (a.from == v)
        out.emplace_back(a.label, a.to);
      else
        in.emplace_back(a.label, a.from);
    }
    std::sort(out.begin() + out_at.back(), out.end(), by_label);
    std::sort(in.begin() + in_at.back(), in.end(), by_label);
    out_at.push_back(static_cast<std::uint32_t>(out.size()));
    in_at.push_back(static_cast<std::uint32_t>(in.size()));
  }
  splice_runs(touched, out, out_at, out_off_, out_, d.out_off_, d.out_);
  splice_runs(touched, in, in_at, in_off_, in_, d.in_off_, d.in_);
  d.arcs_ = std::move(arcs);
  return d;
}

std::optional<Vertex> LDigraph::out_neighbor(Vertex v, Label l) const {
  check_vertex(v);
  for (const auto& [label, w] : out_arcs(v))
    if (label == l) return w;
  return std::nullopt;
}

std::optional<Vertex> LDigraph::in_neighbor(Vertex v, Label l) const {
  check_vertex(v);
  for (const auto& [label, w] : in_arcs(v))
    if (label == l) return w;
  return std::nullopt;
}

bool LDigraph::is_k_in_k_out_regular(int k) const {
  for (Vertex v = 0; v < num_vertices(); ++v)
    if (out_degree(v) != k || in_degree(v) != k) return false;
  return true;
}

Graph LDigraph::underlying_graph() const {
  std::vector<Edge> edges(arcs_.size());
  for (std::size_t i = 0; i < arcs_.size(); ++i)
    edges[i] = {arcs_[i].from, arcs_[i].to};
  // An antiparallel pair names its edge twice; the earlier arc keeps it.
  if (has_antiparallel_arcs()) drop_repeated_edges(n_, edges);
  return Graph::from_edges(n_, std::move(edges));
}

bool LDigraph::has_antiparallel_arcs() const {
  for (Vertex v = 0; v < n_; ++v)
    for (const auto& out : out_arcs(v))
      for (const auto& in : in_arcs(v))
        if (in.second == out.second) return true;
  return false;
}

std::string LDigraph::summary() const {
  std::ostringstream os;
  os << "LDigraph(n=" << num_vertices() << ", arcs=" << num_arcs()
     << ", |L|=" << alphabet_ << ")";
  return os.str();
}

}  // namespace lapx::graph
