#include "lapx/graph/port_numbering.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace lapx::graph {

PortNumbering PortNumbering::default_for(const Graph& g) {
  PortNumbering pn;
  pn.ports.resize(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    auto nb = g.neighbors(v);
    pn.ports[v].assign(nb.begin(), nb.end());
  }
  return pn;
}

int PortNumbering::port_of(Vertex v, Vertex u) const {
  const auto& p = ports.at(v);
  for (std::size_t i = 0; i < p.size(); ++i)
    if (p[i] == u) return static_cast<int>(i);
  throw std::out_of_range("no port from " + std::to_string(v) + " to " +
                          std::to_string(u));
}

bool PortNumbering::valid_for(const Graph& g) const {
  if (static_cast<Vertex>(ports.size()) != g.num_vertices()) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    auto nb = g.neighbors(v);
    std::vector<Vertex> sorted_ports(ports[v]);
    std::sort(sorted_ports.begin(), sorted_ports.end());
    if (!std::equal(sorted_ports.begin(), sorted_ports.end(), nb.begin(),
                    nb.end()))
      return false;
  }
  return true;
}

Orientation Orientation::default_for(const Graph& g) {
  Orientation o;
  o.u_to_v.assign(g.num_edges(), true);
  return o;
}

std::pair<Vertex, Vertex> Orientation::directed(const Graph& g,
                                                EdgeId e) const {
  auto [u, v] = g.edge(e);
  if (u_to_v.at(e)) return {u, v};
  return {v, u};
}

LDigraph to_ldigraph(const Graph& g, const PortNumbering& pn,
                     const Orientation& orient, int delta) {
  if (delta < g.max_degree())
    throw std::invalid_argument("delta below max degree");
  // Above the cap, delta * delta would overflow int.
  if (delta > kMaxGraphDegree)
    throw std::invalid_argument("delta " + std::to_string(delta) +
                                " above the degree cap " +
                                std::to_string(kMaxGraphDegree));
  if (!pn.valid_for(g)) throw std::invalid_argument("invalid port numbering");
  std::vector<Arc> arcs;
  arcs.reserve(g.num_edges());
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
    auto [tail, head] = orient.directed(g, e);
    const int i = pn.port_of(tail, head);
    const int j = pn.port_of(head, tail);
    arcs.push_back({tail, head, encode_port_label(i, j, delta)});
  }
  return LDigraph::from_arcs(g.num_vertices(),
                             static_cast<Label>(delta * delta),
                             std::move(arcs));
}

namespace {

// The arc of g's edge e under the default ports and orientation: a port
// is a position in the sorted neighbour run, and each edge points from
// its .first to its .second.  Both default-port builders label here.
Arc default_arc(const Graph& g, std::size_t e, int delta) {
  const auto [u, v] = g.edges()[e];
  const auto nu = g.neighbors(u);
  const auto nv = g.neighbors(v);
  const auto i = std::lower_bound(nu.begin(), nu.end(), v) - nu.begin();
  const auto j = std::lower_bound(nv.begin(), nv.end(), u) - nv.begin();
  return {u, v,
          encode_port_label(static_cast<int>(i), static_cast<int>(j), delta)};
}

}  // namespace

LDigraph to_ldigraph(const Graph& g) {
  // Default ports: no PortNumbering is built or validated.
  const int delta = g.max_degree();
  std::vector<Arc> arcs;
  arcs.reserve(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e)
    arcs.push_back(default_arc(g, e, delta));
  return LDigraph::from_arcs(g.num_vertices(),
                             static_cast<Label>(delta * delta),
                             std::move(arcs));
}

LDigraph to_ldigraph(const Graph& g, const LDigraph& parent,
                     std::span<const EdgeEdit> edits,
                     std::span<const Vertex> frontier) {
  const int delta = g.max_degree();
  // A moved maximum degree moves the alphabet, and every label with it.
  if (delta * delta != parent.alphabet_size()) return to_ldigraph(g);
  // Arc e is edge e.  An id whose edge changed -- a remove moved the last
  // edge into it, or an add appended it -- takes its new edge's arc.
  const std::vector<Edge>& edges = g.edges();
  const std::size_t kept = std::min(parent.num_arcs(), edges.size());
  std::vector<Arc> arcs;
  arcs.reserve(edges.size());
  arcs.assign(parent.arcs().begin(),
              parent.arcs().begin() + static_cast<std::ptrdiff_t>(kept));
  for (std::size_t e = 0; e < kept; ++e)
    if (arcs[e].from != edges[e].first || arcs[e].to != edges[e].second)
      arcs[e] = default_arc(g, e, delta);
  for (std::size_t e = kept; e < edges.size(); ++e)
    arcs.push_back(default_arc(g, e, delta));
  // Ports moved only at the edit endpoints, so only their arcs relabel.
  for (const EdgeEdit& edit : edits)
    for (const Vertex x : {edit.u, edit.v})
      for (const EdgeId e : g.incident_edges(x))
        arcs[static_cast<std::size_t>(e)] =
            default_arc(g, static_cast<std::size_t>(e), delta);
  // `edited` skips from_arcs' properness checks.  Default ports pass them
  // by construction: labels i * delta + j with i, j positions in runs of
  // distinct neighbours, and a simple graph.  graph_test's
  // PortNumbering.PatchedMatchesFreshBuild holds the two builds equal.
  return parent.edited(std::move(arcs), frontier, g);
}

PortNumbering ports_from_edge_coloring(const Graph& g,
                                       const std::vector<int>& colors) {
  const int d = g.max_degree();
  if (!g.is_regular(d))
    throw std::invalid_argument("edge-colour ports need a regular graph");
  if (colors.size() != g.num_edges())
    throw std::invalid_argument("colour vector size mismatch");
  PortNumbering pn;
  pn.ports.assign(g.num_vertices(), std::vector<Vertex>(d, -1));
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
    const int c = colors[e];
    if (c < 0 || c >= d) throw std::invalid_argument("colour out of range");
    const auto [u, v] = g.edge(e);
    if (pn.ports[u][c] != -1 || pn.ports[v][c] != -1)
      throw std::invalid_argument("edge colouring is not proper");
    pn.ports[u][c] = v;
    pn.ports[v][c] = u;
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (Vertex u : pn.ports[v])
      if (u == -1)
        throw std::invalid_argument("edge colouring does not cover a port");
  return pn;
}

std::vector<int> hypercube_edge_coloring(const Graph& g, int d) {
  std::vector<int> colors(g.num_edges());
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
    const auto [u, v] = g.edge(e);
    const Vertex diff = u ^ v;
    int bit = 0;
    while ((diff >> bit) != 1) ++bit;
    if (bit >= d) throw std::invalid_argument("not a hypercube edge");
    colors[e] = bit;
  }
  return colors;
}

std::vector<int> k33_edge_coloring(const Graph& g) {
  if (g.num_vertices() != 6 || g.num_edges() != 9)
    throw std::invalid_argument("not K_{3,3}");
  std::vector<int> colors(9);
  for (EdgeId e = 0; e < 9; ++e) {
    const auto [u, v] = g.edge(e);  // u in 0..2, v in 3..5
    colors[e] = (u + (v - 3)) % 3;
  }
  return colors;
}

}  // namespace lapx::graph
