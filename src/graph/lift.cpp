#include "lapx/graph/lift.hpp"

#include "lapx/graph/properties.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace lapx::graph {

namespace {

bool fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

}  // namespace

bool is_covering_map(const LDigraph& H, const LDigraph& G,
                     const std::vector<Vertex>& phi, std::string* error) {
  if (static_cast<Vertex>(phi.size()) != H.num_vertices())
    return fail(error, "phi size mismatch");
  std::vector<bool> hit(G.num_vertices(), false);
  for (Vertex v = 0; v < H.num_vertices(); ++v) {
    if (phi[v] < 0 || phi[v] >= G.num_vertices())
      return fail(error, "phi out of range");
    hit[phi[v]] = true;
  }
  if (!std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }))
    return fail(error, "phi not onto");
  for (Vertex v = 0; v < H.num_vertices(); ++v) {
    const Vertex g = phi[v];
    // Outgoing side: labels must match exactly and arcs must project.
    auto hv = H.out_arcs(v);
    auto gv = G.out_arcs(g);
    if (hv.size() != gv.size())
      return fail(error, "out-degree mismatch at " + std::to_string(v));
    for (std::size_t i = 0; i < hv.size(); ++i) {
      if (hv[i].first != gv[i].first)
        return fail(error, "out-label mismatch at " + std::to_string(v));
      if (phi[hv[i].second] != gv[i].second)
        return fail(error, "arc projection mismatch at " + std::to_string(v));
    }
    auto hin = H.in_arcs(v);
    auto gin = G.in_arcs(g);
    if (hin.size() != gin.size())
      return fail(error, "in-degree mismatch at " + std::to_string(v));
    for (std::size_t i = 0; i < hin.size(); ++i) {
      if (hin[i].first != gin[i].first)
        return fail(error, "in-label mismatch at " + std::to_string(v));
      if (phi[hin[i].second] != gin[i].second)
        return fail(error, "in-arc projection mismatch at " + std::to_string(v));
    }
  }
  return true;
}

bool is_covering_map(const Graph& H, const Graph& G,
                     const std::vector<Vertex>& phi, std::string* error) {
  if (static_cast<Vertex>(phi.size()) != H.num_vertices())
    return fail(error, "phi size mismatch");
  std::vector<bool> hit(G.num_vertices(), false);
  for (Vertex v = 0; v < H.num_vertices(); ++v) {
    if (phi[v] < 0 || phi[v] >= G.num_vertices())
      return fail(error, "phi out of range");
    hit[phi[v]] = true;
  }
  if (!std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }))
    return fail(error, "phi not onto");
  for (Vertex v = 0; v < H.num_vertices(); ++v) {
    const Vertex g = phi[v];
    if (H.degree(v) != G.degree(g))
      return fail(error, "degree mismatch at " + std::to_string(v));
    // Local bijectivity: the multiset {phi(w) : w ~ v} must equal the
    // neighbour set of g without repetition.
    std::vector<Vertex> images;
    for (Vertex w : H.neighbors(v)) images.push_back(phi[w]);
    std::sort(images.begin(), images.end());
    if (std::adjacent_find(images.begin(), images.end()) != images.end())
      return fail(error, "fibre collision in neighbourhood of " +
                             std::to_string(v));
    auto nb = G.neighbors(g);
    if (!std::equal(images.begin(), images.end(), nb.begin(), nb.end()))
      return fail(error, "neighbourhood projection mismatch at " +
                             std::to_string(v));
  }
  return true;
}

std::vector<int> fibre_sizes(const std::vector<Vertex>& phi, Vertex base_n) {
  std::vector<int> sizes(base_n, 0);
  for (Vertex g : phi) ++sizes.at(g);
  return sizes;
}

Lift voltage_lift(const LDigraph& G, int l,
                  const std::function<std::vector<int>(const Arc&)>& voltage) {
  if (l < 1) throw std::invalid_argument("lift degree must be >= 1");
  Lift lift;
  lift.phi.resize(static_cast<std::size_t>(G.num_vertices()) * l);
  for (Vertex g = 0; g < G.num_vertices(); ++g)
    for (int i = 0; i < l; ++i) lift.phi[g * l + i] = g;
  std::vector<Arc> arcs;
  arcs.reserve(G.num_arcs() * l);
  for (const Arc& a : G.arcs()) {
    const std::vector<int> sigma = voltage(a);
    // Validate the permutation.
    std::vector<int> check(sigma);
    std::sort(check.begin(), check.end());
    for (int i = 0; i < l; ++i)
      if (check[static_cast<std::size_t>(i)] != i)
        throw std::invalid_argument("voltage is not a permutation");
    for (int i = 0; i < l; ++i)
      arcs.push_back({a.from * l + i, a.to * l + sigma[i], a.label});
  }
  lift.graph = LDigraph::from_arcs(G.num_vertices() * l, G.alphabet_size(),
                                   std::move(arcs));
  return lift;
}

Lift random_lift(const LDigraph& G, int l, std::mt19937_64& rng) {
  return voltage_lift(G, l, [&](const Arc&) {
    std::vector<int> sigma(l);
    std::iota(sigma.begin(), sigma.end(), 0);
    std::shuffle(sigma.begin(), sigma.end(), rng);
    return sigma;
  });
}

Vertex grow_lift(Lift& lift, const LDigraph& G, int extra,
                 std::mt19937_64& rng) {
  if (extra < 1) throw std::invalid_argument("lift growth must be >= 1");
  const Vertex base_n = G.num_vertices();
  if (static_cast<Vertex>(lift.phi.size()) != lift.graph.num_vertices())
    throw std::invalid_argument("lift phi size mismatch");
  for (Vertex b : lift.phi)
    if (b < 0 || b >= base_n)
      throw std::invalid_argument("lift phi out of base range");
  if (lift.graph.alphabet_size() != G.alphabet_size())
    throw std::invalid_argument("lift alphabet mismatch");
  const Vertex first = lift.graph.num_vertices();
  lift.phi.resize(static_cast<std::size_t>(first) +
                  static_cast<std::size_t>(base_n) * extra);
  for (Vertex g = 0; g < base_n; ++g)
    for (int i = 0; i < extra; ++i)
      lift.phi[static_cast<std::size_t>(first) + g * extra + i] = g;
  std::vector<Arc> arcs;
  arcs.reserve(lift.graph.num_arcs() + G.num_arcs() * extra);
  arcs.insert(arcs.end(), lift.graph.arcs().begin(), lift.graph.arcs().end());
  std::vector<int> sigma(static_cast<std::size_t>(extra));
  for (const Arc& a : G.arcs()) {
    std::iota(sigma.begin(), sigma.end(), 0);
    std::shuffle(sigma.begin(), sigma.end(), rng);
    for (int i = 0; i < extra; ++i)
      arcs.push_back({first + a.from * extra + i,
                      first + a.to * extra + sigma[static_cast<std::size_t>(i)],
                      a.label});
  }
  lift.graph = LDigraph::from_arcs(first + base_n * extra, G.alphabet_size(),
                                   std::move(arcs));
  return first;
}

Lift disjoint_copies(const LDigraph& G, int l) {
  return voltage_lift(G, l, [&](const Arc&) {
    std::vector<int> id(l);
    std::iota(id.begin(), id.end(), 0);
    return id;
  });
}

Lift connected_lift(const LDigraph& G, int l) {
  const Graph underlying = G.underlying_graph();
  if (!is_connected(underlying))
    throw std::invalid_argument("connected_lift needs a connected base");
  if (girth(underlying) == kInfiniteGirth)
    throw std::invalid_argument(
        "connected lifts of trees are isomorphic to the tree (Remark 1.5)");
  // Find an arc whose removal keeps the underlying graph connected (any
  // arc on a cycle qualifies; scan until one is found).
  std::size_t rewired = G.arcs().size();
  for (std::size_t i = 0; i < G.arcs().size(); ++i) {
    const Arc& a = G.arcs()[i];
    std::vector<Edge> kept;
    for (const auto& [u, v] : underlying.edges())
      if (!((u == std::min(a.from, a.to)) && (v == std::max(a.from, a.to))))
        kept.emplace_back(u, v);
    const Graph without =
        Graph::from_edges(underlying.num_vertices(), std::move(kept));
    if (is_connected(without)) {
      rewired = i;
      break;
    }
  }
  if (rewired == G.arcs().size())
    throw std::logic_error("no rewirable arc found");  // unreachable
  return voltage_lift(G, l, [&, rewired](const Arc& a) {
    std::vector<int> sigma(l);
    if (&a == &G.arcs()[rewired] ||
        (a.from == G.arcs()[rewired].from && a.to == G.arcs()[rewired].to &&
         a.label == G.arcs()[rewired].label)) {
      for (int i = 0; i < l; ++i) sigma[i] = (i + 1) % l;  // cyclic pi
    } else {
      std::iota(sigma.begin(), sigma.end(), 0);
    }
    return sigma;
  });
}

ProductLift product_lift(const LDigraph& H, const LDigraph& G) {
  if (H.alphabet_size() < G.alphabet_size())
    throw std::invalid_argument("template alphabet too small");
  // H must be complete on G's labels: out- and in-arc for every label.
  for (Vertex h = 0; h < H.num_vertices(); ++h)
    for (Label l = 0; l < G.alphabet_size(); ++l)
      if (!H.out_neighbor(h, l) || !H.in_neighbor(h, l))
        throw std::invalid_argument(
            "template H is not complete on label " + std::to_string(l));
  const Vertex ng = G.num_vertices();
  ProductLift result;
  result.phi.resize(static_cast<std::size_t>(H.num_vertices()) * ng);
  result.phi_h.resize(result.phi.size());
  for (Vertex h = 0; h < H.num_vertices(); ++h)
    for (Vertex g = 0; g < ng; ++g) {
      result.phi[h * ng + g] = g;
      result.phi_h[h * ng + g] = h;
    }
  std::vector<Arc> arcs;
  arcs.reserve(G.num_arcs() * H.num_vertices());
  for (const Arc& a : G.arcs()) {
    for (Vertex h = 0; h < H.num_vertices(); ++h) {
      const auto h2 = H.out_neighbor(h, a.label);
      // completeness was checked above
      arcs.push_back({h * ng + a.from, *h2 * ng + a.to, a.label});
    }
  }
  result.graph = LDigraph::from_arcs(H.num_vertices() * ng, G.alphabet_size(),
                                     std::move(arcs));
  return result;
}

}  // namespace lapx::graph
