#include "lapx/group/homogeneous.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "lapx/graph/properties.hpp"
#include "lapx/runtime/parallel.hpp"

namespace lapx::group {

namespace {

struct ElemHash {
  std::size_t operator()(const Elem& e) const {
    std::size_t h = 1469598103934665603ull;
    for (int c : e) {
      h ^= static_cast<std::size_t>(static_cast<unsigned>(c));
      h *= 1099511628211ull;
    }
    return h;
  }
};

// The ordered radius-r ball around `center` in the Cayley graph of `group`
// w.r.t. `gens`, built using only group arithmetic: the induced sub-digraph
// on the BFS ball (discovery order fixes the vertex numbering) with
// positive-cone keys.  The linear order is the cone order on representative
// tuples.
std::tuple<graph::LDigraph, order::Keys, graph::Vertex> ball_by_arithmetic(
    const WreathGroup& group, const std::vector<Elem>& gens,
    const Elem& center, int r, int level) {
  std::unordered_map<Elem, int, ElemHash> dist;
  std::deque<Elem> queue{center};
  dist[center] = 0;
  std::vector<Elem> members{center};
  while (!queue.empty()) {
    Elem g = queue.front();
    queue.pop_front();
    const int dg = dist.at(g);
    if (dg == r) continue;
    auto visit = [&](const Elem& h) {
      if (dist.emplace(h, dg + 1).second) {
        queue.push_back(h);
        members.push_back(h);
      }
    };
    for (const Elem& s : gens) {
      visit(group.multiply(g, s));
      visit(group.multiply(g, group.inverse(s)));
    }
  }
  // Index members; build the induced sub-digraph.
  std::unordered_map<Elem, int, ElemHash> index;
  index.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i)
    index[members[i]] = static_cast<int>(i);
  const auto k = static_cast<graph::Label>(gens.size());
  std::vector<graph::Arc> arcs;
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (graph::Label si = 0; si < k; ++si) {
      const Elem h = group.multiply(members[i], gens[si]);
      auto it = index.find(h);
      if (it != index.end())
        arcs.push_back({static_cast<graph::Vertex>(i), it->second, si});
    }
  }
  auto mini = graph::LDigraph::from_arcs(
      static_cast<graph::Vertex>(members.size()), k, std::move(arcs));
  // Cone-order ranks.
  std::vector<int> order_idx(members.size());
  std::iota(order_idx.begin(), order_idx.end(), 0);
  std::sort(order_idx.begin(), order_idx.end(), [&](int a, int b) {
    return cone_less(level, members[a], members[b]);
  });
  order::Keys keys(members.size());
  for (std::size_t pos = 0; pos < order_idx.size(); ++pos)
    keys[order_idx[pos]] = static_cast<std::int64_t>(pos);
  return {std::move(mini), std::move(keys), graph::Vertex{0}};
}

std::string ball_type_by_arithmetic(const WreathGroup& group,
                                    const std::vector<Elem>& gens,
                                    const Elem& center, int r, int level) {
  const auto [mini, keys, root] =
      ball_by_arithmetic(group, gens, center, r, level);
  return order::ordered_ball_type(mini, keys, root, r);
}

// Interned variant; equal id <=> equal ball_type_by_arithmetic string.
core::TypeId ball_type_id_by_arithmetic(
    const WreathGroup& group, const std::vector<Elem>& gens,
    const Elem& center, int r, int level,
    core::TypeInterner& interner = core::TypeInterner::global()) {
  const auto [mini, keys, root] =
      ball_by_arithmetic(group, gens, center, r, level);
  return order::ordered_ball_type_id(mini, keys, root, r, interner);
}

}  // namespace

std::optional<HomogeneousSpec> design_homogeneous(int k, int r, int max_level,
                                                  std::mt19937_64& rng) {
  auto found = find_generators(k, 2 * r + 1, max_level, rng);
  if (!found) return std::nullopt;
  HomogeneousSpec spec;
  spec.k = k;
  spec.r = r;
  spec.level = found->level;
  spec.generators = found->generators;
  spec.m = 0;  // caller chooses the cut modulus
  return spec;
}

std::string tau_star_type(const HomogeneousSpec& spec) {
  const WreathGroup u = spec.infinite_group();
  return ball_type_by_arithmetic(u, spec.generators, u.identity(), spec.r,
                                 spec.level);
}

std::string local_type(const HomogeneousSpec& spec, const Elem& center) {
  if (spec.m <= 0) throw std::invalid_argument("spec.m not set");
  const WreathGroup h = spec.finite_group();
  return ball_type_by_arithmetic(h, spec.generators, center, spec.r,
                                 spec.level);
}

double sampled_homogeneity(const HomogeneousSpec& spec, int samples,
                           std::mt19937_64& rng,
                           core::TypeInterner& interner) {
  if (spec.m <= 0) throw std::invalid_argument("spec.m not set");
  const WreathGroup h = spec.finite_group();
  const WreathGroup u = spec.infinite_group();
  const core::TypeId tau = ball_type_id_by_arithmetic(
      u, spec.generators, u.identity(), spec.r, spec.level, interner);
  // Draw all samples serially (the rng stream must not depend on the thread
  // count), then classify them in parallel by looking their keys up, never
  // inserting: a sample is tau-typed iff its key resolves to tau.
  std::uniform_int_distribution<int> coord(0, spec.m - 1);
  std::vector<Elem> centers(static_cast<std::size_t>(samples),
                            Elem(static_cast<std::size_t>(h.dimension())));
  for (Elem& g : centers)
    for (int& c : g) c = coord(rng);
  const int hits = runtime::parallel_reduce(
      samples, 0,
      [&](std::int64_t i) {
        const auto [mini, keys, root] =
            ball_by_arithmetic(h, spec.generators,
                               centers[static_cast<std::size_t>(i)], spec.r,
                               spec.level);
        return order::find_ordered_ball_type_id(mini, keys, root, spec.r,
                                                interner) == tau
                   ? 1
                   : 0;
      },
      [](int a, int b) { return a + b; });
  return samples == 0 ? 0.0 : static_cast<double>(hits) / samples;
}

double inner_fraction_bound(const HomogeneousSpec& spec) {
  if (spec.m <= 0) throw std::invalid_argument("spec.m not set");
  const double base =
      std::max(0.0, static_cast<double>(spec.m - 2 * spec.r) / spec.m);
  return std::pow(base, spec.finite_group().dimension());
}

HomogeneousGraph materialize_homogeneous(const HomogeneousSpec& spec,
                                         std::int64_t max_vertices,
                                         bool take_component) {
  if (spec.m <= 0) throw std::invalid_argument("spec.m not set");
  const WreathGroup h = spec.finite_group();
  CayleyGraph cg = materialize_cayley(h, spec.generators, max_vertices);

  const std::int64_t n = h.size();
  std::vector<Elem> elements;
  elements.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) elements.push_back(h.decode(i));

  auto keys_for = [&](const std::vector<Elem>& elems) {
    std::vector<int> idx(elems.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(), [&](int a, int b) {
      return cone_less(spec.level, elems[a], elems[b]);
    });
    order::Keys keys(elems.size());
    for (std::size_t pos = 0; pos < idx.size(); ++pos)
      keys[idx[pos]] = static_cast<std::int64_t>(pos);
    return keys;
  };

  if (!take_component)
    return HomogeneousGraph{spec, std::move(cg.digraph), keys_for(elements),
                            std::move(elements)};

  // Pick the component with the highest density of tau*-type vertices
  // (the averaging argument at the end of the proof of Theorem 3.2).
  const WreathGroup u = spec.infinite_group();
  const core::TypeId tau = ball_type_id_by_arithmetic(
      u, spec.generators, u.identity(), spec.r, spec.level);
  order::Keys full_keys = keys_for(elements);
  const graph::Graph underlying = cg.digraph.underlying_graph();
  const std::vector<int> comp = graph::connected_components(underlying);
  const int num_comps = 1 + *std::max_element(comp.begin(), comp.end());
  const graph::Vertex n_vertices = cg.digraph.num_vertices();
  const std::vector<core::TypeId> vids =
      order::ordered_ball_type_ids(cg.digraph, full_keys, spec.r);
  std::vector<std::int64_t> total(num_comps, 0), good(num_comps, 0);
  for (graph::Vertex v = 0; v < n_vertices; ++v) {
    ++total[comp[v]];
    if (vids[static_cast<std::size_t>(v)] == tau) ++good[comp[v]];
  }
  int best = 0;
  double best_density = -1.0;
  for (int c = 0; c < num_comps; ++c) {
    const double density = static_cast<double>(good[c]) / total[c];
    if (density > best_density) {
      best_density = density;
      best = c;
    }
  }
  // Extract the chosen component.
  graph::Vertex seed = 0;
  while (comp[seed] != best) ++seed;
  auto [sub, members] = graph::component_of(cg.digraph, seed);
  std::vector<Elem> sub_elements;
  sub_elements.reserve(members.size());
  for (graph::Vertex v : members) sub_elements.push_back(elements[v]);
  return HomogeneousGraph{spec, std::move(sub), keys_for(sub_elements),
                          std::move(sub_elements)};
}

}  // namespace lapx::group
