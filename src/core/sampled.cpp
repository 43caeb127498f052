#include "lapx/core/sampled.hpp"

#include <deque>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "lapx/core/simulate.hpp"
#include "lapx/group/wreath.hpp"

namespace lapx::core {

namespace {

using group::Elem;
using group::HomogeneousSpec;

struct LiftNodeHash {
  std::size_t operator()(const LiftNode& node) const {
    std::size_t h = 1469598103934665603ull;
    for (int c : node.h) {
      h ^= static_cast<std::size_t>(static_cast<unsigned>(c));
      h *= 1099511628211ull;
    }
    h ^= static_cast<std::size_t>(node.g);
    h *= 1099511628211ull;
    return h;
  }
};

// Neighbour of a lift node along a move: multiply the H component by the
// corresponding generator (or inverse) and follow the G arc.
std::optional<LiftNode> lift_step(const HomogeneousSpec& spec,
                                  const group::WreathGroup& h_group,
                                  const graph::LDigraph& g,
                                  const LiftNode& node, const Move& move) {
  const Elem& s = spec.generators.at(move.label);
  if (move.outgoing) {
    const auto target = g.out_neighbor(node.g, move.label);
    if (!target) return std::nullopt;
    return LiftNode{h_group.multiply(node.h, s), *target};
  }
  const auto source = g.in_neighbor(node.g, move.label);
  if (!source) return std::nullopt;
  return LiftNode{h_group.multiply(node.h, h_group.inverse(s)), *source};
}

}  // namespace

Ball sampled_lift_ball(const HomogeneousSpec& spec, const graph::LDigraph& g,
                       const LiftNode& node, int r) {
  if (spec.m <= 0) throw std::invalid_argument("spec.m not set");
  if (g.alphabet_size() > spec.k)
    throw std::invalid_argument("G uses labels outside the template");
  const group::WreathGroup h_group = spec.finite_group();

  // BFS over lift nodes.  Discovery order is fixed by the queue, so the
  // hashed index does not affect vertex numbering.
  std::unordered_map<LiftNode, int, LiftNodeHash> index;
  std::vector<LiftNode> members{node};
  std::vector<int> depth{0};
  index[node] = 0;
  std::deque<int> queue{0};
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop_front();
    if (depth[cur] == r) continue;
    for (int outgoing = 0; outgoing < 2; ++outgoing) {
      for (graph::Label l = 0; l < g.alphabet_size(); ++l) {
        const auto next = lift_step(spec, h_group, g, members[cur],
                                    Move{outgoing == 1, l});
        if (!next) continue;
        if (index.emplace(*next, static_cast<int>(members.size())).second) {
          members.push_back(*next);
          depth.push_back(depth[cur] + 1);
          queue.push_back(static_cast<int>(members.size()) - 1);
        }
      }
    }
  }

  Ball ball;
  ball.radius = r;
  ball.root = 0;
  ball.original.resize(members.size());
  std::iota(ball.original.begin(), ball.original.end(), 0);
  // Induced edges: scan arcs from each member.
  std::vector<graph::Edge> edges;
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (graph::Label l = 0; l < g.alphabet_size(); ++l) {
      const auto next =
          lift_step(spec, h_group, g, members[i], Move{true, l});
      if (!next) continue;
      auto it = index.find(*next);
      if (it != index.end())
        edges.emplace_back(static_cast<graph::Vertex>(i),
                           static_cast<graph::Vertex>(it->second));
    }
  }
  const auto size = static_cast<graph::Vertex>(members.size());
  graph::drop_repeated_edges(size, edges);
  ball.g = graph::Graph::from_edges(size, std::move(edges));
  // Keys: cone order on the H component (ties broken by G index; girth
  // guarantees no ties inside a ball, but the completion keeps the order
  // total regardless).
  std::vector<int> order_idx(members.size());
  std::iota(order_idx.begin(), order_idx.end(), 0);
  std::sort(order_idx.begin(), order_idx.end(), [&](int a, int b) {
    if (members[a].h != members[b].h)
      return group::cone_less(spec.level, members[a].h, members[b].h);
    return members[a].g < members[b].g;
  });
  ball.keys.resize(members.size());
  for (std::size_t pos = 0; pos < order_idx.size(); ++pos)
    ball.keys[order_idx[pos]] = static_cast<std::int64_t>(pos);
  return ball;
}

ViewTree sampled_lift_view(const HomogeneousSpec& spec,
                           const graph::LDigraph& g, const LiftNode& node,
                           int r) {
  // By lift invariance the view equals view(G, node.g, r); build it through
  // the product anyway so tests can check the equality.
  (void)spec;
  return view(g, node.g, r);
}

double sampled_agreement(const HomogeneousSpec& spec, const graph::LDigraph& g,
                         const VertexOiAlgorithm& a, const TStarOrder& order,
                         int r, int samples, std::mt19937_64& rng) {
  if (spec.m <= 0) throw std::invalid_argument("spec.m not set");
  const group::WreathGroup h_group = spec.finite_group();
  std::uniform_int_distribution<int> coord(0, spec.m - 1);
  std::uniform_int_distribution<graph::Vertex> pick_g(0, g.num_vertices() - 1);
  const auto b = oi_to_po(a, order);
  int agree = 0;
  for (int trial = 0; trial < samples; ++trial) {
    LiftNode node;
    node.h.resize(static_cast<std::size_t>(h_group.dimension()));
    for (int& c : node.h) c = coord(rng);
    node.g = pick_g(rng);
    const int a_out =
        a(canonicalize_oi(sampled_lift_ball(spec, g, node, r))) != 0;
    const int b_out = b(view(g, node.g, r)) != 0;
    agree += a_out == b_out;
  }
  return samples == 0 ? 1.0 : static_cast<double>(agree) / samples;
}

}  // namespace lapx::core
