#include "lapx/core/simulate.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace lapx::core {

Ball view_to_ordered_ball(const ViewTree& t, const TStarOrder& order) {
  Ball ball;
  ball.radius = t.radius;
  std::vector<graph::Edge> edges;
  ball.original.resize(t.nodes.size());
  ball.keys.resize(t.nodes.size());
  for (int i = 0; i < t.size(); ++i) {
    // `original` stores the *view-node index*, so that after OI
    // canonicalization a mark on canonical vertex x can be traced back to
    // the view node original[x] (and hence to its incident-arc move).
    ball.original[i] = static_cast<graph::Vertex>(i);
    ball.keys[i] = order.rank(t.word(i));
    if (t.nodes[i].parent >= 0)
      edges.emplace_back(static_cast<graph::Vertex>(t.nodes[i].parent),
                         static_cast<graph::Vertex>(i));
  }
  ball.g = graph::Graph::from_edges(static_cast<graph::Vertex>(t.size()),
                                    std::move(edges));
  ball.root = 0;
  return ball;
}

VertexPoAlgorithm oi_to_po(VertexOiAlgorithm a, TStarOrder order) {
  return [a = std::move(a), order = std::move(order)](const ViewTree& t) {
    return a(canonicalize_oi(view_to_ordered_ball(t, order)));
  };
}

EdgePoAlgorithm oi_to_po_edges(EdgeOiAlgorithm a, TStarOrder order) {
  return [a = std::move(a),
          order = std::move(order)](const ViewTree& t) -> EdgeMarksPo {
    const Ball canonical = canonicalize_oi(view_to_ordered_ball(t, order));
    const EdgeMarksOi oi_marks = a(canonical);
    EdgeMarksPo po_marks;
    po_marks.reserve(oi_marks.size());
    for (const auto& [ball_vertex, selected] : oi_marks) {
      // Trace the canonical vertex back to its view node; the marked
      // neighbour must be a child of the root, and its `via` move
      // identifies the incident arc.
      const int view_node = canonical.original.at(ball_vertex);
      const auto& node = t.nodes.at(view_node);
      if (node.parent != 0)
        throw std::logic_error("edge mark on a non-neighbour of the root");
      po_marks.emplace_back(node.via, selected);
    }
    return po_marks;
  };
}

OrderedLift ordered_product_lift(const graph::LDigraph& h_template,
                                 const order::Keys& h_keys,
                                 const graph::LDigraph& g) {
  graph::ProductLift product = graph::product_lift(h_template, g);
  OrderedLift lift{std::move(product.graph), {}, std::move(product.phi),
                   std::move(product.phi_h)};
  // Completion of the pull-back partial order: order primarily by the
  // template key of phi_H(v); ties (same fibre of phi_H) broken by the
  // g-index.  Since |G| is finite the combined key is injective.
  const auto n_g = static_cast<std::int64_t>(g.num_vertices());
  lift.keys.resize(static_cast<std::size_t>(lift.graph.num_vertices()));
  for (graph::Vertex v = 0; v < lift.graph.num_vertices(); ++v)
    lift.keys[v] = h_keys.at(lift.phi_h[v]) * n_g + lift.phi[v];
  return lift;
}

AgreementReport measure_agreement(const graph::LDigraph& lifted,
                                  const order::Keys& keys,
                                  const VertexOiAlgorithm& a,
                                  const TStarOrder& order, int r) {
  AgreementReport report;
  const graph::Graph underlying = lifted.underlying_graph();
  report.oi_output = run_oi(underlying, keys, a, r);
  report.po_output = run_po(lifted, oi_to_po(a, order), r);
  std::size_t agree = 0;
  for (std::size_t v = 0; v < report.oi_output.size(); ++v)
    agree += report.oi_output[v] == report.po_output[v];
  report.agreement = report.oi_output.empty()
                         ? 1.0
                         : static_cast<double>(agree) / report.oi_output.size();
  return report;
}

AgreementReport measure_edge_agreement(const graph::LDigraph& lifted,
                                       const order::Keys& keys,
                                       const EdgeOiAlgorithm& a,
                                       const TStarOrder& order, int r) {
  AgreementReport report;
  const graph::Graph underlying = lifted.underlying_graph();
  report.oi_output = run_oi_edges(underlying, keys, a, r);
  report.po_output = run_po_edges(lifted, oi_to_po_edges(a, order), r);
  std::size_t agree = 0;
  for (std::size_t e = 0; e < report.oi_output.size(); ++e)
    agree += report.oi_output[e] == report.po_output[e];
  report.agreement = report.oi_output.empty()
                         ? 1.0
                         : static_cast<double>(agree) / report.oi_output.size();
  return report;
}

}  // namespace lapx::core
