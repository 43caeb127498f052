#include "lapx/core/model.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <unordered_map>

#include "lapx/core/refine.hpp"
#include "lapx/runtime/parallel.hpp"

namespace lapx::core {

namespace {

// Parallel per-vertex runner: bodies write into per-index byte slots (a
// vector<bool> would pack adjacent vertices into one word -- a data race),
// the result is converted once at the end.
template <typename Body>
std::vector<bool> run_vertices(std::int64_t n, const Body& body) {
  std::vector<unsigned char> buf(static_cast<std::size_t>(n));
  runtime::parallel_for(n, [&](std::int64_t v) {
    buf[static_cast<std::size_t>(v)] = body(v) ? 1 : 0;
  });
  return std::vector<bool>(buf.begin(), buf.end());
}

// Type-class index over a per-vertex TypeId vector: cls[v] is the class of
// v, rep[c] the first vertex (in id order) of class c -- deterministic
// whatever the thread count, because the ids come from the refinement
// engine's rendezvous pass.
struct TypeClasses {
  std::vector<std::size_t> cls;
  std::vector<Vertex> rep;
};

TypeClasses classify(std::span<const TypeId> types) {
  TypeClasses tc;
  tc.cls.resize(types.size());
  std::unordered_map<TypeId, std::size_t> index;
  index.reserve(types.size());
  for (std::size_t v = 0; v < types.size(); ++v) {
    const auto [it, inserted] = index.try_emplace(types[v], tc.rep.size());
    if (inserted) tc.rep.push_back(static_cast<Vertex>(v));
    tc.cls[v] = it->second;
  }
  return tc;
}

// The PO runners take their view types from the caller.
TypeClasses classify_views(const LDigraph& g, std::span<const TypeId> types) {
  if (types.size() != static_cast<std::size_t>(g.num_vertices()))
    throw std::invalid_argument("PO runner needs one view type per vertex");
  return classify(types);
}

// The edges the vertices of g mark, collected per incidence: one flat
// flag array in which vertex v owns the deg(v) flags of its incident
// edges (in incident_edges order), so the two endpoints of an edge never
// write the same byte and the parallel phase allocates nothing.  The
// edge bits are set serially.
class IncidenceMarks {
 public:
  explicit IncidenceMarks(const graph::Graph& g)
      : g_(g), start_(static_cast<std::size_t>(g.num_vertices()) + 1) {
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      start_[v + 1] = start_[v] + static_cast<std::size_t>(g.degree(v));
    flags_.assign(start_.back(), 0);
  }

  // Marks edge {v, w}; throws as g.edge_id(v, w) does when there is none.
  void mark(Vertex v, Vertex w) {
    const graph::EdgeId e = g_.edge_id(v, w);
    const auto incident = g_.incident_edges(v);
    const auto at = std::find(incident.begin(), incident.end(), e);
    flags_[start_[v] + static_cast<std::size_t>(at - incident.begin())] = 1;
  }

  std::vector<bool> edges() const {
    std::vector<bool> marks(g_.num_edges(), false);
    for (Vertex v = 0; v < g_.num_vertices(); ++v) {
      const auto incident = g_.incident_edges(v);
      for (std::size_t i = 0; i < incident.size(); ++i)
        if (flags_[start_[v] + i]) marks[incident[i]] = true;
    }
    return marks;
  }

 private:
  const graph::Graph& g_;
  std::vector<std::size_t> start_;
  std::vector<unsigned char> flags_;
};

}  // namespace

std::vector<bool> run_po(const LDigraph& g, const VertexPoAlgorithm& algo,
                         int r) {
  return run_po(g, bulk_view_type_ids(g, r), algo, r);
}

std::vector<bool> run_po(const LDigraph& g, std::span<const TypeId> types,
                         const VertexPoAlgorithm& algo, int r) {
  // A PO algorithm is by definition a function of the truncated view, so it
  // runs once per view-type class (on the class's first vertex, whose tree
  // is materialized as the witness) and the answer is scattered.
  const auto tc = classify_views(g, types);
  std::vector<unsigned char> out(tc.rep.size());
  runtime::parallel_for(static_cast<std::int64_t>(tc.rep.size()),
                        [&](std::int64_t c) {
                          out[static_cast<std::size_t>(c)] =
                              algo(view(g, tc.rep[static_cast<std::size_t>(c)],
                                        r)) != 0
                                  ? 1
                                  : 0;
                        });
  std::vector<bool> result(tc.cls.size());
  for (std::size_t v = 0; v < tc.cls.size(); ++v)
    result[v] = out[tc.cls[v]] != 0;
  return result;
}

std::vector<bool> run_oi(const graph::Graph& g, const order::Keys& keys,
                         const VertexOiAlgorithm& algo, int r) {
  // Same dedup for OI: the canonical ball handed to the algorithm is a
  // function of the interned ordered-ball tuple (the `original` traceback
  // is not part of the OI-visible input), so one evaluation per class.
  const auto tc = classify(order::ordered_ball_type_ids(g, keys, r));
  std::vector<unsigned char> out(tc.rep.size());
  runtime::parallel_for(
      static_cast<std::int64_t>(tc.rep.size()), [&](std::int64_t c) {
        out[static_cast<std::size_t>(c)] =
            algo(canonicalize_oi(extract_ball(
                g, keys, tc.rep[static_cast<std::size_t>(c)], r))) != 0
                ? 1
                : 0;
      });
  std::vector<bool> result(tc.cls.size());
  for (std::size_t v = 0; v < tc.cls.size(); ++v)
    result[v] = out[tc.cls[v]] != 0;
  return result;
}

std::vector<bool> run_id(const graph::Graph& g, const order::Keys& ids,
                         const VertexIdAlgorithm& algo, int r) {
  return run_vertices(g.num_vertices(), [&](std::int64_t v) {
    return algo(extract_ball(g, ids, static_cast<graph::Vertex>(v), r)) != 0;
  });
}

std::vector<bool> run_po_edges(const LDigraph& g, const EdgePoAlgorithm& algo,
                               int r) {
  const graph::Graph underlying = g.underlying_graph();
  return run_po_edges(g, underlying, bulk_view_type_ids(g, r), algo, r);
}

std::vector<bool> run_po_edges(const LDigraph& g,
                               const graph::Graph& underlying,
                               std::span<const TypeId> types,
                               const EdgePoAlgorithm& algo, int r) {
  // The move selection is a function of the view type, so the algorithm
  // runs once per class; the per-vertex translation of moves to edge ids
  // (including the missing-arc check) still happens at every vertex.
  const auto tc = classify_views(g, types);
  std::vector<EdgeMarksPo> class_marks(tc.rep.size());
  runtime::parallel_for(static_cast<std::int64_t>(tc.rep.size()),
                        [&](std::int64_t c) {
                          class_marks[static_cast<std::size_t>(c)] =
                              algo(view(g, tc.rep[static_cast<std::size_t>(c)],
                                        r));
                        });
  IncidenceMarks marked(underlying);
  runtime::parallel_for(g.num_vertices(), [&](std::int64_t vi) {
    const Vertex v = static_cast<Vertex>(vi);
    for (const auto& [move, selected] :
         class_marks[tc.cls[static_cast<std::size_t>(vi)]]) {
      if (!selected) continue;
      const auto w = move.outgoing ? g.out_neighbor(v, move.label)
                                   : g.in_neighbor(v, move.label);
      if (!w)
        throw std::logic_error("PO edge algorithm marked a missing arc");
      marked.mark(v, *w);
    }
  });
  return marked.edges();
}

std::vector<bool> run_oi_edges(const graph::Graph& g, const order::Keys& keys,
                               const EdgeOiAlgorithm& algo, int r) {
  IncidenceMarks marked(g);
  runtime::parallel_for(g.num_vertices(), [&](std::int64_t vi) {
    const graph::Vertex v = static_cast<graph::Vertex>(vi);
    const Ball input = canonicalize_oi(extract_ball(g, keys, v, r));
    for (const auto& [neighbor_idx, selected] : algo(input)) {
      if (!selected) continue;
      if (!input.g.has_edge(input.root, neighbor_idx))
        throw std::logic_error("edge algorithm marked a non-incident edge");
      marked.mark(v, input.original.at(neighbor_idx));
    }
  });
  return marked.edges();
}

bool po_outputs_lift_invariant(const LDigraph& lift, const LDigraph& base,
                               const std::vector<graph::Vertex>& phi,
                               const VertexPoAlgorithm& algo, int r) {
  // Both graphs are typed against the same interner, so the algorithm runs
  // once per distinct type across the two graphs; per-vertex outputs are
  // then compared exactly as before (equal types give equal outputs by the
  // PO contract, unequal types may still agree in output).
  const auto lift_types = bulk_view_type_ids(lift, r);
  const auto base_types = bulk_view_type_ids(base, r);
  std::unordered_map<TypeId, std::size_t> index;
  std::vector<std::pair<bool, Vertex>> rep;  // (from base?, vertex)
  for (std::size_t v = 0; v < lift_types.size(); ++v)
    if (index.try_emplace(lift_types[v], rep.size()).second)
      rep.emplace_back(false, static_cast<Vertex>(v));
  for (std::size_t v = 0; v < base_types.size(); ++v)
    if (index.try_emplace(base_types[v], rep.size()).second)
      rep.emplace_back(true, static_cast<Vertex>(v));
  std::vector<int> out(rep.size());
  runtime::parallel_for(static_cast<std::int64_t>(rep.size()),
                        [&](std::int64_t c) {
                          const auto& [from_base, v] =
                              rep[static_cast<std::size_t>(c)];
                          out[static_cast<std::size_t>(c)] =
                              algo(view(from_base ? base : lift, v, r));
                        });
  return runtime::parallel_reduce(
      lift.num_vertices(), true,
      [&](std::int64_t v) {
        return out[index.at(lift_types[static_cast<std::size_t>(v)])] ==
               out[index.at(base_types.at(
                   phi.at(static_cast<std::size_t>(v))))];
      },
      [](bool a, bool b) { return a && b; });
}

}  // namespace lapx::core
