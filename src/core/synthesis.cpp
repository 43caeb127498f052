#include "lapx/core/synthesis.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "lapx/core/interner.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/problems/exact.hpp"
#include "lapx/runtime/parallel.hpp"

namespace lapx::core {

namespace {

using problems::Goal;
using problems::Kind;
using problems::Problem;

struct InstanceData {
  const graph::LDigraph* digraph;
  graph::Graph underlying;
  std::size_t optimum;
  std::vector<int> type_of_vertex;                 // vertex -> type index
  std::vector<std::vector<int>> root_children;     // per vertex: view children
  std::vector<ViewTree> views;                     // per vertex
};

// Maps interned view TypeIds to dense per-synthesis indices.  Dense indices
// are assigned serially in first-occurrence (instance, vertex) order, so the
// enumeration order -- and result.view_types -- is independent of the thread
// count; the debug spelling is produced once per distinct type.
struct TypeIndex {
  std::vector<std::string> types;
  std::unordered_map<TypeId, int> index;

  int intern(TypeId id, const ViewTree& representative) {
    auto it = index.find(id);
    if (it != index.end()) return it->second;
    const int dense = static_cast<int>(types.size());
    types.push_back(view_type(representative));
    index.emplace(id, dense);
    return dense;
  }
};

std::vector<InstanceData> prepare(const Problem& problem,
                                  const std::vector<graph::LDigraph>& instances,
                                  int r, TypeIndex& types,
                                  TypeInterner& interner) {
  std::vector<InstanceData> data;
  data.reserve(instances.size());
  for (const auto& g : instances) {
    InstanceData d;
    d.digraph = &g;
    d.underlying = g.underlying_graph();
    d.optimum = problems::exact_optimum(problem, d.underlying);
    const graph::Vertex n = g.num_vertices();
    d.type_of_vertex.resize(n);
    d.views.resize(static_cast<std::size_t>(n));
    // The views build in parallel (they intern nothing); their ids come
    // from the refinement, which interns in a schedule-free order.
    runtime::parallel_for(n, [&](std::int64_t v) {
      d.views[static_cast<std::size_t>(v)] =
          view(g, static_cast<graph::Vertex>(v), r);
    });
    const std::vector<TypeId> ids = bulk_view_type_ids(g, r, interner);
    for (graph::Vertex v = 0; v < n; ++v)
      d.type_of_vertex[v] =
          types.intern(ids[static_cast<std::size_t>(v)],
                       d.views[static_cast<std::size_t>(v)]);
    data.push_back(std::move(d));
  }
  return data;
}

double evaluate_ratio(const Problem& problem, std::size_t size,
                      std::size_t optimum) {
  return problems::approximation_ratio(problem, size, optimum);
}

}  // namespace

SynthesisResult synthesize_po_vertex(
    const Problem& problem, const std::vector<graph::LDigraph>& instances,
    int r, std::size_t max_algorithms, TypeInterner& interner) {
  if (problem.kind != Kind::kVertexSubset)
    throw std::invalid_argument("vertex synthesis needs a vertex problem");
  TypeIndex types;
  const auto data = prepare(problem, instances, r, types, interner);
  const std::size_t t = types.types.size();
  if (t >= 63 || (std::size_t{1} << t) > max_algorithms)
    throw std::invalid_argument("algorithm space too large: 2^" +
                                std::to_string(t));
  SynthesisResult result;
  result.view_types = types.types;
  result.optimal_ratio = std::numeric_limits<double>::infinity();
  for (std::size_t mask = 0; mask < (std::size_t{1} << t); ++mask) {
    ++result.algorithms_enumerated;
    double worst = 0.0;
    bool feasible = true;
    for (const auto& d : data) {
      problems::Solution sol;
      sol.kind = Kind::kVertexSubset;
      sol.bits.resize(d.underlying.num_vertices());
      for (graph::Vertex v = 0; v < d.underlying.num_vertices(); ++v)
        sol.bits[v] = (mask >> d.type_of_vertex[v]) & 1;
      if (!problem.feasible(d.underlying, sol)) {
        feasible = false;
        break;
      }
      worst = std::max(worst, evaluate_ratio(problem, sol.size(), d.optimum));
    }
    if (!feasible) continue;
    ++result.feasible_algorithms;
    if (worst < result.optimal_ratio) {
      result.optimal_ratio = worst;
      result.optimal_behaviour.assign(t, 0);
      for (std::size_t i = 0; i < t; ++i)
        result.optimal_behaviour[i] = (mask >> i) & 1;
    }
  }
  return result;
}

SynthesisResult synthesize_po_edges(
    const Problem& problem, const std::vector<graph::LDigraph>& instances,
    int r, std::size_t max_algorithms, TypeInterner& interner) {
  if (problem.kind != Kind::kEdgeSubset)
    throw std::invalid_argument("edge synthesis needs an edge problem");
  TypeIndex types;
  const auto data = prepare(problem, instances, r, types, interner);
  const std::size_t t = types.types.size();
  // Per type, the output alphabet is 2^(children of the root); collect the
  // child counts (identical for all representatives of a type).
  std::vector<int> child_count(t, -1);
  for (const auto& d : data)
    for (graph::Vertex v = 0; v < d.underlying.num_vertices(); ++v) {
      const int type = d.type_of_vertex[v];
      const int count = static_cast<int>(d.views[v].children[0].size());
      if (child_count[type] == -1) child_count[type] = count;
    }
  // Mixed-radix enumeration over types.
  std::size_t space = 1;
  for (std::size_t i = 0; i < t; ++i) {
    const std::size_t options = std::size_t{1} << child_count[i];
    if (space > max_algorithms / options)
      throw std::invalid_argument("algorithm space too large");
    space *= options;
  }
  SynthesisResult result;
  result.view_types = types.types;
  result.optimal_ratio = std::numeric_limits<double>::infinity();
  std::vector<int> behaviour(t, 0);
  for (std::size_t code = 0; code < space; ++code) {
    // Decode mixed radix.
    std::size_t x = code;
    for (std::size_t i = 0; i < t; ++i) {
      const std::size_t options = std::size_t{1} << child_count[i];
      behaviour[i] = static_cast<int>(x % options);
      x /= options;
    }
    ++result.algorithms_enumerated;
    double worst = 0.0;
    bool feasible = true;
    for (const auto& d : data) {
      problems::Solution sol;
      sol.kind = Kind::kEdgeSubset;
      sol.bits.assign(d.underlying.num_edges(), false);
      for (graph::Vertex v = 0; v < d.underlying.num_vertices(); ++v) {
        const int marks = behaviour[d.type_of_vertex[v]];
        const auto& children = d.views[v].children[0];
        for (std::size_t c = 0; c < children.size(); ++c) {
          if (!((marks >> c) & 1)) continue;
          const Move move = d.views[v].nodes[children[c]].via;
          const auto w = move.outgoing
                             ? d.digraph->out_neighbor(v, move.label)
                             : d.digraph->in_neighbor(v, move.label);
          sol.bits[d.underlying.edge_id(v, *w)] = true;
        }
      }
      if (!problem.feasible(d.underlying, sol)) {
        feasible = false;
        break;
      }
      worst = std::max(worst, evaluate_ratio(problem, sol.size(), d.optimum));
    }
    if (!feasible) continue;
    ++result.feasible_algorithms;
    if (worst < result.optimal_ratio) {
      result.optimal_ratio = worst;
      result.optimal_behaviour = behaviour;
    }
  }
  return result;
}

}  // namespace lapx::core
