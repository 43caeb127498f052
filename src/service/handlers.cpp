#include "lapx/service/handlers.hpp"

#include <algorithm>
#include <random>
#include <vector>

#include "lapx/algorithms/id.hpp"
#include "lapx/algorithms/oi.hpp"
#include "lapx/algorithms/po.hpp"
#include "lapx/core/model.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/core/view.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/io.hpp"
#include "lapx/graph/properties.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/problems/exact.hpp"
#include "lapx/problems/fractional.hpp"
#include "lapx/problems/problem.hpp"
#include "lapx/runtime/parallel.hpp"

namespace lapx::service {

namespace {

using graph::Graph;

// Service-side instance bounds: `generate`/`upload` accept untrusted
// parameters, so they are capped well below what a local batch run allows.
// Instance caps (kMaxServiceVertices/kMaxServiceEdges) live in
// handlers.hpp so the admin-side mutate cap check shares them.
constexpr std::int64_t kMaxRadius = 8;

[[noreturn]] void bad(const std::string& message) {
  throw ServiceError(ErrorCode::kBadRequest, message);
}

const Json& field(const Request& req, const std::string& key) {
  const Json* v = req.body.find(key);
  if (v == nullptr) bad("missing field \"" + key + "\"");
  return *v;
}

std::string string_field(const Request& req, const std::string& key) {
  const Json& v = field(req, key);
  if (!v.is_string()) bad("field \"" + key + "\" must be a string");
  return v.as_string();
}

std::int64_t int_field(const Request& req, const std::string& key,
                       std::int64_t fallback, std::int64_t lo,
                       std::int64_t hi) {
  const Json* v = req.body.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_int()) bad("field \"" + key + "\" must be an integer");
  const std::int64_t x = v->as_int();
  if (x < lo || x > hi)
    bad("field \"" + key + "\" out of range [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "]");
  return x;
}

const problems::Problem& problem_field(const Request& req) {
  const std::string name = string_field(req, "problem");
  if (name == "vc") return problems::vertex_cover();
  if (name == "ec") return problems::edge_cover();
  if (name == "mm") return problems::maximum_matching();
  if (name == "is") return problems::independent_set();
  if (name == "ds") return problems::dominating_set();
  if (name == "eds") return problems::edge_dominating_set();
  bad("unknown problem: " + name);
}

Json handle_analyze(const GraphEntry& entry) {
  const Graph& g = entry.graph();
  Json out = Json::object();
  out.set("n", Json::integer(g.num_vertices()));
  out.set("m", Json::integer(static_cast<std::int64_t>(g.num_edges())));
  out.set("max_degree", Json::integer(g.max_degree()));
  out.set("min_degree", Json::integer(g.min_degree()));
  out.set("girth", Json::integer(graph::girth(g)));
  out.set("connected", Json::boolean(graph::is_connected(g)));
  out.set("bipartite", Json::boolean(graph::is_bipartite(g)));
  out.set("forest", Json::boolean(graph::is_forest(g)));
  if (graph::is_connected(g) && g.num_vertices() <= 4096)
    out.set("diameter", Json::integer(graph::diameter(g)));
  return out;
}

Json handle_homogeneity(const Request& req, const GraphEntry& entry) {
  entry.graph();  // first: an over-cap ooc entry answers kTooLarge
  const int r = static_cast<int>(int_field(req, "radius", 1, 0, kMaxRadius));
  // The entry's ordered-ball classes: typed once per radius, and re-typed
  // only on the edit frontier when mutate forks them.
  const auto report = entry.homogeneity(r);
  Json out = Json::object();
  out.set("radius", Json::integer(r));
  out.set("fraction", Json::number(report.fraction));
  out.set("distinct_types",
          Json::integer(static_cast<std::int64_t>(report.distinct_types)));
  out.set("largest_class",
          Json::integer(static_cast<std::int64_t>(report.largest_class)));
  return out;
}

Json handle_views(const Request& req, const GraphEntry& entry) {
  const int r = static_cast<int>(int_field(req, "radius", 1, 0, kMaxRadius));
  // Shape accessors only: an ooc-backed entry answers views entirely by
  // streaming over its mmap'd step segments, so this handler must never
  // force the adjacency to materialize.
  const auto n = static_cast<std::int64_t>(entry.num_vertices());
  // Whole-graph refinement through the entry's persistent RefineState:
  // one pass types every vertex, stays cached for deeper radii on the
  // same epoch, and survives mutation via delta-refinement.  Same global
  // interner as bulk_view_type_ids, so counts (all we emit) -- and hence
  // the response bytes -- are identical to the from-scratch path.
  const std::vector<core::TypeId> types = entry.view_types(r);
  const auto alphabet = entry.alphabet();
  // A view is complete iff its type equals the complete-tree type.  For
  // r >= 1 that needs a root with an outgoing and an incoming arc of each
  // label, so the type (O(k^2 r) interned bytes) is built only if some
  // vertex has 2k arcs.
  std::int64_t complete = 0;
  if (r == 0 || entry.max_degree() >= 2 * std::int64_t{alphabet})
    complete = std::count(types.begin(), types.end(),
                          core::complete_view_type_id(alphabet, r));
  const core::ClassCounts classes = core::count_classes(types);
  const auto largest = static_cast<std::int64_t>(classes.largest);
  Json out = Json::object();
  out.set("radius", Json::integer(r));
  out.set("alphabet", Json::integer(alphabet));
  out.set("distinct_views",
          Json::integer(static_cast<std::int64_t>(classes.distinct)));
  out.set("largest_class", Json::integer(largest));
  out.set("fraction",
          Json::number(n == 0 ? 0.0
                              : static_cast<double>(largest) /
                                    static_cast<double>(n)));
  out.set("complete_views", Json::integer(complete));
  return out;
}

Json handle_optimum(const Request& req, const GraphEntry& entry) {
  const Graph& g = entry.graph();
  const auto& p = problem_field(req);
  if (g.num_vertices() > 64)
    throw ServiceError(ErrorCode::kTooLarge,
                       "instance too large for exact search (n > 64)");
  Json out = Json::object();
  out.set("problem", Json::string(p.name));
  out.set("opt", Json::integer(
                     static_cast<std::int64_t>(problems::exact_optimum(p, g))));
  return out;
}

Json handle_fractional(const GraphEntry& entry) {
  const Graph& g = entry.graph();
  if (g.num_vertices() > 2000)
    throw ServiceError(ErrorCode::kTooLarge,
                       "instance too large for the LP report (n > 2000)");
  const std::size_t nu2 = problems::fractional_matching_doubled(g);
  Json out = Json::object();
  out.set("nu",
          Json::integer(static_cast<std::int64_t>(
              problems::max_matching_size(g))));
  out.set("nu_f", Json::number(nu2 / 2.0));
  out.set("tau_f", Json::number(nu2 / 2.0));
  if (g.num_vertices() <= 64)
    out.set("tau", Json::integer(static_cast<std::int64_t>(
                       problems::min_vertex_cover_size(g))));
  return out;
}

Json handle_run(const Request& req, const GraphEntry& entry) {
  // First: an ooc entry above the materialization cap answers kTooLarge
  // here, before any streaming refinement starts.
  const Graph& g = entry.graph();
  const std::string alg = string_field(req, "algorithm");
  const int r = static_cast<int>(int_field(req, "radius", 0, 0, kMaxRadius));
  // The OI and ID algorithms read identity keys; the PO ones never do.
  const auto keys = [&] { return order::identity_keys(g.num_vertices()); };
  // A PO algorithm is a function of the view type (core/model.hpp), so it
  // runs on the epoch's own view classes -- the entry's RefineState, shared
  // with `views`, from which `mutate` derives the next epoch's -- and marks
  // edges by the ids of g, which are those of ldigraph().underlying_graph().
  auto po_edges = [&](const core::EdgePoAlgorithm& algo, int radius) {
    return problems::edge_solution(core::run_po_edges(
        entry.ldigraph(), g, entry.view_types(radius), algo, radius));
  };
  problems::Solution sol;
  const problems::Problem* p = nullptr;
  std::string model;
  if (alg == "eds-mark-first") {
    sol = po_edges(algorithms::eds_mark_first_po(), 1);
    p = &problems::edge_dominating_set();
    model = "PO";
  } else if (alg == "edge-cover") {
    sol = po_edges(algorithms::mark_first_edge_po(), 1);
    p = &problems::edge_cover();
    model = "PO";
  } else if (alg == "take-all-ds") {
    sol = problems::vertex_solution(core::run_po(
        entry.ldigraph(), entry.view_types(0), algorithms::take_all_po(), 0));
    p = &problems::dominating_set();
    model = "PO";
  } else if (alg == "local-min-is") {
    sol = problems::vertex_solution(
        core::run_oi(g, keys(), algorithms::local_min_is_oi(), 1));
    p = &problems::independent_set();
    model = "OI";
  } else if (alg == "vc-non-min") {
    sol = problems::vertex_solution(
        core::run_oi(g, keys(), algorithms::non_local_min_vc_oi(), 1));
    p = &problems::vertex_cover();
    model = "OI";
  } else if (alg == "eds-greedy") {
    sol = problems::edge_solution(core::run_oi_edges(
        g, keys(), algorithms::eds_greedy_fallback_oi(r > 0 ? r / 2 : 1),
        r > 0 ? r : 2));
    p = &problems::edge_dominating_set();
    model = "OI";
  } else if (alg == "even-min-is") {
    sol = problems::vertex_solution(
        core::run_id(g, keys(), algorithms::even_min_is_id(), 1));
    p = &problems::independent_set();
    model = "ID";
  } else if (alg == "ds-even-pref") {
    sol = problems::vertex_solution(
        core::run_id(g, keys(), algorithms::ds_even_preference_id(), 1));
    p = &problems::dominating_set();
    model = "ID";
  } else {
    bad("unknown algorithm: " + alg);
  }
  Json out = Json::object();
  out.set("problem", Json::string(p->name));
  out.set("algorithm", Json::string(alg));
  out.set("model", Json::string(model));
  out.set("size", Json::integer(static_cast<std::int64_t>(sol.size())));
  out.set("feasible", Json::boolean(p->feasible(g, sol)));
  if (g.num_vertices() <= 64) {
    const std::size_t opt = problems::exact_optimum(*p, g);
    out.set("opt", Json::integer(static_cast<std::int64_t>(opt)));
    out.set("ratio", Json::number(problems::approximation_ratio(
                         *p, sol.size(), opt)));
  }
  return out;
}

}  // namespace

bool is_query_op(const std::string& op) {
  return op == "analyze" || op == "homogeneity" || op == "views" ||
         op == "optimum" || op == "run" || op == "fractional";
}

Json handle_query(const Request& req, const GraphEntry& entry) {
  if (req.op == "analyze") return handle_analyze(entry);
  if (req.op == "homogeneity") return handle_homogeneity(req, entry);
  if (req.op == "views") return handle_views(req, entry);
  if (req.op == "optimum") return handle_optimum(req, entry);
  if (req.op == "run") return handle_run(req, entry);
  if (req.op == "fractional") return handle_fractional(entry);
  bad("unknown op: " + req.op);
}

graph::Graph build_generated_graph(const Request& req) {
  const std::string family = string_field(req, "family");
  std::vector<std::int64_t> args;
  if (const Json* a = req.body.find("args"); a != nullptr) {
    if (!a->is_array()) bad("field \"args\" must be an array of integers");
    for (const Json& v : a->items()) {
      if (!v.is_int()) bad("field \"args\" must be an array of integers");
      args.push_back(v.as_int());
    }
  }
  auto arg = [&](std::size_t i) -> int {
    if (i >= args.size())
      bad("family \"" + family + "\" needs more arguments");
    if (args[i] < 0 || args[i] > kMaxServiceVertices)
      bad("argument out of range: " + std::to_string(args[i]));
    return static_cast<int>(args[i]);
  };
  // Per-argument caps do not bound multi-argument families: the *product*
  // of grid/torus sides (or n*d stubs) decides the allocation, so check
  // the resulting instance size before any generator runs.
  auto check_instance = [](long long vertices, long long edges) {
    if (vertices > kMaxServiceVertices || edges > kMaxServiceEdges)
      throw ServiceError(ErrorCode::kTooLarge,
                         "generated graph too large (" +
                             std::to_string(vertices) + " vertices, " +
                             std::to_string(edges) + " edges)");
  };
  try {
    if (family == "cycle") return graph::cycle(arg(0));
    if (family == "path") return graph::path(arg(0));
    if (family == "complete") {
      const int n = arg(0);
      if (n > 2048) bad("complete graph too large (n > 2048)");
      return graph::complete(n);
    }
    if (family == "torus") {
      const long long a = arg(0), b = arg(1);
      check_instance(a * b, 2 * a * b);
      return graph::torus({static_cast<int>(a), static_cast<int>(b)});
    }
    if (family == "hypercube") {
      const int d = arg(0);
      if (d > 20) bad("hypercube dimension too large (d > 20)");
      return graph::hypercube(d);
    }
    if (family == "petersen") return graph::petersen();
    if (family == "gp") {
      const long long n = arg(0);
      check_instance(2 * n, 3 * n);
      return graph::generalized_petersen(arg(0), arg(1));
    }
    if (family == "grid") {
      const long long rows = arg(0), cols = arg(1);
      check_instance(rows * cols, 2 * rows * cols);
      return graph::grid(static_cast<int>(rows), static_cast<int>(cols));
    }
    if (family == "lift") {
      // Random lift of the a x b torus: args [a, b, layers, seed].  Shared
      // generator with lapx_cli graph-convert --family torus --lift, so an
      // in-memory session of this family is bit-identical to the ooc file
      // of the same parameters (the CI smoke's transcript-diff pair).
      const long long a = arg(0), b = arg(1), layers = arg(2);
      check_instance(a * b * layers, 2 * a * b * layers);
      return graph::lifted_torus(
          static_cast<int>(a), static_cast<int>(b), static_cast<int>(layers),
          args.size() > 3 ? static_cast<std::uint64_t>(args[3]) : 1);
    }
    if (family == "regular") {
      const long long n = arg(0), d = arg(1);
      check_instance(n, n * d / 2);
      std::mt19937_64 rng(args.size() > 2 ? static_cast<std::uint64_t>(args[2])
                                          : 1);
      return graph::random_regular(static_cast<graph::Vertex>(n),
                                   static_cast<int>(d), rng);
    }
  } catch (const ServiceError&) {
    throw;
  } catch (const std::exception& e) {
    bad(std::string("generate failed: ") + e.what());
  }
  bad("unknown family: " + family);
}

graph::Graph parse_uploaded_graph(const Request& req) {
  const std::string text = string_field(req, "edges");
  graph::EdgeListLimits limits;
  limits.max_vertices = kMaxServiceVertices;
  limits.max_edges = kMaxServiceEdges;
  try {
    return graph::graph_from_edge_list(text, limits);
  } catch (const std::exception& e) {
    bad(e.what());
  }
}

std::vector<graph::EdgeEdit> parse_edge_edits(const Request& req) {
  constexpr std::size_t kMaxEditBatch = 4096;
  const Json* edits = req.body.find("edits");
  if (edits == nullptr || !edits->is_array())
    bad("missing array field \"edits\"");
  if (edits->items().empty()) bad("field \"edits\" must be non-empty");
  if (edits->items().size() > kMaxEditBatch)
    throw ServiceError(ErrorCode::kTooLarge,
                       "edit batch too large (> " +
                           std::to_string(kMaxEditBatch) + ")");
  std::vector<graph::EdgeEdit> out;
  out.reserve(edits->items().size());
  for (const Json& e : edits->items()) {
    if (!e.is_object()) bad("each edit must be an object");
    const Json* op = e.find("op");
    if (op == nullptr || !op->is_string())
      bad("edit missing string field \"op\"");
    graph::EdgeEdit edit;
    if (op->as_string() == "add") {
      edit.kind = graph::EdgeEdit::Kind::kAdd;
    } else if (op->as_string() == "remove") {
      edit.kind = graph::EdgeEdit::Kind::kRemove;
    } else {
      bad("edit op must be \"add\" or \"remove\"");
    }
    for (const char* key : {"u", "v"}) {
      const Json* c = e.find(key);
      if (c == nullptr || !c->is_int())
        bad(std::string("edit missing integer field \"") + key + "\"");
      if (c->as_int() < 0 || c->as_int() > kMaxServiceVertices)
        bad(std::string("edit endpoint \"") + key + "\" out of range");
      (key[0] == 'u' ? edit.u : edit.v) =
          static_cast<graph::Vertex>(c->as_int());
    }
    out.push_back(edit);
  }
  return out;
}

}  // namespace lapx::service
