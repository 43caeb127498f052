// E6 -- Theorem 3.3 / Figure 7: homogeneous lifts.  For a homogeneous
// template (H, <) and any L-digraph G, the product G_eps = H x G is a lift
// of G (covering map verified), has girth > 2r + 1, and a >= 1 - eps
// fraction of its nodes have ordered r-neighbourhoods isomorphic to
// subtrees of tau*.

#include <cmath>
#include <random>
#include <set>
#include <unordered_map>

#include "bench_common.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/core/simulate.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/properties.hpp"
#include "lapx/group/homogeneous.hpp"
#include "lapx/order/homogeneity.hpp"

namespace {

using namespace lapx;
using order::identity_keys;

// Fraction of lift nodes whose ordered ball embeds into tau*: measured as
// "ordered ball type equals the type of the corresponding tau* subtree",
// which we approximate by tree-ness + agreement of the OI ball with the
// view-derived ball (exact for our purposes: equality of canonical types).
double tree_typed_fraction(const graph::LDigraph& lifted,
                           const order::Keys& keys,
                           const core::TStarOrder& ord, int r) {
  const auto underlying = lifted.underlying_graph();
  // One refinement sweep types every vertex at once.  The simulated tau*
  // ball is a function of the view type alone (view_to_ordered_ball reads
  // only the tree structure and labels), and the direct canonical ball is a
  // function of the interned ordered-ball type alone, so each OI type is
  // materialized once per class instead of once per vertex; equal TypeId
  // <=> equal oi_ball_type string, so the per-vertex verdicts are
  // unchanged.
  const auto view_types = core::bulk_view_type_ids(lifted, r);
  std::unordered_map<core::TypeId, core::TypeId> simulated_by_view;
  std::unordered_map<core::TypeId, core::TypeId> direct_by_ball;
  std::size_t good = 0;
  for (graph::Vertex v = 0; v < lifted.num_vertices(); ++v) {
    auto [sim, sim_new] = simulated_by_view.try_emplace(view_types[v]);
    if (sim_new)
      sim->second = core::oi_ball_type_id(core::canonicalize_oi(
          core::view_to_ordered_ball(core::view(lifted, v, r), ord)));
    const auto ball_type = order::ordered_ball_type_id(underlying, keys, v, r);
    auto [dir, dir_new] = direct_by_ball.try_emplace(ball_type);
    if (dir_new)
      dir->second = core::oi_ball_type_id(
          core::canonicalize_oi(core::extract_ball(underlying, keys, v, r)));
    if (dir->second == sim->second) ++good;
  }
  return static_cast<double>(good) / lifted.num_vertices();
}

void print_tables() {
  bench::print_header(
      "E6: homogeneous lifts, Theorem 3.3 / Figure 7",
      "G_eps is a lift of G; girth > 2r+1; >= 1-eps of nodes have ordered "
      "neighbourhoods isomorphic to subtrees of tau*");

  // --- k = 1 (cycles) at several radii ---
  bench::phase("k1_cycle_templates");
  std::printf("k = 1 templates (directed cycles), base G = directed C7:\n");
  bench::print_row({"m", "r", "covering", "girth", "tau*-subtree frac",
                    "1 - 2r*|G|/|lift| style bound"});
  for (int r : {1, 2, 3}) {
    for (int m : {24, 60, 120}) {
      const auto h = graph::directed_cycle(m);
      const auto g = graph::directed_cycle(7);
      const auto lift = core::ordered_product_lift(h, identity_keys(m), g);
      std::string why;
      const bool covering =
          graph::is_covering_map(lift.graph, g, lift.phi, &why);
      const auto ord = core::TStarOrder::abelian(1, r);
      const double frac = tree_typed_fraction(lift.graph, lift.keys, ord, r);
      bench::print_row({std::to_string(m), std::to_string(r),
                        covering ? "yes" : "NO",
                        std::to_string(graph::girth(lift.graph)),
                        bench::fmt(frac),
                        bench::fmt(1.0 - 2.0 * r / m)});
    }
  }

  // --- k = 2, r = 1: toroidal template (degenerate abelian case) ---
  bench::phase("k2_torus_templates");
  std::printf("\nk = 2 template (lex-ordered torus), base G = torus(3,4):\n");
  bench::print_row({"m", "covering", "girth", "tau*-subtree frac", "bound"});
  for (int m : {8, 16, 32}) {
    const auto h = graph::directed_torus({m, m});
    const auto g = graph::directed_torus({3, 4});
    const auto lift = core::ordered_product_lift(h, identity_keys(m * m), g);
    std::string why;
    const bool covering = graph::is_covering_map(lift.graph, g, lift.phi, &why);
    const auto ord = core::TStarOrder::abelian(2, 1);
    const double frac = tree_typed_fraction(lift.graph, lift.keys, ord, 1);
    const double bound = std::pow(1.0 - 2.0 / m, 2);
    bench::print_row({std::to_string(m), covering ? "yes" : "NO",
                      std::to_string(graph::girth(lift.graph)),
                      bench::fmt(frac), bench::fmt(bound)});
  }

  // --- the paper's wreath template: k = 1, r = 2 ---
  bench::phase("wreath_templates");
  std::printf("\nWreath template (Section 5), k = 1, r = 2, base = C5:\n");
  std::mt19937_64 rng(6);
  auto spec = group::design_homogeneous(1, 2, 4, rng);
  if (spec) {
    bench::print_row({"m", "|H comp|", "covering", "girth", "frac"});
    for (int m : {4, 6}) {
      spec->m = m;
      const auto h = group::materialize_homogeneous(*spec, 1 << 21, true);
      const auto g = graph::directed_cycle(5);
      const auto lift = core::ordered_product_lift(h.digraph, h.keys, g);
      std::string why;
      const bool covering =
          graph::is_covering_map(lift.graph, g, lift.phi, &why);
      const auto ord = core::TStarOrder::wreath(*spec);
      const double frac = tree_typed_fraction(lift.graph, lift.keys, ord, 2);
      bench::print_row({std::to_string(m),
                        std::to_string(h.digraph.num_vertices()),
                        covering ? "yes" : "NO",
                        std::to_string(graph::girth(lift.graph)),
                        bench::fmt(frac)});
    }
  }
}

void BM_ProductLift(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto h = graph::directed_torus({m, m});
  const auto keys = identity_keys(m * m);
  const auto g = graph::directed_torus({3, 4});
  for (auto _ : state)
    benchmark::DoNotOptimize(core::ordered_product_lift(h, keys, g));
}
BENCHMARK(BM_ProductLift)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

LAPX_BENCH_MAIN(print_tables)
