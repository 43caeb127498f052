// E7 -- Theorem 4.1 / Fact 4.2: the OI -> PO simulation.
//
// For concrete OI algorithms A, the derived PO algorithm B = A(tau* |` W):
//  * agrees with A on >= 1 - eps of the nodes of the homogeneous lift
//    (agreement measured while eps is swept),
//  * produces feasible solutions on the base graph, and
//  * the approximation-ratio inflation (1 - eps |G|)^{-1} vanishes as
//    eps -> 0 -- the chain of inequalities of Section 4.1, measured.

#include <cmath>
#include <random>

#include "bench_common.hpp"
#include "lapx/algorithms/oi.hpp"
#include "lapx/core/sampled.hpp"
#include "lapx/core/simulate.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/group/homogeneous.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/problems/exact.hpp"
#include "lapx/problems/problem.hpp"

namespace {

using namespace lapx;
using order::identity_keys;

void print_wreath_sampled();

void print_tables() {
  bench::print_header(
      "E7: the OI -> PO simulation, Theorem 4.1 / Fact 4.2",
      "B agrees with A on >= 1-eps of lift nodes; B is feasible on G; "
      "ratio(B on G) <= (1 - eps|G|)^{-1} ratio(A)");

  // --- agreement sweep on lifted cycles (vertex problem: local-min IS) ---
  std::printf("A = local-min independent set, base = C7, r = 2:\n");
  bench::print_row({"template m", "agreement A vs B on lift", "1 - 4r/m"});
  const auto ord2 = core::TStarOrder::abelian(1, 2);
  for (int m : {16, 32, 64, 128, 256}) {
    const auto lift = core::ordered_product_lift(
        graph::directed_cycle(m), identity_keys(m), graph::directed_cycle(7));
    const auto report = core::measure_agreement(
        lift.graph, lift.keys, algorithms::local_min_is_oi(), ord2, 2);
    bench::print_row({std::to_string(m), bench::fmt(report.agreement),
                      bench::fmt(1.0 - 8.0 / m)});
  }

  // --- edge problem agreement (EDS greedy + fallback) ---
  std::printf("\nA = EDS greedy+fallback (1 round), base = C9, r = 2:\n");
  bench::print_row({"template m", "edge agreement", "B feasible on base",
                    "ratio(B on base)"});
  for (int m : {24, 48, 96}) {
    const auto g = graph::directed_cycle(9);
    const auto lift = core::ordered_product_lift(graph::directed_cycle(m),
                                                 identity_keys(m), g);
    const auto a = algorithms::eds_greedy_fallback_oi(1);
    const auto report =
        core::measure_edge_agreement(lift.graph, lift.keys, a, ord2, 2);
    const auto b = core::oi_to_po_edges(a, ord2);
    const auto base_bits = core::run_po_edges(g, b, 2);
    const auto underlying = g.underlying_graph();
    const auto sol = problems::edge_solution(base_bits);
    const bool feasible =
        problems::edge_dominating_set().feasible(underlying, sol);
    const double ratio =
        static_cast<double>(sol.size()) /
        static_cast<double>(problems::cycle_min_edge_dominating_set(9));
    bench::print_row({std::to_string(m), bench::fmt(report.agreement),
                      feasible ? "yes" : "NO", bench::fmt(ratio)});
  }

  // --- the measured chain of inequalities (Section 4.1) ---
  std::printf(
      "\nChain |A(lift)| >= (1-eps|G|)|B(lift)| and |B(lift)| = l |B(G)|:\n");
  bench::print_row({"m", "|A(lift)|", "|B(lift)|", "l*|B(G)|", "chain holds"});
  for (int m : {30, 90, 270}) {
    const auto g = graph::directed_cycle(9);
    const auto lift = core::ordered_product_lift(graph::directed_cycle(m),
                                                 identity_keys(m), g);
    const auto a = algorithms::eds_greedy_fallback_oi(1);
    const auto b = core::oi_to_po_edges(a, ord2);
    const auto underlying = lift.graph.underlying_graph();
    const std::size_t a_count =
        problems::edge_solution(core::run_oi_edges(underlying, lift.keys, a, 2))
            .size();
    const std::size_t b_lift = problems::edge_solution(
                                   core::run_po_edges(lift.graph, b, 2))
                                   .size();
    const std::size_t b_base =
        problems::edge_solution(core::run_po_edges(g, b, 2)).size();
    const bool chain = (b_lift == static_cast<std::size_t>(m) * b_base) &&
                       (a_count + 8 * 9 >= b_lift);
    bench::print_row({std::to_string(m), std::to_string(a_count),
                      std::to_string(b_lift), std::to_string(m * b_base),
                      chain ? "yes" : "NO"});
  }

  // --- 2-labelled bases through the toroidal template ---
  std::printf("\nA = local-min IS on 2-labelled base torus(3,4), r = 1:\n");
  bench::print_row({"template", "agreement", "B on base: IS size"});
  const auto ord1 = core::TStarOrder::abelian(2, 1);
  for (int m : {12, 24, 48}) {
    const auto g = graph::directed_torus({3, 4});
    const auto lift = core::ordered_product_lift(
        graph::directed_torus({m, m}), identity_keys(m * m), g);
    const auto report = core::measure_agreement(
        lift.graph, lift.keys, algorithms::local_min_is_oi(), ord1, 1);
    const auto b = core::oi_to_po(algorithms::local_min_is_oi(), ord1);
    const auto base_out = core::run_po(g, b, 1);
    std::size_t is_size = 0;
    for (bool bit : base_out) is_size += bit;
    bench::print_row({std::to_string(m) + "x" + std::to_string(m),
                      bench::fmt(report.agreement), std::to_string(is_size)});
  }
  std::printf(
      "  -> B's independent set on the symmetric base is empty: exactly the\n"
      "     MaxIS inapproximability mechanism (Section 1.4).\n");
  print_wreath_sampled();
}

void print_wreath_sampled() {
  // The genuine Section 5 construction at non-materialisable sizes:
  // sampled Fact 4.2 agreement with |H| = m^7 up to ~10^12.
  std::printf(
      "\nA = local-min IS through the *wreath* template (k=1, r=2), base C7;\n"
      "agreement sampled at 400 virtual lift nodes per row:\n");
  std::mt19937_64 rng(77);
  auto spec = lapx::group::design_homogeneous(1, 2, 4, rng);
  if (!spec) {
    std::printf("  generator search failed\n");
    return;
  }
  bench::print_row({"m", "|H| (virtual)", "sampled agreement",
                    "analytic bound"});
  const auto g = graph::directed_cycle(7);
  for (int m : {8, 16, 32, 64}) {
    spec->m = m;
    const auto ord = core::TStarOrder::wreath(*spec);
    const double agreement = core::sampled_agreement(
        *spec, g, algorithms::local_min_is_oi(), ord, spec->r, 400, rng);
    char size[32];
    std::snprintf(size, sizeof size, "%.2e", std::pow(m, 7.0));
    bench::print_row({std::to_string(m), size, bench::fmt(agreement),
                      bench::fmt(lapx::group::inner_fraction_bound(*spec))});
  }
}

void BM_OiToPoSimulation(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto lift = core::ordered_product_lift(
      graph::directed_cycle(m), identity_keys(m), graph::directed_cycle(7));
  const auto ord = core::TStarOrder::abelian(1, 2);
  const auto b = core::oi_to_po(algorithms::local_min_is_oi(), ord);
  for (auto _ : state) benchmark::DoNotOptimize(core::run_po(lift.graph, b, 2));
}
BENCHMARK(BM_OiToPoSimulation)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

LAPX_BENCH_MAIN(print_tables)
