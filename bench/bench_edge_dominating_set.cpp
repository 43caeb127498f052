// E9 -- Theorem 1.6 / Section 1.7: the local approximability of minimum
// edge dominating set is exactly 4 - 2/Delta'.
//
//  Upper bound: the PO rule "mark your first incident edge" achieves
//  <= 4 - 2/Delta' on Delta'-regular graphs (measured against exact optima
//  on small instances).
//
//  Lower bound, Delta' = 2 (tight): on the symmetric cycle every radius-r
//  PO algorithm is determined by one mark vector; exhaustive enumeration
//  shows the best feasible behaviour has ratio exactly 3 = 4 - 2/2.
//  The main theorem transfers this to ID: we push a *good* OI algorithm
//  (greedy matching by order + fallback, ratio ~1.6 under random orders)
//  through the OI -> PO simulation and watch it land at ratio 3.
//
//  Lower bound, Delta' = 4: the same exhaustive-behaviour argument on our
//  high-girth 4-regular homogeneous Cayley graph gives a measured lower
//  bound (against a maximal-matching upper bound on OPT, which is sound);
//  the paper's tight 3.5 needs Suomela's [2010] specific worst-case family,
//  which is out of scope here -- see EXPERIMENTS.md.

#include <random>

#include "bench_common.hpp"
#include "lapx/algorithms/oi.hpp"
#include "lapx/algorithms/po.hpp"
#include "lapx/core/simulate.hpp"
#include "lapx/core/synthesis.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/graph/properties.hpp"
#include "lapx/group/homogeneous.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/problems/exact.hpp"
#include "lapx/problems/matching.hpp"
#include "lapx/problems/problem.hpp"

namespace {

using namespace lapx;
using order::identity_keys;

void upper_bound_table() {
  std::printf("Upper bound: PO mark-first-edge on Delta'-regular graphs:\n");
  bench::print_row({"Delta'", "n", "|D|", "OPT", "ratio", "4 - 2/Delta'"});
  std::mt19937_64 rng(9);
  for (int dprime : {2, 4, 6, 8}) {
    const int n = dprime == 2 ? 18 : 14;
    const graph::Graph g = dprime == 2 ? graph::cycle(n)
                                       : graph::random_regular(n, dprime, rng);
    const auto ld = graph::to_ldigraph(g);
    const auto bits =
        core::run_po_edges(ld, algorithms::eds_mark_first_po(), 1);
    const auto sol = problems::edge_solution(bits);
    const bool feasible =
        problems::edge_dominating_set().feasible(g, sol);
    const std::size_t opt = problems::min_edge_dominating_set_size(g);
    const double ratio = static_cast<double>(sol.size()) / opt;
    bench::print_row({std::to_string(dprime), std::to_string(n),
                      std::to_string(sol.size()) + (feasible ? "" : "(!)"),
                      std::to_string(opt), bench::fmt(ratio),
                      bench::fmt(4.0 - 2.0 / dprime)});
  }
}

void cycle_lower_bound_table() {
  std::printf(
      "\nLower bound, Delta' = 2 (exhaustive over PO behaviours on the\n"
      "symmetric cycle; paper: no PO algorithm beats 3):\n");
  bench::print_row({"n", "behaviour", "feasible", "|D|", "ratio"});
  const int n = 60;
  const auto g = graph::directed_cycle(n);
  const auto underlying = g.underlying_graph();
  const std::size_t opt = problems::cycle_min_edge_dominating_set(n);
  double best = 1e18;
  for (int mask = 0; mask < 4; ++mask) {
    const bool mark_in = mask & 1, mark_out = mask & 2;
    const core::EdgePoAlgorithm algo =
        [mark_in, mark_out](const core::ViewTree&) {
          core::EdgeMarksPo marks;
          marks.emplace_back(core::Move{false, 0}, mark_in);
          marks.emplace_back(core::Move{true, 0}, mark_out);
          return marks;
        };
    const auto sol =
        problems::edge_solution(core::run_po_edges(g, algo, 1));
    const bool feasible =
        problems::edge_dominating_set().feasible(underlying, sol);
    const double ratio = static_cast<double>(sol.size()) / opt;
    if (feasible) best = std::min(best, ratio);
    const std::string name = std::string(mark_in ? "pred " : "") +
                             (mark_out ? "succ" : (mark_in ? "" : "none"));
    bench::print_row({std::to_string(n), name.empty() ? "none" : name,
                      feasible ? "yes" : "no", std::to_string(sol.size()),
                      feasible ? bench::fmt(ratio) : "-"});
  }
  std::printf("  best feasible PO ratio: %s   (paper: 3 = 4 - 2/2)\n",
              bench::fmt(best).c_str());
}

void id_transfer_table() {
  std::printf(
      "\nID/OI -> PO transfer (Theorem 1.6 mechanism): the order-greedy EDS\n"
      "algorithm is good under random orders but its PO simulation lands at\n"
      "the tight bound on symmetric cycles:\n");
  bench::print_row({"n", "A + random order", "A + homogeneous order",
                    "B = oi_to_po(A)", "paper bound"});
  const int r = 2;
  const auto ord = core::TStarOrder::abelian(1, r);
  const auto a = algorithms::eds_greedy_fallback_oi(1);
  const auto b = core::oi_to_po_edges(a, ord);
  std::mt19937_64 rng(19);
  for (int n : {30, 90, 300}) {
    const auto g = graph::cycle(n);
    const std::size_t opt = problems::cycle_min_edge_dominating_set(n);
    // random order
    order::Keys random_keys = identity_keys(n);
    std::shuffle(random_keys.begin(), random_keys.end(), rng);
    const double random_ratio =
        static_cast<double>(problems::edge_solution(
                                core::run_oi_edges(g, random_keys, a, r))
                                .size()) /
        opt;
    // homogeneous (aligned) order
    const double aligned_ratio =
        static_cast<double>(problems::edge_solution(
                                core::run_oi_edges(g, identity_keys(n), a, r))
                                .size()) /
        opt;
    // PO simulation on the symmetric cycle
    const auto dg = graph::directed_cycle(n);
    const double po_ratio =
        static_cast<double>(
            problems::edge_solution(core::run_po_edges(dg, b, r)).size()) /
        opt;
    bench::print_row({std::to_string(n), bench::fmt(random_ratio),
                      bench::fmt(aligned_ratio), bench::fmt(po_ratio),
                      bench::fmt(3.0)});
  }
}

void delta4_lower_bound_table() {
  std::printf(
      "\nLower bound, Delta' = 4 (exhaustive over radius-1 PO behaviours on\n"
      "a high-girth 4-regular Cayley graph; ratios certified against the\n"
      "maximal-matching upper bound on OPT):\n");
  std::mt19937_64 rng(21);
  auto spec = group::design_homogeneous(2, 1, 4, rng);
  if (!spec) {
    std::printf("  generator search failed\n");
    return;
  }
  spec->m = 4;
  const auto h = group::materialize_homogeneous(*spec, 1 << 17, true);
  const auto& g = h.digraph;
  const auto underlying = g.underlying_graph();
  // Every node's radius-1 view is the complete 4-regular type, so a PO
  // algorithm is one mark vector over {in0, in1, out0, out1}.
  const auto mm = problems::greedy_maximal_matching(underlying);
  const std::size_t opt_upper =
      std::count(mm.begin(), mm.end(), true);
  double best = 1e18;
  int feasible_count = 0;
  for (int mask = 1; mask < 16; ++mask) {
    const core::EdgePoAlgorithm algo = [mask](const core::ViewTree&) {
      core::EdgeMarksPo marks;
      marks.emplace_back(core::Move{false, 0}, mask & 1);
      marks.emplace_back(core::Move{false, 1}, mask & 2);
      marks.emplace_back(core::Move{true, 0}, mask & 4);
      marks.emplace_back(core::Move{true, 1}, mask & 8);
      return marks;
    };
    const auto sol = problems::edge_solution(core::run_po_edges(g, algo, 1));
    if (!problems::edge_dominating_set().feasible(underlying, sol)) continue;
    ++feasible_count;
    best = std::min(best,
                    static_cast<double>(sol.size()) / opt_upper);
  }
  std::printf(
      "  instance: n=%d girth=%d; %d/15 behaviours feasible;\n"
      "  measured PO lower bound on this instance: ratio >= %s\n"
      "  (paper's tight bound 3.5 needs the dedicated worst-case family)\n",
      g.num_vertices(), graph::girth(g), feasible_count,
      bench::fmt(best).c_str());
}

void circulant_worst_case_search() {
  std::printf(
      "\nWorst-case search, Delta' = 4: on a vertex-transitive Cayley graph\n"
      "of Z_n with S = {a, b}, ALL views coincide at every radius, so any\n"
      "PO algorithm outputs one of {E_a, E_b, E} (the empty marking is\n"
      "infeasible) and its ratio is >= n / OPT.  Searching circulants for\n"
      "the largest forced ratio (paper's supremum over instances: 3.5):\n");
  bench::print_row({"instance", "n", "OPT", "forced ratio n/OPT"});
  double best = 0;
  std::string best_name;
  for (int n = 7; n <= 15; ++n) {
    for (int a = 1; a <= n / 2; ++a) {
      for (int b = a + 1; b <= n / 2; ++b) {
        if (2 * a == n || 2 * b == n) continue;  // keep 4-regular
        graph::Graph g;
        try {
          g = graph::circulant(n, {a, b});
        } catch (const std::exception&) {
          continue;
        }
        if (!g.is_regular(4) || !graph::is_connected(g)) continue;
        const std::size_t opt = problems::min_edge_dominating_set_size(g);
        const double ratio = static_cast<double>(n) / opt;
        if (ratio > best) {
          best = ratio;
          best_name = "C" + std::to_string(n) + "(" + std::to_string(a) +
                      "," + std::to_string(b) + ")";
          bench::print_row({best_name, std::to_string(n), std::to_string(opt),
                            bench::fmt(ratio)});
        }
      }
    }
  }
  std::printf(
      "  best forced PO ratio found: %s on %s (paper supremum: 3.5;\n"
      "  approaching it requires the growing worst-case family of\n"
      "  Suomela [2010] -- see EXPERIMENTS.md)\n",
      bench::fmt(best).c_str(), best_name.c_str());
}

void synthesis_table() {
  std::printf(
      "\nSynthesized optimum (exhaustive over ALL radius-2 PO algorithms on\n"
      "symmetric cycles -- the tight constant computed, not asserted):\n");
  std::vector<graph::LDigraph> instances;
  for (int n : {12, 18, 24, 30}) instances.push_back(graph::directed_cycle(n));
  const auto eds = core::synthesize_po_edges(problems::edge_dominating_set(),
                                             instances, 2);
  const auto vc =
      core::synthesize_po_vertex(problems::vertex_cover(), instances, 2);
  const auto ds =
      core::synthesize_po_vertex(problems::dominating_set(), instances, 2);
  bench::print_row({"problem", "optimal PO ratio", "paper (Delta'=2)"});
  bench::print_row({"edge dominating set", bench::fmt(eds.optimal_ratio),
                    "3 = 4 - 2/2"});
  bench::print_row({"vertex cover", bench::fmt(vc.optimal_ratio), "2"});
  bench::print_row({"dominating set", bench::fmt(ds.optimal_ratio),
                    "3 = Delta' + 1"});
}

void print_tables() {
  bench::print_header(
      "E9: edge dominating sets, Theorem 1.6",
      "local EDS approximability = 4 - 2/Delta' in ID, OI and PO alike");
  upper_bound_table();
  cycle_lower_bound_table();
  id_transfer_table();
  delta4_lower_bound_table();
  circulant_worst_case_search();
  synthesis_table();
}

void BM_EdsMarkFirst(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g = graph::directed_cycle(n);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::run_po_edges(g, algorithms::eds_mark_first_po(), 1));
  state.SetComplexityN(n);
}
BENCHMARK(BM_EdsMarkFirst)->Range(64, 4096)->Complexity();

void BM_ExactEds(benchmark::State& state) {
  std::mt19937_64 rng(23);
  const auto g = graph::random_regular(static_cast<int>(state.range(0)), 3, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(problems::min_edge_dominating_set_size(g));
}
BENCHMARK(BM_ExactEds)->Arg(10)->Arg(14)->Arg(18);

}  // namespace

LAPX_BENCH_MAIN(print_tables)
