// E4 -- Figure 6(b): homogeneity of lexicographically ordered toroidal
// grids.  The paper's exact claims: the 6x6 product of directed 6-cycles is
// (4/9, 1)-homogeneous and (1/9, 2)-homogeneous; in general the inner
// fraction follows the (m - 2r)^d / m^d law.

#include <cmath>

#include "bench_common.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/order/homogeneity.hpp"

namespace {

using namespace lapx;
using order::identity_keys;

void print_tables() {
  bench::print_header(
      "E4: torus homogeneity, Figure 6(b)",
      "6x6 torus, lex order: (4/9, 1)- and (1/9, 2)-homogeneous; "
      "general law (m-2r)^d / m^d");

  bench::phase("figure6b_6x6");
  {
    const auto d = graph::directed_torus({6, 6});
    const auto keys = identity_keys(36);
    const auto r1 = order::measure_homogeneity(d, keys, 1);
    const auto r2 = order::measure_homogeneity(d, keys, 2);
    bench::print_row({"radius", "paper", "measured"});
    bench::print_row({"1", bench::fmt(4.0 / 9.0), bench::fmt(r1.fraction)});
    bench::print_row({"2", bench::fmt(1.0 / 9.0), bench::fmt(r2.fraction)});
    // Paper-facing table values: deterministic, gated by the CI bench
    // comparison against the committed baseline.
    bench::value("torus6x6_fraction_r1", r1.fraction);
    bench::value("torus6x6_fraction_r2", r2.fraction);
    bench::check(std::abs(r1.fraction - 4.0 / 9.0) < 1e-12,
                 "6x6 torus is (4/9, 1)-homogeneous (Figure 6b)");
    bench::check(std::abs(r2.fraction - 1.0 / 9.0) < 1e-12,
                 "6x6 torus is (1/9, 2)-homogeneous (Figure 6b)");
  }

  bench::phase("general_law");
  std::printf("\nGeneral law, directed d-dimensional tori (r = 1):\n");
  bench::print_row({"dims", "analytic (m-2)^d/m^d", "measured", "types"});
  for (const auto& dims : std::vector<std::vector<int>>{
           {8}, {16}, {64}, {6, 6}, {10, 10}, {16, 16}, {5, 5, 5}}) {
    const auto d = graph::directed_torus(dims);
    const auto report = order::measure_homogeneity(
        d, identity_keys(d.num_vertices()), 1);
    double analytic = 1.0;
    for (int m : dims) analytic *= static_cast<double>(m - 2) / m;
    std::string name;
    for (std::size_t i = 0; i < dims.size(); ++i)
      name += (i ? "x" : "") + std::to_string(dims[i]);
    bench::print_row({name, bench::fmt(analytic), bench::fmt(report.fraction),
                      std::to_string(report.distinct_types)});
  }

  bench::phase("convergence_in_m");
  std::printf(
      "\nConvergence in m (the eps -> 0 limit of Theorem 3.3), 2-dim:\n");
  bench::print_row({"m", "1 - measured fraction (eps)", "analytic eps"});
  for (int m : {6, 10, 16, 24, 40}) {
    const auto d = graph::directed_torus({m, m});
    const auto report = order::measure_homogeneity(
        d, identity_keys(d.num_vertices()), 1);
    const double analytic =
        1.0 - static_cast<double>((m - 2) * (m - 2)) / (m * m);
    bench::print_row({std::to_string(m), bench::fmt(1.0 - report.fraction),
                      bench::fmt(analytic)});
  }
}

void BM_TorusHomogeneity(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto d = graph::directed_torus({m, m});
  const auto keys = identity_keys(d.num_vertices());
  for (auto _ : state)
    benchmark::DoNotOptimize(order::measure_homogeneity(d, keys, 1));
  state.SetComplexityN(m * m);
}
BENCHMARK(BM_TorusHomogeneity)->Arg(8)->Arg(16)->Arg(32)->Complexity();

}  // namespace

LAPX_BENCH_MAIN(print_tables)
