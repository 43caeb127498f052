// E18: incremental delta-refinement -- single-edit requery vs from-scratch.
//
// The paper's locality argument (a vertex's output depends only on its
// radius-r view) makes graph edits cheap: cutting or healing one arc can
// only change view types within distance r of its endpoints, so a session
// that keeps its per-round RefineState re-refines a small frontier instead
// of the whole graph.  This bench measures that claim on two instances:
//
//   * a 2-dimensional torus (the Figure 6(b) playground), and
//   * a large random lift of the directed 3x4 torus -- the instance family
//     the lower-bound machinery actually runs on, and where from-scratch
//     refinement is expensive enough for the delta path to matter.
//
// For every timed edit the delta-refined TypeIds are compared against a
// from-scratch RefineState over the same interner: identity is exact, not
// statistical.  Acceptance asks for >= 5x on the large lift.
//
// The second table drives the in-process lapxd Service with a pipelined
// stream that interleaves `mutate` (cut/heal) with `views`/`analyze`
// requeries at 1 and 4 scheduler executors: the transcripts must be
// byte-identical -- mutations are admin ops resolved inline at submission
// order, so executor width must stay invisible in the bytes.
//
// The third table (E18c) times a session write stage by stage, as
// SessionStore::mutate and the `homogeneity` handler run it, on a lifted
// torus at n = 9 000 and 90 000, under 2-switches (degrees kept) and
// edge moves (two degrees drop): which stages still scale with n.  Its
// hash column patches the parent's content digest, which must equal the
// edited graph's from scratch; its L-digraph column patches the parent's
// at the edit, and every patch must equal a fresh to_ldigraph; its derive
// column derives the child inside the parent's buffers.  On 2-switches
// the hash stage at 90 000 may cost at most 2x the one at 9 000.  Its
// release column frees the parent epoch's Graph and LDigraph,
// as the store does when a write displaces an entry.  Its last two
// columns are the homogeneity r=1 requery from scratch and from the
// ordered-ball classes the child takes over, re-typed on the edit's ball
// frontier only; the fork must report the same and be >= 5x faster.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/mutation.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/runtime/parallel.hpp"
#include "lapx/service/ordering.hpp"
#include "lapx/service/service.hpp"
#include "lapx/service/session_store.hpp"

namespace {

using lapx::bench::check;
using lapx::bench::fmt;
using lapx::bench::median;
using lapx::bench::phase;
using lapx::bench::print_header;
using lapx::bench::print_row;
using lapx::bench::seconds_since;
using lapx::bench::value;
using lapx::core::RefineState;
using lapx::core::TypeInterner;
using lapx::graph::Arc;
using lapx::graph::EdgeEdit;
using lapx::graph::Graph;
using lapx::graph::LDigraph;
using lapx::service::ResponseSequencer;
using lapx::service::Service;

struct EditTrialResult {
  double delta_seconds = 0.0;  // median per timed edit
  double full_seconds = 0.0;   // median over the paired from-scratch runs
  bool ids_identical = true;   // delta vs scratch, every edit
  std::size_t last_dirty = 0;
  std::size_t last_frontier = 0;
  int edits = 0;
};

// Rebuilds `g` in place with `arc` cut from its arc list, or appended to
// it when healing -- the order a remove-then-re-add edit leaves behind.
void toggle_arc(LDigraph& g, const Arc& arc, bool healing) {
  std::vector<Arc> arcs = g.arcs();
  if (healing)
    arcs.push_back(arc);
  else
    std::erase(arcs, arc);
  g = LDigraph::from_arcs(g.num_vertices(), g.alphabet_size(), std::move(arcs));
}

// Alternating cut/heal single-arc edits: each timed step removes (or
// re-adds) one deterministically chosen arc, delta-refines the persistent
// state, and races a from-scratch refinement of the same graph over the
// same (warm) interner.  Warmth is symmetric: both paths see an interner
// that already holds every type of the unedited graph, so the ratio
// isolates the frontier restriction rather than hash-table cold-start.
// The first cut/heal pair is an untimed warm-up (it faults in the pages
// of the derived state's tables) and the timed edits are summarized by
// their medians, so one scheduler hiccup cannot flip the gated ratio.
EditTrialResult run_edit_trial(LDigraph g, int radius, int pairs,
                               std::uint64_t seed) {
  EditTrialResult out;
  TypeInterner interner;
  RefineState state(g, interner, /*keep_rounds=*/true);
  state.types_at(radius);  // prime: the session's existing refinement
  std::mt19937_64 rng(seed);
  std::vector<double> delta_times, full_times;
  for (int p = 0; p < pairs + 1; ++p) {
    const bool warmup = p == 0;
    const Arc cut = g.arcs()[rng() % g.arcs().size()];
    for (const bool healing : {false, true}) {
      toggle_arc(g, cut, healing);

      phase("delta-requery");
      auto t0 = std::chrono::steady_clock::now();
      const RefineState::DeltaStats st = state.refine_delta(g);
      const std::vector<lapx::core::TypeId> delta_ids = state.types_at(radius);
      if (!warmup) delta_times.push_back(seconds_since(t0));

      phase("full-refine");
      t0 = std::chrono::steady_clock::now();
      RefineState scratch(g, interner);
      const std::vector<lapx::core::TypeId>& full_ids =
          scratch.types_at(radius);
      if (!warmup) full_times.push_back(seconds_since(t0));

      out.ids_identical = out.ids_identical && delta_ids == full_ids;
      out.last_dirty = st.dirty_vertices;
      out.last_frontier = st.frontier_vertices;
      if (!warmup) ++out.edits;
    }
  }
  out.delta_seconds = median(std::move(delta_times));
  out.full_seconds = median(std::move(full_times));
  return out;
}

void print_edit_table() {
  print_header("E18  incremental delta-refinement: edit + requery",
               "an edit changes view types only within radius r of its "
               "endpoints; re-refining that frontier beats from-scratch "
               "refinement >= 5x on the large lift");
  constexpr int kRadius = 3;
  constexpr int kPairs = 4;  // cut+heal pairs => 2*kPairs timed edits each

  struct Instance {
    const char* name;
    LDigraph graph;
    bool gate;  // acceptance gates on the large lift only
  };
  std::mt19937_64 lift_rng(2012);  // PODC'12 -- fixed so values stay stable
  std::vector<Instance> instances;
  instances.push_back(
      {"torus 24x24",
       lapx::graph::to_ldigraph(lapx::graph::torus({24, 24})), false});
  instances.push_back(
      {"lift 2000x(3x4)",
       lapx::graph::random_lift(lapx::graph::directed_torus({3, 4}), 2000,
                                lift_rng)
           .graph,
       true});

  print_row({"instance", "n", "arcs", "full ms/edit", "delta ms/edit",
             "speedup", "frontier"});
  for (Instance& inst : instances) {
    const auto n = inst.graph.num_vertices();
    const auto arcs = inst.graph.num_arcs();
    const EditTrialResult res =
        run_edit_trial(std::move(inst.graph), kRadius, kPairs, 42);
    const double per_full = res.full_seconds * 1e3;
    const double per_delta = res.delta_seconds * 1e3;
    const double speedup =
        res.delta_seconds > 0 ? res.full_seconds / res.delta_seconds : 0.0;
    print_row({inst.name, std::to_string(n), std::to_string(arcs),
               fmt(per_full, 3), fmt(per_delta, 3), fmt(speedup, 1) + "x",
               std::to_string(res.last_frontier) + "/" + std::to_string(n)});
    const std::string tag = inst.gate ? "lift" : "torus";
    check(res.ids_identical,
          "delta TypeIds byte-identical to from-scratch (" + tag + ", " +
              std::to_string(res.edits) + " edits, r=" +
              std::to_string(kRadius) + ")");
    if (inst.gate)
      check(speedup >= 5.0,
            "single-edit requery >= 5x full recompute (large lift)");
    // The frontier is a deterministic function of graph + seed + radius;
    // the timings are not and stay out of the gated values.
    value(tag + "_last_dirty", static_cast<double>(res.last_dirty));
    value(tag + "_last_frontier", static_cast<double>(res.last_frontier));
    value(tag + "_edits", static_cast<double>(res.edits));
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Service transcripts: mutate + requery across executor widths.

// A torus edge by index, from the same generator the service uses, so the
// mutate requests below are valid without asking the daemon.
std::vector<std::string> mutate_requery_stream() {
  const auto edges = lapx::graph::torus({8, 8}).edges();
  std::vector<std::string> reqs;
  int id = 1;
  auto add = [&](const std::string& body) {
    reqs.push_back("{\"id\":" + std::to_string(id++) + "," + body + "}");
  };
  add(R"("op":"generate","name":"g","family":"torus","args":[8,8])");
  for (int k = 0; k < 6; ++k) {
    const auto [u, v] = edges[static_cast<std::size_t>(k * 17 + 3) %
                              edges.size()];
    const std::string uv =
        "\"u\":" + std::to_string(u) + ",\"v\":" + std::to_string(v);
    add(R"("op":"views","graph":"g","radius":2)");
    add(R"("op":"homogeneity","graph":"g","radius":1)");
    add(R"("op":"mutate","name":"g","edits":[{"op":"remove",)" + uv + "}]");
    add(R"("op":"views","graph":"g","radius":2)");
    add(R"("op":"analyze","graph":"g")");
    add(R"("op":"mutate","name":"g","edits":[{"op":"add",)" + uv + "}]");
    add(R"("op":"views","graph":"g","radius":2)");
  }
  add(R"("op":"session_info")");
  return reqs;
}

std::string run_transcript(int executors, const std::vector<std::string>& reqs) {
  Service::Options opt;
  opt.scheduler.executors = executors;
  Service svc(opt);
  std::string bytes;
  ResponseSequencer sequencer;
  constexpr std::size_t kWindow = 16;
  for (const std::string& r : reqs) {
    sequencer.enqueue(svc.submit(r));
    if (sequencer.in_flight() >= kWindow) sequencer.drain_one(bytes);
    sequencer.drain_ready(bytes);
  }
  sequencer.drain_all(bytes);
  return bytes;
}

void print_transcript_table() {
  print_header("E18b lapxd mutate/requery transcripts vs executor width",
               "mutations are inline admin ops and queries pin their epoch "
               "at submission, so transcripts are byte-identical at any "
               "executor count");
  phase("service-transcript");
  // Pin the pool: the axis under test is the scheduler width.
  lapx::runtime::set_thread_count(1);
  const std::vector<std::string> reqs = mutate_requery_stream();
  std::printf("stream: %zu requests (6 cut/heal mutate pairs interleaved "
              "with views/homogeneity/analyze requeries)\n\n",
              reqs.size());
  const std::string t1 = run_transcript(1, reqs);
  const std::string t4 = run_transcript(4, reqs);
  lapx::runtime::set_thread_count(0);
  print_row({"executors", "transcript bytes"});
  print_row({"1", std::to_string(t1.size())});
  print_row({"4", std::to_string(t4.size())});
  std::printf("\n");
  check(!t1.empty() && t1 == t4,
        "mutate/requery transcript byte-identical at executors 1 vs 4");
  check(t1.find("\"error\"") == std::string::npos,
        "no error envelopes in the mutate/requery stream");
  value("transcript_requests", static_cast<double>(reqs.size()));
  value("transcript_bytes", static_cast<double>(t1.size()));
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// E18c: the write path, stage by stage.

// A degree-preserving 2-switch: remove (a,b), (c,d); add (a,c), (b,d).
// Every degree stays, so the port alphabet does too.
std::vector<EdgeEdit> two_switch(const Graph& g, std::mt19937_64& rng) {
  const auto& edges = g.edges();
  for (;;) {
    auto [a, b] = edges[rng() % edges.size()];
    auto [c, d] = edges[rng() % edges.size()];
    if (rng() & 1) std::swap(a, b);
    if (rng() & 1) std::swap(c, d);
    if (a == c || a == d || b == c || b == d) continue;
    if (g.has_edge(a, c) || g.has_edge(b, d)) continue;
    return {{EdgeEdit::Kind::kRemove, a, b},
            {EdgeEdit::Kind::kRemove, c, d},
            {EdgeEdit::Kind::kAdd, a, c},
            {EdgeEdit::Kind::kAdd, b, d}};
  }
}

// Moves one end of an edge onto another edge's end: removes {a, b} and
// {c, d}, adds {a, c}.  a and c keep their degrees, b and d lose one, so
// offsets move but the maximum degree (and so every port label) stays.
std::vector<EdgeEdit> edge_move(const Graph& g, std::mt19937_64& rng) {
  std::vector<EdgeEdit> batch = two_switch(g, rng);
  batch.pop_back();
  return batch;
}

bool same_digraph(const LDigraph& a, const LDigraph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.alphabet_size() != b.alphabet_size() || a.arcs() != b.arcs())
    return false;
  for (lapx::graph::Vertex v = 0; v < a.num_vertices(); ++v)
    if (!std::ranges::equal(a.out_arcs(v), b.out_arcs(v)) ||
        !std::ranges::equal(a.in_arcs(v), b.in_arcs(v)))
      return false;
  return true;
}

// The stages of one write, in the order SessionStore::mutate runs them
// (hash: the parent's content digest patched at the leaves the edit
// rewrote; ldigraph: the edit's frontier and the parent's L-digraph
// patched at it; derive: the child RefineState derived inside its
// parent's buffers, seeded from that frontier; release: freeing the
// parent epoch's Graph and LDigraph once the child is installed), then
// the homogeneity r=1 requery, from scratch and from the classes the
// child takes over (ball frontier, re-type, report); medians in ms over
// the edits.
enum Stage {
  kCopy,
  kHash,
  kLDigraph,
  kDerive,
  kRelease,
  kHomogeneity,
  kHomogeneityFork,
  kStages
};
constexpr const char* kStageNames[kStages] = {
    "copy",    "hash",        "ldigraph",        "derive",
    "release", "homogeneity", "homogeneity-fork"};

struct WritePathResult {
  lapx::graph::Vertex n = 0;
  std::size_t arcs = 0;
  int edits = 0;
  bool degree_changing = false;
  double median_ms[kStages] = {};
  bool ldigraph_matches_general = false;
  bool patched_ldigraph_matches = true;
  bool delta_matches_scratch = false;
  bool hashes_match_store = true;
  bool homogeneity_fork_matches = true;
};

WritePathResult run_write_path(int layers, int edits, std::uint64_t seed,
                               bool degree_changing) {
  constexpr int kRadius = 3;
  const std::string size =
      std::to_string(9 * layers) + (degree_changing ? "-move" : "");
  phase("write-" + size + "-setup");
  WritePathResult out;
  Graph g = lapx::graph::lifted_torus(3, 3, layers, 7);
  out.n = g.num_vertices();
  out.edits = edits;
  out.degree_changing = degree_changing;
  lapx::service::ContentDigest digest(g);
  TypeInterner interner;
  auto ld = std::make_unique<LDigraph>(lapx::graph::to_ldigraph(g));
  out.arcs = ld->num_arcs();
  RefineState state(*ld, interner, /*keep_rounds=*/true);
  state.types_at(kRadius);  // the session's materialized refinement
  // The store serves the content-hash check: its entries stay lazy (no
  // refinement), so mutate costs it only the copy, edits and hashes.
  lapx::service::SessionStore store;
  store.put("g", g);
  const lapx::order::Keys keys = lapx::order::identity_keys(out.n);
  // The session's homogeneity r=1 classes, forked along with the state.
  lapx::order::OrderedBallClasses classes(g, keys, 1, interner);
  std::mt19937_64 rng(seed);
  std::vector<double> ms[kStages];
  auto timed = [&](Stage stage, auto&& body) {
    phase("write-" + size + "-" + kStageNames[stage]);
    const auto t0 = std::chrono::steady_clock::now();
    body();
    ms[stage].push_back(seconds_since(t0) * 1e3);
  };
  for (int e = 0; e < edits; ++e) {
    const std::vector<EdgeEdit> batch =
        degree_changing ? edge_move(g, rng) : two_switch(g, rng);
    Graph next;
    timed(kCopy, [&] { next = g; });
    const std::vector<lapx::graph::EdgeId> rewritten =
        lapx::graph::apply_edits(next, batch);
    std::optional<lapx::service::ContentDigest> patched;
    timed(kHash, [&] { patched.emplace(digest, next, rewritten); });
    const std::string& id = patched->id();
    // As the GraphEntry(prev, edits) constructor runs them: the edit's
    // frontier, the parent's L-digraph patched at it, the child derived
    // from it.
    std::vector<lapx::graph::Vertex> frontier;
    std::unique_ptr<LDigraph> next_ld;
    timed(kLDigraph, [&] {
      frontier = lapx::graph::affected_frontier(next, batch, 1);
      next_ld = std::make_unique<LDigraph>(
          lapx::graph::to_ldigraph(next, *ld, batch, frontier));
    });
    std::unique_ptr<RefineState> derived;
    timed(kDerive, [&] {
      derived =
          std::make_unique<RefineState>(std::move(state), *next_ld, frontier);
    });
    lapx::order::HomogeneityReport scratch, forked_report;
    timed(kHomogeneity, [&] {
      scratch = lapx::order::measure_homogeneity(next, keys, 1);
    });
    // As the GraphEntry(prev, edits) constructor and the handler run it.
    std::optional<lapx::order::OrderedBallClasses> forked_classes;
    timed(kHomogeneityFork, [&] {
      forked_classes.emplace(std::move(classes));
      forked_classes->retype(next, lapx::order::identity_keys(out.n),
                             lapx::graph::ball_frontier(next, batch, 1));
      forked_report = forked_classes->report();
    });
    out.homogeneity_fork_matches =
        out.homogeneity_fork_matches &&
        forked_report.largest_class == scratch.largest_class &&
        forked_report.distinct_types == scratch.distinct_types &&
        forked_report.fraction == scratch.fraction;
    phase("write-" + size + "-checks");
    out.patched_ldigraph_matches =
        out.patched_ldigraph_matches &&
        same_digraph(*next_ld, lapx::graph::to_ldigraph(next));
    const auto entry = store.mutate("g", batch);
    out.hashes_match_store = out.hashes_match_store && entry &&
                             entry->content_id() == id &&
                             entry->content_hex() == id.substr(0, 16) &&
                             id == lapx::service::graph_content_id(next);
    timed(kRelease, [&] {
      state = std::move(*derived);
      ld = std::move(next_ld);
      g = std::move(next);
    });
    classes = std::move(*forked_classes);
    digest = std::move(*patched);
  }
  phase("write-" + size + "-checks");
  out.ldigraph_matches_general = same_digraph(
      *ld, lapx::graph::to_ldigraph(
               g, lapx::graph::PortNumbering::default_for(g),
               lapx::graph::Orientation::default_for(g), g.max_degree()));
  out.delta_matches_scratch =
      state.types_at(kRadius) == RefineState(*ld, interner).types_at(kRadius);
  for (int s = 0; s < kStages; ++s) out.median_ms[s] = median(ms[s]);
  return out;
}

void print_write_path_table() {
  print_header("E18c write path, stage by stage: copy, content digest "
               "patch, patched L-digraph, derive, release, homogeneity r=1 "
               "from scratch and forked",
               "a view changes only within radius r of an edit, so on "
               "degree-preserving edits (2-switch) the digest patch, the "
               "in-place derive and the forked homogeneity stay local; an "
               "edge move changes degrees, which moves offsets, and the "
               "derive then lays its tables out again in O(n); the Graph "
               "copy and the L-digraph patch are O(n) block copies");
  constexpr int kEdits = 20;
  print_row({"n", "arcs", "edit", "copy ms", "hash ms", "ldigraph ms",
             "derive ms", "release ms", "homog. r=1 ms", "homog. fork ms"});
  std::vector<WritePathResult> results;
  for (const bool degree_changing : {false, true})
    for (const int layers : {1000, 10000}) {
      const WritePathResult& r = results.emplace_back(run_write_path(
          layers, kEdits, 2012 + layers, degree_changing));
      std::vector<std::string> row{std::to_string(r.n), std::to_string(r.arcs),
                                   degree_changing ? "move" : "2-switch"};
      for (double m : r.median_ms) row.push_back(fmt(m, 3));
      print_row(row);
    }
  // The O(edit) stages on 2-switches.  The digest patch is gated at 2x.
  // The derive read 1.5-2.3x on a 4-vCPU host, so it is reported, not
  // gated: its frontier is the same at both sizes, but its reads land in
  // tables ten times larger at 90 000.
  const auto ratio = [&](Stage stage) {
    const double big = results[1].median_ms[stage];
    const double small = results[0].median_ms[stage];
    std::printf("%s stage on 2-switches, 90000 / 9000: %.1fx (%.3f / %.3f ms)\n",
                kStageNames[stage], big / small, big, small);
    return big / small;
  };
  const double hash_ratio = ratio(kHash);
  ratio(kDerive);
  std::printf("homogeneity r=1 from scratch, 90000 / 9000: %.1fx "
              "(%.3f / %.3f ms)\n\n",
              results[1].median_ms[kHomogeneity] /
                  results[0].median_ms[kHomogeneity],
              results[1].median_ms[kHomogeneity],
              results[0].median_ms[kHomogeneity]);
  check(hash_ratio <= 2.0,
        "content digest patch, 90000 / 9000 <= 2x (2-switch edits)");
  for (const WritePathResult& r : results) {
    const std::string n =
        std::to_string(r.n) + (r.degree_changing ? ", edge moves" : "");
    check(r.ldigraph_matches_general,
          "to_ldigraph(g) equals the general path after the edits (n=" + n +
              ")");
    check(r.patched_ldigraph_matches,
          "the patched L-digraph equals to_ldigraph(g') after every edit (n=" +
              n + ")");
    check(r.delta_matches_scratch,
          "delta-forked TypeIds equal a from-scratch refine after the last "
          "edit (n=" + n + ", r=3)");
    check(r.hashes_match_store,
          "mutate's content_id is the patched digest, equal to the edited "
          "graph's from scratch, and content_hex its prefix (n=" + n + ")");
    check(r.homogeneity_fork_matches,
          "forked homogeneity r=1 report equals from-scratch after every "
          "edit (n=" + n + ")");
    check(r.median_ms[kHomogeneityFork] * 5 <= r.median_ms[kHomogeneity],
          "single-edit homogeneity requery >= 5x faster than from scratch "
          "(n=" + n + ")");
    const std::string key =
        std::to_string(r.n) + (r.degree_changing ? "_move" : "");
    value("write_" + key + "_n", static_cast<double>(r.n));
    value("write_" + key + "_arcs", static_cast<double>(r.arcs));
    value("write_" + key + "_edits", static_cast<double>(r.edits));
  }
  std::printf("\n");
}

void print_tables() {
  print_edit_table();
  print_transcript_table();
  print_write_path_table();
}

void BM_DeltaRequery(benchmark::State& state) {
  std::mt19937_64 rng(2012);
  auto lift =
      lapx::graph::random_lift(lapx::graph::directed_torus({3, 4}), 500, rng);
  LDigraph g = std::move(lift.graph);
  TypeInterner interner;
  RefineState st(g, interner, /*keep_rounds=*/true);
  st.types_at(3);
  const Arc cut = g.arcs()[rng() % g.arcs().size()];
  bool present = true;
  for (auto _ : state) {
    toggle_arc(g, cut, !present);
    present = !present;
    st.refine_delta(g);
    benchmark::DoNotOptimize(st.types_at(3));
  }
}
BENCHMARK(BM_DeltaRequery);

void BM_FullRefine(benchmark::State& state) {
  std::mt19937_64 rng(2012);
  auto lift =
      lapx::graph::random_lift(lapx::graph::directed_torus({3, 4}), 500, rng);
  const LDigraph g = std::move(lift.graph);
  TypeInterner interner;
  RefineState(g, interner).types_at(3);  // warm the interner once
  for (auto _ : state) {
    RefineState fresh(g, interner);
    benchmark::DoNotOptimize(fresh.types_at(3));
  }
}
BENCHMARK(BM_FullRefine);

}  // namespace

LAPX_BENCH_MAIN(print_tables)
