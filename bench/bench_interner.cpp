// E21 -- the TypeInterner's concurrent hit path.  Refinement rounds
// re-derive mostly-unchanged node tuples, so the interner's dominant
// operation is a lookup of an already-interned key from many threads at
// once.  The table resolves those with atomic loads only (no lock, no
// allocation; see DESIGN.md, "Interner & batched id assignment"), which
// is what lets Phase A of the refinement engine's
// two-phase pattern fan out across LAPX_THREADS.  The table measures
// hit-path throughput scaling with raw std::thread workers (not the pool:
// the subject is the interner); its working-set row re-probes a few
// hundred keys over and over, as a lift's refine rounds do, which the
// per-thread node memo answers.  Its memory rows intern 2^20 node keys
// into a fresh interner: the heap bytes that costs per id (gated), and
// the cost of a hit that misses the node memo over that table (timed
// only).
// The batched-miss microbench times the two-phase pattern itself against
// a fully serial interning pass while asserting both allocate
// byte-identical ids.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "lapx/core/interner.hpp"

namespace {

using namespace lapx;
using core::TypeId;

constexpr std::size_t kUniverse = 1u << 15;      // distinct node keys
constexpr std::size_t kLookupsPerThread = 1u << 18;

// Interns the bench universe: kUniverse single-child view nodes with
// synthetic child ids.  Deterministic, so every interner in the table
// allocates the identical id sequence.
std::vector<TypeId> intern_universe(core::TypeInterner& interner) {
  std::vector<TypeId> ids(kUniverse);
  for (std::uint32_t i = 0; i < kUniverse; ++i) {
    const TypeId child = i;
    ids[i] = interner.intern_node(core::type_tag::kViewNode, &child, 1);
  }
  return ids;
}

// Runs body(t) for t < threads on raw std::threads released together,
// timed as phase `name`; returns the wall seconds from release to join.
template <typename F>
double run_released(const std::string& name, int threads, const F& body) {
  std::atomic<bool> start{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!start.load(std::memory_order_acquire)) {
      }
      body(t);
    });
  }
  while (ready.load() != threads) {
  }
  bench::phase(name);
  const auto t0 = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  return bench::seconds_since(t0);
}

// The working set: 256 node keys of 1-6 children (the node memo's
// range) plus 8 of 7 (the framed path), the size of the type set a lift's
// refine rounds re-probe.
struct NodeKey {
  std::uint64_t tag;
  std::vector<TypeId> children;
};
std::vector<NodeKey> working_set() {
  std::mt19937_64 rng(223);
  std::vector<NodeKey> keys;
  for (std::uint32_t i = 0; i < 264; ++i) {
    NodeKey key{core::type_tag::kViewNode,
                {static_cast<TypeId>(kUniverse + i)}};
    const std::uint32_t n = i < 256 ? 1 + i % 6 : 7;
    while (key.children.size() < n)
      key.children.push_back(static_cast<TypeId>(rng() % kUniverse));
    keys.push_back(std::move(key));
  }
  return keys;
}

// The memory rows: 2^20 node keys of 1-4 children into a fresh interner
// (slot tables, retired ones included, record pointers and spelling
// records), then one thread re-probes them all in a scattered order, so
// nearly every probe misses the per-thread node memo and reads the table
// and a spelling record cold.  Returns false if a probe got a wrong id.
bool print_memory_rows() {
  constexpr TypeId kKeys = TypeId{1} << 20;
  const auto key_children = [](TypeId k, TypeId* children) {
    for (TypeId c = 0; c < 4; ++c) children[c] = k + c;
    return 1 + k % 4;
  };
  bench::phase("memory_inserts");
  const std::size_t before = bench::heap_in_use();
  auto interner = std::make_unique<core::TypeInterner>();
  TypeId children[4];
  for (TypeId k = 0; k < kKeys; ++k)
    interner->intern_node(core::type_tag::kViewNode, children,
                          key_children(k, children));
  const std::size_t after = bench::heap_in_use();
  const std::size_t grown = after > before ? after - before : 0;
  const double bytes_per_id =
      static_cast<double>(grown) / static_cast<double>(interner->size());

  // k * odd mod 2^20 visits every key once, scattered over the table.
  bench::phase("cold_hits");
  const auto t0 = std::chrono::steady_clock::now();
  bool ok = true;
  for (TypeId i = 0; i < kKeys; ++i) {
    const TypeId k = (i * 0x9E3779B1u) & (kKeys - 1);
    const std::size_t n = key_children(k, children);
    ok &= interner->try_intern_node(core::type_tag::kViewNode, children,
                                    n) == k;
  }
  const double cold_ns = bench::seconds_since(t0) * 1e9 / kKeys;
  bench::phase("memory_release");
  interner.reset();

  bench::print_row({"2^20 node keys", "heap B/id", "B/id gate",
                    "cold hit ns", "ids ok"});
  bench::print_row({"1-4 children", grown > 0 ? bench::fmt(bytes_per_id, 1)
                                              : "n/a",
                    "<= 80", bench::fmt(cold_ns, 0), ok ? "yes" : "NO"});
  if (grown > 0)
    bench::check(bytes_per_id <= 80.0,
                 "2^20 interned node keys of 1-4 children cost <= 80 heap "
                 "bytes per id (mallinfo2 uordblks + hblkhd)");
  return ok;
}

void print_hit_path_table() {
  bench::print_header(
      "E21: interner hit-path throughput",
      "already-interned node keys resolve with atomic loads only -- no "
      "mutex, no allocation -- so lookup throughput should scale "
      "with threads while every thread sees the identical ids");

  core::TypeInterner interner;
  const std::vector<TypeId> ids = intern_universe(interner);
  const std::size_t universe_distinct = interner.size();

  // Per-thread probe order: distinct deterministic shuffles, so threads
  // collide on slots and memo lines the way refinement workers do.
  std::vector<std::vector<std::uint32_t>> orders;
  for (int t = 0; t < 8; ++t) {
    std::vector<std::uint32_t> order(kUniverse);
    for (std::uint32_t i = 0; i < kUniverse; ++i) order[i] = i;
    std::mt19937_64 rng(211 + t);
    std::shuffle(order.begin(), order.end(), rng);
    orders.push_back(std::move(order));
  }

  bench::print_row({"threads", "time s", "Mlookups/s", "scaling", "ids ok"});
  double throughput_1t = 0.0, throughput_8t = 0.0;
  bool all_ok = true;
  for (const int threads : {1, 2, 4, 8}) {
    std::atomic<bool> ok{true};
    const double s = run_released("hit_path_lookups", threads, [&](int t) {
      const std::vector<std::uint32_t>& order = orders[t];
      bool mine = true;
      for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
        const std::uint32_t x = order[i & (kUniverse - 1)];
        const TypeId child = x;
        const TypeId got =
            interner.try_intern_node(core::type_tag::kViewNode, &child, 1);
        mine &= got == ids[x];
      }
      if (!mine) ok.store(false);
    });
    const double throughput =
        s > 0 ? static_cast<double>(threads) * kLookupsPerThread / s : 0.0;
    if (threads == 1) throughput_1t = throughput;
    if (threads == 8) throughput_8t = throughput;
    all_ok = all_ok && ok.load();
    bench::print_row(
        {std::to_string(threads), bench::fmt(s, 3),
         bench::fmt(throughput / 1e6, 1),
         bench::fmt(throughput_1t > 0 ? throughput / throughput_1t : 0.0, 2) +
             "x",
         ok.load() ? "yes" : "NO"});
  }

  // Working set: every thread walks its own shuffle of the few hundred
  // keys pass after pass, alternating the lock-free probe and intern_node,
  // both of which must keep returning the serially interned ids.
  // Timings go to the phases only.
  const std::vector<NodeKey> keys = working_set();
  std::vector<TypeId> key_ids;
  for (const NodeKey& key : keys)
    key_ids.push_back(interner.intern_node(key.tag, key.children.data(),
                                           key.children.size()));
  constexpr int kPasses = 1024;
  bool working_ok = true;
  for (const int threads : {1, 2, 4, 8}) {
    std::atomic<bool> ok{true};
    run_released("working_set_" + std::to_string(threads) + "t", threads,
                 [&](int t) {
                   std::vector<std::uint32_t> order(keys.size());
                   for (std::uint32_t i = 0; i < order.size(); ++i)
                     order[i] = i;
                   std::mt19937_64 rng(307 + t);
                   std::shuffle(order.begin(), order.end(), rng);
                   bool mine = true;
                   for (int pass = 0; pass < kPasses; ++pass)
                     for (const std::uint32_t k : order) {
                       const NodeKey& key = keys[k];
                       const std::size_t n = key.children.size();
                       const TypeId got =
                           pass % 2 == 0
                               ? interner.try_intern_node(
                                     key.tag, key.children.data(), n)
                               : interner.intern_node(
                                     key.tag, key.children.data(), n);
                       mine &= got == key_ids[k];
                     }
                   if (!mine) ok.store(false);
                 });
    working_ok = working_ok && ok.load();
  }
  all_ok = all_ok && working_ok;
  bench::print_row({"working set", "keys", "passes", "threads", "ids ok"});
  bench::print_row({"", std::to_string(keys.size()), std::to_string(kPasses),
                    "1/2/4/8", working_ok ? "yes" : "NO"});
  all_ok = print_memory_rows() && all_ok;

  bench::value("interner_universe_distinct",
               static_cast<double>(universe_distinct));
  bench::check(all_ok,
               "every concurrent hit-path lookup returned the serially "
               "interned id at every thread count");
  // Wall-clock gate: strict only with >= 8 real cores (on fewer cores the
  // extra threads time the OS scheduler, not the table); elsewhere only
  // require that oversubscription does not fall off a cliff.
  const bool eight_cores = std::thread::hardware_concurrency() >= 8;
  const double scaling =
      throughput_1t > 0 ? throughput_8t / throughput_1t : 0.0;
  bench::check(eight_cores ? scaling >= 3.0 : scaling >= 0.2,
               "hit-path lookup throughput scales >= 3x from 1 to 8 "
               "threads (hardware-gated)");
}

void print_batched_miss_table() {
  bench::print_header(
      "E21b: batched novel-type interning (the two-phase pattern)",
      "workers probe a round's keys lock-free (all miss on novel keys), "
      "then one serial pass interns the misses in canonical order -- ids "
      "must come out byte-identical to a fully serial pass");

  constexpr std::size_t kRounds = 64;
  constexpr std::size_t kPerRound = 2048;

  bench::print_row({"serial s", "two-phase s", "size", "ids equal"});
  // Reference: one serial interning pass.
  core::TypeInterner serial;
  std::vector<TypeId> serial_ids;
  bench::phase("miss_serial");
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kRounds; ++r)
    for (std::uint32_t i = 0; i < kPerRound; ++i) {
      const TypeId child = static_cast<TypeId>(r * kPerRound + i);
      serial_ids.push_back(
          serial.intern_node(core::type_tag::kViewNode, &child, 1));
    }
  const double serial_s = bench::seconds_since(t0);

  // Two-phase: per round, 8 workers probe the round's keys (novel keys
  // miss; repeat keys resolve), then the serial phase interns what is
  // still unresolved, in canonical order.
  core::TypeInterner batched;
  std::vector<TypeId> batched_ids;
  std::vector<TypeId> resolved(kPerRound);
  bench::phase("miss_two_phase");
  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < kPerRound; i += 8) {
          const TypeId child = static_cast<TypeId>(r * kPerRound + i);
          resolved[i] =
              batched.try_intern_node(core::type_tag::kViewNode, &child, 1);
        }
      });
    }
    for (auto& w : workers) w.join();
    for (std::size_t i = 0; i < kPerRound; ++i) {
      const TypeId child = static_cast<TypeId>(r * kPerRound + i);
      batched_ids.push_back(
          resolved[i] != core::kNoType
              ? resolved[i]
              : batched.intern_node(core::type_tag::kViewNode, &child, 1));
    }
  }
  const double two_phase_s = bench::seconds_since(t1);

  const bool equal =
      batched_ids == serial_ids && batched.size() == serial.size();
  bench::print_row({bench::fmt(serial_s, 3), bench::fmt(two_phase_s, 3),
                    std::to_string(serial.size()), equal ? "yes" : "NO"});

  bench::value("interner_miss_rounds_distinct",
               static_cast<double>(serial.size()));
  bench::check(equal,
               "two-phase batched interning allocates ids byte-identical "
               "to a serial pass");
}

void print_tables() {
  print_hit_path_table();
  print_batched_miss_table();
}

void BM_HitPathLookup(benchmark::State& state) {
  static core::TypeInterner interner;
  static const std::vector<TypeId> ids = intern_universe(interner);
  std::uint32_t x = 0;
  for (auto _ : state) {
    const TypeId child = x;
    benchmark::DoNotOptimize(
        interner.try_intern_node(core::type_tag::kViewNode, &child, 1));
    x = (x + 1) & (kUniverse - 1);
  }
}
BENCHMARK(BM_HitPathLookup);

void BM_InternNovel(benchmark::State& state) {
  core::TypeInterner interner;
  std::uint32_t x = 0;
  for (auto _ : state) {
    const TypeId child = x++;
    benchmark::DoNotOptimize(
        interner.intern_node(core::type_tag::kPnNode, &child, 1));
  }
}
BENCHMARK(BM_InternNovel);

}  // namespace

LAPX_BENCH_MAIN(print_tables)
