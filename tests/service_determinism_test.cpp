// Property test for the lapxd determinism invariant: over a randomized
// mix of every query request type, the full response byte stream is
// identical (1) between a cold cache and a warm replay, (2) between
// LAPX_THREADS=1 and =8, and (3) between scheduler executors=1 and =4 --
// the full matrix, pipelined through the response-ordering layer so
// multi-executor runs genuinely compute out of order.  This is the
// contract that makes the result cache sound (a cached payload must be
// the bytes any configuration would have recomputed) and the contract
// that makes executors > 1 observationally invisible.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "lapx/runtime/parallel.hpp"
#include "lapx/service/ordering.hpp"
#include "lapx/service/service.hpp"

namespace {

using lapx::service::ResponseSequencer;
using lapx::service::Service;

// Fixed-seed randomized request mix.  Exact-optimum ops are confined to
// the small graphs so the exponential solvers stay fast; the larger
// graphs (n > 64) exercise the neighbourhood/simulation/LP paths.  PO
// runs classify vertices with the session's RefineState, so they also
// pick the large graphs `views` refines: concurrent views and run share
// one entry's state.
std::vector<std::string> build_mix(std::mt19937& rng, int count) {
  const std::vector<std::string> small = {"pet", "c10"};
  const std::vector<std::string> large = {"t99", "c90"};
  const std::vector<std::string> any = {"pet", "c10", "t99", "c90"};
  const std::vector<std::string> problems = {"vc", "mm", "ds", "eds", "is"};
  const std::vector<std::string> algorithms = {
      "eds-mark-first", "edge-cover", "local-min-is",
      "vc-non-min",     "eds-greedy", "even-min-is"};
  auto pick = [&rng](const std::vector<std::string>& v) {
    return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(rng)];
  };
  std::vector<std::string> reqs;
  reqs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int op = std::uniform_int_distribution<int>(0, 5)(rng);
    const int radius = std::uniform_int_distribution<int>(1, 2)(rng);
    std::string req = "{\"id\":" + std::to_string(i) + ",";
    switch (op) {
      case 0:
        req += "\"op\":\"analyze\",\"graph\":\"" + pick(large) + "\"";
        break;
      case 1:
        req += "\"op\":\"homogeneity\",\"graph\":\"" + pick(large) +
               "\",\"radius\":" + std::to_string(radius);
        break;
      case 2:
        req += "\"op\":\"views\",\"graph\":\"" + pick(large) +
               "\",\"radius\":" + std::to_string(radius);
        break;
      case 3:
        req += "\"op\":\"optimum\",\"graph\":\"" + pick(small) +
               "\",\"problem\":\"" + pick(problems) + "\"";
        break;
      case 4: {
        const std::string alg = pick(algorithms);
        const bool po = alg == "eds-mark-first" || alg == "edge-cover";
        req += "\"op\":\"run\",\"graph\":\"" + pick(po ? any : small) +
               "\",\"algorithm\":\"" + alg + "\"";
        break;
      }
      default:
        req += "\"op\":\"fractional\",\"graph\":\"" + pick(large) + "\"";
        break;
    }
    req += "}";
    reqs.push_back(std::move(req));
  }
  return reqs;
}

// Pipelined pass: submissions race onto however many executors the
// service has; the sequencer merges completions back into submission
// order.  A bounded window keeps the scheduler queue from rejecting.
std::string run_pass(Service& svc, const std::vector<std::string>& reqs) {
  constexpr std::size_t kWindow = 48;
  ResponseSequencer sequencer;
  std::string bytes;
  for (const std::string& r : reqs) {
    sequencer.enqueue(svc.submit(r));
    if (sequencer.in_flight() >= kWindow) sequencer.drain_one(bytes);
    sequencer.drain_ready(bytes);
  }
  sequencer.drain_all(bytes);
  return bytes;
}

std::string cold_then_warm(int threads, int executors,
                           const std::vector<std::string>& reqs,
                           std::string* warm_out) {
  lapx::runtime::set_thread_count(threads);
  Service::Options opt;
  opt.scheduler.executors = executors;
  Service svc(opt);
  svc.handle(R"({"op":"generate","name":"pet","family":"petersen"})");
  svc.handle(R"({"op":"generate","name":"c10","family":"cycle","args":[10]})");
  svc.handle(R"({"op":"generate","name":"t99","family":"torus","args":[9,9]})");
  svc.handle(R"({"op":"generate","name":"c90","family":"cycle","args":[90]})");
  svc.clear_cache();
  std::string cold = run_pass(svc, reqs);
  *warm_out = run_pass(svc, reqs);
  lapx::runtime::set_thread_count(0);
  return cold;
}

TEST(ServiceDeterminism, ByteIdenticalAcrossCacheThreadsAndExecutors) {
  std::mt19937 rng(20120717);  // PODC'12 vintage, fixed
  const std::vector<std::string> reqs = build_mix(rng, 120);
  // Guard against a vacuous mix: some PO run must share a views graph.
  const auto run_on_large = [](const std::string& r) {
    return r.find(R"("op":"run","graph":"t99")") != std::string::npos ||
           r.find(R"("op":"run","graph":"c90")") != std::string::npos;
  };
  EXPECT_TRUE(std::any_of(reqs.begin(), reqs.end(), run_on_large));

  // The full matrix: executors {1, 4} x LAPX_THREADS {1, 8}.
  std::string reference_cold;
  for (const int executors : {1, 4}) {
    for (const int threads : {1, 8}) {
      std::string warm;
      const std::string cold = cold_then_warm(threads, executors, reqs, &warm);
      // Cold vs warm: a cache hit replays the cold computation's bytes.
      EXPECT_EQ(cold, warm) << "executors=" << executors
                            << " threads=" << threads;
      if (reference_cold.empty()) {
        reference_cold = cold;
        // A mix that silently errored would make every comparison vacuous.
        EXPECT_EQ(cold.find("\"ok\":false"), std::string::npos);
      } else {
        EXPECT_EQ(cold, reference_cold)
            << "executors=" << executors << " threads=" << threads
            << " diverged from executors=1 threads=1";
      }
    }
  }
}

TEST(ServiceDeterminism, RepeatedMixesAgreeAcrossServiceInstances) {
  // Two independently constructed services given the same seed produce
  // the same byte stream: no hidden global state leaks into responses.
  std::mt19937 rng_a(7), rng_b(7);
  const std::vector<std::string> mix_a = build_mix(rng_a, 40);
  const std::vector<std::string> mix_b = build_mix(rng_b, 40);
  ASSERT_EQ(mix_a, mix_b);
  std::string warm_a, warm_b;
  const std::string cold_a = cold_then_warm(2, 2, mix_a, &warm_a);
  const std::string cold_b = cold_then_warm(2, 2, mix_b, &warm_b);
  EXPECT_EQ(cold_a, cold_b);
  EXPECT_EQ(warm_a, warm_b);
}

}  // namespace
