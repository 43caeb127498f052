#pragma once
// Shared helpers for the experiment binaries.
//
// Every bench binary prints its reproduction table first (the paper claim
// next to the measured value) and then runs google-benchmark timings for
// the performance axis.  Pass --table-only to skip the timing runs (the
// repo-level driver uses the full mode; CI uses --table-only).  Pass
// --json <path> to additionally write the table's wall-clock time and every
// check() verdict as a JSON record, so successive PRs can track the speedup
// trajectory of each experiment.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace lapx::bench {

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%-22s", c.c_str());
  std::printf("\n");
}

inline std::string fmt(double x, int digits = 4) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, x);
  return buf;
}

/// Seconds elapsed on the steady clock since t0.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The median of a non-empty sample; the mean of the middle two when the
/// count is even.
inline double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
}

/// Heap bytes in use: mallinfo2's arena bytes (uordblks) plus its mmapped
/// bytes (hblkhd), allocated pages whether touched or not.  It reads no
/// growth where allocations bypass glibc's malloc (a sanitizer's
/// allocator) and 0 without glibc.
inline std::size_t heap_in_use() {
#ifdef __GLIBC__
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

/// Every check() verdict of the current process, in call order (recorded
/// for the --json report).
inline std::vector<std::pair<std::string, bool>>& check_log() {
  static std::vector<std::pair<std::string, bool>> log;
  return log;
}

inline bool check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "OK" : "MISMATCH", what.c_str());
  check_log().emplace_back(what, ok);
  return ok;
}

/// Deterministic paper-facing values recorded for the --json report (a
/// "values" section keyed by name).  Record only machine-independent
/// quantities -- counts, ratios, table entries -- never timings: the CI
/// bench-regression gate compares these across runs with a tight
/// tolerance, while table_wall_seconds is explicitly excluded.
inline std::vector<std::pair<std::string, double>>& value_log() {
  static std::vector<std::pair<std::string, double>> log;
  return log;
}

inline void value(const std::string& name, double v) {
  value_log().emplace_back(name, v);
}

/// Per-table phase timings, aggregated by name (seconds).  Recorded in the
/// JSON report's "phases" section so perf PRs can attribute wall-time wins
/// to specific tables; like table_wall_seconds these are informational only
/// and never gate (bench_compare.py excludes timings from pass/fail).
inline std::vector<std::pair<std::string, double>>& phase_log() {
  static std::vector<std::pair<std::string, double>> log;
  return log;
}

namespace detail {
struct PhaseState {
  std::string name;  // empty: no phase open
  std::chrono::steady_clock::time_point start;
};
inline PhaseState& phase_state() {
  static PhaseState state;
  return state;
}
inline void close_phase() {
  PhaseState& st = phase_state();
  if (st.name.empty()) return;
  const double secs = seconds_since(st.start);
  auto& log = phase_log();
  for (auto& [name, total] : log)
    if (name == st.name) {
      total += secs;
      st.name.clear();
      return;
    }
  log.emplace_back(st.name, secs);
  st.name.clear();
}
}  // namespace detail

/// Opens a named phase (closing the previous one); run_main closes the last
/// phase when the table finishes.  Repeated names accumulate.
inline void phase(const std::string& name) {
  detail::close_phase();
  detail::phase_state() = {name, std::chrono::steady_clock::now()};
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

inline void write_json_report(const std::string& path, const std::string& name,
                              double table_wall_seconds) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  bool all_ok = true;
  std::fprintf(f, "{\n  \"name\": \"%s\",\n", json_escape(name).c_str());
  std::fprintf(f, "  \"table_wall_seconds\": %.6f,\n", table_wall_seconds);
  // The host the numbers came from; bench_compare.py prints it, never
  // gates on it.
  std::fprintf(f,
               "  \"host\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\"},\n",
               std::thread::hardware_concurrency(),
               json_escape(__VERSION__).c_str(),
               json_escape(LAPX_BENCH_BUILD_TYPE).c_str());
  // Informational like table_wall_seconds: the regression gate never reads
  // timings; the trend report does.
  std::fprintf(f, "  \"phases\": {\n");
  const auto& phases = phase_log();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.6f%s\n", json_escape(phases[i].first).c_str(),
                 phases[i].second, i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"checks\": [\n");
  const auto& log = check_log();
  for (std::size_t i = 0; i < log.size(); ++i) {
    all_ok = all_ok && log[i].second;
    std::fprintf(f, "    {\"what\": \"%s\", \"ok\": %s}%s\n",
                 json_escape(log[i].first).c_str(),
                 log[i].second ? "true" : "false",
                 i + 1 < log.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"values\": {\n");
  const auto& vals = value_log();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.12g%s\n", json_escape(vals[i].first).c_str(),
                 vals[i].second, i + 1 < vals.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"all_ok\": %s\n}\n", all_ok ? "true" : "false");
  std::fclose(f);
}

/// Standard main body: print the table (timed), write the --json report if
/// requested, then (unless --table-only) run the registered google-benchmark
/// timings.  --table-only and --json <path> are stripped before the
/// remaining flags reach google-benchmark.
inline int run_main(int argc, char** argv, void (*print_tables)()) {
  bool table_only = false;
  std::string json_path;
  std::vector<char*> pass_through{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--table-only") == 0) {
      table_only = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      pass_through.push_back(argv[i]);
    }
  }
  const auto start = std::chrono::steady_clock::now();
  print_tables();
  detail::close_phase();
  const double seconds = seconds_since(start);
  if (!json_path.empty()) {
    std::string name = argv[0];
    const auto slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    write_json_report(json_path, name, seconds);
  }
  if (table_only) return 0;
  int pass_argc = static_cast<int>(pass_through.size());
  benchmark::Initialize(&pass_argc, pass_through.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace lapx::bench

#define LAPX_BENCH_MAIN(print_tables)                      \
  int main(int argc, char** argv) {                        \
    return lapx::bench::run_main(argc, argv, print_tables); \
  }
